"""Exporters: JSON metrics artifact + Chrome-trace (Perfetto) file.

Both writers take plain data (a registry snapshot, a list of
Chrome-trace event dicts) so they stay decoupled from the live
:mod:`repro.obs` globals — the module facade wires them together, and
tests can exercise them with synthetic inputs.

The Chrome-trace output follows the Trace Event Format (the JSON
object form): a ``traceEvents`` list of ``"X"`` complete events and
``"M"`` metadata events, loadable directly at https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

#: Schema tag stamped into every metrics artifact.
METRICS_SCHEMA = "repro-metrics-v1"


def _atomic_write_json(path: str, payload: Dict[str, Any],
                       compact: bool = False) -> None:
    """Write JSON via a temp file + rename (never a torn artifact).

    ``compact`` drops whitespace — traces carry hundreds of thousands
    of issue events, and pretty-printing triples the file size.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        if compact:
            json.dump(payload, handle, separators=(",", ":"), default=str)
        else:
            json.dump(payload, handle, indent=2, sort_keys=True,
                      default=str)
        handle.write("\n")
    os.replace(tmp, path)


def write_metrics(path: str, snapshot: Dict[str, Any],
                  extra: Optional[Dict[str, Any]] = None) -> str:
    """Write the metrics artifact next to an experiment's outputs.

    ``snapshot`` is :meth:`MetricsRegistry.snapshot` output (counters /
    gauges / histograms); ``extra`` adds top-level sections — the
    callers inject ``overrides`` (effective environment settings,
    :func:`repro.config.overrides`) and cumulative cache
    counters so every artifact is self-describing.
    """
    payload: Dict[str, Any] = {"schema": METRICS_SCHEMA}
    payload.update(snapshot)
    if extra:
        for key, value in extra.items():
            payload[key] = value
    _atomic_write_json(path, payload)
    return path


def write_chrome_trace(path: str, events: List[Dict[str, Any]],
                       metadata: Optional[Dict[str, Any]] = None) -> str:
    """Write a Chrome-trace JSON file from collected events.

    ``events`` is the merged span + foreign-event list
    (:meth:`Tracer.trace_events`); ``metadata`` lands in ``otherData``.
    """
    payload: Dict[str, Any] = {
        "traceEvents": list(events),
        "displayTimeUnit": "ms",
    }
    if metadata:
        payload["otherData"] = dict(metadata)
    _atomic_write_json(path, payload, compact=True)
    return path
