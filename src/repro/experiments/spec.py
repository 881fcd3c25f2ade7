"""Declarative experiment specs and the process-wide spec registry.

Each paper table or figure is one registered :class:`ExperimentSpec`.
The staged executor (:mod:`repro.experiments.executor`) is the only
way a spec runs: it builds every selected plan, merges the points of
all experiments into one sweep, and reduces each experiment.
:func:`repro.experiments.runner.run_experiment` runs one experiment
through it.

A spec splits one experiment into two declarative parts:

``points``
    A *cheap* builder product: a ``{key: SimPoint}`` mapping naming
    every steady-state simulation the experiment needs.  Keys are
    human-readable (``"consph/azul"``) and local to the experiment;
    the executor resolves each point to its content-addressed
    simulation cache key, so identical points are deduplicated
    *globally* across every experiment in a run.
``reduce``
    ``reduce(sims) -> ExperimentResult`` where ``sims`` maps each
    point key to its simulation result.  Everything that is not a
    standard sweep point — analytic models, traffic analysis,
    placement-keyed sweeps — lives here.

Builders MUST be cheap: no ``prepare``/``placement``/``simulate``
calls — the executor builds every selected experiment's plan up front
to compute the global sweep (and the ``--plan`` dry-run must never
simulate anything).  Expensive non-point work belongs in ``reduce``.

Every builder declares a ``jobs`` keyword parameter — parallelism is
a uniform part of the spec contract (this replaced the old
``inspect.signature``-based forwarding hack in the runner).  The
executor owns the fan-out of ``points``; ``jobs`` reaches the builder
so ``reduce`` closures can bound their *internal* pools
(placement-keyed sweeps, the partitioner).

Registration::

    from repro.experiments.spec import ExperimentPlan, register

    @register("fig09", title="Dalorex PCG throughput",
              tags=("paper", "figure", "sim", "sweep"))
    def spec(matrices=None, config=None, scale=1, jobs=None):
        session = ExperimentSession(config, scale=scale)
        points = {name: SimPoint(name, mapper="round_robin",
                                 pe="dalorex")
                  for name in matrices or default_matrices()}

        def reduce(sims):
            ...
            return result

        return ExperimentPlan(session=session, points=points,
                              reduce=reduce)

The decorator returns the :class:`ExperimentSpec` (bound to the
module attribute ``spec``, the module's only public name) and
records it in the registry keyed by experiment id.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.perf import ExperimentResult

__all__ = [
    "ExperimentPlan",
    "ExperimentSpec",
    "register",
    "registered_specs",
    "get_registered",
    "unregister",
]

#: ``reduce`` signature: keyed simulation results -> rendered result.
Reducer = Callable[[Mapping[str, Any]], ExperimentResult]


@dataclass
class ExperimentPlan:
    """One built experiment: a session, keyed points, and a reducer.

    Attributes
    ----------
    session:
        The :class:`~repro.experiments.common.ExperimentSession`
        providing defaults (config / scale / preset) for the points
        and the artifact cache everything is keyed through.
    points:
        ``{point_key: SimPoint}``; may be empty for analytic
        experiments.  Point keys are experiment-local labels; the
        executor maps them to global simulation cache keys.
    reduce:
        Turns ``{point_key: simulation result}`` into the final
        :class:`~repro.perf.ExperimentResult`.
    """

    session: Any
    reduce: Reducer
    points: Dict[str, Any] = field(default_factory=dict)
    #: Back-reference filled in by :meth:`ExperimentSpec.plan`.
    spec: Optional["ExperimentSpec"] = None


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: identity, metadata, and plan builder."""

    id: str
    title: str
    tags: Tuple[str, ...]
    builder: Callable[..., ExperimentPlan]
    #: Keyword parameters the builder accepts (overrides vocabulary).
    params: frozenset
    #: Defining module (``repro.experiments.fig09``).
    module: str

    def accepts(self, name: str) -> bool:
        """Whether the builder takes an override named ``name``."""
        return name in self.params

    def check_overrides(self, overrides: Mapping[str, Any]) -> None:
        """Raise ``TypeError`` naming overrides the builder lacks."""
        unknown = sorted(set(overrides) - self.params)
        if unknown:
            raise TypeError(
                f"experiment {self.id!r} does not accept override(s) "
                f"{', '.join(unknown)}; its builder takes "
                f"{', '.join(sorted(self.params))}"
            )

    def plan(self, *, jobs: Optional[int] = None,
             **overrides: Any) -> ExperimentPlan:
        """Build this experiment's plan (cheap; never simulates)."""
        self.check_overrides(overrides)
        plan = self.builder(jobs=jobs, **overrides)
        if not isinstance(plan, ExperimentPlan):
            raise TypeError(
                f"builder of experiment {self.id!r} returned "
                f"{type(plan).__name__}, expected ExperimentPlan"
            )
        plan.spec = self
        return plan

    def describe(self) -> str:
        """One ``--list`` line: id, title, and tags."""
        tags = ",".join(self.tags)
        return f"{self.id:18s} {self.title}  [{tags}]"


#: Experiment id -> spec, populated by importing experiment modules.
_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(experiment_id: str, *, title: str,
             tags: Tuple[str, ...] = ()) -> Callable[
                 [Callable[..., ExperimentPlan]], ExperimentSpec]:
    """Class decorator-factory registering a plan builder as a spec.

    The builder must declare a ``jobs`` keyword parameter (uniform
    parallelism contract).  Returns the :class:`ExperimentSpec`, so
    the decorated name *becomes* the spec object.
    """

    def decorate(builder: Callable[..., ExperimentPlan]) -> ExperimentSpec:
        parameters = inspect.signature(builder).parameters
        if "jobs" not in parameters:
            raise TypeError(
                f"experiment builder for {experiment_id!r} must declare "
                "a 'jobs' parameter (specs declare parallelism "
                "uniformly)"
            )
        previous = _REGISTRY.get(experiment_id)
        if previous is not None and previous.module != builder.__module__:
            raise ValueError(
                f"experiment id {experiment_id!r} already registered "
                f"by {previous.module}"
            )
        spec = ExperimentSpec(
            id=experiment_id,
            title=title,
            tags=tuple(tags),
            builder=builder,
            params=frozenset(parameters),
            module=builder.__module__,
        )
        _REGISTRY[experiment_id] = spec
        return spec

    return decorate


def registered_specs() -> Dict[str, ExperimentSpec]:
    """Snapshot of the registry (id -> spec) at this point in time.

    Only experiments whose modules have been imported appear; use
    :func:`repro.experiments.runner.load_specs` to import-and-list
    the full set.
    """
    return dict(_REGISTRY)


def get_registered(experiment_id: str) -> ExperimentSpec:
    """The registered spec for ``experiment_id`` (KeyError if absent)."""
    return _REGISTRY[experiment_id]


def unregister(experiment_id: str) -> None:
    """Remove one registration (tests registering synthetic specs)."""
    _REGISTRY.pop(experiment_id, None)
