"""Experiment harness: one declarative spec per paper table/figure.

Each module registers an :class:`~repro.experiments.spec.ExperimentSpec`
(keyed simulation points + a ``reduce`` into an ``ExperimentResult``)
as its only public name.  The staged executor
(:mod:`repro.experiments.executor`) is the one way a spec runs: it
deduplicates points globally across experiments, checkpoints results
for ``--resume``, and isolates failures.  Drive it via
``python -m repro.experiments.runner`` or, for one experiment,
``run_experiment(id, **overrides)``.
The id index and its lookups (``EXPERIMENTS``, ``load_spec``,
``load_specs``, ``run_experiment``) live in
:mod:`repro.experiments.runner`; the package does not import the
runner, so running it with ``-m`` imports it exactly once.  See
DESIGN.md for the experiment index and docs/experiments.md for the
spec/executor contract.
"""

from repro.experiments.spec import ExperimentPlan, ExperimentSpec, register

__all__ = [
    "ExperimentPlan",
    "ExperimentSpec",
    "register",
]
