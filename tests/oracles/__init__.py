"""Golden reference models that the equivalence tests compare against.

Each production layer keeps one implementation in ``src/``.  The
simpler models it replaced live here, so tests and the reference
halves of the ``benchmarks/`` suites can still hold the fast code
equal to them:

* :mod:`tests.oracles.issue` — the per-op PE issue model
  (``PerOpIssue``) and a ``KernelSimulator`` subclass that uses it;
* :mod:`tests.oracles.tables` — the tuple-keyed multicast-plan,
  reduction-parent and remaining-input builders the simulator's
  integer-keyed ``KernelTables`` replaced;
* :mod:`tests.oracles.refine` — the recompute-from-scratch FM
  bookkeeping (``ReferenceBisectionState``);
* :mod:`tests.oracles.lowering` — the per-element dataflow lowering
  (``ReferenceLowering``);
* :mod:`tests.oracles.kernels` — the up-looking row-by-row IC(0)
  attempt, plus a switch onto the per-row triangular solves.

Oracles reach production code only through a subclass or a pytest
``monkeypatch``; nothing under ``src/`` imports this package
(``tools/check_layers.py`` and ``.importlinter`` enforce it).
"""
