"""Fiduccia-Mattheyses (FM) boundary refinement for bisections.

Standard FM with a lazy-deletion heap: vertices are moved in best-gain
order (each at most once per pass), the best prefix of the move sequence
is kept, and the rest rolled back.  Moves must respect per-constraint
weight caps on the receiving side, which is how the multi-constraint
balance of Sec. IV-C is enforced during refinement.

Mirroring the simulator's issue layer (:mod:`repro.sim.issue`), the
*bookkeeping* — how gains, cut counts, and boundaries are maintained —
lives behind the :class:`RefineStrategy` interface while the selection
loop (:func:`_fm_pass`) is shared, so every strategy makes identical
move decisions:

* :class:`ReferenceRefine` — the golden per-vertex Python model: gains
  are recomputed from incident edges on demand.  Selected by
  ``refine="reference"`` or ``AZUL_PART_REFERENCE=1``.
* ``VectorizedRefine`` (:mod:`repro.hypergraph.refine_vec`, the
  default) — maintained-gain bookkeeping: vectorized cut-count/gain
  init, O(pins touched) delta-gain updates per move on plain-list
  views of the CSR arrays, vectorized boundary extraction.

Both strategies produce bit-identical assignments whenever hyperedge
weights are dyadic rationals (every hypergraph the Azul mapping builds:
integer-valued row/column weights and their coarsened sums), because
then gain arithmetic is exact in either formulation; the deterministic
``(-gain, vertex)`` tie-break does the rest.  This parity is enforced
by ``tests/test_partitioner_equivalence.py``.

New refinement schemes register themselves in :data:`STRATEGIES` (see
``refine_vec`` for the idiom) and become selectable through
``PartitionerOptions(refine=...)`` without touching the other layers.

Layer contract: ``refine`` sits above ``hgraph`` and below
``refine_vec``/``partitioner`` (see ``.importlinter`` and
``tools/check_layers.py``).
"""

from __future__ import annotations

import heapq
import os
from typing import Dict, List, Optional, Type

import numpy as np

from repro.config import ENV_PART_REFERENCE, env_truthy
from repro.hypergraph.hgraph import Hypergraph

#: Environment variable selecting the golden reference refinement
#: (canonical name lives in :mod:`repro.config`; see
#: :func:`repro.config.overrides`).
REFERENCE_ENV = ENV_PART_REFERENCE

#: Registered refinement strategies by name.  ``refine.py`` never
#: imports the modules that populate it (they import *us*): strategies
#: self-register at import time, and the package ``__init__`` imports
#: every strategy module, so the registry is always complete by the
#: time user code runs.
STRATEGIES: Dict[str, Type["RefineStrategy"]] = {}


def register_strategy(cls: Type["RefineStrategy"]) -> Type["RefineStrategy"]:
    """Class decorator: add a strategy to :data:`STRATEGIES`."""
    STRATEGIES[cls.name] = cls
    return cls


def _env_wants_reference() -> bool:
    return env_truthy(os.environ.get(REFERENCE_ENV))


def default_refine_name() -> str:
    """Strategy used when ``refine`` is unset: env override or fast."""
    return "reference" if _env_wants_reference() else "vectorized"


def resolve_refine(name: Optional[str] = None) -> Type["RefineStrategy"]:
    """Map a ``refine`` name (or ``None`` = default) to its strategy."""
    if name is None:
        name = default_refine_name()
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown refine strategy {name!r}; "
            f"choices: {', '.join(sorted(STRATEGIES))}"
        ) from None


class RefineStrategy:
    """Interface: FM bookkeeping for one bisection refinement.

    Subclasses provide :meth:`make_state`; the selection loop is shared
    so strategies differ only in how they maintain gains and counts.
    Strategies keep no cross-call state.
    """

    #: Strategy name this class implements (``refine=`` argument).
    name: str = ""

    def make_state(self, hgraph: Hypergraph,
                   side: np.ndarray) -> "_BisectionState":
        """Build the incremental cut/gain bookkeeping for a bisection."""
        raise NotImplementedError

    def refine(self, hgraph: Hypergraph, side: np.ndarray,
               caps: np.ndarray, passes: int = 2,
               stall_limit: int = 64) -> np.ndarray:
        """Refine a bisection in place; returns the refined side array."""
        state = self.make_state(hgraph, side)
        for _ in range(passes):
            if not _fm_pass(hgraph, state, caps, stall_limit):
                break
        return side


class _BisectionState:
    """Incremental cut/gain bookkeeping for one bisection (reference).

    The per-vertex Python implementation: ``gain`` recomputes from the
    incident edges on demand.  Subclasses (the vectorized strategy)
    override the bookkeeping but must preserve the exact semantics of
    every method — the shared :func:`_fm_pass` depends on it.
    """

    def __init__(self, hgraph: Hypergraph, side: np.ndarray):
        self.hgraph = hgraph
        self.side = side
        self.edge_sizes = hgraph.edge_sizes()
        # Pins of each edge currently on side 0.
        self.count0 = np.zeros(hgraph.n_edges, dtype=np.int64)
        pin_sides = side[hgraph.pins]
        for e in range(hgraph.n_edges):
            start, end = hgraph.edge_ptr[e], hgraph.edge_ptr[e + 1]
            self.count0[e] = int((pin_sides[start:end] == 0).sum())
        self.part_weights = np.zeros((2, hgraph.n_constraints))
        for s in (0, 1):
            members = side == s
            self.part_weights[s] = hgraph.vertex_weights[members].sum(axis=0)

    def gain(self, v: int) -> float:
        """Cut reduction if ``v`` switches sides."""
        s = self.side[v]
        total = 0.0
        for e in self.hgraph.vertex_edges(v):
            e = int(e)
            size = self.edge_sizes[e]
            if size < 2:
                continue  # single-pin edges can never be cut
            on_my_side = self.count0[e] if s == 0 else size - self.count0[e]
            if on_my_side == 1:
                total += self.hgraph.edge_weights[e]  # move uncuts the edge
            elif on_my_side == size:
                total -= self.hgraph.edge_weights[e]  # move cuts the edge
        return total

    def move(self, v: int) -> None:
        """Switch ``v``'s side, updating edge counts and part weights."""
        s = int(self.side[v])
        delta = -1 if s == 0 else 1
        for e in self.hgraph.vertex_edges(v):
            self.count0[int(e)] += delta
        self.part_weights[s] -= self.hgraph.vertex_weights[v]
        self.part_weights[1 - s] += self.hgraph.vertex_weights[v]
        self.side[v] = 1 - s

    def fits_after_move(self, v: int, caps: np.ndarray) -> bool:
        """Whether moving ``v`` keeps the receiving side under its caps."""
        destination = 1 - int(self.side[v])
        new_weight = (
            self.part_weights[destination] + self.hgraph.vertex_weights[v]
        )
        return bool((new_weight <= caps[destination]).all())

    def affected(self, v: int) -> List[int]:
        """Vertices whose gain may change when ``v`` moves.

        The pins of every edge incident to ``v`` (excluding ``v``),
        unique and ascending — the dirty set re-pushed once per move
        wave by :func:`_fm_pass`.
        """
        seen = set()
        for e in self.hgraph.vertex_edges(v):
            for u in self.hgraph.edge_pins(int(e)):
                u = int(u)
                if u != v:
                    seen.add(u)
        return sorted(seen)

    def boundary_vertices(self) -> np.ndarray:
        """Vertices incident to at least one cut edge (ascending)."""
        hgraph = self.hgraph
        sizes = self.edge_sizes
        cut_edges = (self.count0 > 0) & (self.count0 < sizes)
        boundary = np.zeros(hgraph.n_vertices, dtype=bool)
        for e in np.nonzero(cut_edges)[0]:
            boundary[hgraph.edge_pins(int(e))] = True
        return np.nonzero(boundary)[0]


@register_strategy
class ReferenceRefine(RefineStrategy):
    """The golden per-vertex Python FM model.

    Selected by ``refine="reference"`` or ``AZUL_PART_REFERENCE=1``.
    """

    name = "reference"

    def make_state(self, hgraph: Hypergraph,
                   side: np.ndarray) -> _BisectionState:
        return _BisectionState(hgraph, side)


def fm_refine(hgraph: Hypergraph, side: np.ndarray, caps: np.ndarray,
              passes: int = 2, stall_limit: int = 64,
              refine: Optional[str] = None) -> np.ndarray:
    """Refine a bisection in place; returns the refined side array.

    Parameters
    ----------
    side:
        Current 0/1 assignment (modified in place).
    caps:
        ``(2, n_constraints)`` per-side weight ceilings.
    passes:
        Maximum number of full FM passes.
    stall_limit:
        A pass aborts after this many consecutive non-improving moves.
    refine:
        Strategy name; ``None`` resolves the default (``vectorized``
        unless ``AZUL_PART_REFERENCE=1``).
    """
    strategy = resolve_refine(refine)()
    return strategy.refine(
        hgraph, side, caps, passes=passes, stall_limit=stall_limit
    )


def _fm_pass(hgraph: Hypergraph, state: _BisectionState, caps: np.ndarray,
             stall_limit: int) -> bool:
    """One FM pass; returns True if the cut improved.

    Shared by every strategy: the lazy-deletion heap pops the highest
    current gain (ties to the lowest vertex id), stale entries are
    re-pushed with their current gain, and each move re-pushes its
    dirty neighborhood *once* (``state.affected``) instead of flooding
    the heap with one entry per (edge, pin) pair per move — the fix
    for the historical quadratic heap churn on dense edges.
    """
    locked = [False] * hgraph.n_vertices
    heap: List = []
    for v in state.boundary_vertices().tolist():
        heapq.heappush(heap, (-state.gain(v), v))

    moves: List[int] = []
    cumulative = 0.0
    best_cumulative = 0.0
    best_index = 0
    stall = 0

    while heap and stall < stall_limit:
        neg_gain, v = heapq.heappop(heap)
        if locked[v]:
            continue
        gain = state.gain(v)
        if -neg_gain != gain:
            # Stale entry: re-push with the current gain.
            heapq.heappush(heap, (-gain, v))
            continue
        if not state.fits_after_move(v, caps):
            locked[v] = True
            continue
        state.move(v)
        locked[v] = True
        moves.append(v)
        cumulative += gain
        if cumulative > best_cumulative + 1e-12:
            best_cumulative = cumulative
            best_index = len(moves)
            stall = 0
        else:
            stall += 1
        # Neighbor gains changed: one re-push per dirty vertex.
        for u in state.affected(v):
            if not locked[u]:
                heapq.heappush(heap, (-state.gain(u), u))

    # Roll back every move after the best prefix.
    for v in reversed(moves[best_index:]):
        state.move(v)
    return best_cumulative > 0.0
