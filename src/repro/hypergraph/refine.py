"""Fiduccia-Mattheyses (FM) boundary refinement for bisections.

Standard FM with a lazy-deletion heap: vertices are moved in best-gain
order (each at most once per pass), the best prefix of the move sequence
is kept, and the rest rolled back.  Moves must respect per-constraint
weight caps on the receiving side, which is how the multi-constraint
balance of Sec. IV-C is enforced during refinement.

The selection loop (:func:`_fm_pass`) runs over a
:class:`_BisectionState` that *maintains* the gains instead of
recomputing them from incident edges on every heap pop:

* **init** — cut counts via one ``bincount`` over the flat pin array
  and a per-vertex ``gains`` array from a single vectorized pass over
  all (edge, pin) incidences.  The results, and the CSR arrays the
  move loop walks, are then converted once to plain Python lists.
* **move** — O(pins touched) delta-gain updates: one scan of the moved
  vertex's incident edges and their pins, adding each closed-form
  delta to a plain list in (edge, pin) order.  A move touches a few
  dozen pins, where a numpy call per step would cost more than the
  arithmetic.
* **gain / fits_after_move / affected** — list lookups: the gain is
  maintained, the part weights are per-constraint lists, and the dirty
  set is the neighbor set the last move already collected.
* **boundary** — vectorized cut-edge masks over ``pin_edge_ids``,
  once per pass.

Because Azul's hypergraphs carry dyadic edge weights (integers and
their coarsened sums), the delta-gain arithmetic is exact, so the
assignments are bit-identical to a golden recompute-from-scratch
bookkeeping kept in ``tests/oracles``; the deterministic
``(-gain, vertex)`` tie-break does the rest.  This parity is enforced
by ``tests/test_partitioner_equivalence.py``.

Layer contract: ``refine`` sits above ``hgraph`` and below
``partitioner`` (see ``.importlinter`` and ``tools/check_layers.py``).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set

import numpy as np

from repro.hypergraph.hgraph import Hypergraph


class _BisectionState:
    """Incremental cut/gain bookkeeping for one bisection.

    The pins of each edge on side 0 and the per-side constraint
    weights are kept as the plain lists ``_count0`` and
    ``_part_weights`` (one row per side), next to the maintained
    per-vertex ``gains`` list; ``side`` is the caller's array, kept in
    step with the list view the move loop reads.
    """

    def __init__(self, hgraph: Hypergraph, side: np.ndarray):
        self.hgraph = hgraph
        self.side = side
        self.edge_sizes = hgraph.edge_sizes()
        pin_edge = hgraph.pin_edge_ids()
        pin_side = side[hgraph.pins]
        # Pins of each edge currently on side 0 (one bincount pass).
        count0 = np.bincount(
            pin_edge,
            weights=(pin_side == 0).astype(np.float64),
            minlength=hgraph.n_edges,
        ).astype(np.int64)
        part_weights = np.zeros((2, hgraph.n_constraints))
        for s in (0, 1):
            members = side == s
            part_weights[s] = hgraph.vertex_weights[members].sum(axis=0)
        # Per-vertex gains from one pass over all (edge, pin) slots:
        # the moved-edge contribution of pin u is +w when u is the lone
        # pin on its side (the move uncuts e) and -w when every pin of
        # e sits on u's side (the move cuts e).
        sz = self.edge_sizes[pin_edge]
        c0 = count0[pin_edge]
        on_my = np.where(pin_side == 0, c0, sz - c0)
        contrib = hgraph.edge_weights[pin_edge] * (
            (on_my == 1).astype(np.float64) - (on_my == sz)
        )
        gains = np.bincount(
            hgraph.pins, weights=contrib, minlength=hgraph.n_vertices
        )
        ve_ptr, ve_ids = hgraph.incidence_arrays()

        # List views the per-move loops index (built once per state).
        self._count0: List[int] = count0.tolist()
        self._part_weights: List[List[float]] = part_weights.tolist()
        self.gains: List[float] = gains.tolist()
        self._side: List[int] = side.tolist()
        self._sizes: List[int] = self.edge_sizes.tolist()
        self._weights: List[float] = hgraph.edge_weights.tolist()
        self._pins: List[int] = hgraph.pins.tolist()
        self._edge_ptr: List[int] = hgraph.edge_ptr.tolist()
        self._ve_ptr: List[int] = ve_ptr.tolist()
        self._ve_ids: List[int] = ve_ids.tolist()
        # Vertex-weight rows are converted on first use: a full
        # ``tolist`` of the (n, constraints) array costs more than the
        # moves of a typical call.
        self._weight_rows: List[Optional[List[float]]] = (
            [None] * hgraph.n_vertices
        )
        self._caps: np.ndarray = np.empty((0, 0))
        self._cap_rows: List[List[float]] = []
        # Neighbors the last move touched (reused by affected()).
        self._last_move: int = -1
        self._last_neighbors: Set[int] = set()

    def _vertex_weight(self, v: int) -> List[float]:
        row = self._weight_rows[v]
        if row is None:
            row = self.hgraph.vertex_weights[v].tolist()
            self._weight_rows[v] = row
        return row

    def gain(self, v: int) -> float:
        """Cut reduction if ``v`` switches sides (O(1) lookup)."""
        return self.gains[v]

    def move(self, v: int) -> None:
        """Switch ``v``'s side with O(pins touched) delta-gain updates."""
        side = self._side
        gains = self.gains
        count0 = self._count0
        sizes = self._sizes
        weights = self._weights
        pins = self._pins
        edge_ptr = self._edge_ptr
        s = side[v]
        step = -1 if s == 0 else 1
        neighbors: Set[int] = set()
        for e in self._ve_ids[self._ve_ptr[v]:self._ve_ptr[v + 1]]:
            sz = sizes[e]
            c0 = count0[e]
            count0[e] = c0 + step
            edge_pins = pins[edge_ptr[e]:edge_ptr[e + 1]]
            neighbors.update(edge_pins)
            # Pre-move pin counts on v's side (cs) and the far side (ct).
            cs = c0 if s == 0 else sz - c0
            ct = sz - cs
            w = weights[e]
            # Same-side pins: moving v away adds +w when v and u were
            # the only same-side pins (u becomes lone: cs == 2) and +w
            # when the edge was uncut on this side (u can no longer
            # uncut for free: cs == sz, reclaiming the -w it carried).
            # Far-side pins lose -w when v joins a lone pin (ct == 1)
            # or fills the edge (ct == sz - 1).  Zero deltas are
            # skipped, and so are edges with none: adding zero never
            # changes a gain's value.
            same = w * ((cs == 2) + (cs == sz))
            far = -w * ((ct == 1) + (ct == sz - 1))
            if not (same or far):
                continue
            for u in edge_pins:
                if u == v:
                    continue
                if side[u] == s:
                    if same:
                        gains[u] += same
                elif far:
                    gains[u] += far
        # Every per-edge contribution of v itself flips sign exactly.
        gains[v] = -gains[v]
        neighbors.discard(v)

        vw = self._vertex_weight(v)
        source = self._part_weights[s]
        destination = self._part_weights[1 - s]
        for c, weight in enumerate(vw):
            source[c] -= weight
            destination[c] += weight
        side[v] = 1 - s
        self.side[v] = 1 - s

        self._last_move = v
        self._last_neighbors = neighbors

    def fits_after_move(self, v: int, caps: np.ndarray) -> bool:
        """Whether moving ``v`` keeps the receiving side under its caps."""
        if caps is not self._caps:
            self._caps = caps
            self._cap_rows = caps.tolist()
        destination = 1 - self._side[v]
        for weight, extra, cap in zip(self._part_weights[destination],
                                      self._vertex_weight(v),
                                      self._cap_rows[destination]):
            if not weight + extra <= cap:
                return False
        return True

    def affected(self, v: int) -> List[int]:
        """Vertices whose gain may change when ``v`` moves.

        The pins of every edge incident to ``v`` (excluding ``v``),
        unique and ascending — the dirty set re-pushed once per move
        wave by :func:`_fm_pass`.
        """
        if v == self._last_move:
            neighbors = self._last_neighbors
        else:
            pins = self._pins
            edge_ptr = self._edge_ptr
            neighbors = set()
            for e in self._ve_ids[self._ve_ptr[v]:self._ve_ptr[v + 1]]:
                neighbors.update(pins[edge_ptr[e]:edge_ptr[e + 1]])
            neighbors.discard(v)
        return sorted(neighbors)

    def boundary_vertices(self) -> np.ndarray:
        """Vertices incident to at least one cut edge (ascending)."""
        hgraph = self.hgraph
        count0 = np.asarray(self._count0, dtype=np.int64)
        cut_edges = (count0 > 0) & (count0 < self.edge_sizes)
        mask = cut_edges[hgraph.pin_edge_ids()]
        return np.unique(hgraph.pins[mask])


def fm_refine(hgraph: Hypergraph, side: np.ndarray, caps: np.ndarray,
              passes: int = 2, stall_limit: int = 64) -> np.ndarray:
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
    """
    state = _BisectionState(hgraph, side)
    for _ in range(passes):
        if not _fm_pass(hgraph, state, caps, stall_limit):
            break
    return side


def _fm_pass(hgraph: Hypergraph, state: _BisectionState, caps: np.ndarray,
             stall_limit: int) -> bool:
    """One FM pass; returns True if the cut improved.

    The lazy-deletion heap pops the highest
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
