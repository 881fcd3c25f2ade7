"""Initial bisection of the coarsest hypergraph.

Greedy region growing: seed one side with a random vertex and grow it
by repeatedly absorbing the unassigned vertex with the strongest
accumulated hyperedge connectivity to the grown side, until the target
weight fraction is reached.  Several seeds are tried and the lowest-cut
result kept.

The growth loop mirrors the FM pass's lazy-deletion heap: per absorbed
vertex, one scan of its eligible edges' pins adds each edge's bonus to
the scores of the still-unassigned pins, and each touched neighbor is
(re-)pushed once per wave.  The loop runs on plain-list views of the
CSR arrays built once per attempt, so an absorption costs O(pins
touched) Python steps rather than a run of numpy calls on arrays of a
few dozen elements.  Edges larger than the growth limit are skipped
when scoring (``PartitionerOptions.growth_edge_size_limit``).

Layer contract: ``initial`` sits above ``hgraph``/``metrics`` and below
``partitioner`` (see ``.importlinter`` and ``tools/check_layers.py``).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set

import numpy as np

from repro.hypergraph.hgraph import Hypergraph
from repro.hypergraph.metrics import connectivity_cut

#: Default cap on hyperedge size during region growing; larger edges
#: contribute negligible per-pin connectivity.  Tunable per run via
#: ``PartitionerOptions.growth_edge_size_limit``.
DEFAULT_GROWTH_EDGE_SIZE_LIMIT = 256


def _grow_once(hgraph: Hypergraph, target_fraction: float,
               caps0: np.ndarray, rng: np.random.Generator,
               edge_size_limit: int = DEFAULT_GROWTH_EDGE_SIZE_LIMIT,
               ) -> np.ndarray:
    """One region-growing attempt; returns a side array (0 or 1)."""
    n = hgraph.n_vertices
    side = bytearray(b"\x01") * n
    totals = hgraph.total_weights()
    nonzero = totals > 0
    thresh = (totals * target_fraction * 0.98)[nonzero].tolist()
    targets = np.nonzero(nonzero)[0].tolist()
    weight0 = [0.0] * hgraph.n_constraints
    cap_row = np.asarray(caps0, dtype=np.float64).tolist()

    sizes = hgraph.edge_sizes()
    eligible = (sizes >= 2) & (sizes <= edge_size_limit)
    bonus = np.zeros(hgraph.n_edges)
    bonus[eligible] = hgraph.edge_weights[eligible] / np.maximum(
        sizes[eligible] - 1, 1
    )
    ve_ptr, ve_ids = hgraph.incidence_arrays()
    # List views the per-vertex loop indexes; ineligible edges are
    # dropped from each vertex's incidence list up front.
    keep = eligible[ve_ids]
    incident = ve_ids[keep].tolist()
    inc_ptr = np.concatenate(([0], np.cumsum(keep)))[ve_ptr].tolist()
    bonus_of = bonus.tolist()
    pins = hgraph.pins.tolist()
    edge_ptr = hgraph.edge_ptr.tolist()

    #: Accumulated connectivity of each unassigned vertex to side 0.
    score = [0.0] * n
    #: Vertex-weight rows, converted on first use (a full ``tolist``
    #: of the weight matrix costs more than a typical growth).
    weight_rows: List[Optional[List[float]]] = [None] * n

    def vertex_weight(v: int) -> List[float]:
        row = weight_rows[v]
        if row is None:
            row = weight_rows[v] = hgraph.vertex_weights[v].tolist()
        return row

    def fits(v: int) -> bool:
        for weight, extra, cap in zip(weight0, vertex_weight(v), cap_row):
            if not weight + extra <= cap:
                return False
        return True

    def reached_target() -> bool:
        # Grown far enough once the dominant constraint hits its target.
        for c, target in zip(targets, thresh):
            if not weight0[c] >= target:
                return False
        return True

    seed = int(rng.integers(n))
    heap = [(0.0, seed)]

    while heap and not reached_target():
        neg, v = heapq.heappop(heap)
        if side[v] == 0:
            continue
        if -neg != score[v]:
            heapq.heappush(heap, (-score[v], v))
            continue
        if not fits(v):
            continue
        side[v] = 0
        for c, extra in enumerate(vertex_weight(v)):
            weight0[c] += extra
        # Accumulate the connectivity v's edges contribute to side 0
        # in (edge, pin) order, then (re-)push each touched neighbor
        # once for this wave, ascending.
        touched: Set[int] = set()
        for e in incident[inc_ptr[v]:inc_ptr[v + 1]]:
            b = bonus_of[e]
            for u in pins[edge_ptr[e]:edge_ptr[e + 1]]:
                if side[u] == 1:
                    score[u] += b
                    touched.add(u)
        for u in sorted(touched):
            heapq.heappush(heap, (-score[u], u))
        if not heap:
            # Disconnected: restart growth from a fresh unassigned vertex.
            unassigned = np.frombuffer(side, dtype=np.int8) == 1
            remaining = np.nonzero(unassigned)[0]
            if len(remaining) and not reached_target():
                heapq.heappush(heap, (0.0, int(rng.choice(remaining))))
    return np.frombuffer(side, dtype=np.int8).copy()


def greedy_bisect(hgraph: Hypergraph, target_fraction: float,
                  caps0: np.ndarray, rng: np.random.Generator,
                  tries: int = 4,
                  edge_size_limit: int = DEFAULT_GROWTH_EDGE_SIZE_LIMIT,
                  ) -> np.ndarray:
    """Best-of-``tries`` greedy growth bisection."""
    best_side = None
    best_cut = np.inf
    for _ in range(max(tries, 1)):
        side = _grow_once(
            hgraph, target_fraction, caps0, rng,
            edge_size_limit=edge_size_limit,
        )
        cut = connectivity_cut(hgraph, side.astype(np.int64))
        if cut < best_cut:
            best_cut = cut
            best_side = side
    assert best_side is not None
    return best_side
