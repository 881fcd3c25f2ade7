"""Static lookup tables of one compiled kernel, built once per program.

Everything the simulator reads during a run but never writes depends
only on the :class:`~repro.dataflow.ir.CompiledKernel` and the
machine's tile count ``T``: the column segments, the multicast
forwarding plan, the reduction next-hops and the initial per-tile
counters.  :class:`KernelTables` holds them in compact, integer-keyed
form so every PE or timing variant of one kernel shares one build
(see :meth:`repro.sim.machine.AzulMachine.simulate_variants`), and a
run copies only the mutable counters: ``remaining`` once, and one
``local`` row per touched tile.

Keys are plain ints rather than tuples (no tuple allocation or tuple
hashing per probe):

* ``segments[col * T + tile]`` — ``(rows, values)`` of the column
  segment tile ``tile`` holds for column ``col``;
* ``mcast_plan[t * T + node]`` — ``(children, segment)`` for global
  multicast tree ``t`` at ``node``: the router-side fork plus, when
  ``node`` is a destination, the column segment its arrival triggers
  (``None`` elsewhere);
* ``mcast_send[t]`` — ``(root, root_children)``, the fork the root's
  Send op performs;
* ``red_parent[row * T + node]`` — the reduction next hop of row
  ``row``'s partial at ``node``;
* ``remaining[row * T + node]`` — the inputs reduction node ``node``
  of row ``row`` expects (local contribution plus tree children);
* ``local[tile]`` — the tile's per-row FMAC counts (a row of the
  program's ``local_counts``), ``None`` for tiles without nonzeros.

Tables are read-only and hold no reference to any run: nothing keeps
them alive past the simulations of their kernel.

Layer contract: ``tables`` sits directly above ``events`` and imports
nothing from :mod:`repro.sim`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

#: A column segment: the row indices and coefficients of one column's
#: nonzeros on one tile (native ints/floats, exact IEEE-754 values).
Segment = Tuple[List[int], List[float]]


class KernelTables:
    """Read-only, integer-keyed static tables of one compiled kernel."""

    __slots__ = (
        "n", "n_tiles", "vec_tile", "segments", "mcast_plan",
        "mcast_send", "mcast_first", "mcast_count", "red_parent",
        "local", "remaining", "__weakref__",
    )

    def __init__(self, program, n_tiles: int) -> None:
        T = int(n_tiles)
        n = int(program.n)
        self.n = n
        self.n_tiles = T
        self.vec_tile: List[int] = program.vec_tile.tolist()
        self.segments = self._build_segments(program, T)
        self.mcast_plan, self.mcast_send = self._build_multicast(
            program, T, self.segments,
        )
        #: Column ``j`` owns global trees
        #: ``mcast_first[j] : mcast_first[j] + mcast_count[j]``.
        self.mcast_first: List[int] = program.mcast_first.tolist()
        self.mcast_count: List[int] = program.mcast_count.tolist()
        self.red_parent = self._build_red_parent(program, T)
        self.local, self.remaining = self._build_counters(program, T, n)

    # ------------------------------------------------------------------
    @staticmethod
    def _build_segments(program, T: int) -> Dict[int, Segment]:
        # ``tolist`` makes scalar ``rows[pos]`` / ``vals[pos]`` reads
        # native ints/floats and preserves the exact IEEE-754 values.
        rows = program.rows.tolist()
        vals = program.values.tolist()
        seg_ptr = program.seg_ptr.tolist()
        keys = (program.seg_col * T + program.seg_tile).tolist()
        return {
            key: (rows[seg_ptr[s]:seg_ptr[s + 1]],
                  vals[seg_ptr[s]:seg_ptr[s + 1]])
            for s, key in enumerate(keys)
        }

    @staticmethod
    def _build_multicast(program, T: int, segments: Dict[int, Segment]):
        """Flatten the multicast forest into per-arrival lookups.

        Children fork in sorted-edge order (the canonical form the
        lowering emits), which is deterministic and geometry-agnostic.
        """
        plan: Dict[int, Tuple[Tuple[int, ...], Optional[Segment]]] = {}
        send: List[Tuple[int, Tuple[int, ...]]] = []
        mcast_col = program.mcast_col.tolist()
        mcast_root = program.mcast_root.tolist()
        edge_ptr = program.mcast_edge_ptr.tolist()
        parents = program.mcast_parent.tolist()
        childs = program.mcast_child.tolist()
        dst_ptr = program.mcast_dst_ptr.tolist()
        dsts = program.mcast_dst.tolist()
        get_segment = segments.get
        for t, root in enumerate(mcast_root):
            kids: Dict[int, List[int]] = {root: []}
            for e in range(edge_ptr[t], edge_ptr[t + 1]):
                child = childs[e]
                kids.setdefault(parents[e], []).append(child)
                kids.setdefault(child, [])
            destinations = set(dsts[dst_ptr[t]:dst_ptr[t + 1]])
            base = t * T
            col_base = mcast_col[t] * T
            for node, children in kids.items():
                plan[base + node] = (
                    tuple(children),
                    get_segment(col_base + node)
                    if node in destinations else None,
                )
            send.append((root, tuple(kids[root])))
        return plan, send

    @staticmethod
    def _build_red_parent(program, T: int) -> Dict[int, int]:
        rows = np.repeat(program.red_row, np.diff(program.red_edge_ptr))
        keys = rows * T + program.red_child
        return dict(zip(keys.tolist(), program.red_parent.tolist()))

    @staticmethod
    def _build_counters(program, T: int, n: int):
        """Per-tile local FMAC counts and per-node expected inputs.

        A reduction node of row ``i`` (its home, or a child in its
        reduction tree) expects one input per tree child plus one
        local contribution when it holds row-``i`` nonzeros.  The
        expected-input counts are keyed ``row * T + node``: only a few
        nodes per row have a role, so a dense ``T x n`` table would be
        mostly zeros on large machines.
        """
        local_tiles = np.asarray(program.local_tiles, dtype=np.int64)
        counts = np.asarray(program.local_counts, dtype=np.int64)
        counts = counts.reshape(len(local_tiles), n)
        local: List[Optional[np.ndarray]] = [None] * T
        for p, tile in enumerate(local_tiles.tolist()):
            local[tile] = counts[p]
        has_local = np.zeros((T, n), dtype=bool)
        has_local[local_tiles] = counts > 0
        rows = np.arange(n, dtype=np.int64)
        home = program.vec_tile.astype(np.int64)
        edge_rows = np.repeat(program.red_row.astype(np.int64),
                              np.diff(program.red_edge_ptr))
        children = program.red_child.astype(np.int64)
        # Every node of a row's tree is its home (the root) or exactly
        # one edge's child, so these keys are distinct.
        keys = np.concatenate([rows * T + home, edge_rows * T + children])
        expected = np.concatenate([
            has_local[home, rows], has_local[children, edge_rows],
        ]).astype(np.int64)
        parent_keys = edge_rows * T + program.red_parent.astype(np.int64)
        sorter = np.argsort(keys, kind="stable")
        np.add.at(expected, sorter[np.searchsorted(keys, parent_keys,
                                                   sorter=sorter)], 1)
        remaining = dict(zip(keys.tolist(), expected.tolist()))
        return local, remaining
