"""Numeric state layer: partials, remaining-input counts, solve values.

One implementation of the simulator's *functional* state, shared by
every issue model: per-tile dense accumulators and task queues
(:class:`TileState`), plus the kernel-wide completion bookkeeping
(:class:`KernelState`).  Timing layers (fabric, issue) mutate this
state but the numeric semantics — which IEEE-754 operations run, in
which order — are defined here once, so functional correctness cannot
diverge between issue models.

Layer contract: ``state`` sits above ``events`` and ``tables`` and
imports nothing from :mod:`repro.sim`; the static counters it copies
arrive as plain arrays and dicts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# Task kinds (slot 1 of a task; values match ``dataflow.tasks.OpKind``
# so ``tile.op_counts[kind]`` indexes without translation).
T_SAAC = 0   #: ScaleAndAccumCol: a run of FMACs against a column segment
T_ADD = 1    #: merge one incoming reduction partial
T_MUL = 2    #: solve x_i = (b_i - acc) * (1/d_i)
T_SEND = 3   #: push one value into the router

# Task layout: ``[arrival_time, kind, payload..., hazard_row]``.  Slot 6
# always holds the row whose accumulator gates the task's *current*
# operation (a dummy row ``n`` with permanently-zero ready time for
# Sends), so the batched issue strategy's selection scan reads one
# uniform ``acc[task[6]]`` with no per-kind branching.  The per-op
# strategy branches on kind instead and ignores the slot.
TASK_HAZARD = 6

#: One PE task: a mutable list (mutated in place as ops retire).
Task = List  # type: ignore[type-arg]


class TileState:
    """Mutable per-tile simulation state (dense accumulators).

    ``acc_ready``/``partial`` are dense per-row Python lists — scalar
    reads/writes in the issue loops cost a plain list index instead of
    a dict probe or numpy scalar round-trip.  ``acc_ready`` has one
    extra slot: row ``n`` is the *dummy hazard row* named by Send
    tasks' ``TASK_HAZARD`` field; it is never written, so
    ``acc_ready[task[6]]`` is branch-free across task kinds.
    ``local_rem`` (FMACs still to apply per row) is this run's copy of
    the tile's static local counts (``None`` when the tile holds no
    matrix nonzeros).
    """

    __slots__ = (
        "tasks", "pe_time", "acc_ready", "busy", "op_counts",
        "next_pump", "partial", "local_rem",
    )

    def __init__(self, n: int, local_rem: Optional[List[int]]) -> None:
        self.tasks: List[Task] = []
        self.pe_time = 0
        self.busy = 0
        self.op_counts = [0, 0, 0, 0]  # FMAC, ADD, MUL, SEND
        self.next_pump: Optional[int] = None
        self.acc_ready = [0] * (n + 1)
        self.partial = [0.0] * n
        self.local_rem = local_rem


class KernelState:
    """Kernel-wide numeric and completion state of one execution.

    Owns the tile map, the reduction-node input counters, the output
    vector, spill accounting for the message buffer, and the running
    compute-completion time.  The composition root creates one per
    :meth:`~repro.sim.engine.KernelSimulator.run`.

    ``local`` and ``remaining`` are the kernel's static counters (see
    :class:`~repro.sim.tables.KernelTables`): ``local[tile]`` a
    tile's per-row FMAC counts as an integer array (``None`` for tiles
    without nonzeros), copied to a list when the tile is first touched;
    ``remaining`` the expected inputs keyed ``row * n_tiles + node``,
    copied once here.  Neither static table is ever written.
    """

    __slots__ = (
        "n", "tiles", "remaining", "rows_done", "output", "spills",
        "end_time", "msg_buffer_entries", "spill_penalty", "local",
    )

    def __init__(self, n: int, local: Sequence[Optional[np.ndarray]],
                 remaining: Dict[int, int], msg_buffer_entries: int,
                 spill_penalty: int) -> None:
        self.n = n
        self.tiles: Dict[int, TileState] = {}
        self.remaining = dict(remaining)
        self.rows_done = 0
        self.output = np.zeros(n)
        self.spills = 0
        #: Latest *compute* completion seen so far; the fabric tracks
        #: link arrivals separately and the composition root takes the
        #: max of the two for the reported cycle count.
        self.end_time = 0
        self.msg_buffer_entries = msg_buffer_entries
        self.spill_penalty = spill_penalty
        self.local = local

    # ------------------------------------------------------------------
    def tile(self, tile_id: int) -> TileState:
        """The tile's state, created on first touch."""
        tile = self.tiles.get(tile_id)
        if tile is None:
            local = self.local[tile_id]
            tile = TileState(self.n,
                             None if local is None else local.tolist())
            self.tiles[tile_id] = tile
        return tile

    def enqueue(self, tile_id: int, task: Task) -> TileState:
        """Append a task to a tile, modeling message-buffer spills.

        A task arriving at a queue already holding
        ``msg_buffer_entries`` entries overflows the register buffer
        into the Data SRAM: the spill is counted and the task's start
        is delayed by one SRAM round trip (Sec. V-A).
        """
        tile = self.tiles.get(tile_id)
        if tile is None:
            tile = self.tile(tile_id)
        tasks = tile.tasks
        if len(tasks) >= self.msg_buffer_entries:
            self.spills += 1
            task[0] += self.spill_penalty
        tasks.append(task)
        return tile

    def partial_value(self, tile_id: int, row: int) -> float:
        """Current accumulated partial for ``row`` on ``tile_id``."""
        tile = self.tiles.get(tile_id)
        return 0.0 if tile is None else tile.partial[row]

    # ------------------------------------------------------------------
    def op_totals(self) -> Tuple[List[int], int]:
        """``([fmac, add, mul, send] totals, busy-slot total)``."""
        totals = [0, 0, 0, 0]
        busy = 0
        for tile in self.tiles.values():
            busy += tile.busy
            counts = tile.op_counts
            for k in range(4):
                totals[k] += counts[k]
        return totals, busy
