"""Discrete-event kernel simulator: the layer composition root.

Executes one :class:`~repro.dataflow.ir.CompiledKernel`
cycle-accurately *and* numerically.  :class:`KernelSimulator` composes
the simulator layers (``events ← tables ← state ← fabric ← issue``,
see :mod:`repro.sim` and ``docs/simulator.md``) and issues every
operation through :class:`~repro.sim.issue.BatchedIssue`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappush
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.config import AzulConfig
from repro.dataflow.ir import CompiledKernel
from repro.errors import SimulationError
from repro.sim.events import EV_PUMP, EventQueue, drain
from repro.sim.fabric import LinkFabric
from repro.sim.issue import BatchedIssue
from repro.sim.pe import PEModel
from repro.sim.state import T_MUL, T_SAAC, T_SEND, KernelState
from repro.sim.tables import KernelTables

@dataclass
class KernelResult:
    """Outcome of simulating one kernel.

    ``cycles`` is the completion time; ``output`` the computed result
    vector (``y`` for SpMV, ``x`` for SpTRSV); ``op_counts`` executed
    operations by kind (``fmac``/``add``/``mul``/``send``);
    ``busy_slots`` issue slots consumed across all PEs; ``per_link``
    activations per directed link; ``spills`` messages that overflowed
    the register buffer into the Data SRAM; ``issue_trace`` (when
    recording was requested) one ``(cycle, tile, op_kind)`` tuple per
    issued operation, for timeline/heatmap analysis.  ``n_tiles``
    records the simulated machine's tile count so the trace helpers in
    :mod:`repro.sim.trace` need no redundant caller-side geometry.
    """

    name: str
    cycles: int
    output: np.ndarray
    op_counts: Dict[str, int]
    busy_slots: int
    link_activations: int
    per_link: Dict[Tuple[int, int], int] = field(default_factory=dict)
    spills: int = 0
    #: Total cycles flits waited for busy links (congestion measure)
    link_queue_delay: int = 0
    issue_trace: Optional[List[Tuple[int, int, int]]] = None
    #: Tile count of the machine that produced this result (``None``
    #: only on results unpickled from pre-v4 cache entries).
    n_tiles: Optional[int] = None

    def flops(self) -> int:
        """FLOPs executed, including distribution-overhead Adds.

        Reported GFLOP/s uses the *algorithmic* FLOP count; this
        counter additionally includes the standalone Adds that
        inter-tile reductions introduce.
        """
        return (
            2 * self.op_counts["fmac"]
            + self.op_counts["add"]
            + self.op_counts["mul"]
        )

class KernelSimulator:
    """Simulates one kernel program on the configured machine.

    ``tables`` are the program's static lookup tables; callers that
    simulate several variants of one program (PE models, timing knobs)
    build one :class:`~repro.sim.tables.KernelTables` and pass it to
    each simulator, otherwise the simulator builds its own.
    """

    def __init__(self, program: CompiledKernel, geometry,
                 config: AzulConfig, pe: PEModel,
                 record_issue_trace: bool = False,
                 tables: Optional[KernelTables] = None):
        self.program = program
        self.geometry = geometry
        self.config = config
        self.pe = pe
        self.record_issue_trace = record_issue_trace
        self.alu_latency = (
            config.sram_access_cycles + config.fmac_latency_cycles
        )
        self.send_latency = config.sram_access_cycles + 1
        self._ideal = pe.is_ideal
        self.issue = BatchedIssue()
        if tables is None:
            tables = KernelTables(program, geometry.n_tiles)
        elif tables.n_tiles != geometry.n_tiles or tables.n != program.n:
            raise SimulationError(
                f"{program.name}: tables for {tables.n_tiles} tiles and "
                f"n={tables.n} do not fit a {geometry.n_tiles}-tile "
                f"machine running n={program.n}"
            )
        self.tables = tables
        self.mcast_send = tables.mcast_send
        self._n_tiles = tables.n_tiles
        # Dummy hazard row (see ``state.TASK_HAZARD``): Sends gate on
        # nothing, so they point at accumulator slot ``n`` which stays
        # 0 forever.
        self._dummy_row = int(program.n)

    # ------------------------------------------------------------------
    def run(self, x=None, b=None) -> KernelResult:
        """Execute the kernel; returns timing, stats, and the output.

        ``x`` is the input vector for SpMV; ``b`` the right-hand side
        for SpTRSV.  Emits the ``sim.events`` (events pushed) and
        ``sim.stale_pumps`` (pumps the drain loop dropped) counters
        once per run.
        """
        program = self.program
        n = program.n
        config = self.config
        tables = self.tables
        self.events = events = EventQueue()
        self._heap = events.heap
        self._seq = events.seq
        self.state = KernelState(
            n, tables.local, tables.remaining,
            config.msg_buffer_entries, 2 * config.sram_access_cycles,
        )
        self.fabric = LinkFabric(events, config.hop_cycles)
        self.issue_trace = [] if self.record_issue_trace else None
        self._b = None if b is None else np.asarray(b, dtype=np.float64)
        self._x = (
            np.asarray(x, dtype=np.float64) if x is not None
            else np.zeros(n)
        )
        self.issue.bind(self)
        try:
            if program.dependent:
                if self._b is None:
                    raise SimulationError("SpTRSV simulation requires b")
                self._init_sptrsv()
            else:
                if x is None:
                    raise SimulationError("SpMV simulation requires x")
                self._init_spmv()
            stale = drain(events, self.issue.pump, self._handle_mcast,
                          self._handle_partial, self.state.tiles)
        finally:
            # ``bind`` stored this simulator's bound methods on the
            # issue model; unbinding breaks that reference cycle.
            self.issue.unbind()
        obs.counter("sim.events", events.pushed())
        obs.counter("sim.stale_pumps", stale)

        state = self.state
        if state.rows_done != n:
            raise SimulationError(
                f"{program.name}: deadlock — only {state.rows_done}/{n} "
                "rows completed"
            )
        op_totals, busy = state.op_totals()
        fabric = self.fabric
        cycles = (
            state.end_time if state.end_time >= fabric.last_arrival
            else fabric.last_arrival
        )
        return KernelResult(
            name=program.name,
            cycles=cycles,
            output=state.output,
            op_counts={
                "fmac": op_totals[0],
                "add": op_totals[1],
                "mul": op_totals[2],
                "send": op_totals[3],
            },
            busy_slots=busy,
            link_activations=fabric.link_count,
            per_link=fabric.per_link,
            spills=state.spills,
            link_queue_delay=fabric.queue_delay,
            issue_trace=self.issue_trace,
            n_tiles=self.geometry.n_tiles,
        )

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def _enqueue_value(self, home: int, col: int, value: float,
                       time: int) -> None:
        """Queue the home-tile work a produced ``value`` of ``col``
        triggers: its local column segment and one Send per tree."""
        tables = self.tables
        enqueue = self.state.enqueue
        segment = tables.segments.get(col * self._n_tiles + home)
        if segment is not None:
            rows = segment[0]
            enqueue(home, [time, T_SAAC, rows, segment[1], value, 0,
                           rows[0]])
        first = tables.mcast_first[col]
        for t in range(first, first + tables.mcast_count[col]):
            enqueue(home, [time, T_SEND, ("mcast", t, value), 0, 0, 0,
                           self._dummy_row])

    def _init_spmv(self) -> None:
        """Distribute input-vector values at time zero (SendV tasks)."""
        vec_tile = self.tables.vec_tile
        x = self._x.tolist()
        for j, home in enumerate(vec_tile):
            self._enqueue_value(home, j, x[j], 0)
        # Rows with no pending inputs complete immediately (y_i = 0 or
        # purely-local rows start from their FMACs).
        remaining = self.tables.remaining
        T = self._n_tiles
        for i, home in enumerate(vec_tile):
            if remaining[i * T + home] == 0:
                self._row_complete(i, 0)
        self._flush_pumps()

    def _init_sptrsv(self) -> None:
        """Schedule dependence-free rows for solving at time zero."""
        remaining = self.tables.remaining
        enqueue = self.state.enqueue
        T = self._n_tiles
        for i, home in enumerate(self.tables.vec_tile):
            if remaining[i * T + home] == 0:
                enqueue(home, [0, T_MUL, i, 0, 0, 0, i])
        self._flush_pumps()

    def _flush_pumps(self) -> None:
        for tile_id in list(self.state.tiles):
            self._schedule_pump(tile_id, 0)

    # ------------------------------------------------------------------
    # Control path (event scheduling + completion logic the issue
    # model calls back into)
    # ------------------------------------------------------------------
    def _schedule_pump(self, tile_id: int, time: int) -> None:
        tile = self.state.tile(tile_id)
        if not self._ideal and tile.pe_time > time:
            # Nothing can issue before the PE's next free slot anyway.
            time = tile.pe_time
        nxt = tile.next_pump
        if nxt is None or time < nxt:
            tile.next_pump = time
            heappush(self._heap, (time, next(self._seq), EV_PUMP, tile_id))

    def _enqueue_and_pump(self, tile_id: int, task: list,
                          time: int) -> None:
        """Fused enqueue + pump scheduling (one tile fetch)."""
        tile = self.state.enqueue(tile_id, task)
        if not self._ideal and tile.pe_time > time:
            time = tile.pe_time
        nxt = tile.next_pump
        if nxt is None or time < nxt:
            tile.next_pump = time
            heappush(self._heap, (time, next(self._seq), EV_PUMP, tile_id))

    def _handle_mcast(self, payload, time: int) -> None:
        """A multicast value reached a node: forward and trigger work."""
        node, t, value = payload
        children, segment = self.tables.mcast_plan[t * self._n_tiles + node]
        if children:
            traverse = self.fabric.traverse
            for child in children:
                traverse(node, child, time, 1,  # EV_MCAST
                         (child, t, value))
        if segment is not None:
            rows = segment[0]
            self._enqueue_and_pump(
                node, [time, T_SAAC, rows, segment[1], value, 0, rows[0]],
                time,
            )

    def _handle_partial(self, payload, time: int) -> None:
        """A reduction partial arrived: merge via a standalone Add."""
        node, row, value = payload
        self._enqueue_and_pump(node, [time, 1, row, value, 0, 0, row],
                               time)  # T_ADD

    def _node_input_done(self, row: int, node: int, time: int) -> None:
        """One expected input of reduction node ``(row, node)`` merged.

        Only the issue model calls this, right after issuing at
        ``node``, so the node's tile state exists.
        """
        remaining_map = self.state.remaining
        key = row * self._n_tiles + node
        remaining = remaining_map[key] - 1
        remaining_map[key] = remaining
        if remaining > 0:
            return
        if node == self.tables.vec_tile[row]:
            self._row_complete(row, time)
        else:
            tile = self.state.tiles[node]
            parent = self.tables.red_parent[key]
            self._enqueue_and_pump(
                node, [time, T_SEND, ("partial", row, tile.partial[row],
                                      parent),
                       0, 0, 0, self._dummy_row],
                time,
            )

    def _row_complete(self, row: int, time: int) -> None:
        """All of row ``row``'s inputs reached its home tile."""
        home = self.tables.vec_tile[row]
        state = self.state
        if self.program.dependent:
            self._enqueue_and_pump(home, [time, T_MUL, row, 0, 0, 0, row],
                                   time)
        else:
            tile = state.tiles.get(home)
            state.output[row] = 0.0 if tile is None else tile.partial[row]
            state.rows_done += 1
            if time > state.end_time:
                state.end_time = time

    def _solve_row(self, row: int, home: int, completion: int) -> None:
        """SpTRSV: produce ``x_row`` and distribute it down the column."""
        program = self.program
        state = self.state
        tile = state.tiles.get(home)
        acc = 0.0 if tile is None else tile.partial[row]
        # ``float()`` keeps the produced value a native float (the bits
        # are unchanged) so downstream FMACs avoid numpy scalar math.
        value = float((self._b[row] - acc) * program.inv_diag[row])
        state.output[row] = value
        state.rows_done += 1
        self._enqueue_value(home, row, value, completion)
        self._schedule_pump(home, completion)
