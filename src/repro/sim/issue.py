"""PE issue layer: pipeline, RAW-hazard, and thread-context timing.

:class:`BatchedIssue` decides *when* each FMAC/ADD/MUL/SEND leaves a
PE (Sec. V-A).  It is a run-granularity model: a ``T_SAAC``
column-segment run is issued as one batched step whose per-op issue
times are computed analytically (numpy for long runs), bounded by an
exactness *horizon* so cycles, op counts, link stats, spills, and
outputs stay bit-identical to an operation-granularity model that
makes one selection scan and one issue per operation.  That golden
per-op model lives in ``tests/oracles`` and
``tests/test_engine_equivalence.py`` holds the two equal.

The issue model is bound per run to the composition root (duck-typed
as :class:`IssueCore`), which supplies the shared state, event queue,
fabric, and completion callbacks.

Layer contract: ``issue`` may import ``events``/``state``/``fabric``
but never the engine composition root.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.sim.events import EV_MCAST, EV_PARTIAL, EV_PUMP, NEVER, EventQueue
from repro.sim.fabric import LinkFabric
from repro.sim.state import (
    T_ADD,
    T_MUL,
    T_SAAC,
    T_SEND,
    KernelState,
    TileState,
)

#: Remaining-run length at which a batch switches from the scalar
#: recurrence to the numpy closed form.
VEC_THRESHOLD = 12


class IssueCore(Protocol):
    """What :class:`BatchedIssue` needs from the composition root."""

    state: KernelState
    events: EventQueue
    fabric: LinkFabric
    alu_latency: int
    send_latency: int
    issue_trace: Optional[List[Tuple[int, int, int]]]
    mcast_send: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]]

    @property
    def pe(self) -> Any: ...
    def _node_input_done(self, row: int, node: int, time: int) -> None: ...
    def _solve_row(self, row: int, home: int, completion: int) -> None: ...
    def _schedule_pump(self, tile_id: int, time: int) -> None: ...


class BatchedIssue:
    """Run-granularity issue: batches column-segment runs exactly.

    ``bind`` captures per-run references from the composition root;
    ``pump(tile_id, now)`` then services one PUMP event (including the
    stale-pump filter).  The model keeps no cross-run state.

    Exactness argument (mirrored by ``tests/test_engine_equivalence.py``):

    * **Horizon** ``h`` — the earliest pending heap event.  While the
      next issue time is strictly below ``h`` no external event (message
      arrival, other tile's pump) could have interposed in the per-op
      model, so the pump keeps going inline instead of bouncing through
      the heap.  Ideal PEs additionally issue everything ready at the
      current pump time regardless of the heap, exactly like the per-op
      loop.
    * **Window competition** — a batched SAAC run continues only while
      its next op's issue time stays strictly below every *other*
      window task's hazard floor ``max(task_time, acc_ready[row])``.
      Accumulator-ready times only grow, so floors computed at batch
      start remain valid; ties conservatively end the batch and defer
      to the exact selection scan.
    * **Triggers** — the first op whose last local contribution lands
      (``local_rem`` hits zero) ends the batch, because its
      input-done side effect can enqueue work and push events.
    * **Numerics** — rows within a run are distinct, so the vectorized
      ``partial[rows] += xval * vals`` performs the identical IEEE-754
      operations in the identical order as per-op issue.
    """

    def bind(self, core: IssueCore) -> None:
        """Capture per-run references (state, events, fabric, hooks)."""
        pe = core.pe
        self.ic: int = pe.issue_cycles
        self.ideal: bool = pe.is_ideal
        self.limit: int = pe.thread_contexts if pe.multithreaded else 1
        self.alu_latency: int = core.alu_latency
        self.send_latency: int = core.send_latency
        self.state = core.state
        self.tiles = core.state.tiles
        self.events = core.events
        self.traverse = core.fabric.traverse
        self.trace = core.issue_trace
        self.mcast_send = core.mcast_send
        self.on_input_done: Callable[[int, int, int], None] = \
            core._node_input_done
        self.on_solve: Callable[[int, int, int], None] = core._solve_row
        self.schedule_pump: Callable[[int, int], None] = \
            core._schedule_pump

    def unbind(self) -> None:
        """Drop what :meth:`bind` captured.

        The captured hooks are the core's bound methods, so a bound
        model and its core form a reference cycle that only the cyclic
        garbage collector frees; unbinding after the run lets the
        simulator and its per-run state go as soon as they are dropped.
        """
        self.__dict__.clear()

    # ------------------------------------------------------------------
    def _issue_other(self, tile_id: int, tile: TileState, task: List,
                     task_index: int, issue_time: int) -> None:
        """Issue one non-SAAC operation."""
        kind = task[1]
        ic = self.ic
        tile.busy += ic
        if self.trace is not None:
            self.trace.append((issue_time, tile_id, kind))
        if not self.ideal:
            tile.pe_time = issue_time + ic
        state = self.state
        if kind == T_ADD:
            row = task[2]
            completion = issue_time + self.alu_latency
            tile.op_counts[T_ADD] += 1
            tile.acc_ready[row] = completion
            tile.partial[row] += task[3]
            del tile.tasks[task_index]
            if completion > state.end_time:
                state.end_time = completion
            self.on_input_done(row, tile_id, completion)
        elif kind == T_MUL:
            row = task[2]
            completion = issue_time + self.alu_latency
            tile.op_counts[T_MUL] += 1
            del tile.tasks[task_index]
            if completion > state.end_time:
                state.end_time = completion
            self.on_solve(row, tile_id, completion)
        else:  # T_SEND
            payload = task[2]
            completion = issue_time + self.send_latency
            tile.op_counts[T_SEND] += 1
            del tile.tasks[task_index]
            if completion > state.end_time:
                state.end_time = completion
            if payload[0] == "mcast":
                _, j, value, tree_index = payload
                root, children = self.mcast_send[(j, tree_index)]
                if children:
                    traverse = self.traverse
                    for child in children:
                        traverse(root, child, completion, EV_MCAST,
                                 (child, j, value, tree_index))
            else:
                _, row, value, parent = payload
                self.traverse(tile_id, parent, completion,
                              EV_PARTIAL, (parent, row, value))


    def pump(self, tile_id: int, now: int) -> None:
        """Horizon-bounded pump: drains inline while no event intervenes.

        The single-op SAAC issue (the dominant case once the machine is
        saturated and batches are horizon-bounded) is fully inlined
        here; runs that can batch further go through ``_saac_batch``.
        """
        tile = self.tiles[tile_id]
        if tile.next_pump != now:
            return  # stale: a different pump is now scheduled
        tile.next_pump = None
        ideal = self.ideal
        limit = self.limit
        ic = self.ic
        alu = self.alu_latency
        eq = self.events
        heap = eq.heap
        state = self.state
        acc = tile.acc_ready
        tasks = tile.tasks
        partial = tile.partial
        local_rem = tile.local_rem
        op_counts = tile.op_counts
        trace = self.trace
        while True:
            n_tasks = len(tasks)
            if not n_tasks:
                return
            h = heap[0][0] if heap else NEVER
            window = limit if limit < n_tasks else n_tasks
            # Inline selection, identical to the per-op scan: the
            # winner is the first strict minimum of
            # ``ready = max(arrival, acc hazard, pe_time)``.  Ties go to
            # the lowest index, so the first task whose hazard floor is
            # at or below ``pe_time`` wins outright (``ready`` cannot
            # drop below ``pe_time``) and the scan short-circuits.
            pe_time = tile.pe_time
            best_index = 0
            best_ready = NEVER
            index = 0
            for task in tasks if window == n_tasks else tasks[:window]:
                # Branch-free hazard read: slot ``TASK_HAZARD`` always
                # names the row whose accumulator gates the task's
                # current op (Sends name the dummy row, stuck at 0).
                m = acc[task[6]]
                t = task[0]
                if t > m:
                    m = t
                if m <= pe_time:
                    best_index = index
                    best_ready = pe_time
                    break
                if m < best_ready:
                    best_ready = m
                    best_index = index
                index += 1
            best_time = best_ready
            if best_time > now:
                if best_time >= h:
                    # An event at or before best_time could change the
                    # picture: yield to the heap (per-op order).
                    nxt = tile.next_pump
                    if nxt is None or best_time < nxt:
                        tile.next_pump = best_time
                        eq.push(best_time, EV_PUMP, tile_id)
                    return
                # Fast-forward: nothing can intervene.  The per-op
                # model would push a pump at best_time and pop it
                # straight back (clearing ``next_pump``); mirror that.
                now = best_time
                tile.next_pump = None
            task = tasks[best_index]
            if task[1] == 0:  # T_SAAC
                rows = task[2]
                pos = task[5]
                row0 = rows[pos]
                trigger = local_rem[row0] == 1
                p1 = pos + 1
                # Probe whether a second run op could join the batch;
                # if so, defer to the multi-op planner.  The heap
                # horizon blocks extension in the vast majority of
                # pumps, so the hazard floor of the losing window tasks
                # (``other_floor``) is only computed once the cheap
                # horizon gate has already passed.
                if not trigger and p1 < len(rows):
                    t0 = task[0]
                    ready2 = acc[rows[p1]]
                    if t0 > ready2:
                        ready2 = t0
                    if ideal:
                        t1 = ready2
                        gate = ready2 <= now or ready2 < h
                    else:
                        t1 = best_time + ic
                        if ready2 > t1:
                            t1 = ready2
                        gate = t1 < h
                    if gate:
                        other_floor = NEVER
                        k = 0
                        for task2 in (tasks if window == n_tasks
                                      else tasks[:window]):
                            if k != best_index:
                                m = acc[task2[6]]
                                t = task2[0]
                                if t > m:
                                    m = t
                                if m < other_floor:
                                    other_floor = m
                            k += 1
                        if t1 < other_floor:
                            now = self._saac_batch(
                                tile_id, tile, task, best_index,
                                best_time, other_floor, h, now, t1,
                            )
                            if now < 0:
                                return
                            continue
                # -- single-op issue, fully inline ---------------------
                completion = best_time + alu
                acc[row0] = completion
                partial[row0] += task[4] * task[3][pos]
                local_rem[row0] -= 1
                op_counts[0] += 1
                tile.busy += ic
                if trace is not None:
                    trace.append((best_time, tile_id, 0))
                if p1 >= len(rows):
                    del tasks[best_index]
                else:
                    task[5] = p1
                    task[6] = rows[p1]
                if not ideal:
                    pe_time = best_time + ic
                    tile.pe_time = pe_time
                if completion > state.end_time:
                    state.end_time = completion
                if trigger:
                    self.on_input_done(row0, tile_id, completion)
                if ideal:
                    # The per-op ideal pump keeps draining within one
                    # invocation.
                    continue
            else:
                self._issue_other(tile_id, tile, task, best_index,
                                  best_time)
                if ideal:
                    # The per-op ideal pump keeps draining within one
                    # invocation (no heap round-trip, no next_pump
                    # churn).
                    continue
                pe_time = tile.pe_time
            if not tasks:
                # The per-op loop exits without scheduling.
                return
            if heap and heap[0][0] <= pe_time:
                nxt = tile.next_pump
                if nxt is None or pe_time < nxt:
                    tile.next_pump = pe_time
                    eq.push(pe_time, EV_PUMP, tile_id)
                return
            # The per-op model would push a pump at pe_time and pop it
            # right back (strictly before any event): continue inline
            # with the same ``next_pump = None`` state.
            tile.next_pump = None
            now = pe_time

    # ------------------------------------------------------------------
    def _saac_batch(self, tile_id: int, tile: TileState, task: List,
                    task_index: int, best_time: int, other_floor: int,
                    h: int, now: int, t1: int) -> int:
        """Issue a multi-op batch of one SAAC run (exactness-bounded).

        Only called once ``pump``'s probe established that the run's
        second op (issuing at ``t1``) can join the batch, so ``count``
        is always at least 2.  Returns the pump's new ``now``
        (non-negative) to continue inline, or ``-1`` when the pump
        must yield to the heap.
        """
        ic = self.ic
        ideal = self.ideal
        alu = self.alu_latency
        state = self.state
        acc = tile.acc_ready
        partial = tile.partial
        local_rem = tile.local_rem
        rows = task[2]
        vals = task[3]
        xval = task[4]
        pos = task[5]
        n_run = len(rows)
        t0 = task[0]
        p1 = pos + 1
        running = now

        if n_run - pos >= VEC_THRESHOLD:
            count, times, running = self._plan_batch_vectorized(
                acc, local_rem, rows, pos, t0, best_time,
                other_floor, h, now,
            )
            trigger = local_rem[rows[pos + count - 1]] == 1
            last_t = times[count - 1]
            comp_max = max(times) + alu
        else:
            t_next = t1
            if ideal and t_next > running:
                running = t_next
            times = [best_time, t_next]
            cur = t_next
            trigger = local_rem[rows[p1]] == 1
            p = p1 + 1
            while p < n_run and not trigger:
                row = rows[p]
                ready = acc[row]
                if t0 > ready:
                    ready = t0
                if ideal:
                    t_next = ready
                    if t_next >= other_floor or (
                        t_next > running and t_next >= h
                    ):
                        break
                    if t_next > running:
                        running = t_next
                else:
                    floor = cur + ic
                    t_next = ready if ready > floor else floor
                    if t_next >= other_floor or t_next >= h:
                        break
                times.append(t_next)
                cur = t_next
                p += 1
                if local_rem[row] == 1:
                    trigger = True
                    break
            count = len(times)
            last_t = cur
            comp_max = max(times) + alu

        end = pos + count
        # Vectorized numeric contribution: the per-op products are one
        # array multiply; rows within a run are distinct, so the
        # scatter applies the identical IEEE-754 adds in the identical
        # order as per-op issue.
        contrib = (
            xval * np.asarray(vals[pos:end], dtype=np.float64)
        ).tolist()
        for k in range(count):
            r = rows[pos + k]
            acc[r] = times[k] + alu
            partial[r] += contrib[k]
            local_rem[r] -= 1
        tile.op_counts[0] += count
        tile.busy += ic * count
        if self.trace is not None:
            trace = self.trace
            for k in range(count):
                trace.append((times[k], tile_id, T_SAAC))
        if not ideal:
            tile.pe_time = last_t + ic
        elif running > now:
            # An in-batch fast-forward: the per-op model pushed a pump
            # at the hop time and popped it back, clearing
            # ``next_pump``.  Mirror that before the trigger's side
            # effects reschedule.
            tile.next_pump = None
        if comp_max > state.end_time:
            state.end_time = comp_max

        if end >= n_run:
            del tile.tasks[task_index]
        else:
            task[5] = end
            task[6] = rows[end]

        if trigger:
            self.on_input_done(rows[end - 1], tile_id, last_t + alu)

        if ideal:
            return running
        pe_time = tile.pe_time
        if not tile.tasks:
            return pe_time  # pump loop exits without scheduling
        eq = self.events
        heap = eq.heap
        if heap and heap[0][0] <= pe_time:
            nxt = tile.next_pump
            if nxt is None or pe_time < nxt:
                tile.next_pump = pe_time
                eq.push(pe_time, EV_PUMP, tile_id)
            return -1
        tile.next_pump = None
        return pe_time

    def _plan_batch_vectorized(self, acc: List[int],
                               local_rem: List[int], rows: List[int],
                               pos: int, t0: int, best_time: int,
                               other_floor: int, h: int,
                               now: int) -> Tuple[int, List[int], int]:
        """Closed-form issue times for a long run tail (numpy path).

        Solves the recurrence ``t_k = max(ready_k, t_{k-1} + ic)``
        (non-ideal) or ``t_k = ready_k`` (ideal) for the whole
        remaining run, then truncates at the first op violating the
        horizon/window bounds or landing a trigger.
        Returns ``(count, times_list, running_now)``.
        """
        ic = self.ic
        tail = rows[pos:]
        length = len(tail)
        ready = np.fromiter(
            (acc[r] for r in tail), dtype=np.int64, count=length,
        )
        np.maximum(ready, t0, out=ready)
        if self.ideal:
            t_all = ready
            t_all[0] = best_time
            runmax = np.maximum.accumulate(t_all)
            prior = np.empty(length, dtype=np.int64)
            prior[0] = now
            np.maximum(runmax[:-1], now, out=prior[1:])
            ok = (t_all < other_floor) & ((t_all <= prior) | (t_all < h))
        else:
            steps = ic * np.arange(length, dtype=np.int64)
            shifted = ready - steps
            shifted[0] = best_time
            t_all = np.maximum.accumulate(shifted) + steps
            bound = other_floor if other_floor < h else h
            ok = t_all < bound
        ok[0] = True
        bad = np.nonzero(~ok)[0]
        count = int(bad[0]) if len(bad) else length
        # Truncate at (and include) the first trigger op.
        for k in range(count):
            if local_rem[tail[k]] == 1:
                count = k + 1
                break
        times = t_all[:count].tolist()
        if self.ideal:
            running = max(times)
            if now > running:
                running = now
        else:
            running = times[-1]
        return count, times, running
