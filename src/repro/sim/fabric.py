"""NoC fabric layer: link occupancy/contention and tree forwarding.

Two views of the same fabric:

* :class:`LinkFabric` — the *dynamic* per-run state: flit
  serialization on directed links (one flit per link per cycle),
  queueing delay and per-link activation counts.  Works over any
  geometry (torus or mesh): the geometry is baked into the trees at
  program-build time and the per-arrival forwarding plan is one of the
  kernel's static tables (:class:`~repro.sim.tables.KernelTables`), so
  the fabric itself only sees tile ids.
* :class:`FabricModel` — the *static* tree/link API consumed by the
  machine model, solver timing, and ``repro.core.traffic``: multicast
  and reduction trees, hop distances, and link enumeration over a
  :class:`~repro.comm.torus.TorusGeometry` /
  :class:`~repro.comm.mesh.MeshGeometry`.

Layer contract: fabric sits above ``events``/``state`` and below
``issue``/``engine``; it may import :mod:`repro.comm` but never the
issue layer or the composition root.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Dict, Iterable, List, Tuple

from repro.comm.multicast import MulticastTree, build_multicast_tree
from repro.comm.reduction import ReductionTree, build_reduction_tree
from repro.sim.events import EventQueue

Link = Tuple[int, int]


class LinkFabric:
    """Dynamic link-contention state over one kernel execution.

    Each directed link carries one flit per cycle: a flit departing at
    a busy cycle queues (``queue_delay`` accounts the wait) and every
    traversal costs ``hop_cycles`` of latency before the arrival event
    fires.  Arrival events are pushed into the shared
    :class:`~repro.sim.events.EventQueue`, preserving deterministic
    tie-breaking.
    """

    __slots__ = ("events", "hop_cycles", "link_free", "per_link",
                 "link_count", "queue_delay", "last_arrival", "_heap",
                 "_seq")

    def __init__(self, events: EventQueue, hop_cycles: int) -> None:
        self.events = events
        self._heap = events.heap
        self._seq = events.seq
        self.hop_cycles = hop_cycles
        self.link_free: Dict[Link, int] = {}
        self.per_link: Dict[Link, int] = {}
        self.link_count = 0
        self.queue_delay = 0
        #: Latest link arrival seen so far (combined with the state
        #: layer's compute completion for the reported cycle count).
        self.last_arrival = 0

    def traverse(self, src: int, dst: int, time: int, event_kind: int,
                 payload: Any) -> None:
        """Serialize a flit onto a link and schedule its arrival."""
        link = (src, dst)
        link_free = self.link_free
        depart = link_free.get(link, 0)
        if depart < time:
            depart = time
        else:
            self.queue_delay += depart - time
        link_free[link] = depart + 1
        per_link = self.per_link
        per_link[link] = per_link.get(link, 0) + 1
        self.link_count += 1
        arrival = depart + self.hop_cycles
        heappush(self._heap, (arrival, next(self._seq), event_kind,
                              payload))
        if arrival > self.last_arrival:
            self.last_arrival = arrival


class FabricModel:
    """Static tree/link API of the NoC for a given geometry.

    The machine model (:class:`~repro.sim.machine.AzulMachine`), the
    solver-timing recipes, and the static traffic analysis
    (:mod:`repro.core.traffic`) consume this instead of building trees
    straight from :mod:`repro.comm` or reaching into engine internals.
    """

    __slots__ = ("geometry", "hop_cycles")

    def __init__(self, geometry, hop_cycles: int = 1) -> None:
        self.geometry = geometry
        self.hop_cycles = hop_cycles

    @property
    def n_tiles(self) -> int:
        return self.geometry.n_tiles

    # -- trees ---------------------------------------------------------
    def multicast_tree(self, root: int,
                       destinations: Iterable[int]) -> MulticastTree:
        """The router-merged multicast tree from ``root``."""
        return build_multicast_tree(self.geometry, root,
                                    list(destinations))

    def reduction_tree(self, root: int,
                       sources: Iterable[int]) -> ReductionTree:
        """The reduction tree collecting ``sources`` into ``root``."""
        return build_reduction_tree(self.geometry, root, list(sources))

    # -- links ---------------------------------------------------------
    def hop_distance(self, src: int, dst: int) -> int:
        return self.geometry.hop_distance(src, dst)

    def all_links(self) -> List[Link]:
        return self.geometry.all_links()

    def reduction_depth(self) -> int:
        return self.geometry.reduction_depth()

    # -- dynamic state -------------------------------------------------
    def new_link_state(self, events: EventQueue) -> LinkFabric:
        """Fresh per-run link-contention state bound to ``events``."""
        return LinkFabric(events, self.hop_cycles)
