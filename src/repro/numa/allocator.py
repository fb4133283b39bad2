"""NUMA-aware allocator: word buffers plus their simulated page placement.

This is the layer the paper implements with ``numa_alloc_onnode`` /
``mbind`` system calls (section 3.1).  Here an allocation is a NumPy
``uint64`` buffer (real, usable storage — the functional path) paired
with a :class:`~repro.numa.pages.PageMap` describing where the simulated
OS put its pages (the modelled path).  Replicated allocations carry one
buffer and one page map per socket.

The allocator charges a shared :class:`~repro.numa.pages.MemoryLedger`
so capacity limits are enforced, and exposes ``free`` so tests can
exercise release accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.errors import AllocationError
from ..core.placement import Placement, PlacementKind
from .pages import MemoryLedger, PageMap
from .topology import MachineSpec


@dataclass(eq=False)
class Allocation:
    """One logical smart-array allocation: replicas plus page maps.

    Allocations compare by identity: two handles are the same allocation
    only if they are the same object (field-wise equality would compare
    the word buffers element by element).

    ``buffers[i]`` is the word storage of replica ``i`` and
    ``page_maps[i]`` its physical placement.  Non-replicated placements
    have exactly one of each; replicated placements have one per socket,
    with replica ``i`` resident wholly on socket ``i`` (paper Fig. 8a).
    """

    placement: Placement
    buffers: List[np.ndarray]
    page_maps: List[PageMap]
    machine: MachineSpec
    freed: bool = False

    @property
    def n_replicas(self) -> int:
        return len(self.buffers)

    @property
    def nbytes_logical(self) -> int:
        """Bytes of one replica (the array's logical size)."""
        return int(self.buffers[0].nbytes)

    @property
    def nbytes_physical(self) -> int:
        """Total physical bytes across replicas — the memory-footprint
        cost of replication the paper's Table 2 lists as a disadvantage."""
        return sum(int(b.nbytes) for b in self.buffers)

    def replica_for_socket(self, socket: int) -> int:
        """Replica index a thread on ``socket`` should use.

        For replicated arrays this is the local replica (the paper's
        ``getReplica()``); otherwise there is only replica 0.
        """
        self.machine.validate_socket(socket)
        if self.placement.is_replicated:
            return socket
        return 0

    def buffer_for_socket(self, socket: int) -> np.ndarray:
        return self.buffers[self.replica_for_socket(socket)]


class NumaAllocator:
    """Allocates word buffers with a placement on a simulated machine."""

    def __init__(self, machine: MachineSpec, ledger: Optional[MemoryLedger] = None):
        self.machine = machine
        self.ledger = ledger if ledger is not None else MemoryLedger(machine)
        self._live: List[Allocation] = []

    # -- allocation -----------------------------------------------------

    def allocate_words(
        self,
        n_words: int,
        placement: Placement,
        toucher_sockets: Optional[Sequence[int]] = None,
    ) -> Allocation:
        """Allocate ``n_words`` 64-bit words under ``placement``.

        ``toucher_sockets`` feeds the first-touch model for OS-default
        placement (socket of each initializing thread, in loop order);
        it defaults to socket 0 — a single-threaded initializer, which
        is the case in the paper's aggregation experiments ("due to the
        single-thread initialization, the 'first-touch' OS default
        policy results in a single socket placement", section 5.1).
        """
        if n_words < 0:
            raise AllocationError(f"cannot allocate {n_words} words")
        nbytes = n_words * 8
        page_bytes = self.machine.page_bytes
        kind = placement.kind
        if kind is PlacementKind.REPLICATED:
            page_maps = [
                PageMap.pinned(nbytes, socket, page_bytes)
                for socket in range(self.machine.n_sockets)
            ]
        elif kind is PlacementKind.SINGLE_SOCKET:
            self.machine.validate_socket(placement.socket)
            page_maps = [PageMap.pinned(nbytes, placement.socket, page_bytes)]
        elif kind is PlacementKind.INTERLEAVED:
            page_maps = [
                PageMap.interleaved(nbytes, self.machine.n_sockets, page_bytes)
            ]
        else:  # OS default, first touch
            touchers = list(toucher_sockets) if toucher_sockets else [0]
            for socket in touchers:
                self.machine.validate_socket(socket)
            page_maps = [PageMap.first_touch(nbytes, touchers, page_bytes)]

        # Charge before building buffers so a failed charge leaks nothing.
        for pm in page_maps:
            self.ledger.charge(pm)
        try:
            buffers = [np.zeros(n_words, dtype=np.uint64) for _ in page_maps]
        except MemoryError:
            for pm in page_maps:
                self.ledger.release(pm)
            raise AllocationError(
                f"host interpreter out of memory allocating {n_words} words"
            )
        allocation = Allocation(
            placement=placement,
            buffers=buffers,
            page_maps=page_maps,
            machine=self.machine,
        )
        self._live.append(allocation)
        return allocation

    def free(self, allocation: Allocation) -> None:
        """Release an allocation's pages back to the ledger."""
        if allocation.freed:
            raise AllocationError("allocation already freed")
        try:
            self._live.remove(allocation)
        except ValueError:
            raise AllocationError(
                "allocation was not made by this allocator"
            ) from None
        for pm in allocation.page_maps:
            self.ledger.release(pm)
        allocation.freed = True

    # -- introspection ----------------------------------------------------

    @property
    def live_allocations(self) -> int:
        return len(self._live)

    def used_bytes(self) -> int:
        return sum(self.ledger.used_bytes)

    def can_fit_on_every_socket(self, nbytes: int) -> bool:
        """Would one replica of ``nbytes`` fit on *each* socket right now?

        This is the "space for replication" predicate of the adaptivity
        decision diagrams (Fig. 13).
        """
        return all(
            self.ledger.free_bytes(s) >= nbytes
            for s in range(self.machine.n_sockets)
        )
