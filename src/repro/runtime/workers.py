"""Worker pool with socket pinning (Callisto-RTS's thread management).

Callisto-RTS pins its worker threads and never moves them (section 5:
"threads used by Callisto-RTS are pinned and do not move during
execution"), and by default uses every hardware thread context.  The
:class:`WorkerPool` reproduces that regime on a simulated machine: each
worker carries a :class:`ThreadContext` naming its hardware thread and
socket, in the same socket-major numbering the machine spec uses.

Two execution strategies are provided:

* ``threads`` — real ``threading.Thread`` workers.  NumPy kernels
  release the GIL, so bulk work genuinely overlaps; this mode also
  surfaces real races, which the tests for the unsynchronized
  ``init()`` path exploit.
* ``serial`` — each worker's work function runs to completion in turn
  on the calling thread.  Under dynamic batch claiming worker 0 drains
  the whole counter, so a serial run is deterministic and reads only
  worker 0's socket; observing several sockets takes ``threads``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..numa.topology import MachineSpec


@dataclass(frozen=True)
class ThreadContext:
    """Identity of one pinned worker: its hardware thread and socket.

    Loop bodies receive this so they can pick the socket-local replica
    of a smart array (the paper's ``getReplica()`` at batch start).
    """

    thread_id: int
    socket: int


def build_contexts(
    machine: MachineSpec, n_workers: Optional[int] = None
) -> List[ThreadContext]:
    """Pin ``n_workers`` contexts socket-major across the machine.

    Defaults to every hardware thread context, the paper's experimental
    configuration.  Fewer workers are spread round-robin across sockets
    so both memory controllers stay in play (matching how Callisto
    balances threads).
    """
    total = machine.total_hardware_threads
    if n_workers is None:
        n_workers = total
    if not 1 <= n_workers <= total:
        raise ValueError(
            f"n_workers must be in 1..{total}, got {n_workers}"
        )
    if n_workers == total:
        return [
            ThreadContext(t, machine.socket_of_thread(t)) for t in range(total)
        ]
    # Round-robin across sockets: worker i sits on socket i % n_sockets.
    contexts = []
    per_socket_next = [list(machine.threads_on_socket(s)) for s in
                       range(machine.n_sockets)]
    for i in range(n_workers):
        socket = i % machine.n_sockets
        thread_id = per_socket_next[socket].pop(0)
        contexts.append(ThreadContext(thread_id, socket))
    return contexts


class WorkerPool:
    """A fixed set of pinned workers executing work functions.

    ``run(work)`` invokes ``work(ctx)`` once per worker; the work
    function is expected to loop claiming batches until none remain
    (see :mod:`repro.runtime.loops`).
    """

    def __init__(
        self,
        machine: MachineSpec,
        n_workers: Optional[int] = None,
        mode: str = "threads",
    ) -> None:
        if mode not in ("threads", "serial"):
            raise ValueError(f"mode must be 'threads' or 'serial', got {mode!r}")
        self.machine = machine
        self.contexts = build_contexts(machine, n_workers)
        self.mode = mode

    @property
    def n_workers(self) -> int:
        return len(self.contexts)

    def workers_on_socket(self, socket: int) -> int:
        return sum(1 for c in self.contexts if c.socket == socket)

    def run(self, work: Callable[[ThreadContext], None]) -> None:
        """Execute ``work`` once per worker and wait for completion.

        In ``threads`` mode exceptions raised by any worker are
        collected and the first is re-raised on the caller's thread, so
        failures are never swallowed.
        """
        if self.mode == "serial":
            for ctx in self.contexts:
                work(ctx)
            return
        errors: List[BaseException] = []
        errors_lock = threading.Lock()

        def runner(ctx: ThreadContext) -> None:
            try:
                work(ctx)
            except BaseException as exc:  # noqa: BLE001 - reraised below
                with errors_lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=runner, args=(ctx,), daemon=True)
            for ctx in self.contexts
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<WorkerPool {self.n_workers} workers on "
            f"{self.machine.n_sockets} sockets, mode={self.mode}>"
        )
