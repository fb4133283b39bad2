"""Atomic primitives for loop work distribution.

Callisto-RTS distributes loop iterations between workers with atomic
fetch-and-add on a shared batch counter (section 2.2: "the fast-path
distribution of work between threads occurs in C++").  CPython offers
no lock-free fetch-add, so :class:`AtomicCounter` uses a mutex — the
semantics (each batch claimed exactly once, no batch lost) are what the
runtime and its tests rely on.
"""

from __future__ import annotations

import threading


class AtomicCounter:
    """A monotonically increasing counter with atomic fetch-and-add."""

    def __init__(self, initial: int = 0) -> None:
        self._value = int(initial)
        self._lock = threading.Lock()

    def fetch_add(self, delta: int) -> int:
        """Atomically add ``delta`` and return the *previous* value."""
        with self._lock:
            old = self._value
            self._value += delta
            return old

    def load(self) -> int:
        with self._lock:
            return self._value

    def store(self, value: int) -> None:
        with self._lock:
            self._value = int(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AtomicCounter({self.load()})"

