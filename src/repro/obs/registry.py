"""Thread-safe metrics registry: named counters, gauges, histograms.

The observability layer's ground truth.  Every software-counter surface
in the reproduction — :class:`repro.core.stats.AccessStats`, replica-
read accounting, the worker pool's batch claims, zone-map prune counts,
the query engine's totals — registers its numbers here instead of
hand-rolling ``self.x += n`` on plain ints (which is a lost-update race
under worker threads: the ``+=`` compiles to LOAD/ADD/STORE bytecode
and the GIL can switch threads between the LOAD and the STORE).

Design points:

* **Metrics are label-keyed.**  ``registry().counter("core.chunk_unpacks",
  array="a3")`` returns the one counter for that (name, labels) pair,
  creating it on first use.  Labels keep per-array and per-socket
  breakdowns addressable without inventing name suffixes.
* **Counters are monotonic** (``add`` rejects negative deltas); gauges
  move both ways; histograms bucket observations by upper bound.
* **Every mutation is locked.**  A metric may be given a *shared* lock
  at creation so a group of counters (e.g. one array's six AccessStats
  fields) can be updated together under a single acquisition — see
  :meth:`Counter.add_under_lock`.
* **Snapshots are flat dicts** of ``"name{k=v,...}" -> number`` so
  delta/compare logic stays trivial for tests and the trace layer.
* **Repeat lookups are one dict probe.**  Hot paths ask for the same
  series on every request; ``counter()``/``gauge()``/``histogram()``
  first try a dict keyed by the call itself — ``(kind, name, label
  items as passed)`` — before building a label dict and a
  ``metric_key`` string.  Only calls whose label values are all ``str``
  are remembered there (``1`` and ``True`` are equal dict keys but
  different labels), and a drop, once applied, clears it.

The module is dependency-free (stdlib only) so ``repro.core`` can import
it without cycles.
"""

from __future__ import annotations

import collections
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple


def metric_key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical flat key for a (name, labels) pair.

    Labels are sorted so the key is independent of keyword order:
    ``core.chunk_unpacks{array=a3}``.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`metric_key`."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    rest = rest.rstrip("}")
    labels: Dict[str, str] = {}
    if rest:
        for pair in rest.split(","):
            k, _, v = pair.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """Monotonic named counter.  All mutation happens under ``lock``."""

    kind = "counter"

    __slots__ = ("name", "labels", "key", "_lock", "_value")

    def __init__(self, name: str, labels: Mapping[str, str],
                 lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self.labels = dict(labels)
        self.key = metric_key(name, self.labels)
        self._lock = lock if lock is not None else threading.Lock()
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def add(self, n: int = 1) -> None:
        """Atomically increment by ``n`` (must be >= 0: monotonic)."""
        n = int(n)
        if n < 0:
            raise ValueError(f"counter {self.key}: negative add ({n})")
        with self._lock:
            self._value += n

    def add_under_lock(self, n: int) -> None:
        """Increment assuming the caller already holds this counter's
        (shared) lock — lets a group of counters sharing one lock be
        bumped together under a single acquisition."""
        self._value += int(n)

    def store_under_lock(self, value: int) -> None:
        """Overwrite assuming the caller holds the lock (reset paths)."""
        self._value = int(value)

    def store(self, value: int) -> None:
        """Overwrite the count (reset / test-compat assignment path)."""
        with self._lock:
            self._value = int(value)

    def reset(self) -> None:
        self.store(0)

    def snapshot_into(self, out: Dict[str, float]) -> None:
        out[self.key] = self._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Counter {self.key}={self._value}>"


class Gauge:
    """Named gauge: a value that can move both ways."""

    kind = "gauge"

    __slots__ = ("name", "labels", "key", "_lock", "_value")

    def __init__(self, name: str, labels: Mapping[str, str],
                 lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self.labels = dict(labels)
        self.key = metric_key(name, self.labels)
        self._lock = lock if lock is not None else threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += float(n)

    def reset(self) -> None:
        self.set(0.0)

    def snapshot_into(self, out: Dict[str, float]) -> None:
        out[self.key] = self._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Gauge {self.key}={self._value}>"


#: Default histogram bucket upper bounds (seconds-flavoured, but any
#: unit works — they are just thresholds).
DEFAULT_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)


class Histogram:
    """Named histogram with cumulative buckets (prometheus-style)."""

    kind = "histogram"

    __slots__ = ("name", "labels", "key", "buckets", "_lock",
                 "_counts", "_sum", "_count")

    def __init__(self, name: str, labels: Mapping[str, str],
                 buckets: Optional[Iterable[float]] = None,
                 lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self.labels = dict(labels)
        self.key = metric_key(name, self.labels)
        self.buckets = tuple(sorted(buckets if buckets is not None
                                    else DEFAULT_BUCKETS))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = lock if lock is not None else threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # +inf overflow
        self._sum = 0.0
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def observe(self, value: float) -> None:
        value = float(value)
        slot = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                slot = i
                break
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, +inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        with self._lock:
            counts = list(self._counts)
        for bound, c in zip(self.buckets, counts):
            running += c
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0

    def snapshot_into(self, out: Dict[str, float]) -> None:
        out[self.key + "__count"] = self._count
        out[self.key + "__sum"] = self._sum

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Histogram {self.key} n={self._count} sum={self._sum}>"


class MetricsRegistry:
    """Label-keyed get-or-create store of counters/gauges/histograms.

    ``counter()``/``gauge()``/``histogram()`` return the existing metric
    for a (name, labels) pair or create it under the registry lock, so
    two threads asking for the same counter always share one object.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}
        #: ``(kind, name, label items as passed) -> metric`` for calls
        #: whose label values are all ``str``; filled and cleared only
        #: under ``_lock``, read without it.
        self._lookups: Dict[tuple, object] = {}
        # Drops requested while the lock was already held (GC running a
        # per-array finalizer *inside* one of this registry's locked
        # regions lands on the owning thread — blocking there would
        # self-deadlock).  deque.append is atomic, so queueing needs no
        # lock; entries are applied on the next locked operation.
        self._pending_drops: "collections.deque" = collections.deque()

    def _apply_pending_drops_locked(self) -> None:
        """Apply deferred :meth:`drop` requests.  Caller holds ``_lock``."""
        while True:
            try:
                keys = self._pending_drops.popleft()
            except IndexError:
                return
            self._drop_locked(keys)

    def _drop_locked(self, keys: Iterable[str]) -> None:
        """Forget ``keys``.  Caller holds ``_lock``."""
        dropped = False
        for key in keys:
            dropped |= self._metrics.pop(key, None) is not None
        if dropped:
            # Refilled by the next lookup of each surviving series.
            self._lookups = {}

    # -- get-or-create -----------------------------------------------------

    def _get_or_create(self, cls, name: str, raw_labels: Dict[str, object],
                       **kwargs):
        try:
            lookup = (cls, name, tuple(raw_labels.items()))
            metric = self._lookups.get(lookup)
        except TypeError:  # an unhashable label value
            lookup, metric = None, None
        if metric is not None:
            return metric
        remember = lookup is not None and all(
            type(v) is str for v in raw_labels.values())
        labels = {k: str(v) for k, v in raw_labels.items()}
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None or remember:
            with self._lock:
                self._apply_pending_drops_locked()
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(name, labels, **kwargs)
                    self._metrics[key] = metric
                if remember and isinstance(metric, cls):
                    # Filled under the lock, so a series whose drop was
                    # applied can never be remembered again.
                    self._lookups[lookup] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {key!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, lock: Optional[threading.Lock] = None,
                **labels) -> Counter:
        return self._get_or_create(Counter, name, labels, lock=lock)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Optional[Iterable[float]] = None,
                  **labels) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    # -- introspection -----------------------------------------------------

    def metrics(self) -> List[object]:
        """Stable-ordered list of all registered metrics."""
        with self._lock:
            self._apply_pending_drops_locked()
            return [self._metrics[k] for k in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, float]:
        """Flat ``key -> value`` view of every metric.

        Each value is read under its metric's lock-protected invariants
        (plain loads of ints/floats are atomic under the GIL), and the
        metric set itself is captured under the registry lock, so the
        snapshot is per-metric consistent.
        """
        out: Dict[str, float] = {}
        for metric in self.metrics():
            metric.snapshot_into(out)
        return out

    def delta(self, before: Mapping[str, float],
              after: Optional[Mapping[str, float]] = None
              ) -> Dict[str, float]:
        """Per-key difference ``after - before``, nonzero entries only.

        ``after`` defaults to a fresh :meth:`snapshot`.  Keys absent
        from ``before`` count from zero (metrics created mid-window).
        """
        if after is None:
            after = self.snapshot()
        out: Dict[str, float] = {}
        for key, now in after.items():
            diff = now - before.get(key, 0)
            if diff:
                out[key] = diff
        return out

    def value(self, name: str, default: float = 0, **labels) -> float:
        """Current value of one counter/gauge, ``default`` if absent."""
        key = metric_key(name, {k: str(v) for k, v in labels.items()})
        metric = self._metrics.get(key)
        if metric is None:
            return default
        return metric.value  # type: ignore[union-attr]

    def values(self, prefix: str = "", **labels) -> Dict[str, float]:
        """Snapshot restricted to keys whose name starts with ``prefix``
        and whose labels include every given label."""
        want = {k: str(v) for k, v in labels.items()}
        out: Dict[str, float] = {}
        for metric in self.metrics():
            if not metric.name.startswith(prefix):
                continue
            mlabels = metric.labels
            if any(mlabels.get(k) != v for k, v in want.items()):
                continue
            metric.snapshot_into(out)
        return out

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Zero every registered metric (start of a measured region)."""
        for metric in self.metrics():
            metric.reset()

    def drop(self, keys: Iterable[str]) -> None:
        """Forget metrics by key (used by per-array finalizers so the
        registry does not grow without bound as arrays are collected).

        GC-safe: finalizers can fire on whatever thread happens to
        trigger a collection — including one currently *inside* a
        locked region of this registry — so this never blocks on the
        lock.  If the lock is unavailable the drop is queued and
        applied by the next locked operation.
        """
        keys = tuple(keys)
        if not self._lock.acquire(blocking=False):
            self._pending_drops.append(keys)
            return
        try:
            self._apply_pending_drops_locked()
            self._drop_locked(keys)
        finally:
            self._lock.release()

    def clear(self) -> None:
        """Forget every metric (test isolation)."""
        with self._lock:
            self._pending_drops.clear()
            self._metrics.clear()
            self._lookups = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MetricsRegistry metrics={len(self._metrics)}>"


_DEFAULT = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry every built-in surface uses."""
    return _DEFAULT
