"""Background adaptation daemon: measure -> select -> migrate -> verify.

:class:`LiveAdaptationDaemon` closes the §6 adaptivity loop on one live
array.  It is *measurement-driven only*: everything it knows about the
workload comes from :class:`~repro.obs.registry.MetricsRegistry` deltas
(the same ``core.replica_read_elements`` accounting the scan engine
already maintains), turned into selector-ready
:class:`~repro.adapt.inputs.WorkloadMeasurement`\\ s exactly the way the
obs trace bridge does it.

Each tick:

1. snapshot the registry, compute the elements decoded from the array
   since the previous tick, and derive perf counters from the blocked-
   scan cost model;
2. if a migration is in flight, drive it one budgeted step instead of
   deciding anything new (the controller's in-flight gate also
   suppresses decisions);
3. if a migration just completed, spend ``verify_ticks`` ticks
   comparing the observed scan rate against the pre-migration baseline;
   a regression beyond ``regression_threshold`` triggers exactly one
   rollback migration to the previous configuration;
4. otherwise feed the measurement to the
   :class:`~repro.adapt.dynamic.AdaptiveController` (hysteresis +
   cooldown) and apply any emitted reconfiguration through the
   migrator.

Drive it manually with :meth:`tick` (deterministic, test-friendly —
pass ``elapsed_s`` to fix the measurement denominator) or as a thread
with :meth:`start` / :meth:`stop`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional

from ..adapt.dynamic import AdaptiveController
from ..adapt.inputs import (
    ArrayCharacteristics,
    MachineCapabilities,
    WorkloadMeasurement,
)
from ..adapt.selector import Configuration
from ..core import bitpack
from ..core.bitpack_fast import unpack_array_fast
from ..core.errors import AllocationError
from ..core.smart_array import SmartArray
from ..numa.counters import PerfCounters
from ..obs.registry import registry as _obs_registry
from ..perfmodel.workload import blocked_scan_instructions
from .migrator import (
    LiveMigrator,
    Migration,
    MigrationBudget,
    MigrationError,
)

#: Floor for measurement denominators, mirroring the obs bridge.
MIN_TIME_S = 1e-9


@dataclass(frozen=True)
class AdaptationEvent:
    """One timeline entry: what the daemon did on a tick and why."""

    tick: int
    kind: str  # measure|decide|migrate_start|migrate_step|migrate_done|
    #            migrate_abort|verify|accept|rollback_start|rollback_done
    detail: str

    def describe(self) -> str:
        return f"[tick {self.tick:>3}] {self.kind:<14} {self.detail}"


class LiveAdaptationDaemon:
    """Adapt one live array from registry measurements (see module doc).

    Knobs:

    * ``interval_s`` — thread-mode tick period;
    * ``budget`` — per-tick migration step budget
      (:class:`~repro.live.migrator.MigrationBudget`);
    * ``window`` / ``drift_threshold`` / ``cooldown`` — forwarded to the
      :class:`~repro.adapt.dynamic.AdaptiveController`;
    * ``regression_threshold`` — fractional post-migration rate drop
      (vs. the pre-migration baseline) that triggers rollback;
    * ``verify_ticks`` — ticks of post-migration rate evidence gathered
      before accepting or rolling back;
    * ``min_elements_per_tick`` — ticks decoding fewer elements carry no
      workload signal and are skipped for control purposes.
    """

    def __init__(
        self,
        array: SmartArray,
        caps: MachineCapabilities,
        migrator: LiveMigrator,
        *,
        interval_s: float = 0.05,
        budget: Optional[MigrationBudget] = None,
        window: int = 3,
        drift_threshold: float = 0.25,
        cooldown: Optional[int] = None,
        regression_threshold: float = 0.5,
        verify_ticks: int = 2,
        accesses_per_element: float = 8.0,
        element_bits: Optional[int] = None,
        min_elements_per_tick: int = 1,
        registry=None,
    ) -> None:
        if not 0.0 < regression_threshold < 1.0:
            raise ValueError("regression_threshold must be in (0, 1)")
        if verify_ticks < 1:
            raise ValueError("verify_ticks must be >= 1")
        self.array = array
        self.caps = caps
        self.migrator = migrator
        self.interval_s = interval_s
        self.budget = budget or MigrationBudget()
        self.window = window
        self.drift_threshold = drift_threshold
        self.cooldown = window if cooldown is None else cooldown
        self.regression_threshold = regression_threshold
        self.verify_ticks = verify_ticks
        self.accesses_per_element = accesses_per_element
        self.min_elements_per_tick = min_elements_per_tick
        self._registry = registry if registry is not None else _obs_registry()
        #: The data's intrinsic width — the compression candidate the
        #: selector weighs against 64-bit reads.  Derived from the data
        #: itself unless given (one decode pass at daemon construction).
        self.element_bits = (
            element_bits if element_bits is not None
            else self._measure_element_bits()
        )
        self.controller: Optional[AdaptiveController] = None
        self.timeline: List[AdaptationEvent] = []
        self.migrations: List[Migration] = []
        self._tick = 0
        self._migration: Optional[Migration] = None
        self._baseline_rate: Optional[float] = None
        self._last_rate: Optional[float] = None
        self._verify_rates: Optional[List[float]] = None
        self._last_snapshot = self._read_elements_total()
        self._last_time = time.monotonic()
        self._tick_counter = self._registry.counter("live.daemon_ticks")
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._tick_lock = threading.Lock()

    # -- measurement ------------------------------------------------------

    def _measure_element_bits(self) -> int:
        """Width the data actually needs (decoded once, off the books)."""
        gen = self.array.pin_generation()
        try:
            if self.array.length == 0:
                return self.array.bits
            values = unpack_array_fast(
                gen.buffers[0], self.array.length, gen.bits
            )
            return max(1, int(values.max()).bit_length())
        finally:
            gen.unpin()

    def _read_elements_total(self) -> int:
        """Scan-engine elements decoded from this array so far, summed
        over every replica counter the array ever registered."""
        values = self._registry.values(
            "core.replica_read_elements", array=self.array.stats.array_label
        )
        return int(sum(values.values()))

    def _measurement(self, n_elements: int,
                     elapsed_s: float) -> WorkloadMeasurement:
        """Registry delta -> selector measurement (obs-bridge convention:
        costs from the blocked-scan model at the array's current
        width, memory-bound scans)."""
        time_s = max(elapsed_s, MIN_TIME_S)
        bits = self.array.bits
        nbytes = n_elements * bits / 8.0
        counters = PerfCounters(
            time_s=time_s,
            instructions=blocked_scan_instructions(n_elements, bits),
            bytes_from_memory=nbytes,
            memory_bandwidth_gbs=nbytes / time_s / 1e9,
            memory_bound=True,
            label=f"live tick {self._tick}",
        )
        return WorkloadMeasurement(
            counters=counters,
            read_only=True,
            linear_accesses_per_element=self.accesses_per_element,
            accesses_per_second=n_elements / time_s,
        )

    def _current_configuration(self) -> Configuration:
        return Configuration(self.array.placement, self.array.bits)

    def _free_bytes_per_socket(self) -> int:
        ledger = self.migrator.allocator.ledger
        return min(
            ledger.free_bytes(s)
            for s in range(ledger.machine.n_sockets)
        )

    # -- the tick ---------------------------------------------------------

    def tick(self, elapsed_s: Optional[float] = None) -> List[AdaptationEvent]:
        """One control step; returns the events it appended.

        ``elapsed_s`` overrides the wall-clock denominator of the tick's
        rate measurement (tests use it to make rates deterministic).
        """
        with self._tick_lock:
            return self._tick_once(elapsed_s)

    def _tick_once(self, elapsed_s: Optional[float]) -> List[AdaptationEvent]:
        self._tick += 1
        self._tick_counter.add(1)
        before = len(self.timeline)

        now = time.monotonic()
        if elapsed_s is None:
            elapsed_s = max(now - self._last_time, MIN_TIME_S)
        self._last_time = now
        total = self._read_elements_total()
        n_elements = total - self._last_snapshot
        self._last_snapshot = total
        rate = n_elements / max(elapsed_s, MIN_TIME_S)

        if self._migration is not None and not self._migration.done:
            self._step_migration()
        elif self._verify_rates is not None:
            self._verify(n_elements, rate)
        elif n_elements >= self.min_elements_per_tick:
            self._last_rate = rate
            self._control(n_elements, elapsed_s)
        return self.timeline[before:]

    def _event(self, kind: str, detail: str) -> None:
        self.timeline.append(AdaptationEvent(self._tick, kind, detail))

    # -- control path -----------------------------------------------------

    def _control(self, n_elements: int, elapsed_s: float) -> None:
        measurement = self._measurement(n_elements, elapsed_s)
        self._event(
            "measure",
            f"{n_elements} elements in {elapsed_s:.3f}s "
            f"({measurement.counters.memory_bandwidth_gbs:.2f} GB/s)",
        )
        if self.controller is None:
            self.controller = AdaptiveController(
                self.caps,
                ArrayCharacteristics(
                    length=max(1, self.array.length),
                    element_bits=self.element_bits,
                    scan_engine="blocked",
                ),
                measurement,
                window=self.window,
                drift_threshold=self.drift_threshold,
                free_bytes_per_socket=self._free_bytes_per_socket(),
                cooldown=self.cooldown,
            )
            wanted = self.controller.configuration
            if wanted != self._current_configuration():
                self._event(
                    "decide",
                    f"initial selection {wanted.describe()} != current "
                    f"{self._current_configuration().describe()}",
                )
                self.controller.begin_apply()
                self._start_migration(wanted, reason="initial selection")
            return
        decision = self.controller.observe(measurement.counters)
        if decision is not None:
            self._event(
                "decide",
                f"{decision.new.describe()} ({decision.reason})",
            )
            self._start_migration(decision.new, reason=decision.reason)

    def _start_migration(self, target: Configuration, reason: str,
                         rollback_of: Optional[Migration] = None) -> None:
        try:
            self._migration = self.migrator.start(
                self.array, target, budget=self.budget,
                reason=reason, rollback_of=rollback_of,
            )
        except (AllocationError, MigrationError) as exc:
            self._event("migrate_abort", f"could not start: {exc}")
            if self.controller is not None:
                self.controller.abort_apply()
            return
        self.migrations.append(self._migration)
        kind = "rollback_start" if rollback_of is not None else "migrate_start"
        self._event(kind, self._migration.describe())

    def _step_migration(self) -> None:
        migration = self._migration
        migration.step()
        if not migration.done:
            if migration.mode == "repack":
                self._event(
                    "migrate_step",
                    f"{migration.chunks_repacked}/{migration.total_chunks} "
                    f"chunks",
                )
            else:
                self._event(
                    "migrate_step", f"{migration.pages_moved} pages moved"
                )
            return
        if migration.state == "aborted":
            self._event("migrate_abort", migration.abort_reason or "aborted")
            if self.controller is not None:
                self.controller.abort_apply(
                    restore=self._current_configuration()
                )
            self._migration = None
            return
        if migration.rollback_of is not None:
            # A completed rollback: the previous configuration is live
            # again.  Re-point the controller and cool down — never
            # verify a rollback (that way exactly one rollback can
            # follow one migration).
            self._event("rollback_done", migration.describe())
            if self.controller is not None:
                self.controller.abort_apply(
                    restore=self._current_configuration()
                )
            self._migration = None
            return
        self._event("migrate_done", migration.describe())
        self._verify_rates = []
        self._baseline_rate = self._last_rate

    # -- post-migration verification --------------------------------------

    def _verify(self, n_elements: int, rate: float) -> None:
        if n_elements < self.min_elements_per_tick:
            # No workload signal this tick; keep waiting for evidence.
            self._event("verify", "no traffic, waiting")
            return
        self._verify_rates.append(rate)
        self._event(
            "verify",
            f"rate {rate / 1e6:.2f} Melem/s "
            f"({len(self._verify_rates)}/{self.verify_ticks} ticks)",
        )
        if len(self._verify_rates) < self.verify_ticks:
            return
        observed = sum(self._verify_rates) / len(self._verify_rates)
        baseline = self._baseline_rate
        self._verify_rates = None
        self._baseline_rate = None
        finished = self._migration
        self._migration = None
        if (
            baseline is not None
            and baseline > 0
            and observed < (1.0 - self.regression_threshold) * baseline
        ):
            self._start_migration(
                finished.source,
                reason=(
                    f"rate regressed to {observed / 1e6:.2f} from "
                    f"{baseline / 1e6:.2f} Melem/s baseline"
                ),
                rollback_of=finished,
            )
            return
        self._event(
            "accept",
            f"rate {observed / 1e6:.2f} Melem/s within "
            f"{self.regression_threshold:.0%} of baseline",
        )
        if self.controller is not None:
            self.controller.finish_apply()

    # -- thread mode -------------------------------------------------------

    def start(self) -> None:
        """Run ticks every ``interval_s`` on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("daemon already started")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.interval_s):
                self.tick()

        self._thread = threading.Thread(
            target=loop, name="live-adaptation", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the daemon thread (idempotent); finishes the tick."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    # -- reporting ---------------------------------------------------------

    def format_timeline(self) -> str:
        if not self.timeline:
            return "(no adaptation events)"
        return "\n".join(event.describe() for event in self.timeline)
