"""The untraced pass: where every end-to-end metric comes from."""

from __future__ import annotations

import os
import resource
import statistics
import tempfile
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.adapt import Configuration
from repro.core.allocate import default_allocator
from repro.live import LiveMigrator
from repro.server.client import connect

from . import data as inputs
from .loadgen import (Sample, ServerChild, latency_metrics, pinning_cpus,
                      run_clients, tcp_executor, verify)
from .workloads import CLIENTS, WRITE_FROM_TS, Oracle, ops, run_embedded

SCATTER_BATCH = 10_000
WIDE_BITS = 32


def end_to_end(samples: List[Sample], ok: List[bool], t0: float,
               seconds: float, n_rounds: int, setup_s: List[float],
               cpu_s: float, rss_mb: float, stored_bytes: int,
               rows: int) -> Dict[str, Optional[dict]]:
    metrics = latency_metrics(samples, ok, t0, seconds, n_rounds)
    done = sum(1 for s, fine in zip(samples, ok) if fine and s.end >= t0)
    metrics["setup_s"] = {
        "value": statistics.median(setup_s), "min": min(setup_s),
        "max": max(setup_s), "rounds": list(setup_s)}
    metrics["cpu_ms_per_op"] = (
        {"value": cpu_s * 1e3 / done, "samples": done} if done else None)
    metrics["peak_rss_mb"] = {"value": rss_mb}
    metrics["bytes_per_row"] = {"value": stored_bytes / rows}
    return metrics


def start_servers(input_dir: str, setups: int, cpus=None):
    """Set the server up ``setups`` times (so ``setup_s`` is a median);
    returns the last child, still running, and each set-up's seconds."""
    setup_s, child = [], None
    for _ in range(setups):
        if child is not None:
            child.close()
        child = ServerChild(input_dir, cpus)
        setup_s.append(child.setup_s)
    return child, setup_s


def tcp_window(child: ServerChild, workload: str, seed: int, seconds: float,
               clients: int, cpus=None):
    """One closed-loop window against the child, the generator confined
    to ``cpus`` meanwhile; returns ``(t0, samples, server_cpu_seconds)``."""
    conns = [connect(port=child.port) for _ in range(clients)]
    cpu: Dict[str, float] = {}
    free = os.sched_getaffinity(0)
    try:
        if cpus:
            os.sched_setaffinity(0, cpus)
        t0, samples = run_clients(
            [tcp_executor(c) for c in conns],
            [ops(workload, seed, i) for i in range(clients)], seconds,
            on_start=lambda: cpu.update(t0=child.cpu_s()))
        return t0, samples, child.cpu_s() - cpu["t0"]
    finally:
        os.sched_setaffinity(0, free)
        for conn in conns:
            conn.close()


def measure_sql(workload: str, seed: int, seconds: float, rows: int,
                n_rounds: int, setups: int, workdir: str) -> dict:
    data = inputs.generate(seed, rows)
    with tempfile.TemporaryDirectory(dir=workdir) as input_dir:
        inputs.save(data, input_dir)
        generator_cpus, server_cpus = pinning_cpus(workload)
        child, setup_s = start_servers(input_dir, setups, server_cpus)
        with child:
            t0, samples, cpu_s = tcp_window(child, workload, seed, seconds,
                                            CLIENTS[workload], generator_cpus)
            rss_mb, stored = child.peak_rss_mb(), child.storage_bytes
    ok = verify(samples, Oracle(data))
    return {
        "attempted": len(samples), "failed": ok.count(False),
        "metrics": end_to_end(samples, ok, t0, seconds, n_rounds, setup_s,
                              cpu_s, rss_mb, stored, rows),
    }


class Writer(threading.Thread):
    """Writes beside the reader until stopped: value-preserving
    ``scatter_many`` batches into the hot tail (rows from
    ``WRITE_FROM_TS`` on, which no read touches) and live migrations of
    ``amount`` 20->32->20 bits and ``region`` bitpack->dict->bitpack,
    default ``MigrationBudget``.

    With ``step_times`` it drives each migration step by step and
    records every step's seconds (the traced pass's ``live.*`` metrics);
    without, it calls ``LiveMigrator.migrate``.
    """

    def __init__(self, tables: dict, data: dict, seed: int,
                 step_times: Optional[List[float]] = None) -> None:
        super().__init__(name="e2e-writer")
        self.events = tables["events"]
        rng = np.random.default_rng(seed)
        tail = np.arange(np.searchsorted(data["ts"], WRITE_FROM_TS),
                         data["ts"].size, dtype=np.int64)
        self.batches = []
        for _ in range(8):
            idx = np.sort(rng.choice(tail, min(SCATTER_BATCH, tail.size),
                                     replace=False))
            self.batches.append((idx, data["amount"][idx]))
        self.step_times = step_times
        self.stop = threading.Event()
        self.cycle_s: List[float] = []
        self.migrations = 0
        self.incomplete = 0
        self.crash: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self._cycle_until_stopped()
        except BaseException as exc:  # noqa: BLE001 - reported by caller
            self.crash = exc

    def _cycle_until_stopped(self) -> None:
        amount, region = self.events["amount"], self.events["region"]
        migrator = LiveMigrator(default_allocator())
        targets = ((amount, WIDE_BITS, "bitpack"),
                   (amount, amount.bits, "bitpack"),
                   (region, region.bits, "dict"),
                   (region, region.bits, "bitpack"))
        n = 0
        while not self.stop.is_set():
            t_cycle = time.perf_counter()
            for array, bits, codec in targets:
                idx, values = self.batches[n % len(self.batches)]
                n += 1
                amount.scatter_many(idx, values)
                target = Configuration(array.placement, bits, codec)
                if self.step_times is None:
                    migration = migrator.migrate(array, target)
                else:
                    migration = migrator.start(array, target)
                    more = True
                    while more:
                        t = time.perf_counter()
                        more = migration.step()
                        self.step_times.append(time.perf_counter() - t)
                self.migrations += 1
                self.incomplete += migration.state != "completed"
            # A cycle cut short by stop still ran whole; the reader may
            # have left, so only cycles that ended in time are reported.
            if not self.stop.is_set():
                self.cycle_s.append(time.perf_counter() - t_cycle)

    def finish(self, data: dict) -> int:
        """Stop, join, and count failed write-side checks: migrations
        that did not complete plus columns that no longer decode to the
        generated values."""
        self.stop.set()
        self.join()
        if self.crash is not None:
            raise self.crash
        wrong = sum(
            not np.array_equal(self.events[name].to_numpy(), data[name])
            for name in ("amount", "region"))
        return self.incomplete + wrong


def build_embedded(data: dict, setups: int):
    """Phase A, ``setups`` times; returns the last tables and timings."""
    build_s, tables = [], None
    for _ in range(setups):
        tables = None  # drop the previous build before the next
        tables, seconds = inputs.build_tables(data)
        build_s.append(seconds)
    return tables, build_s


def embedded_window(tables: dict, workload: str, seed: int, seconds: float):
    """One reader closed loop in this process; returns
    ``(t0, samples, process_cpu_seconds)``."""
    cpu: Dict[str, float] = {}
    t0, samples = run_clients(
        [lambda op: run_embedded(op, tables)], [ops(workload, seed)],
        seconds, on_start=lambda: cpu.update(t0=time.process_time()))
    return t0, samples, time.process_time() - cpu["t0"]


def verify_embedded(samples: List[Sample], oracle: Oracle) -> List[bool]:
    return verify(samples, oracle, reduce=lambda answer: answer)


def measure_embedded(workload: str, seed: int, seconds: float, rows: int,
                     n_rounds: int, setups: int, workdir: str) -> dict:
    del workdir  # nothing goes to disk: the program gets arrays
    data = inputs.generate(seed, rows)
    tables, build_s = build_embedded(data, setups)
    writer = Writer(tables, data, seed)
    writer.start()
    try:
        t0, samples, cpu_s = embedded_window(tables, workload, seed, seconds)
    finally:
        write_failures = writer.finish(data)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = verify_embedded(samples, Oracle(data))
    return {
        "attempted": len(samples) + writer.migrations + 2,
        "failed": ok.count(False) + write_failures,
        "metrics": end_to_end(samples, ok, t0, seconds, n_rounds, build_s,
                              cpu_s, rss_mb, inputs.storage_bytes(tables),
                              rows),
    }
