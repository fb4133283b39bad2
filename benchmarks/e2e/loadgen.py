"""Closed-loop load generation, the server child, and verification.

All loops are closed: a client sends its next request only after the
previous reply.  Replies are recorded during the window and checked
against the oracle after it, outside the timed region.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

from repro.server.client import connect

from . import stats
from .workloads import PINNED, Op, Oracle, observed, same_answer, sql_text

WARMUP_OPS = 20
_SERVER_PROC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "server_proc.py")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Sample(NamedTuple):
    op: Op
    result: object          # reply, or None when the op raised
    error: Optional[str]
    end: float              # perf_counter at completion
    latency: float          # seconds


def pinning_cpus(workload: str):
    """``(generator_cpus, server_cpus)`` for a pinned workload on a host
    with two CPUs to give, else ``(None, None)``."""
    cpus = sorted(os.sched_getaffinity(0))
    if workload not in PINNED or len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


class ServerChild:
    """A ``server_proc.py`` process, timed from spawn to first ``ping``;
    ``cpus`` confines it (and every thread it starts) to those CPUs."""

    def __init__(self, input_dir: str, cpus=None) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, _SERVER_PROC, input_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            if cpus:
                # Still single-threaded this early; its threads inherit.
                os.sched_setaffinity(self.proc.pid, cpus)
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server child exited before listening")
            ready = json.loads(line)
            self.port: int = ready["port"]
            self.storage_bytes: int = ready["storage_bytes"]
            with connect(port=self.port) as conn:
                conn.ping()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def cpu_s(self) -> float:
        """User+system CPU of the child and the children it has reaped."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            # Fields after the parenthesised command name; utime is the
            # 14th field overall, so index 11 here, then stime, cutime,
            # cstime.
            fields = fh.read().rsplit(")", 1)[1].split()
        return sum(int(f) for f in fields[11:15]) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        # Killed, not drained: a graceful shutdown waits out the accept
        # thread's one-second join, and nothing here needs it.
        self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_clients(executors: List[Callable[[Op], object]],
                streams: List[Iterator[Op]], seconds: float,
                on_start: Callable[[], None] = lambda: None,
                warmup: int = WARMUP_OPS):
    """One closed loop per executor, each on its own thread.

    Every client runs ``warmup`` ops, then all start the ``seconds``
    window together.  Returns ``(t0, samples)``; warm-up samples are the
    ones that ended before ``t0``.
    """
    window: Dict[str, float] = {}

    def start() -> None:
        on_start()
        window["t0"] = time.perf_counter()

    barrier = threading.Barrier(len(executors), action=start)
    per_client: List[List[Sample]] = [[] for _ in executors]
    crashes: List[BaseException] = []

    def one(execute, stream, out) -> bool:
        op = next(stream)
        t = time.perf_counter()
        alive = True
        try:
            result, error = execute(op), None
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            result, error = None, f"{type(exc).__name__}: {exc}"
            alive = not isinstance(exc, OSError)  # dead connection: stop
        end = time.perf_counter()
        out.append(Sample(op, result, error, end, end - t))
        return alive

    def client(execute, stream, out) -> None:
        try:
            alive = all(one(execute, stream, out) for _ in range(warmup))
            barrier.wait(timeout=120)
            deadline = window["t0"] + seconds
            while alive and time.perf_counter() < deadline:
                alive = one(execute, stream, out)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            barrier.abort()
            crashes.append(exc)

    threads = [threading.Thread(target=client, args=args)
               for args in zip(executors, streams, per_client)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if crashes:
        raise crashes[0]
    return window["t0"], [s for out in per_client for s in out]


def tcp_executor(conn) -> Callable[[Op], object]:
    return lambda op: conn.sql(sql_text(op))


def verify(samples: List[Sample], oracle: Oracle,
           reduce: Callable = observed) -> List[bool]:
    """Per sample: did it reply, and with the oracle's answer?"""
    return [s.error is None
            and same_answer(reduce(s.result), oracle.expected(s.op))
            for s in samples]


def latency_metrics(samples: List[Sample], ok: List[bool], t0: float,
                    seconds: float, n_rounds: int) -> Dict[str, dict]:
    """``qps``/``p50_ms``/``p90_ms`` as medians over rounds of the
    per-round value, from the correct samples only."""
    good = [s for s, fine in zip(samples, ok) if fine]
    round_s = seconds / n_rounds
    rounds = [[good[i].latency * 1e3 for i in idx] for idx in
              stats.split_rounds([s.end for s in good], t0, round_s,
                                 n_rounds)]
    return {
        "qps": stats.median_of_rounds(rounds, lambda r: len(r) / round_s),
        "p50_ms": stats.median_of_rounds(
            rounds, lambda r: stats.percentile(r, 50)),
        "p90_ms": stats.median_of_rounds(
            rounds, lambda r: stats.percentile(r, 90)),
    }
