"""SQL server under multi-client closed-loop load.

Starts a :class:`~repro.server.SmartArrayServer` on a loopback port
over the demo ``events`` table, then drives it with N client threads
in a closed loop (each sends a query, waits for the response, sends
the next) for a fixed wall-clock window.  The statement mix alternates
a **selective** range-filter SUM (~1% of rows; the zone map prunes
almost everything) with a **non-selective** one (~50%), the same two
predicate shapes as ``bench_query_engine`` — so the delta between the
two captures per-request protocol overhead vs actual scan work.

Every response is checked against the NumPy-computed expected value:
a load generator that silently returns wrong answers measures nothing.

Run as a script it writes ``benchmarks/results/sql_server.txt`` plus
machine-readable ``benchmarks/results/BENCH_sql_server.json`` (per
client count and predicate: queries/s, p50/p99 latency); under
``pytest --benchmark-only`` it times single-client round-trips at
reduced scale.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core.table import SmartTable
from repro.runtime.loops import default_pool
from repro.server import Catalog, SmartArrayServer
from repro.server.client import connect

try:
    from .common import RESULTS_DIR, emit
except ImportError:  # pragma: no cover - script mode
    from common import RESULTS_DIR, emit

N_SCRIPT = 1_000_000
N_PYTEST = 50_000
KEY_BITS = 32
SERVER_WORKERS = 8
CLIENT_COUNTS = (1, 4, 8)
WINDOW_S = 2.0
JSON_NAME = "BENCH_sql_server.json"


def _catalog(n):
    rng = np.random.default_rng(7)
    data = {
        "ts": np.sort(
            rng.integers(0, 1 << KEY_BITS, n)
        ).astype(np.uint64),
        "amount": rng.integers(0, 1 << 20, n).astype(np.uint64),
    }
    table = SmartTable.from_arrays(data, replicated=True)
    catalog = Catalog()
    catalog.register("events", table)
    return catalog, data


def _statements(data):
    """(label, sql, expected scalar) per predicate selectivity."""
    span = 1 << KEY_BITS
    out = []
    for label, lo, hi in (
        ("selective (~1%)", int(span * 0.495), int(span * 0.505)),
        ("non-selective (~50%)", int(span * 0.25), int(span * 0.75)),
    ):
        mask = (data["ts"] >= lo) & (data["ts"] < hi)
        expected = int(data["amount"][mask].astype(object).sum())
        sql = (f"SELECT sum(amount) FROM events "
               f"WHERE ts >= {lo} AND ts < {hi}")
        out.append((label, sql, expected))
    return out


class _ClientLoop(threading.Thread):
    """One closed-loop client: send, wait, record latency, repeat."""

    def __init__(self, port, statements, stop_at):
        super().__init__(daemon=True)
        self.port = port
        self.statements = statements
        self.stop_at = stop_at
        self.latencies = {label: [] for label, _, _ in statements}
        self.errors = []

    def run(self):
        try:
            with connect(port=self.port) as conn:
                i = 0
                while time.perf_counter() < self.stop_at:
                    label, sql, expected = (
                        self.statements[i % len(self.statements)])
                    i += 1
                    t0 = time.perf_counter()
                    got = conn.sql(sql).scalar()
                    self.latencies[label].append(
                        time.perf_counter() - t0)
                    if got != expected:
                        self.errors.append(
                            f"{label}: got {got}, expected {expected}")
                        return
        except Exception as exc:  # noqa: BLE001 - report, don't hang
            self.errors.append(f"{type(exc).__name__}: {exc}")


def _percentile(samples, q):
    return float(np.percentile(np.asarray(samples), q))


def _drive(port, statements, n_clients, window_s):
    stop_at = time.perf_counter() + window_s
    clients = [_ClientLoop(port, statements, stop_at)
               for _ in range(n_clients)]
    t0 = time.perf_counter()
    for c in clients:
        c.start()
    for c in clients:
        c.join()
    elapsed = time.perf_counter() - t0
    errors = [e for c in clients for e in c.errors]
    if errors:
        raise AssertionError(f"client errors: {errors[:3]}")
    merged = {label: [] for label, _, _ in statements}
    for c in clients:
        for label, ls in c.latencies.items():
            merged[label].extend(ls)
    return elapsed, merged


def report(n=N_SCRIPT, window_s=WINDOW_S, client_counts=CLIENT_COUNTS):
    """Return (text report, machine-readable result dict)."""
    catalog, data = _catalog(n)
    statements = _statements(data)
    results = {
        "benchmark": "sql_server",
        "rows": n,
        "key_bits": KEY_BITS,
        "server_workers": SERVER_WORKERS,
        "window_s": window_s,
        "configs": [],
    }
    lines = [
        f"closed-loop SQL-over-TCP load, {n:,}-row events table "
        f"(key {KEY_BITS}b, clustered), {window_s:.0f}s windows:",
        "",
        f"{'clients':>7} {'predicate':<22} {'queries':>8} "
        f"{'qps':>8} {'p50 ms':>8} {'p99 ms':>8}",
    ]
    with SmartArrayServer(catalog, port=0, pool=default_pool(
            SERVER_WORKERS)) as server:
        for n_clients in client_counts:
            elapsed, merged = _drive(server.port, statements,
                                     n_clients, window_s)
            for label, _, _ in statements:
                ls = merged[label]
                qps = len(ls) / elapsed
                p50 = _percentile(ls, 50)
                p99 = _percentile(ls, 99)
                results["configs"].append({
                    "clients": n_clients,
                    "predicate": label,
                    "queries": len(ls),
                    "qps": round(qps, 1),
                    "p50_s": round(p50, 6),
                    "p99_s": round(p99, 6),
                })
                lines.append(
                    f"{n_clients:>7} {label:<22} {len(ls):>8} "
                    f"{qps:>8.1f} {p50 * 1e3:>8.2f} {p99 * 1e3:>8.2f}"
                )
    lines += [
        "",
        "every response is validated against the NumPy oracle; clients "
        "are closed-loop",
        "(one in-flight query each), so qps at k clients ~= k/mean-"
        "latency until the",
        "GIL-bounded morsel executor saturates.",
    ]
    return "\n".join(lines), results


# -- pytest-benchmark entry points ------------------------------------

@pytest.fixture(scope="module")
def bench_server():
    catalog, data = _catalog(N_PYTEST)
    with SmartArrayServer(catalog, port=0) as server:
        yield server, _statements(data)


@pytest.mark.parametrize("label_idx", [0, 1],
                         ids=["selective", "nonselective"])
def test_sql_roundtrip(benchmark, bench_server, label_idx):
    server, statements = bench_server
    _, sql, expected = statements[label_idx]
    with connect(port=server.port) as conn:
        assert benchmark(lambda: conn.sql(sql).scalar()) == expected


def main() -> None:
    text, results = report()
    emit("SQL server — multi-client closed-loop throughput/latency",
         text, "sql_server.txt")
    path = os.path.join(RESULTS_DIR, JSON_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
