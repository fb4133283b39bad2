"""ISSUE acceptance criteria for the observability layer.

A threaded ``parallel_sum`` (the bulk-span engine) and a threaded
query-executor run, both under tracing, must register totals
bit-identical to the serial runs — the counters are exact accounting,
not sampled approximations, so any divergence is a lost update or a
double count.
"""

import numpy as np
import pytest

from repro.core import allocate
from repro.core.table import SmartTable
from repro.obs import TRACER, registry, tracing
from repro.obs.registry import split_key
from repro.query import Query, in_range
from repro.runtime import default_pool, parallel_sum_bulk


@pytest.fixture(autouse=True)
def clean_tracer():
    TRACER.disable()
    TRACER.clear()
    yield
    TRACER.disable()
    TRACER.clear()


def core_totals(label):
    """Per-array core counters, replica reads summed across replicas."""
    out = {}
    for key, value in registry().values("core.", array=label).items():
        name, _ = split_key(key)
        out[name] = out.get(name, 0) + value
    return out


class TestSerialThreadedParity:
    def test_parallel_sum_blocked_totals_match_serial(self):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 1 << 16, 40_000).astype(np.uint64)
        serial_arr = allocate(values.size, bits=16, values=values,
                              replicated=True)
        threaded_arr = allocate(values.size, bits=16, values=values,
                                replicated=True)
        with tracing():
            s = parallel_sum_bulk(serial_arr, pool=default_pool(1),
                                  batch=4096)
            t = parallel_sum_bulk(threaded_arr, pool=default_pool(8),
                                  batch=4096)
        assert s == t == int(values.sum())
        serial_totals = core_totals(serial_arr.stats.array_label)
        threaded_totals = core_totals(threaded_arr.stats.array_label)
        # Strip the fill()'s bulk writes (identical anyway) to keep the
        # assertion focused on the scan path.
        assert serial_totals == threaded_totals
        assert serial_totals["core.chunk_unpacks"] > 0
        assert (serial_totals["core.replica_read_elements"]
                == values.size + (-values.size) % 64)

    def test_query_executor_totals_match_serial(self):
        rng = np.random.default_rng(23)
        n = 30_000
        data = {
            "k": np.sort(rng.integers(0, 1 << 20, n)).astype(np.uint64),
            "v": rng.integers(0, 1 << 12, n).astype(np.uint64),
        }
        lo, hi = 1 << 18, 1 << 19

        def run(pool):
            table = SmartTable.from_arrays(data, replicated=True)
            table.build_zone_map("k")
            reg = registry()
            before = reg.snapshot()
            with tracing():
                result = Query(table).where(in_range("k", lo, hi)) \
                    .sum("v").count().run(pool=pool)
            TRACER.disable()
            TRACER.clear()
            # Only the engine-level totals: per-array keys differ by
            # the tables' distinct array labels.
            delta = {
                key: diff for key, diff in reg.delta(before).items()
                if split_key(key)[0].startswith(("query.", "zonemap."))
                and not key.endswith("__sum")
            }
            return result, delta

        serial_result, serial_delta = run(None)
        threaded_result, threaded_delta = run(default_pool(8))
        assert serial_result.aggregates == threaded_result.aggregates
        # zonemap label keys embed per-table array labels; fold them.
        def fold(delta):
            out = {}
            for key, diff in delta.items():
                out_key = split_key(key)[0]
                out[out_key] = out.get(out_key, 0) + diff
            return out

        assert fold(serial_delta) == fold(threaded_delta)
        assert fold(serial_delta)["query.rows_matched"] > 0


class TestDisabledTracingIsCheap:
    def test_disabled_span_allocates_nothing(self):
        from repro.obs.trace import _NULL_CONTEXT, trace

        TRACER.disable()
        contexts = {id(trace("x", array="a")) for _ in range(100)}
        assert contexts == {id(_NULL_CONTEXT)}

    def test_scan_results_identical_with_tracing_on_and_off(self):
        values = (np.arange(10_000) % 500).astype(np.uint64)
        array = allocate(values.size, bits=9, values=values,
                         replicated=True)
        off = parallel_sum_bulk(array, pool=default_pool(2), batch=4096)
        with tracing():
            on = parallel_sum_bulk(array, pool=default_pool(2), batch=4096)
        assert off == on == int(values.sum())
