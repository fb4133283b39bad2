"""Planted bugs for the fixed-cost mechanisms of a repeated statement:
binary-search zone binding, the structural kernel key and the parse
memo.

Each plants the shortcut the mechanism invites — trusting a map to be
sorted, keying a kernel on less than its source is specialized on,
keying a parse on text that cannot tell a number from an identifier's
digits — and requires ``repro check`` to catch it.
"""

import re
from collections import OrderedDict

import repro.query.codegen as codegen
import repro.sql.parser as parser
from repro.check import run_check
from repro.check.generator import ArraySpec, Case, Op, gen_values
from repro.check.runner import run_case
from repro.core.zonemap import ZoneMap


def plant_assumed_monotone(monkeypatch):
    """Bind every zone map by binary search, sorted column or not."""
    decode = ZoneMap.bounds

    def bounds(self):
        pair = decode(self)
        self._monotone = True
        return pair

    monkeypatch.setattr(ZoneMap, "bounds", bounds)


def plant_width_blind_kernel_key(monkeypatch):
    """Leave the columns' value widths out of the kernel key: a kernel
    whose sums were specialized on a narrow column serves it wide."""
    signature = codegen._kernel_signature

    def blind(*args):
        return signature(*args)._replace(value_bits=())

    monkeypatch.setattr(codegen, "_kernel_signature", blind)
    monkeypatch.setattr(codegen, "_KERNEL_CACHE", OrderedDict())


def plant_digit_blind_parse_key(monkeypatch):
    """Key the parse memo on token texts with *every* digit run lifted
    out, so ``AS n0`` and ``AS n2`` read as one shape."""
    scan = parser.scan

    def blind(sql):
        tokens, _key = scan(sql)
        return tokens, tuple(re.sub(r"[0-9]+", "#", text)
                             for _kind, text, _pos, _value in tokens)

    monkeypatch.setattr(parser, "scan", blind)
    monkeypatch.setattr(parser, "_PARSE_CACHE", OrderedDict())


class TestAssumedMonotone:
    def test_query_profile_catches_it(self, monkeypatch):
        decode = ZoneMap.bounds
        plant_assumed_monotone(monkeypatch)
        report = run_check(seed=0, ops=400, profile="query",
                           max_failures=1, shrink=False)
        assert not report.ok
        assert report.failures[0].kind in ("result", "accounting")
        monkeypatch.setattr(ZoneMap, "bounds", decode)
        assert run_case(report.failures[0].case) is None


class TestWidthBlindKernelKey:
    def test_migration_across_the_sum_split_is_caught(self, monkeypatch):
        # Plan a SUM over the case column while it is 33 bits wide (one
        # uint64 accumulator per morsel cannot wrap), migrate it to 64
        # bits and refill it with full-width values (now it can), then
        # plan the same shape again.
        n = 64 * 8
        assert int(gen_values(1, n, 64).max()).bit_length() <= 33
        assert int(gen_values(0, n, 64).astype(object).sum()) >= 1 << 64
        total = Op("query_key_sum", (0, 1 << 64, 0))
        case = Case(
            seed=0, index=0, profile="live",
            spec=ArraySpec(length=n, bits=64, placement="replicated",
                           superchunk=64, pool_mode="serial"),
            ops=(Op("fill", (1,)), Op("migrate", (3, 0, 33, 64)), total,
                 Op("migrate", (3, 0, 64, 64)), Op("fill", (0,)), total),
        )
        assert run_case(case) is None
        plant_width_blind_kernel_key(monkeypatch)
        failure = run_case(case)
        assert failure is not None
        assert failure.kind in ("result", "codegen")
        assert failure.op == total


class TestDigitBlindParseKey:
    def test_sql_profile_catches_it(self, monkeypatch):
        scan = parser.scan
        plant_digit_blind_parse_key(monkeypatch)
        report = run_check(seed=0, ops=400, profile="sql",
                           max_failures=1, shrink=False)
        assert not report.ok
        failure = report.failures[0]
        assert failure.kind == "sql"
        assert "fresh parse" in failure.detail
        monkeypatch.setattr(parser, "scan", scan)
        monkeypatch.setattr(parser, "_PARSE_CACHE", OrderedDict())
        assert run_case(failure.case) is None
