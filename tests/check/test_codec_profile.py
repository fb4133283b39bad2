"""Tests for smartcheck's codec profile (the codec CI job's invariant).

The ``codec`` profile fills an array once, then re-encodes it between
bit-packed, dictionary, run-length, and delta layouts with budgeted
migrations — some stepped mid-scan on a second thread — while
cross-checking every operator (point gets, gathers, bulk decodes,
sargable scans, zone-map counts, and full queries) against the NumPy
oracle.  Encoded-domain fast paths are additionally proven to decode
zero chunks via the per-op counter deltas.
"""

import numpy as np
import pytest

import repro.core.codecs as codecs
from repro.check import generate_cases, make_case, run_check
from repro.check.generator import CODEC_TARGETS
from repro.check.runner import run_case

ENCODE_OPS = {"codec_encode", "codec_encode_during_scan"}


class TestAcceptance:
    def test_seed0_codec_profile_zero_divergences(self):
        report = run_check(seed=0, ops=300, profile="codec")
        assert report.ok, report.format()
        assert report.ops_run == 300
        assert report.profile == "codec"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_other_seeds_pass(self, seed):
        report = run_check(seed=seed, ops=150, profile="codec")
        assert report.ok, report.format()


class TestGenerator:
    def test_codec_profile_mixes_encodes_with_scans_and_queries(self):
        names = {
            op.name
            for case in generate_cases(0, 400, profile="codec")
            for op in case.ops
        }
        assert names & ENCODE_OPS
        assert "codec_count_in_range" in names
        assert "codec_query_count" in names

    def test_every_codec_target_reachable(self):
        targets = {
            CODEC_TARGETS[op.args[0]]
            for case in generate_cases(0, 600, profile="codec")
            for op in case.ops
            if op.name in ENCODE_OPS
        }
        assert targets == set(CODEC_TARGETS)

    def test_profile_recorded_and_deterministic(self):
        a = make_case(9, 3, profile="codec")
        b = make_case(9, 3, profile="codec")
        assert a == b
        assert a.profile == "codec"

    def test_case_rerun_same_outcome(self):
        case = make_case(4, 2, profile="codec")
        assert run_case(case) is None
        assert run_case(case) is None


def _plant_wrong_code_range(monkeypatch):
    # The classic order-preserving-dictionary boundary bug: the lower
    # bound is resolved with searchsorted side="right", silently
    # dropping rows whose value equals ``lo`` whenever ``lo`` is itself
    # in the dictionary.
    real = codecs._dict_code_range

    def wrong_code_range(dictionary, lo64, hi64):
        _, code_hi = real(dictionary, lo64, hi64)
        return int(np.searchsorted(dictionary, lo64, side="right")), code_hi

    monkeypatch.setattr(codecs, "_dict_code_range", wrong_code_range)


class TestPlantedBugs:
    def test_detects_wrong_dictionary_code_range(self, monkeypatch):
        # The profile's oracle-checked range scans must flag the planted
        # bug as a result divergence.
        _plant_wrong_code_range(monkeypatch)
        report = run_check(seed=0, ops=300, profile="codec",
                           max_failures=1, shrink=False)
        assert not report.ok
        assert report.failures[0].kind == "result"

    def test_failure_replays_clean_after_unpatching(self, monkeypatch):
        _plant_wrong_code_range(monkeypatch)
        report = run_check(seed=0, ops=300, profile="codec",
                           max_failures=1, shrink=False)
        assert not report.ok
        monkeypatch.undo()
        assert run_case(report.failures[0].case) is None
