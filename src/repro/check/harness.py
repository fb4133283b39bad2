"""Top-level smartcheck driver: budgeted runs and report formatting.

``run_check(seed, ops)`` generates cases until the op budget is spent,
runs each through the differential runner, shrinks any failures, and
returns a :class:`CheckReport`.  The CLI (``python -m repro check``) and
the CI job are thin wrappers over this function; tests call it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from .generator import generate_cases
from .runner import CaseFailure, run_case
from .shrink import shrink_case


@dataclass
class CheckReport:
    """Outcome of one smartcheck run."""

    seed: int
    ops_requested: int
    profile: str = "mixed"
    ops_run: int = 0
    cases_run: int = 0
    placements_seen: Set[str] = field(default_factory=set)
    bit_widths_seen: Set[int] = field(default_factory=set)
    pool_modes_seen: Set[str] = field(default_factory=set)
    superchunks_seen: Set[int] = field(default_factory=set)
    failures: List[CaseFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines = [
            f"smartcheck: seed={self.seed} profile={self.profile} "
            f"ops={self.ops_run}/{self.ops_requested} "
            f"cases={self.cases_run}",
            f"  grid: {len(self.placements_seen)} placements "
            f"({', '.join(sorted(self.placements_seen))}), "
            f"{len(self.bit_widths_seen)} bit widths "
            f"({', '.join(map(str, sorted(self.bit_widths_seen)))}), "
            f"superchunks {sorted(self.superchunks_seen)}, "
            f"pools {sorted(self.pool_modes_seen)}",
        ]
        if self.ok:
            lines.append("  PASS: zero oracle divergences")
        else:
            lines.append(f"  FAIL: {len(self.failures)} divergence(s)")
            for i, failure in enumerate(self.failures):
                lines.append(f"--- failure {i} (shrunk repro) ---")
                lines.append(failure.describe())
                lines.append(
                    f"replay: python -m repro check --seed {self.seed} "
                    f"--ops {self.ops_requested} "
                    f"--profile {self.profile}"
                )
        return "\n".join(lines)


def run_check(seed: int = 0, ops: int = 500, n_workers: int = 4,
              max_failures: int = 5,
              shrink: bool = True,
              profile: str = "mixed") -> CheckReport:
    """Run the differential fuzz harness for an op budget.

    ``profile`` selects the op mix: ``"mixed"`` (everything),
    ``"query"`` (query-engine heavy; the CI query job's setting),
    ``"obs"`` (parallel/query heavy, every case traced, with the
    registry and per-span counter deltas cross-checked against the
    oracle accounting; the CI obs job's setting), ``"live"``
    (scans/queries racing online migrations), ``"sql"`` (random SQL
    statements compiled and proven plan- and bit-identical to their
    directly-built fluent twins; the CI sql job's setting), or
    ``"codec"`` (every operator cross-checked against the oracle on
    dictionary/RLE/delta-encoded layouts, with encoded-domain fast
    paths proven to decode zero chunks and codec migrations stepped
    mid-scan; the CI codec job's setting), or ``"cluster"`` (the table
    sharded across 1/2/4 simulated nodes — hash and range partitioning,
    replicas on/off — with every query op run distributed and proven
    bit-identical to both the oracle and the single-node gather twin,
    under exact oracle-predicted ``cluster.bytes_shipped`` /
    ``cluster.rpcs`` wire accounting, including mid-query shard
    migrations; the CI cluster job's setting).
    Stops early once ``max_failures`` distinct failing cases were found
    (each already shrunk): the budget is better spent on the report
    than on piling up repetitions of the same bug.
    """
    report = CheckReport(seed=seed, ops_requested=ops, profile=profile)
    for case in generate_cases(seed, ops, profile):
        report.cases_run += 1
        report.ops_run += len(case.ops)
        report.placements_seen.add(case.spec.placement)
        report.bit_widths_seen.add(case.spec.bits)
        report.pool_modes_seen.add(case.spec.pool_mode)
        report.superchunks_seen.add(case.spec.superchunk)
        failure = run_case(case, n_workers=n_workers)
        if failure is None:
            continue
        if shrink:
            shrunk = shrink_case(case, lambda c: run_case(c, n_workers))
            refailure = run_case(shrunk, n_workers=n_workers)
            failure = refailure if refailure is not None else failure
        report.failures.append(failure)
        if len(report.failures) >= max_failures:
            break
    return report


def grid_coverage(report: CheckReport) -> Tuple[int, int]:
    """(placements, bit widths) the run exercised — CI asserts floors."""
    return len(report.placements_seen), len(report.bit_widths_seen)
