"""smartcheck: differential fuzz + invariant harness for the smart-array
stack.

Every read path (scan operators, zone maps, iterators, parallel scans,
the query engine, the SQL frontend, encoded layouts, sharded tables)
is a separate implementation of the same semantics.  This package
machine-checks that they all agree with one plain-NumPy oracle:

* :mod:`~repro.check.generator` — seeded cases (array spec + op
  sequence) per profile, across the placements x bit widths x
  superchunk sizes x pool modes grid;
* :mod:`~repro.check.oracle` — independent answers and predicted
  decode accounting for every op, query results included;
* :mod:`~repro.check.runner` — the core: case setup, counter
  snapshots, the standing invariants (replica consistency, an exact
  zone map after every write, decode accounting, obs counters) and one
  name -> handler table over the op families
  :mod:`~repro.check.ops_array`, :mod:`~repro.check.ops_query`,
  :mod:`~repro.check.ops_migrate` and :mod:`~repro.check.ops_cluster`;
* :mod:`~repro.check.shrink` — failing cases shrink to minimal
  deterministic repros; :mod:`~repro.check.harness` runs a budget and
  formats the report.

Entry points::

    python -m repro check --seed 0 --ops 500        # CLI / CI job

    from repro.check import run_check
    report = run_check(seed=0, ops=500)
    assert report.ok, report.format()
"""

from .generator import (
    BIT_WIDTHS,
    PLACEMENTS,
    POOL_MODES,
    PROFILES,
    SUPERCHUNKS,
    ArraySpec,
    Case,
    Op,
    companion_bits,
    gen_values,
    generate_cases,
    make_case,
)
from .harness import CheckReport, grid_coverage, run_check
from .oracle import OracleArray, clamp_range
from .runner import CaseFailure, CaseRunner, run_case
from .shrink import shrink_case

__all__ = [
    "ArraySpec",
    "BIT_WIDTHS",
    "Case",
    "CaseFailure",
    "CaseRunner",
    "CheckReport",
    "Op",
    "OracleArray",
    "PLACEMENTS",
    "POOL_MODES",
    "PROFILES",
    "SUPERCHUNKS",
    "clamp_range",
    "companion_bits",
    "gen_values",
    "generate_cases",
    "grid_coverage",
    "make_case",
    "run_case",
    "run_check",
    "shrink_case",
]
