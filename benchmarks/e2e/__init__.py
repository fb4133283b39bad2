"""One SQL-to-kernel benchmark: named workloads, end-to-end metrics,
per-layer attribution and regression bounds.  See README.md here and
``BENCHMARK.json`` at the repository root."""
