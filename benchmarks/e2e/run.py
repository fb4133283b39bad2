"""The benchmark's one command.

``python3 benchmarks/e2e/run.py --seed S`` runs the four workloads,
untraced then traced, prints every metric by name with its unit and
writes ``results/latest.json`` plus ``results/trace_<workload>.json``.

With ``--workload NAME --seconds N --trace 0|1`` it runs one pass of one
workload and ends with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``): the form ``BENCHMARK.json``'s ``command`` is
driven in.  It exits non-zero when an answer was wrong, a named metric
is missing, or the repository's ``src/`` is not beside it.
"""

import argparse
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"benchmarks/e2e: no src/repro under {ROOT}; run from a "
             f"checkout of the repository")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy  # noqa: E402

from benchmarks.e2e import data, layers, metrics, untraced  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

RESULTS = os.path.join(HERE, "results")
DEFAULT_SECONDS = 25
ROUNDS = 5
SETUPS = 3
#: --smoke: 100k rows, one 2-second round, one set-up.
SMOKE = {"rows": data.SMOKE_ROWS, "seconds": 2, "rounds": 1, "setups": 1}


def measure(workload: str, seed: int, trace: int, scale: dict,
            results: str) -> dict:
    """One pass of one workload; ``metrics`` maps each name of the
    pass's metric set to ``{"value", "unit", "simulated", ...}``."""
    os.makedirs(results, exist_ok=True)
    if trace:
        result = layers.measure(workload, seed, scale["seconds"],
                                scale["rows"], results)
        defs = metrics.PER_LAYER
    else:
        run = (untraced.measure_embedded if workload == "embedded_write_read"
               else untraced.measure_sql)
        result = run(workload, seed, scale["seconds"], scale["rows"],
                     scale["rounds"], scale["setups"], results)
        defs = metrics.END_TO_END
    measured = result["metrics"]
    missing = [d.name for d in defs if measured.get(d.name) is None]
    if missing:
        raise RuntimeError(f"{workload}: metrics not measured: {missing}")
    result["metrics"] = {
        d.name: {**measured[d.name], "unit": d.unit,
                 "simulated": getattr(d, "simulated", False)}
        for d in defs
    }
    result.update(workload=workload, seed=seed, trace=trace,
                  correct=result["failed"] == 0)
    return result


def fingerprint(seed: int) -> dict:
    rev = "unknown"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        rev = head
    except OSError:
        pass  # not a git checkout (the driver's copy is not)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_rev": rev, "seed": seed,
            "platform": platform.platform()}


def _fmt(entry: dict) -> str:
    text = f"{entry['value']:>14.4f} {entry['unit']:<8}"
    if "min" in entry:
        text += (f" rounds [{entry['min']:.4f} .. {entry['max']:.4f}]")
    if "samples" in entry:
        text += f" n={entry['samples']}"
    if entry["simulated"]:
        text += " SIMULATED"
    return text


def report(results: dict) -> str:
    lines = []
    for workload, passes in results["workloads"].items():
        lines.append(f"== {workload} == {WORKLOADS[workload]}")
        for key, title in (("end_to_end", "end to end (untraced pass)"),
                           ("per_layer", "per layer (traced pass)")):
            run = passes.get(key)
            if run is None:
                continue
            lines.append(f"  {title}: attempted {run['attempted']}, "
                         f"failed {run['failed']}, fail_ratio "
                         f"{run['failed'] / run['attempted']:.6f}")
            for name, entry in run["metrics"].items():
                lines.append(f"    {name:<36}{_fmt(entry)}")
            lines += ["    " + note for note in run.get("notes", ())]
    return "\n".join(lines)


def full(seed: int, scale: dict, results_dir: str) -> int:
    results = {"fingerprint": fingerprint(seed), "scale": scale,
               "workloads": {}}
    failed = 0
    for workload in WORKLOADS:
        passes = results["workloads"][workload] = {}
        for key, trace in (("end_to_end", 0), ("per_layer", 1)):
            run = measure(workload, seed, trace, scale, results_dir)
            failed += run["failed"]
            passes[key] = run
    print(report(results))
    path = os.path.join(results_dir, "latest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="100k rows, 1 round x 2 s per pass, < 30 s in all")
    ap.add_argument("--results", default=RESULTS,
                    help="directory for latest.json, traces and scratch "
                         "inputs (default: results/ beside this file)")
    args = ap.parse_args(argv)
    scale = dict(SMOKE) if args.smoke else {
        "rows": data.ROWS, "seconds": DEFAULT_SECONDS, "rounds": ROUNDS,
        "setups": SETUPS}
    if args.seconds is not None:
        scale["seconds"] = args.seconds
    if args.workload is None:
        return full(args.seed, scale, args.results)
    t0 = time.perf_counter()
    run = measure(args.workload, args.seed, args.trace, scale, args.results)
    print(report({"workloads": {args.workload: {
        "per_layer" if args.trace else "end_to_end": run}}}))
    print(f"pass took {time.perf_counter() - t0:.1f} s", flush=True)
    print(json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in run["metrics"].items()},
    }))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
