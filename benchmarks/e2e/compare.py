"""Compare two ``latest.json`` files: A is the base, B the candidate.

``python3 benchmarks/e2e/compare.py A.json B.json`` prints one row per
workload x end-to-end metric with both medians, each side's round
min..max, the ratio B/A, the metric's bound and a verdict:

``worse``       B's median is worse than A's by more than the bound;
``better``      B's is better by more than the bound, or every round of
                B reads better than every round of A;
``within``      neither;
``unresolved``  the rounds of either side spread wider than the bound,
                so this pair of files cannot tell.

It then says whether the exact counts agree.  Exit status 1 on any
``worse``.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from benchmarks.e2e.metrics import END_TO_END, EXACT  # noqa: E402


def _rounds(entry: dict):
    return entry.get("rounds") or [entry["value"]]


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["value"] - a["value"]) / a["value"]
    spread = max((max(_rounds(e)) - min(_rounds(e))) / e["value"]
                 for e in (a, b))
    if spread > bound:
        separated = (max(_rounds(b)) < min(_rounds(a)) if better == "lower"
                     else min(_rounds(b)) > max(_rounds(a)))
        return "better" if separated else "unresolved"
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "within"


def compare(a: dict, b: dict):
    """Rows ``(workload, metric, a_entry, b_entry, bound, verdict)``."""
    rows = []
    for workload, passes in a["workloads"].items():
        theirs = b["workloads"].get(workload)
        if theirs is None:
            continue
        for d in END_TO_END:
            ea = passes["end_to_end"]["metrics"][d.name]
            eb = theirs["end_to_end"]["metrics"][d.name]
            rows.append((workload, d.name, ea, eb, d.bound,
                         verdict(ea, eb, d.better, d.bound)))
    return rows


def exact_differences(a: dict, b: dict):
    """``(workload, metric, a_value, b_value)`` for every exact count
    that differs between the two files."""
    out = []
    for workload, passes in a["workloads"].items():
        theirs = b["workloads"].get(workload, {})
        for key in ("end_to_end", "per_layer"):
            ma = passes.get(key, {}).get("metrics", {})
            mb = theirs.get(key, {}).get("metrics", {})
            out += [(workload, name, ma[name]["value"], mb[name]["value"])
                    for name in EXACT if name in ma and name in mb
                    and ma[name]["value"] != mb[name]["value"]]
    return out


def _span(entry: dict) -> str:
    rounds = _rounds(entry)
    return f"{entry['value']:.4f} [{min(rounds):.4f}..{max(rounds):.4f}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    loaded = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            loaded.append(json.load(fh))
    a, b = loaded
    for side, doc in zip("AB", loaded):
        print(f"{side}: {doc['fingerprint']}")
    print(f"{'workload':<20} {'metric':<15} {'A median [rounds]':<32} "
          f"{'B median [rounds]':<32} {'B/A':>7} {'bound':>6}  verdict")
    rows = compare(a, b)
    for workload, name, ea, eb, bound, what in rows:
        print(f"{workload:<20} {name:<15} {_span(ea):<32} {_span(eb):<32} "
              f"{eb['value'] / ea['value']:>7.3f} {bound:>6.2f}  {what}")
    differing = exact_differences(a, b)
    if a["fingerprint"]["seed"] != b["fingerprint"]["seed"]:
        print("exact counts: not compared (different seeds)")
    elif differing:
        for workload, name, va, vb in differing:
            print(f"exact count differs: {workload} {name}: {va} != {vb}")
    else:
        print("exact counts: identical")
    counts = {w: sum(r[5] == w for r in rows)
              for w in ("better", "within", "worse", "unresolved")}
    print(", ".join(f"{n} {w}" for w, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
