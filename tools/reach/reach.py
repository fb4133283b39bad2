"""``make reach``: which functions under ``src/repro`` does anything call?

Copies ``src/``, ``benchmarks/`` and ``examples/`` into a temporary
directory (so the benches' result files in the checkout stay as they
are), runs every command in :data:`COMMANDS` there with the profile hook
in ``sitecustomize.py`` on ``PYTHONPATH``, then walks every ``def``
under ``src/repro`` with :mod:`ast`.  A function none of whose first
lines was ever entered is *unreached*; its lines count once, at the
outermost unreached level.

Prints unreached lines per module and ``reach.unreached_lines``.  Exits
non-zero when a command fails or a function that is not listed in
``baseline.txt`` (``module:qualname``, one a line) is unreached.  The
baseline only shrinks: an entry that is reached or gone again is
printed, to be deleted from the file.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BASELINE = os.path.join(HERE, "baseline.txt")
TIMEOUT_S = 900

_E2E = ["benchmarks/e2e/run.py", "--seed", "1"]
_CHECK_BUDGETS = (("mixed", 500), ("query", 500), ("obs", 400),
                  ("sql", 400), ("live", 300), ("codec", 500),
                  ("cluster", 400))


def _commands(tree: str) -> List[List[str]]:
    """What counts as a caller: every example and bench, the e2e
    workloads, every smartcheck profile at its CI budget with its CI
    demo, and the paper's CLI commands.

    The e2e benchmark runs per workload: under the hook the embedded
    pass of ``--smoke`` is too short for a migration cycle to finish,
    so that workload's traced pass gets a 40-second window.
    """
    py = [sys.executable]
    cmds = [py + [os.path.join("examples", f)]
            for f in sorted(os.listdir(os.path.join(tree, "examples")))
            if f.endswith(".py")]
    cmds += [py + [os.path.join("benchmarks", f)]
             for f in sorted(os.listdir(os.path.join(tree, "benchmarks")))
             if f.startswith("bench_") and f.endswith(".py")]
    for workload in ("sql_point", "sql_scan", "sql_mixed"):
        for trace in ("0", "1"):
            cmds.append(py + _E2E + ["--smoke", "--workload", workload,
                                     "--trace", trace])
    cmds.append(py + _E2E + ["--smoke", "--workload",
                             "embedded_write_read", "--trace", "0"])
    cmds.append(py + _E2E + ["--workload", "embedded_write_read",
                             "--seconds", "40", "--trace", "1"])
    repro = py + ["-m", "repro"]
    for profile, ops in _CHECK_BUDGETS:
        cmds.append(repro + ["check", "--seed", "0", "--ops", str(ops),
                             "--profile", profile])
    for demo in (
        ["query", "--rows", "100000"],
        ["trace", "scan", "--rows", "50000"],
        ["trace", "query", "--rows", "50000"],
        ["trace", "adapt"],
        ["sql", "SELECT count(*), sum(amount) FROM events WHERE "
                "region < 4", "--rows", "50000"],
        ["serve", "--port", "7979", "--rows", "20000", "--duration", "1"],
        ["live", "--rows", "50000", "--ticks", "24"],
        ["cluster", "--rows", "100000", "--nodes", "2", "--mode", "range"],
        ["cluster", "--rows", "100000", "--nodes", "4", "--mode", "hash"],
    ):
        cmds.append(repro + demo)
    for number in ("1", "2", "3", "10", "11", "12"):
        cmds.append(repro + ["figure", number])
    for command in ("table1", "machines", "adapt", "stream", "validate",
                    "paths", "select"):
        cmds.append(repro + [command])
    return cmds


# -- the count ---------------------------------------------------------------

def _module_name(rel: str) -> str:
    parts = rel[:-len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def unreached(src: str,
              hits: Set[Tuple[str, int]]) -> List[Tuple[str, str, int]]:
    """``(module:qualname, file relative to src, lines)`` for every
    outermost never-called function in the packages under ``src``.

    ``hits`` holds ``(path, co_firstlineno)`` pairs with paths as the
    hook saw them.  A decorated function's code object starts at its
    first decorator, so either line counts as called.
    """
    src = os.path.realpath(src)
    called: Dict[str, Set[int]] = defaultdict(set)
    for path, line in hits:
        called[os.path.realpath(path)].add(line)
    out: List[Tuple[str, str, int]] = []
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, src)
            module = _module_name(rel)
            lines = called[path]
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)

            def walk(node, prefix):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                        first = min([child.lineno] + [
                            d.lineno for d in child.decorator_list])
                        qualname = prefix + child.name
                        if child.lineno in lines or first in lines:
                            walk(child, qualname + ".<locals>.")
                        else:
                            out.append((f"{module}:{qualname}", rel,
                                        child.end_lineno - first + 1))
                    elif isinstance(child, ast.ClassDef):
                        walk(child, prefix + child.name + ".")
                    else:
                        walk(child, prefix)

            walk(tree, "")
    return out


def read_hits(directory: str) -> Set[Tuple[str, int]]:
    hits: Set[Tuple[str, int]] = set()
    for name in os.listdir(directory):
        if name.endswith(".hits"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                for row in fh:
                    path, line = row.rstrip("\n").rsplit("\t", 1)
                    hits.add((path, int(line)))
    return hits


def read_baseline(path: str = BASELINE) -> Set[str]:
    with open(path, encoding="utf-8") as fh:
        return {row.strip() for row in fh
                if row.strip() and not row.startswith("#")}


def report(found: List[Tuple[str, str, int]], baseline: Set[str]) -> int:
    """Print the per-module table and the verdict; the exit status."""
    per_module: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for _, rel, n in found:
        per_module[rel][0] += 1
        per_module[rel][1] += n
    print(f"{'unreached lines':>15} {'functions':>9}  module")
    for rel, (count, n) in sorted(per_module.items(),
                                  key=lambda kv: (-kv[1][1], kv[0])):
        print(f"{n:>15} {count:>9}  {rel}")
    names = {name for name, _, _ in found}
    print(f"reach.unreached_functions {len(names)}")
    print(f"reach.unreached_lines {sum(n for _, _, n in found)}")
    stale = sorted(baseline - names)
    if stale:
        print(f"\n{len(stale)} baseline entries are reached or gone; "
              f"delete them from {os.path.relpath(BASELINE, ROOT)}:")
        print("".join(f"  {name}\n" for name in stale), end="")
    new = sorted(names - baseline)
    if new:
        print(f"\nFAIL: {len(new)} unreached functions are not in the "
              f"baseline (call them from a figure, bench, example, CLI "
              f"command or e2e workload, or delete them):")
        print("".join(f"  {name}\n" for name in new), end="")
        return 1
    return 0


# -- the runs ----------------------------------------------------------------

def _copy(tree: str) -> None:
    skip = shutil.ignore_patterns("__pycache__", "results", "*.pyc")
    for part in ("src", "benchmarks", "examples"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(tree, part),
                        ignore=skip)


def run_all(tree: str, hits_dir: str) -> int:
    """Run every command under the hook; the number that failed."""
    env = dict(os.environ)
    env.update(PYTHONPATH=os.pathsep.join([HERE, os.path.join(tree, "src")]),
               REPRO_REACH_DIR=hits_dir,
               REPRO_REACH_ROOT=os.path.join(tree, "src", "repro"))
    failed = 0
    for cmd in _commands(tree):
        shown = " ".join(a if " " not in a else repr(a)
                         for a in ["python"] + cmd[1:])
        log = os.path.join(tree, "last.log")
        t0 = time.perf_counter()
        with open(log, "w", encoding="utf-8") as fh:
            try:
                code = subprocess.run(cmd, cwd=tree, env=env, stdout=fh,
                                      stderr=subprocess.STDOUT,
                                      stdin=subprocess.DEVNULL,
                                      timeout=TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        status = "ok" if code == 0 else f"FAILED ({code})"
        print(f"{status:<8}{time.perf_counter() - t0:7.1f} s  {shown}",
              flush=True)
        if code != 0:
            failed += 1
            with open(log, encoding="utf-8", errors="replace") as fh:
                tail = fh.readlines()[-20:]
            print("".join("    | " + row for row in tail), end="",
                  flush=True)
    return failed


def main() -> int:
    tree = os.path.realpath(tempfile.mkdtemp(prefix="repro-reach-"))
    try:
        hits_dir = os.path.join(tree, "hits")
        os.mkdir(hits_dir)
        _copy(tree)
        failed = run_all(tree, hits_dir)
        found = unreached(os.path.join(tree, "src"), read_hits(hits_dir))
        print()
        status = report(found, read_baseline())
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    if failed:
        print(f"FAIL: {failed} commands failed")
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
