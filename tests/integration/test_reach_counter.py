"""Tests for the ``make reach`` counter (tools/reach) on a fixture package.

The fixture is imported and partly called in a child interpreter under
the profile hook, then the analyzer counts what was never entered.
"""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

HOOK_DIR = Path(__file__).resolve().parents[2] / "tools" / "reach"

_spec = importlib.util.spec_from_file_location("reach", HOOK_DIR / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

FIXTURE = '''\
import functools


def called():
    def nested_uncalled():
        return 1
    return 2


def uncalled():
    def inner():
        return 1
    return inner


@functools.lru_cache(maxsize=None)
def decorated_uncalled():
    return 3


@functools.lru_cache(maxsize=None)
def decorated_called():
    return 4


class Thing:
    def method(self):
        return 5
'''


def _run_fixture(tmp_path):
    tmp_path = tmp_path.resolve()  # the hook matches real paths
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(FIXTURE)
    hits = tmp_path / "hits"
    hits.mkdir()
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(HOOK_DIR), str(tmp_path)]),
               REPRO_REACH_DIR=str(hits), REPRO_REACH_ROOT=str(pkg))
    subprocess.run(
        [sys.executable, "-c", textwrap.dedent("""
            from pkg import mod
            mod.called(); mod.decorated_called(); mod.Thing().method()
        """)], env=env, check=True, cwd=str(tmp_path))
    return reach.unreached(str(tmp_path), reach.read_hits(str(hits)))


class TestCounter:
    def test_counts_each_outermost_uncalled_function_once(self, tmp_path):
        found = _run_fixture(tmp_path)
        assert sorted((name, n) for name, _, n in found) == [
            ("pkg.mod:called.<locals>.nested_uncalled", 2),
            ("pkg.mod:decorated_uncalled", 3),   # from its decorator line
            ("pkg.mod:uncalled", 4),             # ``inner`` counted in it
        ]
        assert sum(n for _, _, n in found) == 9
        assert {rel for _, rel, _ in found} == {os.path.join("pkg",
                                                             "mod.py")}

    def test_only_functions_outside_the_baseline_fail(self, tmp_path,
                                                      capsys):
        found = _run_fixture(tmp_path)
        names = {name for name, _, _ in found}
        assert reach.report(found, names) == 0
        assert reach.report(found, names | {"pkg.mod:gone"}) == 0
        assert "pkg.mod:gone" in capsys.readouterr().out
        assert reach.report(found, names - {"pkg.mod:uncalled"}) == 1
        assert "reach.unreached_lines 9" in capsys.readouterr().out
