"""Self-tests of the benchmark; run with
``python -m pytest benchmarks/e2e/tests -q`` (tier-1 does not collect
them: ``testpaths`` is ``tests``)."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
