"""``tests/query/test_covered_morsels.py`` on the NumPy lowering (see conftest)."""

from tests.query.test_covered_morsels import *  # noqa: F401,F403
