"""``tests/query/test_synopsis.py`` on the NumPy lowering (see conftest)."""

from tests.query.test_synopsis import *  # noqa: F401,F403
