"""``tests/query/test_query_engine.py`` on the NumPy lowering (see conftest)."""

from tests.query.test_query_engine import *  # noqa: F401,F403
