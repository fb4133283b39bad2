"""``tests/query/test_cancellation.py`` on the NumPy lowering (see conftest)."""

from tests.query.test_cancellation import *  # noqa: F401,F403
