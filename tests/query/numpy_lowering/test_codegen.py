"""``tests/query/test_codegen.py`` on the NumPy lowering (see conftest)."""

from tests.query.test_codegen import *  # noqa: F401,F403
