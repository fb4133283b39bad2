"""The query engine's tests again, with the native scans unavailable.

Every module here re-collects one ``tests/query`` module under an
autouse fixture that substitutes a missing library for
:data:`repro.core.native.LIB`, exactly what a host without a C compiler
gets: every morsel then runs its NumPy kernel.
"""

import pytest

from repro.core import native


@pytest.fixture(autouse=True)
def numpy_lowering(monkeypatch):
    monkeypatch.setattr(native, "LIB", None)
