"""``test_decode_kernels.py`` on ``repro.fastzlib``'s zlib fallback.

Every test of that module is collected again here, with the libdeflate
binding swapped out, so the batched kernel meets the frozen zlib
reference on the path a host without ``libdeflate0`` runs as well.
"""

import pytest

from repro import fastzlib
from tests.formats.test_decode_kernels import *  # noqa: F401,F403


@pytest.fixture(autouse=True)
def inflate_backend(monkeypatch):
    monkeypatch.setattr(fastzlib, "_LIB", None)
