import numpy as np
import pytest
from hypothesis import settings

from scanvar.kernels import Observable

import helpers

# Property tests draw the same examples on every run and have no deadline,
# so the suite is reproducible and timing noise cannot fail it.
settings.register_profile("scanvar", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("scanvar")


@pytest.fixture
def e1():
    return helpers.e1_family()


@pytest.fixture
def e1_f():
    return Observable(helpers.E1_F)


def _shapes(monkeypatch, name: str) -> list:
    """Shapes of the np.linalg.<name> calls made during a test."""
    calls = []
    original = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def eigvals_calls(monkeypatch):
    return _shapes(monkeypatch, "eigvals")


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    return _shapes(monkeypatch, "eigvalsh")


@pytest.fixture
def eigh_calls(monkeypatch):
    return _shapes(monkeypatch, "eigh")
