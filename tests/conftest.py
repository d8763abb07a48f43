"""Shared fixtures."""
import numpy as np
import pytest


@pytest.fixture
def two_norm_calls(monkeypatch):
    """Shapes of the arrays passed to ``np.linalg.norm(x, 2)`` (an SVD each)."""
    original = np.linalg.norm
    calls = []

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return original(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    return calls
