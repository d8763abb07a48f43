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


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the arrays passed to ``np.linalg.svd``."""
    original = np.linalg.svd
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.fixture
def eigvals_calls(monkeypatch):
    """Shapes of the arrays passed to ``np.linalg.eigvals`` (a dense eigensolve each)."""
    original = np.linalg.eigvals
    calls = []

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls
