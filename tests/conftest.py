"""Shared fixtures."""
import numpy as np
import pytest
import scipy.linalg


@pytest.fixture
def two_norm_calls(monkeypatch):
    """Shapes of the arrays passed to ``scipy.linalg.svd`` without singular vectors,
    as ``matrices.operator_norm`` takes a 2-norm (an SVD each)."""
    original = scipy.linalg.svd
    calls = []

    def counting(a, *args, compute_uv=True, **kwargs):
        if not compute_uv:
            calls.append(np.shape(a))
        return original(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(scipy.linalg, "svd", counting)
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
