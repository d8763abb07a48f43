"""Shared fixtures."""
import numpy as np
import pytest
import scipy.linalg


@pytest.fixture
def singular_value_calls(monkeypatch):
    """Shapes of the arrays passed to LAPACK ``gesdd`` without singular vectors:
    one per ``matrices.singular_values`` call, the library's one values-only
    SVD (``operator_norm`` included). The ``gesdd`` that
    ``scipy.linalg.get_lapack_funcs`` hands out counts its calls."""
    original = scipy.linalg.get_lapack_funcs
    calls = []

    def lookup(names, *args, **kwargs):
        funcs = original(names, *args, **kwargs)
        if isinstance(names, str) or names[0] != "gesdd":
            return funcs
        gesdd = funcs[0]

        def counting(a, *args, compute_uv=1, **kwargs):
            if not compute_uv:
                calls.append(np.shape(a))
            return gesdd(a, *args, compute_uv=compute_uv, **kwargs)

        return [counting, *funcs[1:]]

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", lookup)
    return calls


@pytest.fixture
def scipy_schur_calls(monkeypatch):
    """Shapes of the arrays passed to ``scipy.linalg.schur``."""
    original = scipy.linalg.schur
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting)
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
