"""Seeded matrix ensembles; the seed fully determines the output."""
from __future__ import annotations

import dataclasses
import operator
from typing import Union

import numpy as np

from .matrices import as_operator


def _set_positive_int(spec, name: str) -> None:
    """Store field ``name`` as an int >= 1; a bool or a non-integer raises TypeError."""
    value = getattr(spec, name)
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    object.__setattr__(spec, name, operator.index(value))


class _Sized:
    """An ensemble kind of n x n matrices, n >= 1."""

    def __post_init__(self):
        _set_positive_int(self, "n")


@dataclasses.dataclass(frozen=True)
class Ginibre(_Sized):
    """i.i.d. complex Gaussian entries, variance 1/n."""

    n: int


@dataclasses.dataclass(frozen=True)
class Jordan(_Sized):
    """Single Jordan block with eigenvalue lam."""

    lam: complex
    n: int


@dataclasses.dataclass(frozen=True)
class UpperTriangularRandom(_Sized):
    """Ginibre-style strict upper part; diagonal uniform on the unit disk."""

    n: int


@dataclasses.dataclass(frozen=True)
class NormalPlusNilpotent(_Sized):
    """Random normal matrix plus a coupled nilpotent in the same flag."""

    n: int


Kind = Union[Ginibre, Jordan, UpperTriangularRandom, NormalPlusNilpotent]


@dataclasses.dataclass(frozen=True)
class EnsembleSpec:
    kind: Kind
    seed: int = 0
    count: int = 1

    def __post_init__(self):
        _set_positive_int(self, "count")


def _ginibre(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """A (count, n, n) stack of Ginibre matrices from one draw: each takes its
    real then its imaginary parts from the stream, as ``count`` draws in turn would."""
    parts = rng.standard_normal((count, 2, n, n))
    G = np.empty((count, n, n), dtype=np.complex128)  # no complex temporaries
    G.real, G.imag = parts[:, 0], parts[:, 1]
    G *= 1.0 / np.sqrt(2.0 * n)
    return G


def _one(rng: np.random.Generator, kind: Kind) -> np.ndarray:
    if isinstance(kind, Ginibre):
        return _ginibre(rng, kind.n, 1)[0]
    if isinstance(kind, Jordan):
        J = np.diag(np.full(kind.n, complex(kind.lam)))
        J += np.diag(np.ones(kind.n - 1), 1) if kind.n > 1 else 0.0
        return J.astype(np.complex128)
    if isinstance(kind, UpperTriangularRandom):
        n = kind.n
        T = np.triu(_ginibre(rng, n, 1)[0], 1)
        r = np.sqrt(rng.uniform(0.0, 1.0, n))
        T[np.diag_indices(n)] = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        return T
    if isinstance(kind, NormalPlusNilpotent):
        n = kind.n
        d = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        U, _ = np.linalg.qr(_ginibre(rng, n, 1)[0])
        strict = np.triu(_ginibre(rng, n, 1)[0], 1)
        return U @ (np.diag(d) + strict) @ U.conj().T
    raise TypeError(f"unknown ensemble kind {kind!r}")


def generate(spec: EnsembleSpec) -> list:
    """Generate spec.count matrices; bit-reproducible given the seed."""
    rng = np.random.default_rng(spec.seed)
    return [as_operator(_one(rng, spec.kind)) for _ in range(spec.count)]
