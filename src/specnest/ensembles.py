"""Seeded matrix ensembles; the seed fully determines the output."""
from __future__ import annotations

import dataclasses
from typing import Union

import numpy as np

from . import serialize
from .matrices import as_operator


@dataclasses.dataclass(frozen=True)
class Ginibre:
    """i.i.d. complex Gaussian entries, variance 1/n."""

    n: int


@dataclasses.dataclass(frozen=True)
class Jordan:
    """Single Jordan block with eigenvalue lam."""

    lam: complex
    n: int


@dataclasses.dataclass(frozen=True)
class UpperTriangularRandom:
    """Ginibre-style strict upper part; diagonal drawn from diagonal_law."""

    n: int
    diagonal_law: str = "uniform_disk"  # or "gaussian"


@dataclasses.dataclass(frozen=True)
class NormalPlusNilpotent:
    """Random normal matrix plus a coupled nilpotent in the same flag."""

    n: int


@dataclasses.dataclass(frozen=True)
class FromFile:
    path: str


Kind = Union[Ginibre, Jordan, UpperTriangularRandom, NormalPlusNilpotent, FromFile]


@dataclasses.dataclass(frozen=True)
class EnsembleSpec:
    kind: Kind
    seed: int = 0
    count: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    scale = 1.0 / np.sqrt(2.0 * n)
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _diagonal(rng: np.random.Generator, n: int, law: str) -> np.ndarray:
    if law == "uniform_disk":
        r = np.sqrt(rng.uniform(0.0, 1.0, n))
        phase = rng.uniform(0.0, 2.0 * np.pi, n)
        return r * np.exp(1j * phase)
    if law == "gaussian":
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    raise ValueError(f"unknown diagonal law {law!r}")


def _one(rng: np.random.Generator, kind: Kind) -> np.ndarray:
    if isinstance(kind, Ginibre):
        return _ginibre(rng, kind.n)
    if isinstance(kind, Jordan):
        J = np.diag(np.full(kind.n, complex(kind.lam)))
        J += np.diag(np.ones(kind.n - 1), 1) if kind.n > 1 else 0.0
        return J.astype(np.complex128)
    if isinstance(kind, UpperTriangularRandom):
        n = kind.n
        T = np.triu(_ginibre(rng, n), 1)
        T[np.diag_indices(n)] = _diagonal(rng, n, kind.diagonal_law)
        return T
    if isinstance(kind, NormalPlusNilpotent):
        n = kind.n
        d = _diagonal(rng, n, "gaussian")
        U, _ = np.linalg.qr(_ginibre(rng, n))
        strict = np.triu(_ginibre(rng, n), 1)
        return U @ (np.diag(d) + strict) @ U.conj().T
    if isinstance(kind, FromFile):
        return serialize.read_matrix(kind.path)
    raise TypeError(f"unknown ensemble kind {kind!r}")


def generate(spec: EnsembleSpec) -> list:
    """Generate spec.count matrices; bit-reproducible given the seed."""
    rng = np.random.default_rng(spec.seed)
    return [as_operator(_one(rng, spec.kind)) for _ in range(spec.count)]
