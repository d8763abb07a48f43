"""Span and count recording around specnest's public functions, for the traced run.

``Tracer.installed()`` wraps every public function of the traced specnest
modules and rebinds each module attribute that refers to one, so callers that
imported a function by name (``from .hsnest import build_nest``) resolve the
wrapper too.  It also counts calls at the LAPACK boundary (``numpy.linalg``,
``scipy.linalg.schur``), the mpmath power-limit path and curve re-anchoring.
Spans (name, start, end, parent) and counts stay in memory until ``save()``
writes them out.  On exit every patched attribute is restored to the
original object.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

TRACED_MODULES = ("matrices", "curve", "detbrown", "hsnest", "decompose",
                  "majorize", "ensembles", "serialize", "acceptance")


def _svd_n3(args, kwargs) -> int:
    """Sum over the stacked matrices of m * n * min(m, n): a computed op count."""
    shape = np.shape(args[0] if args else kwargs["a"])
    m, n = shape[-2:]
    return int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)


def _is_norm2(args, kwargs) -> bool:
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return ord_ in (2, -2) and np.ndim(args[0] if args else kwargs["x"]) == 2


class Tracer:
    """Spans and counts for one traced pass; single-threaded."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)
        self.active = True

    # -- recording -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn, on_result=None):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_end.append(0.0)
            self._stack.append(idx)
            self.counts[calls] += 1
            self.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_wrapper(self, fn, count):
        """Wrapper that only counts; ``count(args, kwargs)`` updates the counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                count(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _bump(self, key: str, by: int = 1) -> None:
        self.counts[key] += by

    def _record_max(self, key: str, value) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), int(value))

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side code (output checks) without recording it."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        on_result = {
            "detbrown.brown_density_grid": lambda grid: self._bump(
                "detbrown.brown_density_grid.points", int(np.prod(grid.resolution))),
        }
        wrappers = {}  # id(original) -> wrapper
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"specnest.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = self._span_wrapper(name, obj, on_result.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "specnest" and not modname.startswith("specnest."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

        import mpmath
        import scipy.linalg
        from specnest.curve import HilbertCurveMap

        bump = self._bump
        counters = [
            (np.linalg, "svd", lambda a, k: (bump("lapack.svd.calls"),
                                             bump("lapack.svd.n3", _svd_n3(a, k)))),
            (np.linalg, "norm", lambda a, k: _is_norm2(a, k) and bump("lapack.norm2.calls")),
            (np.linalg, "eigvals", lambda a, k: bump("lapack.eigvals.calls")),
            (np.linalg, "eigh", lambda a, k: bump("lapack.eigh.calls")),
            (np.linalg, "eigvalsh", lambda a, k: bump("lapack.eigh.calls")),
            (scipy.linalg, "schur", lambda a, k: bump("lapack.schur.calls")),
            (mpmath, "svd_c", lambda a, k: bump("hsnest.power_limit.mpmath_calls")),
            (mpmath, "workprec", lambda a, k: self._record_max(
                "hsnest.power_limit.mpmath_max_bits", a[0] if a else k["n"])),
            (HilbertCurveMap, "with_anchor",
             lambda a, k: bump("hsnest.build_nest.anchor_attempts")),
        ]
        for owner, attr, count in counters:
            self._patch(owner, attr, self._count_wrapper(getattr(owner, attr), count))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per span name, each span's duration minus its children's."""
        names = np.array(self.span_name, dtype=np.int32)
        parents = np.array(self.span_parent, dtype=np.int32)
        dur = self._durations()
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        per_name = np.bincount(names, weights=dur - child, minlength=len(self.names))
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def root_seconds(self) -> float:
        """Total duration of the spans that have no parent span."""
        roots = np.array(self.span_parent, dtype=np.int32) < 0
        return float(np.sum(self._durations()[roots]))

    def _durations(self) -> np.ndarray:
        return np.array(self.span_end, dtype=float) - np.array(self.span_start, dtype=float)

    def save(self, path) -> None:
        """Write spans, counts and maxima to an ``.npz`` file."""
        np.savez_compressed(
            path,
            span_name=np.array(self.span_name, dtype=np.int32),
            span_parent=np.array(self.span_parent, dtype=np.int32),
            span_start=np.array(self.span_start, dtype=float),
            span_end=np.array(self.span_end, dtype=float),
            names=np.array(self.names),
            counts=json.dumps({**self.counts, **self.maxima}),
        )
