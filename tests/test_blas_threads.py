"""decompose's one-BLAS-thread region: the caller's count comes back, the
outputs up to ONE_THREAD_MAX_N do not depend on the count, and without the
OpenBLAS setter nothing changes."""
import importlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from specnest import matrices
from specnest.decompose import decompose
from specnest.ensembles import EnsembleSpec, Ginibre, generate

decompose_module = importlib.import_module("specnest.decompose")
SRC = Path(__file__).resolve().parents[1] / "src"
CALLERS = 3  # not 1, and not a default thread count on a 2-core machine

pytestmark = pytest.mark.skipif(matrices._set_blas_threads is None,
                                reason="scipy's LAPACK reaches no openblas_set_num_threads_local")


def blas_threads() -> int:
    """scipy's BLAS thread count, read through the setter's return value."""
    count = matrices._set_blas_threads(1)
    matrices._set_blas_threads(count)
    return count


@pytest.fixture
def callers_count():
    """The caller's count set to CALLERS for the test, the session's restored after it."""
    session = matrices._set_blas_threads(CALLERS)
    yield CALLERS
    matrices._set_blas_threads(session)


@pytest.fixture
def counts_seen(monkeypatch):
    """The BLAS thread counts that decompose's ||T||_2 SVD ran at, one per call."""
    seen = []
    original = decompose_module._singular_values

    def observed(A):
        seen.append(blas_threads())
        return original(A)

    monkeypatch.setattr(decompose_module, "_singular_values", observed)
    return seen


def ginibre(n: int, seed: int = 3) -> np.ndarray:
    return generate(EnsembleSpec(Ginibre(n), seed=seed))[0]


def outputs(res) -> list:
    return [res.N, res.Q, res.flag_form, res.nest.basis, repr(res.nest.jumps)]


def test_count_is_one_inside_and_restored_after_return(callers_count, counts_seen):
    decompose(ginibre(16))
    assert counts_seen == [1]
    assert blas_threads() == callers_count


def test_count_restored_after_raise(callers_count, counts_seen, monkeypatch):
    def fail(*args):
        raise ArithmeticError("nest build failed")

    monkeypatch.setattr(decompose_module, "_build_nest", fail)
    with pytest.raises(ArithmeticError, match="nest build failed"):
        decompose(ginibre(16))
    assert counts_seen == [1]
    assert blas_threads() == callers_count


def test_count_restored_after_threads_decompose_at_once(callers_count, counts_seen):
    # The count is process-wide: without the lock, one thread's restore would
    # unpin another's region, and the last restore could leave 1 behind. More
    # threads than cores and a short switch interval interleave the regions.
    inputs = [ginibre(32, seed) for seed in range(8)]
    expected = [outputs(decompose(T)) for T in inputs]
    counts_seen.clear()
    results = [[] for _ in range(4)]
    start = threading.Barrier(len(results))

    def work(out):
        start.wait()
        out.extend(outputs(decompose(T)) for T in inputs)

    workers = [threading.Thread(target=work, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert counts_seen == [1] * (len(results) * len(inputs))
    assert blas_threads() == callers_count
    for out in results:
        assert len(out) == len(expected)
        for got, want in zip(out, expected):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_a_second_threads_region_waits_for_the_first(callers_count, monkeypatch):
    # Thread "a" gives "b" up to 0.2 s to open a region inside a's; b reads
    # its count only after a has returned. Without the lock b's region opens
    # inside a's, reads a's restored count and, restoring last, leaves 1.
    a_inside, b_inside, a_done = threading.Event(), threading.Event(), threading.Event()
    seen = {}
    original = decompose_module._singular_values

    def observed(A):
        name = threading.current_thread().name
        if name == "a":
            a_inside.set()
            b_inside.wait(0.2)
        else:
            b_inside.set()
            a_done.wait(5)
        seen[name] = blas_threads()
        return original(A)

    def work():
        decompose(ginibre(16))
        if threading.current_thread().name == "a":
            a_done.set()

    monkeypatch.setattr(decompose_module, "_singular_values", observed)
    a, b = (threading.Thread(target=work, name=name) for name in "ab")
    a.start()
    a_inside.wait(5)
    b.start()
    a.join(10)
    b.join(10)
    assert not (a.is_alive() or b.is_alive())
    assert seen == {"a": 1, "b": 1}
    assert blas_threads() == callers_count


def test_nested_regions_restore_the_callers_count(callers_count):
    with matrices._one_blas_thread(8):
        with matrices._one_blas_thread(8):
            assert blas_threads() == 1
        assert blas_threads() == 1
    assert blas_threads() == callers_count


@pytest.mark.parametrize("offset", [0, 1], ids=["at-cutoff", "above-cutoff"])
def test_count_inside_follows_the_cutoff(offset, callers_count, counts_seen, monkeypatch):
    # A cutoff of 16 keeps the caller's 3 threads off a 257x257 input, which
    # on 2 cores runs oversubscribed for seconds.
    monkeypatch.setattr(matrices, "ONE_THREAD_MAX_N", 16)
    decompose(ginibre(16 + offset))
    assert counts_seen == [1 if offset == 0 else callers_count]
    assert blas_threads() == callers_count


@pytest.mark.parametrize("n", [16, 64])
def test_without_the_setter_outputs_are_byte_identical(n, monkeypatch):
    T = ginibre(n)
    pinned = outputs(decompose(T))
    monkeypatch.setattr(matrices, "_set_blas_threads", None)
    unpinned = outputs(decompose(T))
    assert all(np.array_equal(a, b) for a, b in zip(pinned, unpinned))


def test_outputs_do_not_depend_on_the_blas_thread_count():
    # At n = 128 and 256 a two-thread scipy BLAS gives other bytes than one
    # thread does; decompose runs on one thread there, whatever the caller set.
    code = ("import hashlib; import numpy as np; "
            "from specnest import decompose; "
            "from specnest.ensembles import EnsembleSpec, Ginibre, generate\n"
            "for n in (128, 256):\n"
            "    res = decompose(generate(EnsembleSpec(Ginibre(n), seed=3))[0])\n"
            "    h = hashlib.sha256()\n"
            "    for a in (res.N, res.Q, res.flag_form, res.nest.basis):\n"
            "        h.update(np.ascontiguousarray(a).tobytes())\n"
            "    h.update(repr(res.nest.jumps).encode())\n"
            "    print(n, h.hexdigest())\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    hashes = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": path,
                                              "OPENBLAS_NUM_THREADS": threads}).stdout
              for threads in ("1", "2")]
    assert len(hashes[0].split()) == 4
    assert hashes[0] == hashes[1]
