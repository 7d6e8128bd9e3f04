"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

# "bitwise" in this suite means "at one BLAS thread" (DESIGN.md section
# 6): GEMM reduction order varies with the thread count, so the goldens
# only replay under the threading they were cut with.  Pinned before
# NumPy loads its BLAS; pool children and verify subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.nn.dtype import get_default_dtype, set_default_dtype  # noqa: E402


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def float64_mode():
    """Run a test with float64 parameters (finite-difference accuracy)."""
    previous = get_default_dtype()
    set_default_dtype(np.float64)
    yield
    set_default_dtype(previous)


def numeric_gradient(fn, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of ``fn()`` w.r.t. ``array``.

    ``fn`` must close over ``array`` and return a scalar; the array is
    perturbed in place and restored.
    """
    grad = np.zeros_like(array)
    iterator = np.nditer(array, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = array[index]
        array[index] = original + eps
        plus = fn()
        array[index] = original - eps
        minus = fn()
        array[index] = original
        grad[index] = (plus - minus) / (2 * eps)
        iterator.iternext()
    return grad


@pytest.fixture
def gradcheck():
    """Expose the finite-difference helper as a fixture."""
    return numeric_gradient
