"""Memory guards: the column matrix exists only where backward reads it.

Evaluation lowers one block of samples at a time and a conv backward
adds the input gradient tap by tap, so neither allocates a column
matrix of the whole batch (DESIGN.md §3.9).  Both paths run only on the
OpenBLAS builds where they keep the bits of the single product; the
guards turn them on everywhere, as memory does not depend on the bits.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.experiments.setups import make_bench_task
from repro.nn import functional as F
from repro.nn.layers import Conv2d

MIB = 1 << 20


@pytest.fixture(autouse=True)
def split_gemms(monkeypatch):
    monkeypatch.setattr(F, "SPLIT_GEMMS", True)


def _peak_bytes(fn) -> int:
    """Peak traced bytes of ``fn()`` beyond what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_cnn_evaluate_peak_stays_below_40_mib():
    """150 test samples: conv2's column matrix alone was 94 MB."""
    task = make_bench_task("cnn").make_task(0.0)
    model = task.build_model(np.random.default_rng(4))
    assert task.dataset.test_x.shape[0] == 150
    assert _peak_bytes(lambda: task.evaluate(model)) <= 40 * MIB


def test_conv_backward_allocates_under_half_a_column_matrix(rng):
    x = rng.normal(size=(16, 32, 14, 14)).astype(np.float32)
    conv = Conv2d(32, 64, 5, padding=2, rng=rng)
    grad = rng.normal(size=conv.forward(x).shape).astype(np.float32)
    assert _peak_bytes(lambda: conv.backward(grad)) < conv._cols.nbytes / 2
