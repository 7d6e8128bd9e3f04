"""im2col/col2im against the loop kernels they replaced, bit for bit.

The column matrix's element order fixes the conv GEMM's K order and
col2im's add order fixes the input gradient's rounding, so every golden
trace rests on these two functions returning exactly what the loops
below return: same values, same zero signs, same dtype, and a fresh
writable C-contiguous array that never aliases the input.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


def _reference_im2col(x, kh, kw, stride, padding):
    """The kernel ``F.im2col`` shipped before the strided gather."""
    n, c, h, w = x.shape
    out_h = F.conv_output_size(h, kh, stride, padding)
    out_w = F.conv_output_size(w, kw, stride, padding)
    if padding > 0:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )

    x_nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    cols = np.empty((n, out_h, out_w, c, kh, kw), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            cols[:, :, :, :, i, j] = x_nhwc[:, i:i_max:stride, j:j_max:stride, :]
    return cols.reshape(n * out_h * out_w, -1)


def _reference_col2im(cols, x_shape, kh, kw, stride, padding):
    """The kernel ``F.col2im`` shipped before the sample blocking."""
    n, c, h, w = x_shape
    out_h = F.conv_output_size(h, kh, stride, padding)
    out_w = F.conv_output_size(w, kw, stride, padding)
    cols = cols.reshape(n, out_h, out_w, c, kh, kw)

    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c),
                      dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            padded[:, i:i_max:stride, j:j_max:stride, :] += cols[:, :, :, :, i, j]
    out = padded.transpose(0, 3, 1, 2)
    if padding > 0:
        out = out[:, :, padding:-padding, padding:-padding]
    return np.ascontiguousarray(out)


def _values(rng, shape, dtype):
    """Normal draws with both zeros mixed in, so zero signs are tested."""
    values = rng.normal(size=shape).astype(dtype)
    values[rng.random(shape) < 0.15] = 0.0
    values[rng.random(shape) < 0.15] = -0.0
    return values


def _assert_identical(out, expected, source):
    assert out.dtype == expected.dtype
    assert out.shape == expected.shape
    assert np.array_equal(out, expected)
    assert np.array_equal(np.signbit(out), np.signbit(expected))
    assert out.flags.c_contiguous and out.flags.writeable
    assert not np.shares_memory(out, source)


def _check_both(rng, shape, kh, kw, stride, padding, dtype):
    x = _values(rng, shape, dtype)
    cols = F.im2col(x, kh, kw, stride, padding)
    _assert_identical(cols, _reference_im2col(x, kh, kw, stride, padding), x)
    grad_cols = _values(rng, cols.shape, dtype)
    _assert_identical(
        F.col2im(grad_cols, shape, kh, kw, stride, padding),
        _reference_col2im(grad_cols, shape, kh, kw, stride, padding),
        grad_cols,
    )


# non-square H != W, C = 1, N = 1, and a batch of several samples
GRID_SHAPES = [(2, 3, 7, 9), (1, 1, 6, 5), (3, 1, 5, 8), (1, 4, 9, 6)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_lowering_matches_reference_over_grid(rng, shape, dtype):
    for k, stride, padding in itertools.product(
            (1, 2, 3, 5), (1, 2, 3), (0, 1, 2)):
        _check_both(rng, shape, k, k, stride, padding, dtype)


@pytest.mark.parametrize("shape", [
    (150, 32, 14, 14),  # eval's conv2 input at 150 test samples
    (80, 32, 14, 14),
    (16, 1, 28, 28),    # a training batch into conv1
])
def test_lowering_matches_reference_at_benchmark_shapes(rng, shape):
    _check_both(rng, shape, 5, 5, 1, 2, np.float32)


@pytest.mark.parametrize("block_samples", [0, 1, 3, 7, 100])
def test_col2im_blocking_is_invisible(rng, monkeypatch, block_samples):
    """Blocks of one sample (a budget below one sample still takes one),
    of three with a short last block, of exactly the batch, and of more."""
    shape = (7, 4, 7, 9)
    grad_cols = _values(rng, (7 * 7 * 9, 4 * 9), np.float32)
    monkeypatch.setattr(F, "_COL2IM_BLOCK_BYTES",
                        max(1, block_samples * grad_cols[:7 * 9].nbytes))
    _assert_identical(
        F.col2im(grad_cols, shape, 3, 3, 1, 1),
        _reference_col2im(grad_cols, shape, 3, 3, 1, 1),
        grad_cols,
    )


def test_lowering_accepts_noncontiguous_and_readonly_inputs(rng):
    base = _values(rng, (3, 9, 8, 2), np.float32)
    x = base.transpose(0, 3, 2, 1)[:, :, ::-1, ::2]  # (3, 2, 8, 5)
    assert not x.flags.c_contiguous
    x.setflags(write=False)
    cols = F.im2col(x, 3, 3, 2, 1)
    _assert_identical(cols, _reference_im2col(x, 3, 3, 2, 1), x)

    grad_cols = _values(rng, cols.shape[::-1], np.float32).T
    assert not grad_cols.flags.c_contiguous
    grad_cols.setflags(write=False)
    _assert_identical(
        F.col2im(grad_cols, x.shape, 3, 3, 2, 1),
        _reference_col2im(grad_cols, x.shape, 3, 3, 2, 1),
        grad_cols,
    )


def test_im2col_never_returns_a_view_of_its_input(rng):
    """A 1x1 window over one channel is already in column order."""
    x = _values(rng, (4, 1, 5, 5), np.float32)
    cols = F.im2col(x, 1, 1, 1, 0)
    _assert_identical(cols, x.reshape(-1, 1), x)
    cols[:] = 7.0
    assert not (x == 7.0).any()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4), c=st.integers(1, 5),
    h=st.integers(1, 10), w=st.integers(1, 10),
    kh=st.integers(1, 5), kw=st.integers(1, 5),
    stride=st.integers(1, 3), padding=st.integers(0, 2),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2 ** 16),
)
def test_lowering_property(n, c, h, w, kh, kw, stride, padding, dtype, seed):
    assume(h + 2 * padding >= kh and w + 2 * padding >= kw)
    _check_both(np.random.default_rng(seed), (n, c, h, w), kh, kw, stride,
                padding, dtype)
