"""im2col/col2im adjointness and activation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.loss import softmax_with_log
from tests.support.nn_reference import log_softmax


def test_conv_output_size():
    assert F.conv_output_size(28, 5, 1, 2) == 28
    assert F.conv_output_size(28, 2, 2, 0) == 14
    assert F.conv_output_size(7, 3, 2, 0) == 3


def test_im2col_shapes(rng):
    x = rng.normal(size=(2, 3, 6, 6))
    cols = F.im2col(x, 3, 3, 1, 1)
    assert cols.shape == (2 * 6 * 6, 3 * 9)


def test_im2col_content_matches_naive(rng):
    x = rng.normal(size=(1, 2, 4, 4))
    cols = F.im2col(x, 2, 2, 1, 0)
    # first output position is the top-left patch, channel-major
    patch = x[0, :, 0:2, 0:2].reshape(-1)
    assert np.allclose(cols[0], patch)
    # last position is the bottom-right patch
    patch = x[0, :, 2:4, 2:4].reshape(-1)
    assert np.allclose(cols[-1], patch)


def test_col2im_is_adjoint_of_im2col(rng):
    """<im2col(x), y> == <x, col2im(y)> for random x, y (exact adjoint)."""
    x = rng.normal(size=(2, 3, 5, 5))
    kh = kw = 3
    stride, padding = 2, 1
    cols = F.im2col(x, kh, kw, stride, padding)
    y = rng.normal(size=cols.shape)
    lhs = float((cols * y).sum())
    rhs = float((x * F.col2im(y, x.shape, kh, kw, stride, padding)).sum())
    assert np.isclose(lhs, rhs)


def test_sigmoid_stable_and_correct():
    x = np.array([-1000.0, 0.0, 1000.0])
    out = F.sigmoid(x)
    assert np.allclose(out, [0.0, 0.5, 1.0])
    assert not np.isnan(out).any()


def _reference_sigmoid(x):
    """The masked-index kernel ``F.sigmoid`` shipped before the select."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    exp_x = np.exp(x[~pos])
    out[~pos] = exp_x / (1.0 + exp_x)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_bit_equal_to_the_masked_kernel(rng, dtype):
    special = [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf,
               100.0, -100.0, 1e4, -1e4, 1e-40, -1e-40]
    x = np.concatenate([rng.normal(scale=6.0, size=4000), special]).astype(dtype)
    # and an LSTM gate block: a column slice of the pre-activation slab
    gate = rng.normal(scale=3.0, size=(8, 4 * 48)).astype(dtype)[:, 48:96]
    bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
    for values in (x, gate):
        out = F.sigmoid(values)
        expected = _reference_sigmoid(values)
        assert out.dtype == expected.dtype == dtype
        assert out.shape == expected.shape
        assert np.array_equal(np.ascontiguousarray(out).view(bits),
                              np.ascontiguousarray(expected).view(bits))


def test_log_softmax_matches_definition(rng):
    logits = rng.normal(size=(4, 6))
    _, ls = softmax_with_log(logits)
    assert np.allclose(np.exp(ls).sum(axis=1), 1.0)
    assert ls.tobytes() == log_softmax(logits).tobytes()
