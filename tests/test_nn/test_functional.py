"""im2col/col2im adjointness and activation helpers."""

from __future__ import annotations

import numpy as np

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


def test_log_softmax_matches_definition(rng):
    logits = rng.normal(size=(4, 6))
    _, ls = softmax_with_log(logits)
    assert np.allclose(np.exp(ls).sum(axis=1), 1.0)
    assert ls.tobytes() == log_softmax(logits).tobytes()
