"""Functional building blocks: im2col convolution, pooling, activations.

Convolution is implemented with the classic im2col lowering so both the
forward and backward passes are single matrix multiplications.  The
lowering is exact (gradient checks validate it to ~1e-8) and its
element order is part of the bitwise contract: a row of the column
matrix is one receptive field laid out ``(C, kh, kw)``, which fixes the
GEMM's K order and therefore every rounding downstream.  The data
movement is what costs: on NumPy 2.4 one strided gather from a
sliding-window view builds the matrix about 5x faster than ``kh*kw``
strided slice assignments (DESIGN.md, "Conv lowering").
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Column-matrix bytes :func:`col2im` scatters per block of samples, so
#: the block and its accumulator stay in L2 across the ``kh*kw`` passes
#: (measured in DESIGN.md, "Conv lowering"; a constant, not a knob).
_COL2IM_BLOCK_BYTES = 1 << 20


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: int,
           padding: int) -> np.ndarray:
    """Lower image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    A fresh C-contiguous array of shape ``(N * out_h * out_w, C * kh *
    kw)`` where each row is one receptive field in ``(C, kh, kw)`` order.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    if padding > 0:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding),
                          dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded

    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    cols = np.empty((n, out_h, out_w, c, kh, kw), dtype=x.dtype)
    cols[...] = windows[:, :, ::stride, ::stride].transpose(0, 2, 3, 1, 4, 5)
    return cols.reshape(n * out_h * out_w, -1)


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kh: int,
           kw: int, stride: int, padding: int) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to an image.

    Overlapping patches are summed, which is exactly the adjoint
    operation needed for convolution backward.  Every output element
    starts at zero and receives its patches in ``(i, j)`` order; the
    blocking over samples changes which bytes are hot, not that order.
    """
    n, c, h, w = x_shape
    p = padding
    out_h = conv_output_size(h, kh, stride, p)
    out_w = conv_output_size(w, kw, stride, p)
    cols = cols.reshape(n, out_h, out_w, c, kh, kw)
    out = np.empty(x_shape, dtype=cols.dtype)

    # Accumulate in NHWC (contiguous channel rows), one cache-sized
    # block of samples at a time, converting each block back once.
    block = max(1, _COL2IM_BLOCK_BYTES // max(1, cols[:1].nbytes))
    acc = np.empty((min(block, n), h + 2 * p, w + 2 * p, c), dtype=cols.dtype)
    for start in range(0, n, block):
        cols_b = cols[start:start + block]
        acc_b = acc[:cols_b.shape[0]]
        acc_b.fill(0)
        for i in range(kh):
            i_max = i + stride * out_h
            for j in range(kw):
                j_max = j + stride * out_w
                acc_b[:, i:i_max:stride, j:j_max:stride, :] += cols_b[..., i, j]
        out[start:start + block] = (
            acc_b[:, p:p + h, p:p + w, :].transpose(0, 3, 1, 2))
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid, ``e^x / (1 + e^x)`` where not
    ``x >= 0``: one select over both formulas, no masked gathers (``exp``
    of ``x`` itself there, not of ``-|x|``, keeps a NaN's sign)."""
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    denom = 1.0 + e
    return np.where(pos, 1.0 / denom, e / denom)


def tanh(x: np.ndarray) -> np.ndarray:
    """Elementwise hyperbolic tangent."""
    return np.tanh(x)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a ``(N, K)`` logit matrix."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
