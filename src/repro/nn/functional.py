"""Functional building blocks: im2col convolution, pooling, activations.

Convolution is lowered with im2col: a row of the column matrix is one
receptive field laid out ``(C, kh, kw)``, which fixes the GEMM's K order
and therefore every rounding downstream.  The matrix is built only where
a later step reads it -- the training forward, whose weight gradient
reduces over all its rows in one GEMM.  Inference lowers one block of
samples at a time (:func:`sample_blocks`) and the input gradient is
added tap by tap (:func:`conv2d_input_grad`) on the OpenBLAS builds
where both were measured to keep the bits of the single product
(:data:`SPLIT_GEMMS`); :func:`col2im` stays as their oracle and
fallback.  One strided gather from a sliding-window view builds the
matrix about 5x faster than ``kh*kw`` strided slice assignments on
NumPy 2.4, and about 3x faster again where it is stored column-major,
in the order the input is read (DESIGN.md, "Conv lowering").
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import numerics

#: Column-matrix bytes :func:`col2im` scatters per block of samples, so
#: the block and its accumulator stay in L2 across the ``kh*kw`` passes
#: (measured in DESIGN.md, "Conv lowering"; a constant, not a knob).
_COL2IM_BLOCK_BYTES = 1 << 20

#: OpenBLAS runs a product of at most this many multiply-adds (M*N*K)
#: through small-matrix kernels that round some sums differently from
#: its blocked kernel.  Above it, and with the first operand
#: column-major at any size, the float32 kernel sums an element the same
#: way wherever it sits in the call, so a product split into sample
#: blocks or column taps keeps its bits; the float64 kernel does not
#: (DESIGN.md, "Conv lowering").
_SMALL_GEMM_MADDS = 10 ** 6

#: The OpenBLAS builds, ``(version, runtime core)``, on which those
#: rules were measured.  They are properties of one core's kernels: the
#: Haswell kernels (which Zen CPUs run) round a row-blocked product
#: differently, so on any other build inference and the input gradient
#: keep the single product and its column matrix, and :func:`im2col`
#: stores that matrix C-contiguous.
_SPLIT_GEMM_BUILDS = (("0.3.31", "SkylakeX"),)


#: Whether this process splits inference and input-gradient products
#: and stores float32 column matrices column-major (DESIGN.md, "Conv
#: lowering"): fixed at import, like the kernels.
SPLIT_GEMMS = numerics.openblas_runtime() in _SPLIT_GEMM_BUILDS


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
    A fresh array of shape ``(N * out_h * out_w, C * kh * kw)`` where
    each row is one receptive field in ``(C, kh, kw)`` order.  Where
    :data:`SPLIT_GEMMS` holds and ``x`` is float32 it is stored
    column-major (its transpose is C-contiguous): the gather's inner
    copy run is then a whole output row instead of ``kw`` elements.
    Elsewhere it is C-contiguous.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    if padding > 0:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding),
                          dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded

    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[
        :, :, ::stride, ::stride]
    if SPLIT_GEMMS and x.dtype == np.float32:
        cols = np.empty((c, kh, kw, n, out_h, out_w), dtype=x.dtype)
        cols[...] = windows.transpose(1, 4, 5, 0, 2, 3)
        return cols.reshape(c * kh * kw, n * out_h * out_w).T
    cols = np.empty((n, out_h, out_w, c, kh, kw), dtype=x.dtype)
    cols[...] = windows.transpose(0, 2, 3, 1, 4, 5)
    return cols.reshape(n * out_h * out_w, -1)


def gemm_operand(cols: np.ndarray, filters: int) -> np.ndarray:
    """``cols``, a column matrix from :func:`im2col` (or ``M`` stacked
    ones, ``(M, R, K)``), as the first operand of its product with
    ``filters`` columns and as the weight gradient's operand.  On the
    builds in :data:`_SPLIT_GEMM_BUILDS` the storage changes no bits of
    either (DESIGN.md §3.9) except where OpenBLAS takes another kernel: a product of at most :data:`_SMALL_GEMM_MADDS`
    multiply-adds goes to its small-matrix kernels, and one filter makes
    both products matrix-vector.  There ``cols`` is handed over as a
    C-contiguous copy -- small, or a one-filter layer's."""
    if (filters == 1 or cols.shape[-2] * cols.shape[-1] * filters
            <= _SMALL_GEMM_MADDS):
        return np.ascontiguousarray(cols)
    return cols


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


def _even_blocks(n: int, block: int) -> List[slice]:
    """``range(n)`` as ``max(1, n // block)`` near-equal slices: none
    shorter than ``block`` unless ``n`` is, so no short tail."""
    count = max(1, n // block)
    return [slice(n * i // count, n * (i + 1) // count)
            for i in range(count)]


def sample_blocks(n: int, rows: int, width: int, filters: int,
                  dtype) -> List[slice]:
    """The sample blocks an inference product ``im2col(x) @ w_mat.T``
    over ``n`` samples of ``rows`` rows is split into: cache-sized
    blocks of the ``width``-wide column matrix, each a GEMM of two rows
    or more above :data:`_SMALL_GEMM_MADDS` -- or one block, the whole
    call, where only that keeps the bits: float64, one filter (a
    matrix-vector product), and a BLAS not in :data:`_SPLIT_GEMM_BUILDS`."""
    dtype = np.dtype(dtype)
    if not SPLIT_GEMMS or dtype != np.float32 or filters == 1:
        return [slice(0, n)]
    return _even_blocks(n, max(
        _COL2IM_BLOCK_BYTES // max(1, rows * width * dtype.itemsize),
        _SMALL_GEMM_MADDS // max(1, rows * width * filters) + 1,
        2 if rows == 1 else 1))


def conv2d_input_grad(grad_mat: np.ndarray, weight: np.ndarray,
                      x_shape: Tuple[int, int, int, int], stride: int,
                      padding: int) -> np.ndarray:
    """``col2im(grad_mat @ w_mat, ...)`` without the column matrix.

    ``grad_mat`` is the output gradient as ``(N * out_h * out_w, Cout)``
    rows, ``weight`` a ``(Cout, C, kh, kw)`` filter bank or ``M``
    stacked ones ``(M, Cout, C, kh, kw)`` (samples member-major, ``N /
    M`` each).  Each tap ``(i, j)`` is one GEMM ``grad_mat @ W[..., i,
    j]`` whose ``(n, out_h, out_w, C)`` result is added into the padded
    NHWC accumulator at once: the same products, every element starting
    at ``+0.0`` and receiving its taps in ascending ``(i, j)`` order --
    :func:`col2im`'s rule -- with the same sample blocking.  A block's
    samples share one filter bank, so it is whole members or part of one.

    Where a tap would not keep the bits of the whole product -- float64,
    a product at or below :data:`_SMALL_GEMM_MADDS`, ``C == 1`` or a
    single row, where NumPy calls a matrix-vector kernel instead, or a
    BLAS not in :data:`_SPLIT_GEMM_BUILDS` -- the column matrix is formed
    as before.
    """
    n, c, h, w = x_shape
    kh, kw = weight.shape[-2:]
    p, s = padding, stride
    out_h = conv_output_size(h, kh, s, p)
    out_w = conv_output_size(w, kw, s, p)
    rows = out_h * out_w
    cout = grad_mat.shape[-1]
    w_mats = weight.reshape(-1, cout, c * kh * kw)
    members = w_mats.shape[0]
    per_member = n // members
    dtype = np.result_type(grad_mat, weight)
    if (not SPLIT_GEMMS or dtype != np.float32 or c == 1
            or per_member * rows == 1
            or per_member * rows * w_mats[0].size <= _SMALL_GEMM_MADDS):
        cols = grad_mat.reshape(members, -1, cout) @ w_mats
        return col2im(cols.reshape(n * rows, -1), x_shape, kh, kw, s, p)

    # (M, kh, kw, Cout, C): a C-contiguous (Cout, C) matrix per tap
    taps = np.ascontiguousarray(np.moveaxis(
        weight.reshape(w_mats.shape[:2] + weight.shape[-3:]),
        (3, 4), (1, 2)))
    block = _COL2IM_BLOCK_BYTES // (rows * c * kh * kw * dtype.itemsize)
    member_slices = _even_blocks(members, max(1, block // per_member))
    sample_slices = _even_blocks(
        per_member, min(per_member, max(block, 2 if rows == 1 else 1)))
    mb_max = -(-members // len(member_slices))
    sb_max = -(-per_member // len(sample_slices))
    out = np.empty(x_shape, dtype=dtype)
    acc = np.empty((mb_max * sb_max, h + 2 * p, w + 2 * p, c), dtype=dtype)
    prod = np.empty((mb_max, sb_max * rows, c), dtype=dtype)
    # each block's gradient goes to BLAS column-major (a transposed
    # copy), a layout the small-matrix kernels never take
    grads_t = np.empty((mb_max, cout, sb_max * rows), dtype=dtype)
    grads = grad_mat.reshape(members, per_member, rows, cout)
    for m_slice in member_slices:
        for s_slice in sample_slices:
            grads_b = grads[m_slice, s_slice]
            mb, sb = grads_b.shape[:2]
            grads_tb = grads_t[:mb, :, :sb * rows]
            grads_tb[...] = grads_b.reshape(mb, sb * rows, cout).transpose(
                0, 2, 1)
            prod_b = prod[:mb, :sb * rows]
            acc_b = acc[:mb * sb]
            acc_b.fill(0)
            for i in range(kh):
                i_max = i + s * out_h
                for j in range(kw):
                    j_max = j + s * out_w
                    np.matmul(grads_tb.transpose(0, 2, 1), taps[m_slice, i, j],
                              out=prod_b)
                    acc_b[:, i:i_max:s, j:j_max:s, :] += prod_b.reshape(
                        mb * sb, out_h, out_w, c)
            start = m_slice.start * per_member + s_slice.start
            out[start:start + mb * sb] = (
                acc_b[:, p:p + h, p:p + w, :].transpose(0, 3, 1, 2))
    return out
