"""im2col/col2im against the loop kernels they replaced, bit for bit.

The column matrix's element order fixes the conv GEMM's K order and
col2im's add order fixes the input gradient's rounding, so every golden
trace rests on these two functions returning exactly what the loops
below return: same values, same zero signs, same dtype, and a fresh
writable array that never aliases the input -- C-contiguous, except
that ``im2col`` stores a float32 matrix column-major where
``F.SPLIT_GEMMS`` holds.  Every product a layer forms from a column
matrix gives the same bits from either storage.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.layers import Conv2d


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


def _assert_lowered(cols, expected, source):
    """``im2col``'s contract: the oracle's values, stored column-major
    (a C-contiguous transpose) on the split float32 build."""
    if F.SPLIT_GEMMS and source.dtype == np.float32:
        cols, expected = cols.T, expected.T
    _assert_identical(cols, expected, source)


@pytest.fixture(params=[True, False], ids=["split", "single"])
def split(request, monkeypatch):
    """``F.SPLIT_GEMMS`` forced either way: the storage follows it on any
    BLAS, and no product depends on the storage."""
    monkeypatch.setattr(F, "SPLIT_GEMMS", request.param)
    return request.param


def _check_both(rng, shape, kh, kw, stride, padding, dtype):
    x = _values(rng, shape, dtype)
    cols = F.im2col(x, kh, kw, stride, padding)
    _assert_lowered(cols, _reference_im2col(x, kh, kw, stride, padding), x)
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


def test_lowering_storage_follows_split_gemms(rng, split):
    """Both storages against the oracle on any BLAS: the grid, a conv2
    batch, and what ``pool1`` hands ``conv2`` -- NCHW values in
    channel-last memory, at padding 2 and 0."""
    for shape, dtype in itertools.product(GRID_SHAPES,
                                          (np.float32, np.float64)):
        for k, stride, padding in ((1, 1, 0), (3, 2, 1), (5, 1, 2)):
            _check_both(rng, shape, k, k, stride, padding, dtype)
    _check_both(rng, (16, 22, 14, 14), 5, 5, 1, 2, np.float32)
    x = _values(rng, (16, 14, 14, 22), np.float32).transpose(0, 3, 1, 2)
    for padding in (2, 0):
        _assert_lowered(F.im2col(x, 5, 5, 1, padding),
                        _reference_im2col(x, 5, 5, 1, padding), x)


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
    _assert_lowered(cols, _reference_im2col(x, 3, 3, 2, 1), x)

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
    _assert_lowered(cols, x.reshape(-1, 1), x)
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


# --- the input gradient without the column matrix ---------------------------

def _reference_input_grad(grad_mat, weight, x_shape, stride, padding):
    """What ``Conv2d.backward`` and the stacked cohort layer returned
    before the tap-wise kernel: one product per filter bank, then
    ``col2im``."""
    kh, kw = weight.shape[-2:]
    cout = grad_mat.shape[-1]
    w_mats = weight.reshape(-1, cout, x_shape[1] * kh * kw)
    grads = grad_mat.reshape(w_mats.shape[0], -1, cout)
    cols = (grads @ w_mats).reshape(grad_mat.shape[0], -1)
    return F.col2im(cols, x_shape, kh, kw, stride, padding)


def _check_input_grad(rng, shape, cout, k, stride, padding, dtype,
                      members=1):
    n, c, h, w = shape
    rows = (F.conv_output_size(h, k, stride, padding)
            * F.conv_output_size(w, k, stride, padding))
    bank = (cout, c, k, k) if members == 1 else (members, cout, c, k, k)
    weight = _values(rng, bank, dtype)
    grad_mat = _values(rng, (n * rows, cout), dtype)
    _assert_identical(
        F.conv2d_input_grad(grad_mat, weight, shape, stride, padding),
        _reference_input_grad(grad_mat, weight, shape, stride, padding),
        grad_mat,
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", GRID_SHAPES)
@pytest.mark.parametrize("cout", [1, 2, 16, 40])
def test_input_grad_matches_col2im_over_grid(rng, shape, cout, dtype):
    for k, stride, padding in itertools.product(
            (1, 2, 3, 5), (1, 2, 3), (0, 1, 2)):
        _check_input_grad(rng, shape, cout, k, stride, padding, dtype)


# conv2 of the paper CNN at full width and pruned by 0.3 / 0.7, a
# column-matrix product above and one below the small-matrix bound, and
# a strided 3x3 with a one-pixel output
INPUT_GRAD_SHAPES = [
    ((16, 32, 14, 14), 64, 5, 1, 2),
    ((16, 22, 14, 14), 45, 5, 1, 2),
    ((16, 10, 14, 14), 19, 5, 1, 2),
    ((8, 10, 14, 14), 19, 5, 1, 2),
    ((3, 24, 7, 7), 40, 3, 2, 1),
    ((6, 64, 3, 3), 64, 3, 2, 0),
    ((2, 7, 9, 9), 33, 3, 1, 1),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,cout,k,stride,padding", INPUT_GRAD_SHAPES)
def test_input_grad_matches_col2im_at_benchmark_shapes(
        rng, shape, cout, k, stride, padding, dtype):
    _check_input_grad(rng, shape, cout, k, stride, padding, dtype)


@pytest.mark.parametrize("members", [2, 3])
@pytest.mark.parametrize("shape,cout,k,stride,padding", INPUT_GRAD_SHAPES)
def test_input_grad_matches_col2im_with_stacked_weights(
        rng, members, shape, cout, k, stride, padding):
    """``M`` members' samples, member-major, each with its own bank."""
    shape = (shape[0] * members,) + shape[1:]
    _check_input_grad(rng, shape, cout, k, stride, padding, np.float32,
                      members)


@pytest.mark.parametrize("block_samples", [0, 1, 3, 16, 100])
@pytest.mark.parametrize("members", [1, 4])
def test_input_grad_blocking_is_invisible(rng, monkeypatch, block_samples,
                                          members):
    """Blocks of one sample, of three (short last blocks and blocks
    inside a member), of whole members, and of more than the batch."""
    shape, cout = (16, 24, 14, 14), 40
    monkeypatch.setattr(F, "_COL2IM_BLOCK_BYTES",
                        max(1, block_samples * 196 * 24 * 25 * 4))
    _check_input_grad(rng, shape, cout, 5, 1, 2, np.float32, members)


def test_input_grad_builds_no_column_matrix_above_the_bound(rng, monkeypatch):
    """The tap path's structure, on any BLAS; its bits are checked above
    on the builds that take it."""
    def refuse(*args):
        raise AssertionError("col2im called")

    monkeypatch.setattr(F, "SPLIT_GEMMS", True)
    monkeypatch.setattr(F, "col2im", refuse)
    weight = _values(rng, (64, 32, 5, 5), np.float32)
    grad_mat = _values(rng, (16 * 196, 64), np.float32)
    out = F.conv2d_input_grad(grad_mat, weight, (16, 32, 14, 14), 1, 2)
    assert out.shape == (16, 32, 14, 14)


def test_unmeasured_blas_keeps_the_column_matrix(rng, monkeypatch):
    """Off the measured OpenBLAS builds the input gradient is the single
    product and ``col2im``, as before the tap-wise kernel."""
    scattered = []

    def counting_col2im(cols, *args):
        scattered.append(cols.shape)
        return col2im(cols, *args)

    col2im = F.col2im
    monkeypatch.setattr(F, "SPLIT_GEMMS", False)
    monkeypatch.setattr(F, "col2im", counting_col2im)
    _check_input_grad(rng, (16, 32, 14, 14), 64, 5, 1, 2, np.float32)
    # one call for the function, one for the reference
    assert scattered == [(16 * 196, 32 * 25)] * 2


@settings(max_examples=80, deadline=None)
@given(
    members=st.integers(1, 3), per_member=st.integers(1, 6),
    c=st.integers(1, 24), cout=st.integers(1, 48),
    h=st.integers(1, 14), w=st.integers(1, 14),
    k=st.integers(1, 5), stride=st.integers(1, 3),
    padding=st.integers(0, 2), block_samples=st.sampled_from([0, 1, 2, 5]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2 ** 16),
)
def test_input_grad_property(members, per_member, c, cout, h, w, k, stride,
                             padding, block_samples, dtype, seed):
    """Shapes on both sides of the small-matrix bound, any blocking
    (``block_samples == 0`` keeps the module's own)."""
    assume(h + 2 * padding >= k and w + 2 * padding >= k)
    default = F._COL2IM_BLOCK_BYTES
    if block_samples:
        rows = (F.conv_output_size(h, k, stride, padding)
                * F.conv_output_size(w, k, stride, padding))
        F._COL2IM_BLOCK_BYTES = block_samples * rows * c * k * k * 4
    try:
        _check_input_grad(np.random.default_rng(seed),
                          (members * per_member, c, h, w), cout, k, stride,
                          padding, dtype, members)
    finally:
        F._COL2IM_BLOCK_BYTES = default


# --- products of the column matrix, from either storage ---------------------

def _bits(array):
    return array.dtype, array.shape, array.tobytes()


# (input shape, filters, kernel, stride, padding) with the forward
# product's multiply-adds: conv1 and conv2 pruned by 0.3 above the
# small-matrix bound, and three at or below it -- one sample into conv2
# pruned by 0.7 just below it, a 3x3 and a one-pixel output
PRODUCT_SHAPES = [
    ((16, 1, 28, 28), 32, 5, 1, 2),    # 10.0M
    ((16, 22, 14, 14), 45, 5, 1, 2),   # 77.6M
    ((1, 10, 14, 14), 19, 5, 1, 2),    # 931 000
    ((2, 3, 7, 6), 4, 3, 2, 1),        # 1 152
    ((3, 6, 3, 3), 8, 3, 1, 0),        # 432
]


@pytest.mark.parametrize("shape,cout,k,stride,padding", PRODUCT_SHAPES)
def test_conv_products_ignore_the_column_storage(
        rng, monkeypatch, split, shape, cout, k, stride, padding):
    """The training forward, the blocked inference forward and the
    weight gradient from ``im2col``'s matrix equal those from a
    C-ordered copy of it, zero signs included."""
    layer = Conv2d(shape[1], cout, k, stride=stride, padding=padding,
                   rng=rng)
    layer.params["bias"][...] = _values(rng, (cout,), np.float32)
    x = _values(rng, shape, np.float32)
    grad_out = _values(rng, layer.forward(x).shape, np.float32)

    def products():
        layer.train()
        out = layer.forward(x)
        layer.zero_grad()
        layer.backward(grad_out)
        layer.eval()
        return [_bits(a) for a in (out, layer.grads["weight"],
                                   layer.grads["bias"], layer.forward(x))]

    cols = F.im2col(x, k, k, stride, padding)
    assert cols.T.flags.c_contiguous == split
    got = products()
    im2col = F.im2col
    monkeypatch.setattr(
        F, "im2col", lambda *args: np.ascontiguousarray(im2col(*args)))
    assert got == products()


@pytest.mark.parametrize("members", [1, 2])
@pytest.mark.parametrize("rows,width,filters", [
    (3136, 550, 45), (196, 250, 19), (72, 36, 4), (1, 250, 19),
    (3136, 800, 1), (196, 250, 1)])
def test_gemm_operand_keeps_the_c_ordered_bits(rng, members, rows, width,
                                               filters):
    """Column-major ``cols`` (``M`` stacked ones) through
    ``gemm_operand`` into the forward product and the weight gradient,
    on both sides of ``_SMALL_GEMM_MADDS`` and with one filter, where
    both products are matrix-vector."""
    cols = _values(rng, (width, members * rows), np.float32).T.reshape(
        members, rows, width)
    reference = np.ascontiguousarray(cols)
    w_mat_t = _values(rng, (members, filters, width),
                      np.float32).transpose(0, 2, 1)
    grad_t = _values(rng, (members, filters, rows), np.float32)
    for got, expected, w, g in ((cols, reference, w_mat_t, grad_t),
                                (cols[0], reference[0], w_mat_t[0],
                                 grad_t[0])):
        operand = F.gemm_operand(got, filters)
        assert _bits(operand @ w) == _bits(expected @ w)
        assert _bits(g @ operand) == _bits(g @ expected)
