"""MaxPool2d's one fold against the kernels it replaced, bit for bit.

The oracle below is the layer as it shipped before the fold: a window
transpose + ``argmax`` + ``take_along_axis``/``put_along_axis`` when
``stride == kernel``, and ``im2col``/``col2im`` otherwise.  The fold
must return the same values, zero signs and NaN bits in both modes, for
every (kernel, stride) and input layout, and keep the input's memory
order: inside the CNN's conv->relu->pool blocks activations stay
channel-last, and no layer pays for a layout copy.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.models.cnn import build_cnn
from repro.nn import functional as F
from repro.nn.layers import BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module, Sequential


class _OracleMaxPool2d(Module):
    """The two training kernels ``MaxPool2d`` shipped before the fold."""

    def __init__(self, kernel_size, stride=None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._cache = None

    def forward(self, x):
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = F.conv_output_size(h, k, s, 0)
        out_w = F.conv_output_size(w, k, s, 0)
        if s == k:
            windows = (
                x[:, :, : out_h * k, : out_w * k]
                .reshape(n, c, out_h, k, out_w, k)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(n, c, out_h, out_w, k * k)
            )
            argmax = windows.argmax(axis=-1)
            out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
            self._cache = ("fast", argmax, x.shape)
            return out
        cols = F.im2col(x.reshape(n * c, 1, h, w), k, k, s, 0)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        self._cache = ("cols", argmax, cols.shape, x.shape)
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_out):
        if self._cache[0] == "fast":
            _, argmax, x_shape = self._cache
            n, c, h, w = x_shape
            k = self.kernel_size
            out_h, out_w = argmax.shape[2], argmax.shape[3]
            grad_windows = np.zeros((n, c, out_h, out_w, k * k), dtype=grad_out.dtype)
            np.put_along_axis(grad_windows, argmax[..., None], grad_out[..., None], axis=-1)
            grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
            grad_x[:, :, : out_h * k, : out_w * k] = (
                grad_windows
                .reshape(n, c, out_h, out_w, k, k)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(n, c, out_h * k, out_w * k)
            )
            return grad_x
        _, argmax, cols_shape, x_shape = self._cache
        n, c, h, w = x_shape
        k, s = self.kernel_size, self.stride
        grad_cols = np.zeros(cols_shape, dtype=grad_out.dtype)
        grad_cols[np.arange(cols_shape[0]), argmax] = grad_out.reshape(-1)
        return F.col2im(grad_cols, (n * c, 1, h, w), k, k, s, 0).reshape(n, c, h, w)


#: values a pool sees after ReLU and in hostile input: both zeros, ties,
#: NaN (which sticks) and both infinities
SPECIAL = np.array([-0.0, 0.0, 0.0, -1.5, 1.5, 1.5, 0.25, np.nan, np.inf, -np.inf])


def _values(rng, shape, dtype, special):
    if special:
        return rng.choice(SPECIAL, size=shape).astype(dtype)
    values = rng.normal(size=shape).astype(dtype)
    values[rng.random(shape) < 0.2] = -0.0
    return values


def _in_layout(x, layout):
    """``x``'s values in the memory layout a test feeds the layer."""
    if layout == "nchw":
        return np.ascontiguousarray(x)
    nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if layout == "nhwc":
        return nhwc
    assert layout == "readonly"
    nhwc.setflags(write=False)
    return nhwc


def _memory_order(a):
    """Axes longer than one, from the slowest to the fastest in memory."""
    return tuple(sorted((axis for axis in range(a.ndim) if a.shape[axis] > 1),
                        key=lambda axis: -a.strides[axis]))


def _assert_bits_equal(out, expected):
    assert out.dtype == expected.dtype
    assert out.shape == expected.shape
    bits = np.dtype(f"u{out.itemsize}")
    assert np.array_equal(np.ascontiguousarray(out).view(bits),
                          np.ascontiguousarray(expected).view(bits))


def _check(rng, shape, k, s, dtype, layout, special):
    x = _in_layout(_values(rng, shape, dtype, special), layout)
    oracle = _OracleMaxPool2d(k, s)
    expected = oracle.forward(x)
    grad_out = _values(rng, expected.shape, dtype, special)
    expected_grad = oracle.backward(grad_out)

    layer = MaxPool2d(k, s)
    out = layer.forward(x)
    _assert_bits_equal(out, expected)
    assert out.flags.writeable and not np.shares_memory(out, x)
    grad_x = layer.backward(grad_out)
    _assert_bits_equal(grad_x, expected_grad)
    assert not np.shares_memory(grad_x, grad_out)
    assert _memory_order(grad_x) == _memory_order(x)
    if min(out.shape) > 1:
        assert _memory_order(out) == _memory_order(x)

    layer.eval()
    _assert_bits_equal(layer.forward(x), expected)
    assert layer._cache is None


# odd and even H/W, C = 1, N = 1, and a batch of several samples
GRID_SHAPES = [(2, 3, 7, 9), (1, 1, 6, 6), (3, 1, 5, 8), (1, 4, 9, 5)]


@pytest.mark.parametrize("special", [False, True], ids=["normal", "special"])
@pytest.mark.parametrize("layout", ["nchw", "nhwc", "readonly"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fold_matches_oracle_over_grid(rng, dtype, layout, special):
    # s < k, s == k and s > k all occur
    for shape, k, s in itertools.product(GRID_SHAPES, (1, 2, 3), (1, 2, 3)):
        _check(rng, shape, k, s, dtype, layout, special)


@pytest.mark.parametrize("k, s, sign", [(1, 1, True), (2, 2, True), (3, 3, True),
                                        (1, 2, False), (2, 3, False),
                                        (3, 2, False)])
def test_zero_sign_of_a_winning_gradient(k, s, sign):
    """A ``-0.0`` gradient is copied when windows tile the input, but
    added to a ``+0.0`` start (col2im's rule) when they skip elements or
    overlap -- so it arrives as ``+0.0`` for s > k as for s < k."""
    x = np.arange(1.0, 1.0 + 2 * 6 * 6, dtype=np.float32).reshape(1, 2, 6, 6)
    layer = MaxPool2d(k, s)
    out = layer.forward(x)
    grad_x = layer.backward(np.full_like(out, -0.0))
    winners = np.zeros(x.shape, dtype=bool)
    oracle = _OracleMaxPool2d(k, s)
    oracle.forward(x)
    expected = oracle.backward(np.full_like(out, -0.0))
    _assert_bits_equal(grad_x, expected)
    # the last element of every window is its strict maximum
    winners[:, :, k - 1::s, k - 1::s][:, :, :out.shape[2], :out.shape[3]] = True
    assert np.all(grad_x == 0.0)
    assert np.array_equal(np.signbit(grad_x), winners if sign else np.zeros_like(winners))


def test_first_maximum_and_first_nan_win():
    x = np.array([[[[0.0, -0.0], [0.0, 1.0]],
                   [[-0.0, 0.0], [-1.0, -2.0]],
                   [[2.0, np.nan], [-np.nan, 3.0]],
                   [[-np.inf, -np.inf], [-np.inf, -np.inf]]]], dtype=np.float64)
    x[0, 2, 1, 0] = np.copysign(np.nan, -1.0)
    layer = MaxPool2d(2)
    out = layer.forward(x)
    assert out[0, 0, 0, 0] == 1.0
    assert np.signbit(out[0, 1, 0, 0])                   # the first of two zeros
    assert np.isnan(out[0, 2, 0, 0]) and not np.signbit(out[0, 2, 0, 0])
    assert out[0, 3, 0, 0] == -np.inf
    grad_x = layer.backward(np.ones_like(out))
    assert grad_x[0, :, :, :].reshape(4, 4).argmax(axis=1).tolist() == [3, 0, 1, 0]


def test_kernel_fits_the_winner_index():
    MaxPool2d(16)
    with pytest.raises(ValueError, match="kernel_size"):
        MaxPool2d(17)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3), c=st.integers(1, 4),
    h=st.integers(1, 9), w=st.integers(1, 9),
    k=st.integers(1, 4), s=st.integers(1, 4),
    dtype=st.sampled_from([np.float32, np.float64]),
    layout=st.sampled_from(["nchw", "nhwc", "readonly"]),
    special=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
def test_fold_property(n, c, h, w, k, s, dtype, layout, special, seed):
    assume(h >= k and w >= k)
    _check(np.random.default_rng(seed), (n, c, h, w), k, s, dtype, layout, special)


# ----------------------------------------------------------------------
# the CNN's conv->relu->pool blocks
# ----------------------------------------------------------------------
def _one_step(model, x, y):
    """Logits, each layer's (input, output) and (grad_out, input grad)
    pairs, and the parameter gradients of one training step."""
    model.train()
    model.zero_grad()
    seen = {}
    for name, layer in zip(model.layer_names, model.layers):
        seen[name] = (x, layer.forward(x))
        x = seen[name][1]
    loss = CrossEntropyLoss()
    loss.forward(x, y)
    grad = loss.backward()
    back = {}
    for name, layer in reversed(list(zip(model.layer_names, model.layers))):
        back[name] = (grad, layer.backward(grad))
        grad = back[name][1]
    grads = dict(model.named_grads())
    return x, seen, back, grads


def _assert_same_step(logits, grads, oracle, x, y):
    oracle_logits, _, _, oracle_grads = _one_step(oracle, x, y)
    _assert_bits_equal(logits, oracle_logits)
    assert grads.keys() == oracle_grads.keys()
    for name in grads:
        _assert_bits_equal(grads[name], oracle_grads[name])


def test_cnn_pools_keep_the_conv_layout_and_the_oracle_bits(rng):
    model = build_cnn(rng=np.random.default_rng(7))
    oracle = build_cnn(rng=np.random.default_rng(7))
    oracle.add_child("pool1", _OracleMaxPool2d(2))
    oracle.add_child("pool2", _OracleMaxPool2d(2))
    x = rng.normal(size=(6, 1, 28, 28)).astype(np.float32)
    y = rng.integers(0, 10, size=6)

    logits, seen, back, grads = _one_step(model, x, y)
    for name in ("pool1", "pool2"):
        pool_in, pool_out = seen[name]
        # a conv's output is a channel-last view; ReLU and the pool keep it
        assert _memory_order(pool_in) == (0, 2, 3, 1)
        assert _memory_order(pool_out) == _memory_order(pool_in)
        assert _memory_order(back[name][1]) == _memory_order(pool_in)

    # so conv2's backward lowers its grad_out to the GEMM operand by a view
    conv2_grad_out = back["conv2"][0]
    conv2 = model.get("conv2")
    assert isinstance(conv2, Conv2d)
    grad_mat = conv2_grad_out.transpose(0, 2, 3, 1).reshape(-1, conv2.out_channels)
    assert np.shares_memory(grad_mat, conv2_grad_out)

    _assert_same_step(logits, grads, oracle, x, y)


def test_batchnorm_block_keeps_the_oracle_bits(rng):
    """VGG's and ResNet's conv->bn->relu->pool: BatchNorm2d's channel
    sums add in memory order, so the pool's channel-last gradient must
    not reach them as such."""
    def block(pool):
        init = np.random.default_rng(5)
        return Sequential(
            ("conv", Conv2d(3, 8, 3, padding=1, rng=init)),
            ("bn", BatchNorm2d(8)), ("relu", ReLU()), ("pool", pool),
            ("flatten", Flatten()), ("fc", Linear(8 * 8 * 8, 10, rng=init)),
        )

    x = rng.normal(size=(4, 3, 16, 16)).astype(np.float32)
    y = rng.integers(0, 10, size=4)
    logits, _, back, grads = _one_step(block(MaxPool2d(2)), x, y)
    assert _memory_order(back["bn"][0]) == (0, 2, 3, 1)
    _assert_same_step(logits, grads, block(_OracleMaxPool2d(2)), x, y)
