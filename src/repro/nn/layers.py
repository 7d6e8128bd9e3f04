"""Feed-forward layers with exact manual backpropagation.

These are the prunable building blocks of the model zoo.  Conv2d and
Linear are the structured-pruning targets (filters and neurons
respectively); BatchNorm2d is pruned alongside its preceding
convolution, exactly as Section III-B of the paper prescribes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module


class Linear(Module):
    """Fully-connected layer ``y = x @ W.T + b``.

    Weight shape is ``(out_features, in_features)`` so that row ``i``
    holds everything connected to output neuron ``i`` — the unit of
    structured pruning for fully-connected layers.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = rng if rng is not None else np.random.default_rng(0)
        self.add_param("weight", init.kaiming_uniform((out_features, in_features), rng))
        self.add_param("bias", init.zeros((out_features,)))
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # inference keeps no backward state
        self._x = x if self.training else None
        return x @ self.params["weight"].T + self.params["bias"]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.grads["weight"] += grad_out.T @ self._x
        self.grads["bias"] += grad_out.sum(axis=0)
        return grad_out @ self.params["weight"]


class Conv2d(Module):
    """2-D convolution over ``(N, C, H, W)`` inputs via im2col.

    Weight shape is ``(out_channels, in_channels, kh, kw)``; output
    channel ``i`` is one *filter*, the unit of structured pruning for
    convolutional layers.

    A training forward keeps the batch's column matrix for the weight
    gradient; an inference forward lowers one block of samples at a
    time and keeps nothing, and backward forms the input gradient tap
    by tap (:func:`repro.nn.functional.conv2d_input_grad`), so no
    second column-sized matrix exists -- on the OpenBLAS builds where
    both were measured to give the bits of the single product
    (``functional.SPLIT_GEMMS``; DESIGN.md §3.9), the single product
    elsewhere.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        #: When False (set for a network's first layer), backward skips
        #: the input gradient -- nothing consumes it.
        self.requires_input_grad = True
        rng = rng if rng is not None else np.random.default_rng(0)
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.add_param("weight", init.kaiming_uniform(shape, rng))
        self.add_param("bias", init.zeros((out_channels,)))
        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, _, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = F.conv_output_size(h, k, s, p)
        out_w = F.conv_output_size(w, k, s, p)

        w_mat = self.params["weight"].reshape(self.out_channels, -1)
        if self.training:
            cols = F.gemm_operand(F.im2col(x, k, k, s, p), self.out_channels)
            self._cols, self._x_shape = cols, x.shape
            out = cols @ w_mat.T
            out += self.params["bias"]
        else:
            # inference keeps no backward state: lower and multiply one
            # block of samples at a time into one output
            self._cols = self._x_shape = None
            rows = out_h * out_w
            out = np.empty((n * rows, self.out_channels),
                           dtype=np.result_type(x, w_mat))
            for block in F.sample_blocks(n, rows, w_mat.shape[1],
                                         self.out_channels, out.dtype):
                out_b = out[block.start * rows:block.stop * rows]
                cols = F.gemm_operand(F.im2col(x[block], k, k, s, p),
                                      self.out_channels)
                np.matmul(cols, w_mat.T, out=out_b)
                out_b += self.params["bias"]
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        s, p = self.stride, self.padding
        grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)

        self.grads["weight"] += (grad_mat.T @ self._cols).reshape(
            self.params["weight"].shape
        )
        self.grads["bias"] += grad_mat.sum(axis=0)

        if not self.requires_input_grad:
            return np.zeros(self._x_shape, dtype=grad_out.dtype)
        return F.conv2d_input_grad(grad_mat, self.params["weight"],
                                   self._x_shape, s, p)


class BatchNorm2d(Module):
    """Per-channel batch normalisation for ``(N, C, H, W)`` tensors.

    Maintains running mean/variance buffers for evaluation mode.  When
    the preceding convolution is pruned, the corresponding channels of
    ``gamma``/``beta`` (and the running statistics) are removed too.
    """

    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.add_param("gamma", init.ones((num_features,)))
        self.add_param("beta", init.zeros((num_features,)))
        self.add_buffer("running_mean", init.zeros((num_features,)))
        self.add_buffer("running_var", init.ones((num_features,)))
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        gamma = self.params["gamma"].reshape(1, -1, 1, 1)
        beta = self.params["beta"].reshape(1, -1, 1, 1)
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            m = self.momentum
            self.buffers["running_mean"] = (
                (1 - m) * self.buffers["running_mean"] + m * mean
            )
            self.buffers["running_var"] = (
                (1 - m) * self.buffers["running_var"] + m * var
            )
            inv_std = 1.0 / np.sqrt(var + self.eps)
            x_hat = (x - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
            self._cache = (x_hat, inv_std)
        else:
            mean = self.buffers["running_mean"]
            inv_std = 1.0 / np.sqrt(self.buffers["running_var"] + self.eps)
            x_hat = (x - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
            self._cache = (x_hat, inv_std)
        return gamma * x_hat + beta

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std = self._cache
        # the channel sums below add in memory order: run them over NCHW
        # memory whatever layout the next layer's gradient came in
        grad_out = np.ascontiguousarray(grad_out)
        n, _, h, w = grad_out.shape
        m = n * h * w

        self.grads["gamma"] += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.grads["beta"] += grad_out.sum(axis=(0, 2, 3))

        gamma = self.params["gamma"].reshape(1, -1, 1, 1)
        grad_x_hat = grad_out * gamma
        if not self.training:
            return grad_x_hat * inv_std.reshape(1, -1, 1, 1)

        sum_g = grad_x_hat.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (grad_x_hat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        return (
            inv_std.reshape(1, -1, 1, 1)
            * (grad_x_hat - sum_g / m - x_hat * sum_gx / m)
        )


class ReLU(Module):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._mask = mask if self.training else None
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


def _keep_or_take(dst: np.ndarray, src, keep: np.ndarray,
                  scratch: np.ndarray) -> None:
    """``dst = where(keep, dst, src)`` on unsigned ints, branch-free as
    ``src ^ ((src ^ dst) & keep)`` (times the 0/1 mask is that AND): the
    chosen operand's bits land unchanged, zero signs and NaNs included."""
    np.bitwise_xor(src, dst, out=scratch)
    np.multiply(scratch, keep, out=scratch)
    np.bitwise_xor(src, scratch, out=dst)


class MaxPool2d(Module):
    """Max pooling with square windows (kernel == stride by default).

    One fold over the ``k*k`` strided window slices serves every
    (kernel, stride) in both modes, with argmax's rule -- the first
    maximum of a window wins, a NaN sticks -- and in the input's memory
    layout (DESIGN.md §3.9, "One pooling fold").
    """

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        if not 1 <= kernel_size <= 16:  # a window's winner index is a uint8
            raise ValueError(f"kernel_size must be in [1, 16], got {kernel_size}")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._cache: Optional[tuple] = None

    def _windows(self, shape: tuple):
        """``(t, index)`` of each window slice, ``t = i * k + j`` ascending."""
        k, s = self.kernel_size, self.stride
        rows, cols = (s * F.conv_output_size(size, k, s, 0) for size in shape[2:])
        for t in range(k * k):
            i, j = divmod(t, k)
            yield t, (Ellipsis, slice(i, i + rows, s), slice(j, j + cols, s))

    def forward(self, x: np.ndarray) -> np.ndarray:
        windows = self._windows(x.shape)
        # every buffer is like a window slice of x: x's memory order
        out = np.copy(x[next(windows)[1]])
        bits = out.view(f"u{x.itemsize}")
        value, scratch = np.empty_like(bits), np.empty_like(bits)
        keep = np.empty_like(out, dtype=bool)
        win = np.zeros_like(out, dtype=np.uint8) if self.training else None
        win_scratch = np.empty_like(win) if self.training else None
        for t, index in windows:
            np.copyto(value.view(x.dtype), x[index])
            np.less_equal(value.view(x.dtype), out, out=keep)
            keep |= np.isnan(out)
            _keep_or_take(bits, value, keep, scratch)
            if win is not None:
                _keep_or_take(win, t, keep, win_scratch)
        # the winner index, x's shape and its axes slowest-first in memory
        order = sorted(range(x.ndim), key=lambda axis: -abs(x.strides[axis]))
        self._cache = (win, x.shape, order) if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        win, x_shape, order = self._cache
        bits_type = f"u{grad_out.itemsize}"
        grad_x = np.zeros([x_shape[axis] for axis in order],
                          dtype=grad_out.dtype).transpose(np.argsort(order))
        grad_bits = np.empty_like(win, dtype=bits_type)
        np.copyto(grad_bits.view(grad_out.dtype), grad_out)
        hit, part = np.empty_like(win, dtype=bool), np.empty_like(grad_bits)
        for t, index in self._windows(x_shape):
            np.equal(win, t, out=hit)
            if self.stride == self.kernel_size:  # tiles: copy, -0.0 stays
                np.multiply(grad_bits, hit, out=grad_x.view(bits_type)[index])
            else:  # col2im's rule: a +0.0 start, windows added in t order
                np.multiply(grad_bits, hit, out=part)
                grad_x[index] += part.view(grad_out.dtype)
        return grad_x


class AvgPool2d(Module):
    """Average pooling; with ``kernel_size=None`` pools globally."""

    def __init__(self, kernel_size: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self._x_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        if self.kernel_size is None:
            return x.mean(axis=(2, 3), keepdims=True)
        k = self.kernel_size
        n, c, h, w = x.shape
        out_h, out_w = h // k, w // k
        trimmed = x[:, :, : out_h * k, : out_w * k]
        return trimmed.reshape(n, c, out_h, k, out_w, k).mean(axis=(3, 5))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        if self.kernel_size is None:
            return np.broadcast_to(grad_out / (h * w), self._x_shape).copy()
        k = self.kernel_size
        grad_x = np.zeros(self._x_shape, dtype=grad_out.dtype)
        expanded = np.repeat(np.repeat(grad_out, k, axis=2), k, axis=3) / (k * k)
        grad_x[:, :, : expanded.shape[2], : expanded.shape[3]] = expanded
        return grad_x


class Flatten(Module):
    """Flatten ``(N, C, H, W)`` activations into ``(N, C*H*W)`` rows."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._x_shape)


class Dropout(Module):
    """Inverted dropout; identity in evaluation mode.

    The mask RNG is owned by the layer so worker-side training remains
    reproducible under an explicit seed.
    """

    def __init__(self, p: float = 0.5,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask
