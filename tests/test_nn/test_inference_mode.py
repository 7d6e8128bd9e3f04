"""Inference-mode forwards: same bits as training mode, no backward state.

``evaluate_classifier`` runs the global model under ``eval()``; what a
layer caches there is pinned until the next training forward (conv2's
column matrix is 160 MB at the default eval batch), and the values must
not depend on the mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.cnn import build_cnn
from repro.nn import functional as F
from repro.nn.layers import Conv2d, Linear, MaxPool2d, ReLU
from repro.nn.metrics import evaluate_classifier
from repro.nn.recurrent import LSTM, Embedding


def _bits_equal(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _signed_zero_input(rng, shape):
    """Pre-activations as ReLU sees them, then as a pool sees them: both
    zeros, ties inside a window, and a few NaNs."""
    return rng.choice(
        np.array([-0.0, 0.0, -1.5, 1.5, 0.25, np.nan], dtype=np.float32),
        size=shape, p=[0.3, 0.3, 0.15, 0.1, 0.1, 0.05],
    )


# name -> (factory, input shape, the attributes backward reads)
LAYERS = {
    "conv": (lambda rng: Conv2d(3, 4, 3, stride=2, padding=1, rng=rng),
             (2, 3, 7, 6), ("_cols", "_x_shape")),
    "linear": (lambda rng: Linear(6, 4, rng=rng), (5, 6), ("_x",)),
    "relu": (lambda rng: ReLU(), (2, 3, 7, 6), ("_mask",)),
    "pool": (lambda rng: MaxPool2d(2), (2, 3, 7, 6), ("_cache",)),
    "pool_overlap": (lambda rng: MaxPool2d(3, stride=2), (2, 3, 7, 6),
                     ("_cache",)),
    "pool_k3": (lambda rng: MaxPool2d(3), (2, 3, 9, 10), ("_cache",)),
    "lstm": (lambda rng: LSTM(6, 5, rng=rng), (4, 3, 6), ("_cache",)),
    "embedding": (lambda rng: Embedding(10, 4, rng=rng), (4, 3), ("_ids",)),
}


@pytest.mark.parametrize("name", LAYERS)
def test_eval_forward_equals_train_forward_and_keeps_nothing(rng, name):
    factory, shape, state = LAYERS[name]
    layer = factory(rng)
    if name == "embedding":  # token ids
        inputs = [rng.integers(0, 10, size=shape)]
    else:
        inputs = [rng.normal(size=shape).astype(np.float32)]
    if name not in ("conv", "linear", "lstm", "embedding"):
        # a GEMM turns one NaN into many; an embedding takes ids
        inputs.append(_signed_zero_input(rng, shape))
    for x in inputs:
        layer.train()
        expected = layer.forward(x)
        assert all(getattr(layer, attr) is not None for attr in state)

        layer.eval()
        out = layer.forward(x)
        assert _bits_equal(out, expected)
        assert not np.shares_memory(out, x)
        assert all(getattr(layer, attr) is None for attr in state)
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.ones_like(out))


def test_conv2d_backward_is_repeatable_after_one_forward(rng):
    layer = Conv2d(2, 3, 3, padding=1, rng=rng)
    x = rng.normal(size=(4, 2, 5, 5)).astype(np.float32)
    grad_out = rng.normal(size=layer.forward(x).shape).astype(np.float32)
    layer.zero_grad()
    first = layer.backward(grad_out)
    grads = {k: v.copy() for k, v in layer.grads.items()}
    layer.zero_grad()
    second = layer.backward(grad_out)
    assert _bits_equal(first, second)
    assert all(_bits_equal(grads[k], layer.grads[k]) for k in grads)


def test_evaluate_leaves_no_column_matrix_on_the_model(rng):
    model = build_cnn(rng=rng)
    x = rng.normal(size=(6, 1, 28, 28)).astype(np.float32)
    y = rng.integers(0, 10, size=6)
    model.train()
    logits = model.forward(x)
    evaluate_classifier(model, x, y, batch_size=4)
    assert model.training
    kept = [(name, attr) for name, module in model.named_modules()
            if isinstance(module, (Conv2d, Linear, ReLU, MaxPool2d))
            for attr in ("_cols", "_x_shape", "_x", "_mask", "_cache")
            if getattr(module, attr, None) is not None]
    assert kept == []
    model.eval()
    assert _bits_equal(model.forward(x), logits)


# (input shape, filters, im2col calls at one / three / 1000 samples a
# block): conv2 at full width splits per sample; pruned to 0.7 a sample's
# product is below the small-matrix bound, so blocks take at least two;
# a small layer, and one filter (a matrix-vector product), are always
# one product over the batch -- as is every layer on a BLAS build the
# split was not measured on
EVAL_BLOCKS = [
    ((7, 32, 14, 14), 64, (7, 2, 1)),
    ((9, 10, 14, 14), 19, (4, 3, 1)),
    ((5, 3, 7, 6), 4, (1, 1, 1)),
    ((40, 32, 14, 14), 1, (1, 1, 1)),
]


@pytest.mark.parametrize("shape,filters,calls", EVAL_BLOCKS)
def test_eval_forward_blocking_is_invisible(rng, monkeypatch, shape, filters,
                                            calls):
    """Blocks of one sample, of three and of the batch, each block's
    column matrix as ``im2col`` stores it and as a C-ordered copy."""
    layer = Conv2d(shape[1], filters, 5, padding=2, rng=rng)
    x = rng.normal(size=shape).astype(np.float32)
    expected = layer.forward(x)  # training: one product over the batch
    lowered = []

    def counting_im2col(x, *args):
        lowered.append(x.shape[0])
        cols = im2col(x, *args)
        return np.ascontiguousarray(cols) if c_ordered else cols

    im2col = F.im2col
    monkeypatch.setattr(F, "im2col", counting_im2col)
    layer.eval()
    sample_bytes = shape[2] * shape[3] * shape[1] * 25 * 4
    for c_ordered in (False, True):
        for block_samples, count in zip((1, 3, 1000), calls):
            monkeypatch.setattr(F, "_COL2IM_BLOCK_BYTES",
                                block_samples * sample_bytes)
            lowered.clear()
            assert _bits_equal(layer.forward(x), expected)
            assert len(lowered) == (count if F.SPLIT_GEMMS else 1)
            assert sum(lowered) == shape[0]
