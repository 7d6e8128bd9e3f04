"""Bottleneck block: shapes, skip paths, gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.blocks import Bottleneck
from repro.nn.layers import BatchNorm2d


def test_identity_skip_shape(rng):
    block = Bottleneck(8, 4, 8, stride=1, rng=rng)
    assert not block.has_projection
    x = rng.normal(size=(2, 8, 6, 6)).astype(np.float32)
    out = block.forward(x)
    assert out.shape == (2, 8, 6, 6)


def test_projection_on_channel_change(rng):
    block = Bottleneck(8, 4, 16, stride=1, rng=rng)
    assert block.has_projection
    x = rng.normal(size=(2, 8, 6, 6)).astype(np.float32)
    assert block.forward(x).shape == (2, 16, 6, 6)


def test_projection_on_stride(rng):
    block = Bottleneck(8, 4, 8, stride=2, rng=rng)
    assert block.has_projection
    x = rng.normal(size=(2, 8, 6, 6)).astype(np.float32)
    assert block.forward(x).shape == (2, 8, 3, 3)


def test_asymmetric_mid_channels(rng):
    block = Bottleneck(8, (4, 6), 8, rng=rng)
    assert block.mid_channels == (4, 6)
    x = rng.normal(size=(2, 8, 6, 6)).astype(np.float32)
    assert block.forward(x).shape == (2, 8, 6, 6)


@pytest.mark.usefixtures("float64_mode")
def test_bottleneck_gradcheck(rng, gradcheck):
    block = Bottleneck(4, 2, 4, stride=1, rng=rng)
    x = rng.normal(size=(2, 4, 4, 4))
    # warm up running stats so eval mode is well-defined
    block.forward(rng.normal(size=(8, 4, 4, 4)))
    # freeze batch-norm statistics for a clean check; the other layers
    # stay in training mode, where forward keeps what backward needs
    for _, module in block.named_modules():
        if isinstance(module, BatchNorm2d):
            module.eval()

    target = np.zeros_like(block.forward(x))

    def fn():
        return 0.5 * float(((block.forward(x) - target) ** 2).sum())

    out = block.forward(x)
    block.zero_grad()
    grad_x = block.backward(out - target)
    assert np.abs(grad_x - gradcheck(fn, x)).max() < 1e-5

    conv2 = dict(block.children())["conv2"]
    expected = gradcheck(fn, conv2.params["weight"])
    assert np.abs(conv2.grads["weight"] - expected).max() < 1e-5


@pytest.mark.usefixtures("float64_mode")
def test_projection_gradient_flows_through_skip(rng):
    block = Bottleneck(4, 2, 8, stride=1, rng=rng)
    x = rng.normal(size=(2, 4, 4, 4))
    out = block.forward(x)
    block.zero_grad()
    block.backward(np.ones_like(out))
    proj_conv = dict(block.downsample.children())["conv"]
    assert np.abs(proj_conv.grads["weight"]).sum() > 0
