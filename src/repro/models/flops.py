"""Analytic FLOP and parameter counting.

The edge-device simulator converts model complexity into local-update
and transmission times (Eq. 5 of the paper), so it needs exact
per-model multiply-accumulate counts as a function of the (possibly
pruned) architecture.  Counting walks the module tree with a symbolic
shape trace -- no forward pass is executed.

Convention: one multiply-accumulate = 2 FLOPs; counts are *per sample*
for the forward pass.  Training cost is modelled as ``3x`` forward (the
usual forward + backward heuristic) by the simulator, not here.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.models.blocks import Bottleneck
from repro.models.lstm_lm import _SeqLinear
from repro.nn import functional as F
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.module import Module, Sequential
from repro.nn.recurrent import LSTM, Embedding


def count_model_flops(model: Module,
                      input_shape: Tuple[int, ...] = None,
                      seq_len: int = 20) -> int:
    """Forward FLOPs per sample for ``model``.

    ``input_shape`` defaults to ``model.input_shape`` for CNNs.  For the
    LSTM language model, pass ``seq_len`` (per-sample cost scales with
    the unrolled sequence length).
    """
    if input_shape is None:
        input_shape = getattr(model, "input_shape", None)
    if input_shape is None:
        # Language model: trace as a sequence of length seq_len, batch 1.
        return _count_sequence_model(model, seq_len)
    flops, _ = _count(model, tuple(input_shape))
    return flops


def count_layer_flops(module: Module,
                      input_shape: Tuple[int, ...]) -> Optional[int]:
    """Forward FLOPs per sample for one layer at ``input_shape``.

    ``input_shape`` is the per-sample shape the layer sees (``(C, H,
    W)`` for spatial layers, ``(F,)`` once flattened).  Returns ``None``
    for layer types the symbolic trace cannot price (recurrent cells,
    embeddings), which is the telemetry profiler's cue to report time
    without FLOPs for that layer.
    """
    try:
        flops, _ = _count(module, tuple(int(d) for d in input_shape))
    except (TypeError, ValueError):
        return None
    return flops


def _count(module: Module, shape: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    """Return (flops, output_shape) for one module applied at ``shape``.

    ``shape`` is ``(C, H, W)`` for spatial tensors or ``(F,)`` once
    flattened.
    """
    if isinstance(module, Sequential):
        total = 0
        for layer in module.layers:
            flops, shape = _count(layer, shape)
            total += flops
        return total, shape

    if isinstance(module, Bottleneck):
        return _count_bottleneck(module, shape)

    if isinstance(module, Conv2d):
        _, h, w = shape
        out_h = F.conv_output_size(h, module.kernel_size, module.stride,
                                   module.padding)
        out_w = F.conv_output_size(w, module.kernel_size, module.stride,
                                   module.padding)
        macs = (
            module.out_channels * out_h * out_w
            * module.in_channels * module.kernel_size ** 2
        )
        return 2 * macs, (module.out_channels, out_h, out_w)

    if isinstance(module, Linear):
        macs = module.in_features * module.out_features
        return 2 * macs, (module.out_features,)

    if isinstance(module, BatchNorm2d):
        c, h, w = shape
        return 2 * c * h * w, shape

    if isinstance(module, MaxPool2d):
        c, h, w = shape
        out_h = F.conv_output_size(h, module.kernel_size, module.stride, 0)
        out_w = F.conv_output_size(w, module.kernel_size, module.stride, 0)
        return c * out_h * out_w * module.kernel_size ** 2, (c, out_h, out_w)

    if isinstance(module, AvgPool2d):
        c, h, w = shape
        if module.kernel_size is None:
            return c * h * w, (c, 1, 1)
        k = module.kernel_size
        return c * h * w, (c, h // k, w // k)

    if isinstance(module, Flatten):
        return 0, (math.prod(shape),)

    if isinstance(module, ReLU):
        return math.prod(shape), shape

    if isinstance(module, Dropout):
        return 0, shape

    raise TypeError(f"cannot count FLOPs for module type {type(module).__name__}")


def _count_bottleneck(block: Bottleneck,
                      shape: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    total = 0
    inner_shape = shape
    children = dict(block.children())
    for name in block.MAIN_PATH:
        flops, inner_shape = _count(children[name], inner_shape)
        total += flops
    if block.has_projection:
        flops, _ = _count(block.downsample, shape)
        total += flops
    # residual add + final relu
    c, h, w = inner_shape
    total += 2 * c * h * w
    return total, inner_shape


def _count_sequence_model(model: Module, seq_len: int) -> int:
    """FLOPs per sample (= per token sequence of ``seq_len``) for an LM."""
    if not isinstance(model, Sequential):
        # pricing an unknown graph at 0 would make the device simulator
        # charge it no compute time
        raise TypeError(
            f"cannot count FLOPs for a {type(model).__name__} without an "
            "input_shape: sequence models must be Sequential"
        )
    total = 0
    for layer in model.layers:
        if isinstance(layer, LSTM):
            macs_per_step = (
                4 * layer.hidden_size * (layer.input_size + layer.hidden_size)
            )
            total += 2 * macs_per_step * seq_len
        elif isinstance(layer, _SeqLinear):
            inner = layer.linear
            total += 2 * inner.in_features * inner.out_features * seq_len
        elif isinstance(layer, (Embedding, Dropout)):
            continue  # a lookup / a mask: no multiply-accumulates
        else:
            raise TypeError(
                f"cannot count sequence FLOPs for {type(layer).__name__}"
            )
    return total
