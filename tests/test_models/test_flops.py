"""FLOP counting: exact values on hand-computable layers, monotonicity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import (
    build_cnn,
    build_lstm_lm,
    build_resnet50,
    count_model_flops,
)
from repro.models.flops import _count
from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Sequential
from repro.pruning import build_pruning_plan, extract_submodel


def test_linear_flops_exact(rng):
    layer = Linear(10, 4, rng=rng)
    flops, shape = _count(layer, (10,))
    assert flops == 2 * 10 * 4
    assert shape == (4,)


def test_conv_flops_exact(rng):
    layer = Conv2d(3, 8, 3, stride=1, padding=1, rng=rng)
    flops, shape = _count(layer, (3, 8, 8))
    assert flops == 2 * (8 * 8 * 8) * (3 * 9)
    assert shape == (8, 8, 8)


def test_cnn_flops_positive_and_stable(rng):
    model = build_cnn(rng=rng)
    assert count_model_flops(model) == count_model_flops(model)
    assert count_model_flops(model) > 1e6


def test_flops_decrease_with_pruning(rng):
    model = build_cnn(rng=rng)
    full = count_model_flops(model)
    previous = full
    for ratio in (0.2, 0.5, 0.8):
        plan = build_pruning_plan(model, ratio)
        sub = extract_submodel(model, plan, rng=rng)
        flops = count_model_flops(sub)
        assert flops < previous
        previous = flops


def test_resnet_flops_counts_projection(rng):
    with_proj = build_resnet50(width_mult=0.125, blocks_per_stage=(1, 1, 1, 1),
                               rng=rng)
    assert count_model_flops(with_proj) > 0


def test_lstm_flops_scale_with_seq_len(rng):
    model = build_lstm_lm(vocab_size=50, embedding_dim=8, hidden_size=16,
                          rng=rng)
    short = count_model_flops(model, seq_len=5)
    long = count_model_flops(model, seq_len=10)
    assert np.isclose(long, 2 * short)


def test_unknown_layer_raises():
    class Weird(Sequential):
        pass

    class NotALayer:
        pass

    with pytest.raises(TypeError):
        _count(NotALayer(), (1, 4, 4))


def test_sequence_model_that_is_not_sequential_is_not_free(rng):
    """Without an ``input_shape`` a model is priced as a sequence model;
    one that is not a Sequential used to come out at 0 FLOPs -- and the
    device simulator would have charged it no compute time."""
    from repro.nn.recurrent import LSTM

    with pytest.raises(TypeError, match="LSTM"):
        count_model_flops(LSTM(4, 8, rng=rng))
