"""Stacked cohort training must be bitwise equal to the member path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.loader import BatchIterator
from repro.models.cnn import build_cnn
from repro.nn.batched import (
    _StackedConv2d,
    supports_cohort_training,
    train_cohort,
)
from repro.nn.layers import BatchNorm2d, Conv2d, Dropout, Linear, ReLU
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Sequential
from repro.nn.optim import SGD, ProximalSGD

MEMBERS = 3
BATCH = 6
TAU = 4
CLASSES = 4


def _model():
    return build_cnn(num_classes=CLASSES, input_shape=(1, 8, 8),
                     rng=np.random.default_rng(3))


def _iterators(seed_base):
    iterators = []
    for index in range(MEMBERS):
        rng = np.random.default_rng(seed_base + index)
        inputs = rng.normal(size=(20, 1, 8, 8)).astype(np.float32)
        targets = rng.integers(0, CLASSES, size=20)
        iterators.append(BatchIterator(
            inputs, targets, BATCH,
            rng=np.random.default_rng(1000 + index),
        ))
    return iterators


def _member_reference(init_state, tau, **hyper):
    """The per-member path: repro.fl.worker.Worker.local_train inlined."""
    prox_mu = hyper.pop("prox_mu", 0.0)
    anchor = hyper.pop("anchor", None)
    states, losses = [], []
    for iterator in _iterators(50):
        model = _model()
        model.load_state_dict(init_state)
        model.train()
        if prox_mu > 0.0:
            optimizer = ProximalSGD(model, mu=prox_mu, **hyper)
            optimizer.set_anchor(
                anchor if anchor is not None else model.state_dict()
            )
        else:
            optimizer = SGD(model, **hyper)
        criterion = CrossEntropyLoss()
        total = 0.0
        for _ in range(tau):
            inputs, targets = iterator.next_batch()
            logits = model.forward(inputs)
            total += criterion(logits, targets)
            model.zero_grad()
            model.backward(criterion.backward())
            optimizer.step()
        states.append(model.state_dict())
        losses.append(total / tau)
    return states, losses


def _assert_bitwise(states_a, losses_a, states_b, losses_b):
    assert losses_a == losses_b
    assert len(states_a) == len(states_b)
    for state_a, state_b in zip(states_a, states_b):
        assert state_a.keys() == state_b.keys()
        for key in state_a:
            a, b = state_a[key], state_b[key]
            assert a.dtype == b.dtype, key
            assert a.shape == b.shape, key
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), key


@pytest.mark.parametrize("hyper", [
    dict(lr=0.05),
    dict(lr=0.05, momentum=0.9),
    dict(lr=0.05, clip_norm=0.5),
    dict(lr=0.05, momentum=0.9, weight_decay=0.01, clip_norm=2.0),
    dict(lr=0.05, prox_mu=0.1),
], ids=["plain", "momentum", "clip", "full", "prox"])
def test_cohort_training_matches_member_path(hyper):
    init_state = _model().state_dict()
    hyper = dict(hyper)
    if "prox_mu" in hyper:
        hyper["anchor"] = init_state
    ref_states, ref_losses = _member_reference(init_state, TAU, **hyper)
    anchor = hyper.pop("anchor", None)
    cohort_states, cohort_losses = train_cohort(
        _model(), init_state, _iterators(50), TAU, anchor=anchor, **hyper
    )
    _assert_bitwise(ref_states, ref_losses, cohort_states, cohort_losses)


def test_stacked_conv_matches_members_at_stride_2_padding_1():
    """The paper CNN only has stride 1 / padding 2; the stacked layer
    shares one im2col/col2im over the cohort at any geometry."""
    rng = np.random.default_rng(9)
    members = [Conv2d(3, 4, 3, stride=2, padding=1, rng=rng)
               for _ in range(MEMBERS)]
    stacked = _StackedConv2d("conv", members[0], members[0].params["weight"],
                             members[0].params["bias"], MEMBERS)
    for key in ("weight", "bias"):
        stacked.params[key][...] = [m.params[key] for m in members]
    x = rng.normal(size=(MEMBERS, BATCH, 3, 7, 6)).astype(np.float32)
    out = stacked.forward(x.reshape(-1, 3, 7, 6))
    grad_out = rng.normal(size=out.shape).astype(np.float32)
    grad_x = stacked.backward(grad_out)
    for index, member in enumerate(members):
        rows = slice(index * BATCH, (index + 1) * BATCH)
        assert np.array_equal(member.forward(x[index]), out[rows])
        member.zero_grad()
        assert np.array_equal(member.backward(grad_out[rows]), grad_x[rows])
        for key in ("weight", "bias"):
            assert np.array_equal(member.grads[key],
                                  stacked.grads[key][index]), key


def test_supports_cohort_training():
    assert supports_cohort_training(_model())
    assert not supports_cohort_training(Sequential(
        ("fc", Linear(4, 4)), ("drop", Dropout(0.3)),
    ))
    assert not supports_cohort_training(Sequential(
        ("bn", BatchNorm2d(4)), ("relu", ReLU()),
    ))
    assert not supports_cohort_training(Linear(4, 4))


def test_unequal_batch_sizes_rejected():
    init_state = _model().state_dict()
    iterators = _iterators(50)
    rng = np.random.default_rng(9)
    # a shard smaller than BATCH clamps its iterator's batch size
    small = BatchIterator(
        rng.normal(size=(BATCH - 2, 1, 8, 8)).astype(np.float32),
        rng.integers(0, CLASSES, size=BATCH - 2),
        BATCH, rng=np.random.default_rng(4),
    )
    with pytest.raises(ValueError, match="unequal batch sizes"):
        train_cohort(_model(), init_state, iterators + [small], 1, lr=0.05)
