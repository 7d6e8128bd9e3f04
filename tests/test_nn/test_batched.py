"""Stacked cohort training must be bitwise equal to the member path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.loader import BatchIterator
from repro.models.cnn import build_cnn
from repro.nn import functional as F
from repro.nn.batched import (
    _StackedConv2d,
    _StackedLinear,
    supports_cohort_training,
    train_cohort,
)
from repro.nn.layers import BatchNorm2d, Conv2d, Dropout, Flatten, Linear, ReLU
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Sequential
from repro.nn.optim import SGD, ProximalSGD, squared_norm

MEMBERS = 3
BATCH = 6
TAU = 4
CLASSES = 4


def _model():
    return build_cnn(num_classes=CLASSES, input_shape=(1, 8, 8),
                     rng=np.random.default_rng(3))


def _mlp(hidden):
    """``fc1.weight`` has ``64 * hidden`` elements per member: the width
    sets how many members one clip-norm block of the stacked step holds."""
    def build():
        rng = np.random.default_rng(3)
        return Sequential(
            ("flatten", Flatten()),
            ("fc1", Linear(64, hidden, rng=rng)),
            ("relu", ReLU()),
            ("fc2", Linear(hidden, CLASSES, rng=rng)),
        )
    return build


def _iterators(seed_base, members=MEMBERS, poisoned=None, batch=BATCH):
    iterators = []
    for index in range(members):
        rng = np.random.default_rng(seed_base + index)
        inputs = rng.normal(size=(20, 1, 8, 8)).astype(np.float32)
        if index == poisoned:
            inputs[:, 0, 0, 0] = np.inf
        targets = rng.integers(0, CLASSES, size=20)
        iterators.append(BatchIterator(
            inputs, targets, batch,
            rng=np.random.default_rng(1000 + index),
        ))
    return iterators


def _member_reference(init_state, tau, build=_model, members=MEMBERS,
                      poisoned=None, batch=BATCH, **hyper):
    """The per-member path: repro.fl.worker.Worker.local_train inlined.
    Also returns every member's first-step gradient norm."""
    prox_mu = hyper.pop("prox_mu", 0.0)
    anchor = hyper.pop("anchor", None)
    states, losses, norms = [], [], []
    for iterator in _iterators(50, members, poisoned, batch):
        model = build()
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
        for step in range(tau):
            inputs, targets = iterator.next_batch()
            logits = model.forward(inputs)
            total += criterion(logits, targets)
            model.zero_grad()
            model.backward(criterion.backward())
            if step == 0:
                norms.append(sum(
                    squared_norm(grad) for _, grad in model.named_grads()
                ) ** 0.5)
            optimizer.step()
        states.append(model.state_dict())
        losses.append(total / tau)
    return states, losses, norms


def _assert_bitwise(states_a, losses_a, states_b, losses_b, skip=None):
    assert len(states_a) == len(states_b) == len(losses_a) == len(losses_b)
    for index, (state_a, state_b) in enumerate(zip(states_a, states_b)):
        assert state_a.keys() == state_b.keys()
        if index == skip:
            continue
        assert losses_a[index] == losses_b[index]
        for key in state_a:
            a, b = state_a[key], state_b[key]
            assert a.dtype == b.dtype, key
            assert a.shape == b.shape, key
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), key


# (model factory, members, hyper-parameters, poisoned member); the
# stacked step walks the clip norm in blocks of 32 Ki elements, so with
# 37 members _mlp(100) spans seven blocks of five members plus a
# remainder of two; _mlp(600) and the CNN's conv2/fc1 weights are one
# member per block.  The poisoned member draws an ``inf`` pixel: its
# gradient norm is NaN, so it is never clipped.
@pytest.mark.parametrize("build, members, hyper, poisoned", [
    (_model, MEMBERS, dict(lr=0.05), None),
    (_model, MEMBERS, dict(lr=0.05, momentum=0.9), None),
    (_model, MEMBERS, dict(lr=0.05, clip_norm=0.5), None),
    (_model, MEMBERS,
     dict(lr=0.05, momentum=0.9, weight_decay=0.01, clip_norm=2.0), None),
    (_model, MEMBERS, dict(lr=0.05, prox_mu=0.1), None),
    (_model, 37, dict(lr=0.05, clip_norm=0.5), None),
    (_mlp(100), 37, dict(lr=0.05, clip_norm="median"), None),
    (_mlp(600), 5, dict(lr=0.05, momentum=0.9, clip_norm="median"), None),
    pytest.param(_mlp(100), 7, dict(lr=0.05, clip_norm=0.5), 4,
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
], ids=["plain", "momentum", "clip", "full", "prox", "clip-37-members",
        "blocks-with-remainder", "one-member-blocks", "non-finite-member"])
def test_cohort_training_matches_member_path(build, members, hyper, poisoned):
    init_state = build().state_dict()
    hyper = dict(hyper)
    if "prox_mu" in hyper:
        hyper["anchor"] = init_state
    if hyper.get("clip_norm") == "median":
        # a threshold that clips some members and not others in step 0
        norms = _member_reference(init_state, 1, build, members,
                                  lr=hyper["lr"])[2]
        hyper["clip_norm"] = float(np.median(norms))
        assert 0 < sum(norm > hyper["clip_norm"] for norm in norms) < members
    ref_states, ref_losses, norms = _member_reference(
        init_state, TAU, build, members, poisoned, **hyper)
    anchor = hyper.pop("anchor", None)
    cohort_states, cohort_losses = train_cohort(
        build(), init_state, _iterators(50, members, poisoned), TAU,
        anchor=anchor, **hyper
    )
    # every healthy member byte for byte, the poisoned one up to NaNs
    _assert_bitwise(ref_states, ref_losses, cohort_states, cohort_losses,
                    skip=poisoned)
    non_finite = [index for index, norm in enumerate(norms)
                  if not np.isfinite(norm)]
    assert non_finite == ([] if poisoned is None else [poisoned])
    if poisoned is not None:
        assert np.isnan(cohort_losses[poisoned])
        for key, value in ref_states[poisoned].items():
            assert np.array_equal(value, cohort_states[poisoned][key],
                                  equal_nan=True), key


# NumPy sums 8 or more values with its unrolled pairwise loop (BATCH = 6
# takes the plain one): each member's loss is a row mean of the cohort's
# per-sample losses and must add exactly as the member's own ``.mean()``
@pytest.mark.parametrize("batch", [8, 9, 16])
@pytest.mark.parametrize("build, members, hyper, poisoned", [
    (_model, MEMBERS, dict(lr=0.05), None),
    (_mlp(100), 37, dict(lr=0.05, momentum=0.9, clip_norm=0.5), None),
    pytest.param(_mlp(100), 7, dict(lr=0.05, clip_norm=0.5), 4,
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
], ids=["plain", "mlp-37-members", "non-finite-member"])
def test_cohort_losses_match_the_member_path_at_pairwise_batches(
        build, members, hyper, poisoned, batch):
    init_state = build().state_dict()
    ref_states, ref_losses, _ = _member_reference(
        init_state, TAU, build, members, poisoned, batch, **hyper)
    cohort_states, cohort_losses = train_cohort(
        build(), init_state, _iterators(50, members, poisoned, batch), TAU,
        **hyper)
    _assert_bitwise(ref_states, ref_losses, cohort_states, cohort_losses,
                    skip=poisoned)
    if poisoned is not None:
        assert np.isnan(cohort_losses[poisoned])


def test_member_states_alias_nothing_but_their_own_rows():
    """The hand-off contract: member states are disjoint views of the
    cohort's parameter block, never of the dispatched state."""
    init_state = _model().state_dict()
    before = {key: value.copy() for key, value in init_state.items()}
    states, _ = train_cohort(_model(), init_state, _iterators(50), TAU,
                             lr=0.05, clip_norm=0.5)
    for key, value in init_state.items():
        assert np.array_equal(value, before[key]), key
    arrays = [value for state in states for value in state.values()]
    for index, array in enumerate(arrays):
        for other in list(init_state.values()) + arrays[index + 1:]:
            assert not np.shares_memory(array, other)
    snapshot = [{key: value.copy() for key, value in state.items()}
                for state in states[1:]]
    for value in states[0].values():
        value.fill(7.0)
    for state, kept in zip(states[1:], snapshot):
        for key in state:
            assert np.array_equal(state[key], kept[key]), key


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


@pytest.mark.parametrize("split", [True, False], ids=["split", "single"])
@pytest.mark.parametrize("shape,cout", [
    ((8, 22, 14, 14), 45),  # a member's product above the small-matrix bound
    ((2, 6, 6, 6), 4),      # below it
    ((8, 32, 14, 14), 1),   # one filter: matrix-vector products
])
def test_stacked_conv_products_ignore_the_column_storage(monkeypatch, split,
                                                         shape, cout):
    """The stacked forward and weight gradient from ``im2col``'s matrix
    (column-major on the split float32 build) equal those from a
    C-ordered copy of it, zero signs included."""
    monkeypatch.setattr(F, "SPLIT_GEMMS", split)
    rng = np.random.default_rng(9)
    template = Conv2d(shape[1], cout, 5, padding=2, rng=rng)
    stacked = _StackedConv2d("conv", template, template.params["weight"],
                             template.params["bias"], MEMBERS)
    for key in ("weight", "bias"):
        stacked.params[key][...] = rng.normal(
            size=stacked.params[key].shape)
    x = rng.normal(size=(MEMBERS * shape[0],) + shape[1:]).astype(np.float32)
    x[rng.random(x.shape) < 0.2] = -0.0
    grad_out = rng.normal(size=(MEMBERS * shape[0], cout) + shape[2:])
    grad_out = grad_out.astype(np.float32)

    def products():
        out = stacked.forward(x)
        stacked.backward(grad_out)
        return [(a.shape, a.tobytes()) for a in
                (out, stacked.grads["weight"], stacked.grads["bias"])]

    got = products()
    im2col = F.im2col
    monkeypatch.setattr(
        F, "im2col", lambda *args: np.ascontiguousarray(im2col(*args)))
    assert got == products()


def test_stacked_linear_skips_its_input_grad_only_when_told():
    """``train_cohort`` clears the flag on its first parameter layer."""
    rng = np.random.default_rng(9)
    weight = rng.normal(size=(4, 6)).astype(np.float32)
    stacked = _StackedLinear("fc", weight, np.zeros(4, np.float32), MEMBERS)
    x = rng.normal(size=(MEMBERS * BATCH, 6)).astype(np.float32)
    grad_out = rng.normal(size=(MEMBERS * BATCH, 4)).astype(np.float32)
    stacked.forward(x)
    assert np.allclose(stacked.backward(grad_out), grad_out @ weight,
                       rtol=1e-5, atol=1e-6)
    stacked.requires_input_grad = False
    assert stacked.backward(grad_out) is None
    assert np.array_equal(stacked.grads["bias"][0],
                          grad_out[:BATCH].sum(axis=0))


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
