"""Structured pruning: plans, extraction, recovery, R2SP identities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import (
    build_alexnet,
    build_cnn,
    build_lstm_lm,
    build_resnet50,
    build_vgg19,
)
from repro.nn.layers import Flatten, Linear
from repro.nn.module import Sequential
from repro.pruning import (
    build_pruning_plan,
    extract_submodel,
    recover_state_dict,
    sparse_state_dict,
)
from repro.pruning.plan import keep_count

MODEL_CASES = [
    ("cnn", lambda rng: build_cnn(rng=rng), (1, 28, 28)),
    ("alexnet",
     lambda rng: build_alexnet(width_mult=0.125, rng=rng), (3, 32, 32)),
    ("vgg19",
     lambda rng: build_vgg19(width_mult=0.0625, rng=rng), (1, 28, 28)),
    ("resnet50",
     lambda rng: build_resnet50(width_mult=0.125, blocks_per_stage=(1, 1, 1, 1),
                                rng=rng), (3, 64, 64)),
    # the ISS family: same walk, same extractor; the "shape" of an LSTM
    # input is a (T,) column of token ids
    ("lstm",
     lambda rng: build_lstm_lm(vocab_size=60, embedding_dim=12,
                               hidden_size=16, dropout=0.2, rng=rng), None),
]


def _prunes_nothing(plan):
    return all(entry.kept_out.size == entry.out_full
               and (entry.kept_in is None or entry.kept_in.size == entry.in_full)
               for entry in plan.layers.values())


def _inputs(rng, shape, batch=2):
    if shape is None:
        return rng.integers(0, 60, size=(5, batch))
    return rng.normal(size=(batch,) + shape).astype(np.float32)


@pytest.mark.parametrize("name,builder,shape", MODEL_CASES)
@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.7])
def test_recovery_equals_sparse_model(rng, name, builder, shape, ratio):
    """recover(extract(model)) must reproduce the sparse model exactly."""
    model = builder(rng)
    plan = build_pruning_plan(model, ratio)
    sub = extract_submodel(model, plan, rng=rng)
    recovered = recover_state_dict(sub.state_dict(), plan, model.state_dict())
    sparse = sparse_state_dict(model.state_dict(), plan)
    for key in sparse:
        assert np.allclose(recovered[key], sparse[key]), (name, ratio, key)


@pytest.mark.parametrize("name,builder,shape", MODEL_CASES)
def test_submodel_forward_backward(rng, name, builder, shape):
    model = builder(rng)
    plan = build_pruning_plan(model, 0.5)
    sub = extract_submodel(model, plan, rng=rng)
    out = sub.forward(_inputs(rng, shape))
    assert 2 in out.shape[:2]
    sub.zero_grad()
    sub.backward(np.ones_like(out) / out.size)


@pytest.mark.parametrize("name,builder,shape", MODEL_CASES)
def test_parameter_reduction_monotone(rng, name, builder, shape):
    model = builder(rng)
    previous = model.num_parameters() + 1
    for ratio in (0.0, 0.25, 0.5, 0.75):
        sub = extract_submodel(model, build_pruning_plan(model, ratio),
                               rng=rng)
        assert sub.num_parameters() < previous
        previous = sub.num_parameters()


def test_zero_ratio_submodel_is_functionally_identical(rng):
    model = build_cnn(rng=rng)
    model.eval()
    plan = build_pruning_plan(model, 0.0)
    assert _prunes_nothing(plan)
    sub = extract_submodel(model, plan, rng=rng)
    sub.eval()
    x = rng.normal(size=(3, 1, 28, 28)).astype(np.float32)
    assert np.allclose(model.forward(x), sub.forward(x), atol=1e-5)


def test_output_layer_never_pruned(rng):
    model = build_cnn(rng=rng)
    plan = build_pruning_plan(model, 0.8)
    assert plan["fc2"].kept_out.size == 10


def test_kept_counts_match_formula(rng):
    model = build_cnn(rng=rng)
    ratio = 0.4
    plan = build_pruning_plan(model, ratio)
    assert plan["conv1"].kept_out.size == keep_count(32, ratio)
    assert plan["conv2"].kept_out.size == keep_count(64, ratio)
    assert plan["fc1"].kept_out.size == keep_count(256, ratio)


def test_next_layer_inputs_follow_pruned_channels(rng):
    """Channels removed from conv1 must disappear from conv2's inputs."""
    model = build_cnn(rng=rng)
    plan = build_pruning_plan(model, 0.5)
    assert np.array_equal(plan["conv2"].kept_in, plan["conv1"].kept_out)


def test_flatten_expansion_maps_channels_to_features(rng):
    model = build_cnn(rng=rng)
    plan = build_pruning_plan(model, 0.5)
    kept_channels = plan["conv2"].kept_out
    area = 7 * 7  # 28 -> 14 -> 7 after two 2x2 pools
    expected = (kept_channels[:, None] * area + np.arange(area)).reshape(-1)
    assert np.array_equal(plan["fc1"].kept_in, expected)


def test_pruned_weights_are_the_top_l1_filters(rng):
    model = build_cnn(rng=rng)
    conv1 = model.get("conv1")
    scores = np.abs(conv1.params["weight"]).sum(axis=(1, 2, 3))
    plan = build_pruning_plan(model, 0.5)
    expected = np.sort(np.argsort(-scores, kind="stable")[:16])
    assert np.array_equal(plan["conv1"].kept_out, expected)


def test_extracted_weights_match_source_slices(rng):
    model = build_cnn(rng=rng)
    plan = build_pruning_plan(model, 0.5)
    sub = extract_submodel(model, plan, rng=rng)
    entry = plan["conv2"]
    expected = model.get("conv2").params["weight"][
        np.ix_(entry.kept_out, entry.kept_in)
    ]
    assert np.allclose(sub.get("conv2").params["weight"], expected)


def test_resnet_block_boundaries_unpruned(rng):
    model = build_resnet50(width_mult=0.125, blocks_per_stage=(1, 1, 1, 1),
                           rng=rng)
    plan = build_pruning_plan(model, 0.6)
    entry = plan["stage1_block1.conv3"]
    assert entry.kept_out.size == entry.out_full
    proj = plan["stage1_block1.downsample.conv"]
    assert proj.kept_out.size == proj.out_full


def test_bn_follows_conv(rng):
    model = build_vgg19(width_mult=0.0625, rng=rng)
    plan = build_pruning_plan(model, 0.5)
    assert np.array_equal(plan["bn1_1"].kept_out, plan["conv1_1"].kept_out)


def test_plan_rejects_fan_in_the_upstream_width_does_not_divide(rng):
    """No spatial trace is needed: a Flatten's fan-out is the Linear's
    ``in_features`` over the upstream channel count -- which therefore
    has to divide it."""
    model = Sequential(("fc1", Linear(4, 6, rng=rng)),
                       ("flatten", Flatten()),
                       ("fc2", Linear(9, 3, rng=rng)),
                       ("fc3", Linear(3, 2, rng=rng)))
    with pytest.raises(ValueError, match="fc2.*not a multiple of the 6"):
        build_pruning_plan(model, 0.5)


def test_plan_needs_no_input_shape(rng):
    model = Sequential(("fc1", Linear(4, 6, rng=rng)),
                       ("fc2", Linear(6, 2, rng=rng)))
    plan = build_pruning_plan(model, 0.5)
    assert plan["fc1"].kept_in.tolist() == [0, 1, 2, 3]
    assert np.array_equal(plan["fc2"].kept_in, plan["fc1"].kept_out)
    assert plan["fc2"].kept_out.tolist() == [0, 1]


def test_identity_skip_rejects_a_pruned_block_input(rng):
    """A bottleneck without a projection adds its input to its
    (full-width) output, so nothing before it may have been pruned."""
    from repro.models.blocks import Bottleneck
    from repro.nn.layers import Conv2d

    model = Sequential(("stem", Conv2d(3, 8, 3, padding=1, rng=rng)),
                       ("block", Bottleneck(8, 4, 8, rng=rng)),
                       ("flatten", Flatten()),
                       ("fc", Linear(8 * 4 * 4, 2, rng=rng)))
    assert _prunes_nothing(build_pruning_plan(model, 0.0))
    with pytest.raises(ValueError, match="identity skip"):
        build_pruning_plan(model, 0.5)


@pytest.mark.parametrize("name,builder,shape", MODEL_CASES)
def test_extraction_is_an_allocation_only_clone(rng, name, builder, shape):
    """The sub-model is a structural clone: fresh arrays, zero grads, no
    forward caches, every non-array attribute carried over, and the
    extraction generator drawn once per RNG-bearing module only."""
    model = builder(rng)
    model.forward(_inputs(rng, shape))  # fill the global's forward caches
    model.marker = ("carried", "over")  # not on any hand-kept list
    plan = build_pruning_plan(model, 0.4)
    extract_rng = np.random.default_rng(99)
    sub = extract_submodel(model, plan, rng=extract_rng)

    assert sub.marker == ("carried", "over")
    for attr in ("input_shape", "num_classes", "vocab_size", "name"):
        assert getattr(sub, attr, None) == getattr(model, attr, None)
    sources = dict(model.named_modules())
    rng_modules = 0
    for qual, module in sub.named_modules():
        source = sources[qual]
        assert type(module) is type(source) and module is not source
        assert module.training
        for key, value in vars(source).items():
            if key in ("params", "grads", "buffers", "_children",
                       "training", "rng"):
                continue
            if key.startswith("_"):
                assert getattr(module, key) is None, (qual, key)
            elif qual not in plan:
                assert getattr(module, key) == value, (qual, key)
        for store in ("params", "grads", "buffers"):
            for key, value in getattr(module, store).items():
                twin = getattr(source, store)[key]
                assert not np.shares_memory(value, twin), (qual, key)
                assert value.dtype == twin.dtype
                assert value.flags.c_contiguous and value.flags.writeable
        assert all(not grad.any() for grad in module.grads.values())
        if getattr(source, "rng", None) is not None:
            rng_modules += 1
            assert module.rng is not source.rng
    if name == "cnn":
        assert sub.get("conv1").requires_input_grad is False
        assert sub.get("conv2").requires_input_grad is True

    replay = np.random.default_rng(99)
    seeds = [replay.integers(2 ** 31) for _ in range(rng_modules)]
    assert extract_rng.bit_generator.state == replay.bit_generator.state
    assert rng_modules == {"alexnet": 2, "vgg19": 2, "lstm": 1}.get(name, 0)
    assert [state["state"] for state in sub.rng_states().values()] == [
        np.random.default_rng(seed).bit_generator.state["state"]
        for seed in seeds
    ]


def test_extract_rejects_a_plan_that_does_not_fit_the_model(rng):
    model = build_cnn(rng=rng)
    plan = build_pruning_plan(model, 0.5)

    missing = build_pruning_plan(model, 0.5)
    del missing.layers["conv2"]
    with pytest.raises(ValueError, match="disagree.*conv2"):
        extract_submodel(model, missing)

    extra = build_pruning_plan(model, 0.5)
    extra.add("conv9", plan["conv2"])
    with pytest.raises(ValueError, match="conv9"):
        extract_submodel(model, extra)

    other = build_pruning_plan(build_cnn(input_shape=(1, 20, 20), rng=rng),
                               0.5)
    with pytest.raises(ValueError, match="fc1"):
        extract_submodel(model, other)


def test_recover_rejects_shape_drift_on_unplanned_entries(rng):
    """Entries the plan does not cover are copied through and must keep
    their shape exactly."""
    model = build_cnn(rng=rng)
    plan = build_pruning_plan(model, 0.0)
    template = model.state_dict()
    template["extra.bias"] = np.zeros(4)
    sub_state = model.state_dict()
    sub_state["extra.bias"] = np.zeros(7)  # drifted shape
    with pytest.raises(ValueError, match="extra.bias"):
        recover_state_dict(sub_state, plan, template)
