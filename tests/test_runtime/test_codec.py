"""Wire-codec tests: hypothesis round-trips, strict rejection, and
round-trips over every registry model's real extracted sub-models."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.models.registry import build_model
from repro.pruning.structured import build_pruning_plan, extract_submodel
from repro.runtime.codec import (
    FLAG_RNG,
    FLAG_STREAM,
    WIRE_VERSION,
    TrainHyper,
    WireFormatError,
    decode_contribution,
    decode_dispatch,
    encode_contribution,
    encode_dispatch,
)
from repro.runtime.pool import derive_submodel
from tests.support.strategies import (
    chain_scenarios,
    state_dicts,
)

HYPER = TrainHyper(lr=0.05, momentum=0.9, weight_decay=1e-4,
                   prox_mu=0.01, clip_norm=5.0)


def _assert_states_equal(decoded, original):
    assert set(decoded) == set(original)
    for key, value in original.items():
        got = decoded[key]
        assert got.shape == np.asarray(value).shape
        np.testing.assert_array_equal(got, value)


def _assert_plans_equal(decoded, original):
    decoded_layers = dict(decoded.items())
    original_layers = dict(original.items())
    assert decoded.ratio == original.ratio
    assert set(decoded_layers) == set(original_layers)
    for name, entry in original_layers.items():
        got = decoded_layers[name]
        assert got.kind == entry.kind
        assert got.out_full == entry.out_full
        np.testing.assert_array_equal(got.kept_out, entry.kept_out)
        assert (got.kept_in is None) == (entry.kept_in is None)
        if entry.kept_in is not None:
            assert got.in_full == entry.in_full
            np.testing.assert_array_equal(got.kept_in, entry.kept_in)


# ----------------------------------------------------------------------
# hypothesis round-trips
# ----------------------------------------------------------------------
@given(scenario=chain_scenarios())
@settings(max_examples=50, deadline=None)
def test_dispatch_roundtrip(scenario):
    _, plan, sub_state, _ = scenario
    frame = encode_dispatch(3, plan, sub_state, tau=7, hyper=HYPER)
    payload = decode_dispatch(frame)
    assert payload.worker_id == 3
    assert payload.tau == 7
    assert payload.hyper == HYPER
    _assert_plans_equal(payload.plan, plan)
    _assert_states_equal(payload.state, sub_state)


@given(state=state_dicts())
@settings(max_examples=50, deadline=None)
def test_contribution_roundtrip(state):
    frame = encode_contribution(5, state, train_loss=1.25,
                                wall_time_s=0.5, num_samples=48)
    payload = decode_contribution(frame)
    assert payload.worker_id == 5
    assert payload.num_samples == 48
    assert payload.train_loss == 1.25
    assert payload.wall_time_s == 0.5
    _assert_states_equal(payload.state, state)


def test_none_clip_norm_roundtrips():
    hyper = TrainHyper(lr=0.1, clip_norm=None)
    state = {"w": np.ones((2, 2), dtype=np.float32)}
    from repro.pruning.plan import PruningPlan
    frame = encode_dispatch(0, PruningPlan(ratio=0.0), state, tau=1,
                            hyper=hyper)
    assert decode_dispatch(frame).hyper.clip_norm is None


def test_float64_tensors_roundtrip():
    state = {"w": np.linspace(0, 1, 7, dtype=np.float64)}
    frame = encode_contribution(0, state, train_loss=0.0, wall_time_s=0.0)
    decoded = decode_contribution(frame).state["w"]
    assert decoded.dtype == np.float64
    np.testing.assert_array_equal(decoded, state["w"])


# ----------------------------------------------------------------------
# rejection: corrupt frames raise WireFormatError, never mis-decode
# ----------------------------------------------------------------------
def _sample_frame() -> bytes:
    state = {"w": np.arange(12, dtype=np.float32).reshape(3, 4),
             "b": np.ones(3, dtype=np.float32)}
    return encode_contribution(2, state, train_loss=0.5, wall_time_s=0.1)


def _reseal(frame) -> bytes:
    """Recompute the CRC so the check under test (not the CRC) fires."""
    import struct
    import zlib
    body = bytes(frame[:-4])
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _dropout_dispatch():
    """(skeleton, plan, state, rng states) of a Dropout-bearing model."""
    model = build_model("alexnet", rng=np.random.default_rng(3),
                        width_mult=0.125, dropout=0.1)
    plan = build_pruning_plan(model, 0.3)
    submodel = extract_submodel(model, plan, np.random.default_rng(4))
    rngs = submodel.rng_states()
    assert sorted(rngs) == ["drop1", "drop2"]
    return model, plan, submodel.state_dict(), rngs


def test_truncated_prefixes_rejected():
    frame = _sample_frame()
    # every strict prefix must be rejected (truncation at any offset)
    for cut in range(len(frame)):
        with pytest.raises(WireFormatError):
            decode_contribution(frame[:cut])
    # ... including anywhere inside a dispatch's trailing RNG record
    _, plan, state, rngs = _dropout_dispatch()
    frame = encode_dispatch(0, plan, state, tau=1,
                            hyper=TrainHyper(lr=0.1), module_rngs=rngs)
    record_start = bytes(frame).index(b"\x05\x00drop1") - 2
    for cut in range(record_start, len(frame) - 4):
        with pytest.raises(WireFormatError):
            decode_dispatch(_reseal(frame[:cut] + frame[-4:]))


def test_rng_record_roundtrips_and_restores_generators():
    skeleton, plan, state, rngs = _dropout_dispatch()
    frame = encode_dispatch(0, plan, state, tau=1,
                            hyper=TrainHyper(lr=0.1), module_rngs=rngs)
    assert frame[7] & FLAG_RNG
    payload = decode_dispatch(frame)
    assert payload.module_rngs == rngs
    assert derive_submodel(skeleton, payload).rng_states() == rngs
    # an RNG-free dispatch sets no flag and grows by no byte
    bare = encode_dispatch(0, plan, state, tau=1, hyper=TrainHyper(lr=0.1))
    assert not bare[7] & FLAG_RNG
    assert bare == encode_dispatch(0, plan, state, tau=1,
                                   hyper=TrainHyper(lr=0.1),
                                   module_rngs={})
    assert decode_dispatch(bare).module_rngs == {}


@pytest.mark.parametrize("corruption", [
    "unknown_path", "missing_path", "wrong_width", "flag_without_record",
    "empty_record", "flag_on_contribution", "foreign_generator",
])
def test_rng_record_corruptions_rejected(corruption):
    skeleton, plan, state, rngs = _dropout_dispatch()
    hyper = TrainHyper(lr=0.1)

    def dispatch(module_rngs):
        return encode_dispatch(0, plan, state, tau=1, hyper=hyper,
                               module_rngs=module_rngs)

    if corruption == "unknown_path":
        # decodes, but names a module the derived sub-model lacks
        payload = decode_dispatch(dispatch(
            {"drop1": rngs["drop1"], "drop9": rngs["drop2"]}
        ))
        with pytest.raises(WireFormatError, match="drop9"):
            derive_submodel(skeleton, payload)
    elif corruption == "missing_path":
        # a Dropout left at a skeleton-default generator would diverge
        # silently: an incomplete record is as bad as a wrong one
        payload = decode_dispatch(dispatch({"drop1": rngs["drop1"]}))
        with pytest.raises(WireFormatError, match="drop2"):
            derive_submodel(skeleton, payload)
    elif corruption == "wrong_width":
        frame = bytearray(dispatch(rngs))
        width_at = bytes(frame).index(b"\x05\x00drop1") + 7
        assert frame[width_at] == 37
        frame[width_at] = 36
        with pytest.raises(WireFormatError, match="wide"):
            decode_dispatch(_reseal(frame))
    elif corruption == "flag_without_record":
        frame = bytearray(dispatch(None))
        frame[7] |= FLAG_RNG
        with pytest.raises(WireFormatError, match="truncated"):
            decode_dispatch(_reseal(frame))
    elif corruption == "empty_record":
        frame = bytearray(dispatch(None))
        frame[7] |= FLAG_RNG
        frame[-4:-4] = b"\x00\x00"
        with pytest.raises(WireFormatError, match="empty"):
            decode_dispatch(_reseal(frame))
    elif corruption == "flag_on_contribution":
        frame = bytearray(_sample_frame())
        frame[7] |= FLAG_RNG
        with pytest.raises(WireFormatError, match="RNG"):
            decode_contribution(_reseal(frame))
    else:
        foreign = np.random.Generator(np.random.MT19937(1))
        with pytest.raises(WireFormatError, match="PCG64"):
            dispatch({"drop1": foreign.bit_generator.state})


def test_flipped_byte_rejected_by_crc():
    frame = bytearray(_sample_frame())
    for offset in (0, 5, len(frame) // 2, len(frame) - 1):
        corrupt = bytearray(frame)
        corrupt[offset] ^= 0xFF
        with pytest.raises(WireFormatError):
            decode_contribution(bytes(corrupt))


def test_trailing_garbage_rejected():
    with pytest.raises(WireFormatError):
        decode_contribution(_sample_frame() + b"\x00")


def test_version_mismatch_rejected():
    import struct
    frame = bytearray(_sample_frame())
    struct.pack_into("<H", frame, 4, WIRE_VERSION + 1)
    with pytest.raises(WireFormatError, match="version"):
        decode_contribution(_reseal(frame))


def test_version_2_dispatch_rejected():
    """Version 2 dispatches carried the sparse reply's keep fraction and
    code width; version 3 dropped them, so a v2 frame is a typed error,
    never a body read at the wrong offsets."""
    import struct

    from repro.pruning.plan import PruningPlan
    assert WIRE_VERSION == 3
    frame = bytearray(encode_dispatch(
        1, PruningPlan(ratio=0.0), {"w": np.zeros(2, dtype=np.float32)},
        tau=1, hyper=HYPER, reply_profile="sparse"))
    struct.pack_into("<H", frame, 4, 2)
    with pytest.raises(WireFormatError, match="version 2"):
        decode_dispatch(_reseal(frame))


def test_wrong_kind_rejected():
    frame = _sample_frame()
    with pytest.raises(WireFormatError, match="kind"):
        decode_dispatch(frame)


def test_kept_index_out_of_range_rejected():
    from repro.pruning.plan import LayerPrune, PruningPlan
    plan = PruningPlan(ratio=0.5)
    plan.add("fc", LayerPrune(kind="linear",
                              kept_out=np.array([0, 1], dtype=np.intp),
                              out_full=4))
    state = {"fc.weight": np.zeros((2, 3), dtype=np.float32)}
    frame = bytearray(encode_dispatch(0, plan, state, tau=1,
                                      hyper=TrainHyper(lr=0.1)))
    # locate the plan entry by its length-prefixed name, skip the kind
    # byte and the (out_full, count) pair, then patch kept index 1 -> 9
    # (out of range for out_full=4) and re-seal
    entry = bytes(frame).index(b"\x02\x00fc")
    offset = entry + 4 + 1 + 8
    assert frame[offset:offset + 8] == np.array([0, 1], dtype="<u4").tobytes()
    frame[offset:offset + 8] = np.array([0, 9], dtype="<u4").tobytes()
    with pytest.raises(WireFormatError, match="out of range"):
        decode_dispatch(_reseal(frame))


def test_removed_layer_kind_code_rejected():
    """Kinds travel as their position in ``LAYER_KINDS``; code 4 was the
    never-produced "embedding" kind and is now past the end."""
    from repro.pruning.plan import LAYER_KINDS, LayerPrune, PruningPlan
    assert LAYER_KINDS == ("conv", "linear", "bn", "lstm")
    plan = PruningPlan(ratio=0.5)
    plan.add("rnn", LayerPrune(kind="lstm", kept_out=np.array([0, 1]),
                               out_full=4, kept_in=np.array([0]), in_full=2))
    frame = bytearray(encode_dispatch(0, plan, {}, tau=1,
                                      hyper=TrainHyper(lr=0.1)))
    kind_at = bytes(frame).index(b"\x03\x00rnn") + 5
    assert frame[kind_at] == 3
    assert decode_dispatch(_reseal(frame)).plan["rnn"].kind == "lstm"
    frame[kind_at] = 4
    with pytest.raises(WireFormatError, match="layer-kind code 4"):
        decode_dispatch(_reseal(frame))


@pytest.mark.parametrize("hostile", ["missing_entry", "unknown_entry",
                                     "wrong_out_full", "index_past_width",
                                     "wrong_kind", "no_input_indices"])
def test_plan_that_does_not_fit_the_skeleton_is_a_wire_error(hostile):
    """A well-formed frame whose plan is not a plan *of this model* must
    end in the typed error, not in a KeyError / IndexError deep inside a
    pool child or service client."""
    from repro.pruning.plan import LayerPrune
    model = build_model("cnn", rng=np.random.default_rng(3))
    plan = build_pruning_plan(model, 0.3)
    state = extract_submodel(model, plan).state_dict()
    entry = plan.layers["conv2"]
    if hostile == "missing_entry":
        del plan.layers["conv2"]
    elif hostile == "unknown_entry":
        plan.add("conv9", entry)
    elif hostile == "wrong_out_full":
        entry.out_full += 1
    elif hostile == "index_past_width":
        # in range for the frame's own out_full (the codec's check), not
        # for the layer it is applied to
        entry.out_full = 500
        entry.kept_out[-1] = 499
    elif hostile == "wrong_kind":
        plan.layers["conv2"] = LayerPrune(
            kind="linear", kept_out=entry.kept_out, out_full=entry.out_full,
            kept_in=entry.kept_in, in_full=entry.in_full)
    else:
        plan.layers["conv2"] = LayerPrune(
            kind="conv", kept_out=entry.kept_out, out_full=entry.out_full)
    payload = decode_dispatch(encode_dispatch(
        0, plan, state, tau=1, hyper=TrainHyper(lr=0.1)))
    with pytest.raises(WireFormatError, match="does not fit"):
        derive_submodel(model, payload)


# ----------------------------------------------------------------------
# every registry model round-trips under verify-preset ratios
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model_name", ["cnn", "alexnet", "vgg19",
                                        "resnet50", "lstm_lm"])
@pytest.mark.parametrize("ratio", [0.0, 0.35, 0.7])
def test_registry_models_roundtrip(model_name, ratio):
    rng = np.random.default_rng(11)
    model = build_model(model_name, rng=rng)
    plan = build_pruning_plan(model, ratio)
    submodel = extract_submodel(model, plan, np.random.default_rng(12))
    state = submodel.state_dict()
    rngs = submodel.rng_states()
    assert bool(rngs) == (model_name in ("alexnet", "vgg19"))
    frame = encode_dispatch(0, plan, state, tau=2,
                            hyper=TrainHyper(lr=0.05), module_rngs=rngs)
    payload = decode_dispatch(frame)
    _assert_plans_equal(payload.plan, plan)
    _assert_states_equal(payload.state, state)
    assert payload.module_rngs == rngs
    # corrupting any single byte of a real frame must raise, not decode
    corrupt = bytearray(frame)
    corrupt[len(corrupt) // 3] ^= 0x01
    with pytest.raises(WireFormatError):
        decode_dispatch(bytes(corrupt))


# ----------------------------------------------------------------------
# the worker stream record
# ----------------------------------------------------------------------
def _worker(worker_id: int = 4, samples: int = 10, kind: str = "batch"):
    from repro.runtime.pool import WorkerSpec
    from repro.simulation.cluster import make_scenario_devices
    shape = (samples, 1, 2, 2) if kind == "batch" else (samples, 3, 2)
    return WorkerSpec(
        worker_id=worker_id, seed=9,
        shard_inputs=np.zeros(shape, dtype=np.float32),
        shard_targets=np.zeros(shape[:1 if kind == "batch" else 3],
                               dtype=np.int64),
        batch_size=3, num_samples=samples, jitter_sigma=0.0,
        device=make_scenario_devices({"A": 1}, np.random.default_rng(0))[0],
        iterator_kind=kind,
    ).build()


def _stream_dispatch(stream) -> bytes:
    from repro.pruning.plan import PruningPlan
    return encode_dispatch(stream.worker_id, PruningPlan(ratio=0.0),
                           {"w": np.ones(2, dtype=np.float32)}, tau=1,
                           hyper=HYPER, stream=stream)


@pytest.mark.parametrize("kind", ["batch", "sequence"])
def test_stream_record_roundtrips_and_replays_the_stream(kind):
    worker = _worker(kind=kind)
    for _ in range(5):   # mid-epoch, past one reshuffle
        worker.iterator.next_batch()
    sent = _stream_dispatch(worker.stream())
    reply = encode_contribution(4, {"w": np.ones(2, dtype=np.float32)},
                                train_loss=0.0, wall_time_s=0.0,
                                stream=worker.stream())
    assert sent[7] & FLAG_STREAM and reply[7] & FLAG_STREAM
    for record in (decode_dispatch(sent).stream,
                   decode_contribution(reply).stream):
        fresh = _worker(kind=kind)
        fresh.load_stream(record)
        for _ in range(4):
            for got, want in zip(fresh.iterator.next_batch(),
                                 worker.iterator.next_batch()):
                np.testing.assert_array_equal(got, want)
        worker.load_stream(record)   # rewind for the next frame
    # a dispatch without a record sets no flag and grows by no byte
    assert not encode_dispatch(0, decode_dispatch(sent).plan,
                               {"w": np.ones(2, dtype=np.float32)}, tau=1,
                               hyper=HYPER)[7] & FLAG_STREAM


@pytest.mark.parametrize("corruption", [
    "wrong_width", "not_a_permutation", "cursor_past_the_epoch",
    "order_misfits_the_shard", "another_workers_record",
    "reply_from_another_worker",
])
def test_stream_record_corruptions_rejected(corruption):
    from repro.runtime.codec import StreamRecord
    worker = _worker(samples=10)
    stream = worker.stream()
    if corruption == "wrong_width":
        frame = bytearray(_stream_dispatch(stream))
        width_at = len(frame) - 4 - (8 + 4 * 10) - 37 - 1
        assert frame[width_at] == 37
        frame[width_at] = 36
        with pytest.raises(WireFormatError, match="wide"):
            decode_dispatch(_reseal(frame))
    elif corruption == "not_a_permutation":
        order = stream.order.copy()
        order[0] = order[1]
        with pytest.raises(WireFormatError, match="permutation"):
            decode_dispatch(_stream_dispatch(
                StreamRecord(4, stream.rng, order, 0)))
    elif corruption == "cursor_past_the_epoch":
        with pytest.raises(WireFormatError, match="cursor 11"):
            decode_dispatch(_stream_dispatch(
                StreamRecord(4, stream.rng, stream.order, 11)))
    elif corruption == "order_misfits_the_shard":
        record = decode_dispatch(_stream_dispatch(
            StreamRecord(4, stream.rng, np.arange(12), 0))).stream
        with pytest.raises(WireFormatError, match="does not fit"):
            worker.load_stream(record)
    elif corruption == "another_workers_record":
        record = decode_dispatch(_stream_dispatch(
            StreamRecord(5, stream.rng, stream.order, 0))).stream
        with pytest.raises(WireFormatError, match="worker 5"):
            worker.load_stream(record)
    else:
        _reply_from_another_worker(worker)


class _CrossedLink:
    """Replies to every flight with the next worker's stream record."""

    name = "crossed"
    parallelism = 1
    busy_s = 0.0
    wave_cohorts = 1

    def gather(self, flights):
        for flight in flights:
            record = decode_dispatch(flight.frame).stream
            record.worker_id += 1
            flight.reply = encode_contribution(
                flight.worker_id, {"w": np.ones(2, dtype=np.float32)},
                train_loss=0.0, wall_time_s=0.0, stream=record)
        return {flight.worker_id: 0.0 for flight in flights}


def _reply_from_another_worker(worker):
    from repro.pruning.plan import PruningPlan
    from repro.runtime.codec import DispatchPayload
    from repro.runtime.executor import RemoteExecutor
    from repro.runtime.transport import RetryPolicy, TransportError
    link = _CrossedLink()
    link.retry = RetryPolicy()
    executor = RemoteExecutor(link, {worker.worker_id: worker})
    request = DispatchPayload(
        worker_id=worker.worker_id, tau=1, hyper=HYPER,
        plan=PruningPlan(ratio=0.0),
        state={"w": np.ones(2, dtype=np.float32)})
    before = worker.stream().cursor
    with pytest.raises(TransportError, match="stream 5"):
        executor.run([request])
    assert worker.stream().cursor == before   # nothing was committed
