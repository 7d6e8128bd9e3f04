"""Sparse-delta and negotiated-profile wire tests.

Mirrors the strict-rejection discipline of ``test_codec.py`` for the
new frame shapes: hypothesis round-trips, every registry model under
both sparse profiles, truncation/corruption/flag-mismatch rejection,
and the quantized-scale/code validation the bug sweep added.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.registry import build_model
from repro.pruning.quantize import quantize_array
from repro.pruning.structured import build_pruning_plan, extract_submodel
from repro.runtime.codec import (
    WIRE_PROFILES,
    TrainHyper,
    WireFormatError,
    decode_contribution,
    decode_dispatch,
    encode_contribution,
    encode_dispatch,
)
from tests.support.strategies import state_dicts

HYPER = TrainHyper(lr=0.05)


def _reseal(frame: bytearray) -> bytes:
    body = bytes(frame[:-4])
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _trained_like(state, seed=0, scale=0.01):
    rng = np.random.default_rng(seed)
    return {
        key: (value + rng.normal(0, scale, value.shape)).astype(value.dtype)
        for key, value in state.items()
    }


# ----------------------------------------------------------------------
# hypothesis round-trips
# ----------------------------------------------------------------------
@given(state=state_dicts(), seed=st.integers(0, 2 ** 16),
       keep=st.floats(0.05, 1.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_sparse_roundtrip_exact_at_kept_positions(state, seed, keep):
    trained = _trained_like(state, seed)
    frame = encode_contribution(4, trained, train_loss=0.5,
                                wall_time_s=0.1, profile="sparse",
                                base=state, keep_fraction=keep)
    payload = decode_contribution(frame, expect_profile="sparse")
    assert payload.profile == "sparse"
    dense = payload.materialise(state)
    assert set(dense) == set(state)
    for key in state:
        flat = dense[key].reshape(-1)
        kept = payload.sparse[key].indices
        # shipped positions carry the exact trained values, unshipped
        # positions keep the dispatched base bit-for-bit
        np.testing.assert_array_equal(
            flat[kept], trained[key].reshape(-1)[kept]
        )
        mask = np.ones(flat.size, dtype=bool)
        mask[kept] = False
        np.testing.assert_array_equal(
            flat[mask], state[key].reshape(-1)[mask]
        )


@given(state=state_dicts(), seed=st.integers(0, 2 ** 16),
       bits=st.integers(2, 16))
@settings(max_examples=50, deadline=None)
def test_sparse_quantized_roundtrip_matches_dequantize(state, seed, bits):
    trained = _trained_like(state, seed)
    frame = encode_contribution(4, trained, train_loss=0.5,
                                wall_time_s=0.1,
                                profile="sparse+quantized", base=state,
                                keep_fraction=0.5, quantize_bits=bits)
    payload = decode_contribution(frame,
                                  expect_profile="sparse+quantized")
    dense = payload.materialise(state)
    for key in state:
        entry = payload.sparse[key]
        flat_base = state[key].reshape(-1).astype(np.float64)
        flat_trained = trained[key].reshape(-1).astype(np.float64)
        deltas = flat_trained[entry.indices] - flat_base[entry.indices]
        codes, scale = quantize_array(deltas, bits)
        np.testing.assert_array_equal(entry.codes, codes)
        assert entry.scale == scale
        expected = (
            flat_base[entry.indices]
            + codes.astype(np.float64) * scale
        ).astype(state[key].dtype)
        np.testing.assert_array_equal(
            dense[key].reshape(-1)[entry.indices], expected
        )


@given(state=state_dicts(),
       profile=st.sampled_from(WIRE_PROFILES),
       keep=st.floats(0.1, 1.0, allow_nan=False),
       bits=st.integers(2, 16))
@settings(max_examples=50, deadline=None)
def test_negotiated_dispatch_roundtrip(state, profile, keep, bits):
    from repro.pruning.plan import PruningPlan
    frame = encode_dispatch(
        7, PruningPlan(ratio=0.0), state, tau=3, hyper=HYPER,
        reply_profile=profile, reply_keep_fraction=keep,
        reply_quantize_bits=bits,
    )
    payload = decode_dispatch(frame)
    assert payload.reply_profile == profile
    if profile == "exact":
        assert payload.reply_keep_fraction is None
        assert payload.reply_quantize_bits is None
    else:
        assert payload.reply_keep_fraction == keep
        assert payload.reply_quantize_bits == bits
    for key in state:
        np.testing.assert_array_equal(payload.state[key], state[key])


def test_exact_dispatch_bytes_unchanged_by_negotiation_fields():
    """An exact-profile dispatch is byte-identical to a frame encoded
    with no negotiation arguments at all (wire compatibility)."""
    from repro.pruning.plan import PruningPlan
    state = {"w": np.arange(6, dtype=np.float32)}
    plain = encode_dispatch(1, PruningPlan(ratio=0.0), state, tau=1,
                            hyper=HYPER)
    negotiated = encode_dispatch(1, PruningPlan(ratio=0.0), state, tau=1,
                                 hyper=HYPER, reply_profile="exact")
    assert plain == negotiated


def test_full_keep_sparse_is_lossless():
    state = {"w": np.arange(20, dtype=np.float32).reshape(4, 5),
             "b": np.zeros(4, dtype=np.float32)}
    trained = _trained_like(state, seed=3)
    frame = encode_contribution(0, trained, train_loss=0.0,
                                wall_time_s=0.0, profile="sparse",
                                base=state, keep_fraction=1.0)
    dense = decode_contribution(frame).materialise(state)
    for key in state:
        np.testing.assert_array_equal(dense[key], trained[key])


def test_materialise_never_mutates_the_base():
    state = {"w": np.zeros(8, dtype=np.float32)}
    trained = {"w": np.ones(8, dtype=np.float32)}
    frame = encode_contribution(0, trained, train_loss=0.0,
                                wall_time_s=0.0, profile="sparse",
                                base=state, keep_fraction=1.0)
    payload = decode_contribution(frame)
    payload.materialise(state)
    np.testing.assert_array_equal(state["w"], np.zeros(8))


# ----------------------------------------------------------------------
# every registry model, both sparse profiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model_name", ["cnn", "alexnet", "vgg19",
                                        "resnet50", "lstm_lm"])
@pytest.mark.parametrize("profile", ["sparse", "sparse+quantized"])
def test_registry_models_sparse_roundtrip(model_name, profile):
    rng = np.random.default_rng(11)
    model = build_model(model_name, rng=rng)
    plan = build_pruning_plan(model, 0.35)
    submodel = extract_submodel(model, plan, np.random.default_rng(12))
    base = submodel.state_dict()
    trained = _trained_like(base, seed=13)
    frame = encode_contribution(0, trained, train_loss=0.1,
                                wall_time_s=0.2, profile=profile,
                                base=base, keep_fraction=0.25)
    payload = decode_contribution(frame, expect_profile=profile)
    dense = payload.materialise(base)
    total = sum(value.size for value in base.values())
    kept = sum(entry.indices.size for entry in payload.sparse.values())
    assert kept == max(1, round(total * 0.25))
    assert len(frame) / total < 4.0
    for key in base:
        assert dense[key].shape == base[key].shape
        assert dense[key].dtype == base[key].dtype
        idx = payload.sparse[key].indices
        if profile == "sparse":
            np.testing.assert_array_equal(
                dense[key].reshape(-1)[idx],
                trained[key].reshape(-1)[idx],
            )
    # single-byte corruption of a real sparse frame must raise
    corrupt = bytearray(frame)
    corrupt[len(corrupt) // 3] ^= 0x01
    with pytest.raises(WireFormatError):
        decode_contribution(bytes(corrupt))


# ----------------------------------------------------------------------
# rejection
# ----------------------------------------------------------------------
def _sparse_frame(keep=0.5, quantized=False):
    state = {"w": np.arange(12, dtype=np.float32).reshape(3, 4),
             "b": np.ones(3, dtype=np.float32)}
    trained = _trained_like(state, seed=1)
    return state, encode_contribution(
        2, trained, train_loss=0.5, wall_time_s=0.1,
        profile="sparse+quantized" if quantized else "sparse",
        base=state, keep_fraction=keep,
    )


def test_sparse_truncated_prefixes_rejected():
    _, frame = _sparse_frame()
    for cut in range(len(frame)):
        with pytest.raises(WireFormatError):
            decode_contribution(frame[:cut])


def test_sparse_flipped_byte_rejected_by_crc():
    _, frame = _sparse_frame(quantized=True)
    for offset in (0, 7, len(frame) // 2, len(frame) - 1):
        corrupt = bytearray(frame)
        corrupt[offset] ^= 0xFF
        with pytest.raises(WireFormatError):
            decode_contribution(bytes(corrupt))


def test_profile_mismatch_rejected():
    state, frame = _sparse_frame()
    with pytest.raises(WireFormatError, match="profile mismatch"):
        decode_contribution(frame, expect_profile="exact")
    with pytest.raises(WireFormatError, match="profile mismatch"):
        decode_contribution(frame, expect_profile="sparse+quantized")
    exact = encode_contribution(2, state, train_loss=0.0, wall_time_s=0.0)
    with pytest.raises(WireFormatError, match="profile mismatch"):
        decode_contribution(exact, expect_profile="sparse")


def test_unknown_flag_bits_rejected():
    _, frame = _sparse_frame()
    patched = bytearray(frame)
    patched[7] |= 0x40
    with pytest.raises(WireFormatError, match="unknown flag"):
        decode_contribution(_reseal(patched))


def test_sparse_dispatch_flag_rejected():
    from repro.pruning.plan import PruningPlan
    state = {"w": np.zeros(4, dtype=np.float32)}
    frame = bytearray(encode_dispatch(0, PruningPlan(ratio=0.0), state,
                                      tau=1, hyper=HYPER))
    frame[7] |= 0x02  # FLAG_SPARSE is contribution-only
    with pytest.raises(WireFormatError, match="sparse"):
        decode_dispatch(_reseal(frame))


def test_unknown_reply_profile_code_rejected():
    from repro.pruning.plan import PruningPlan
    state = {"w": np.zeros(4, dtype=np.float32)}
    frame = bytearray(encode_dispatch(0, PruningPlan(ratio=0.0), state,
                                      tau=1, hyper=HYPER))
    frame[7] |= 0x0C  # profile code 3 is unassigned
    with pytest.raises(WireFormatError, match="profile"):
        decode_dispatch(_reseal(frame))


def test_profile_bits_on_contribution_rejected():
    _, frame = _sparse_frame()
    patched = bytearray(frame)
    patched[7] |= 0x04
    with pytest.raises(WireFormatError, match="profile"):
        decode_contribution(_reseal(patched))


def _patch_first(frame: bytes, needle: bytes, replacement: bytes) -> bytes:
    offset = frame.index(needle)
    patched = bytearray(frame)
    patched[offset:offset + len(replacement)] = replacement
    return _reseal(patched)


def test_non_increasing_sparse_indices_rejected():
    state = {"w": np.zeros(16, dtype=np.float32)}
    trained = {"w": np.arange(16, dtype=np.float32)}
    frame = encode_contribution(0, trained, train_loss=0.0,
                                wall_time_s=0.0, profile="sparse",
                                base=state, keep_fraction=0.25)
    payload = decode_contribution(frame)
    indices = payload.sparse["w"].indices
    needle = indices.astype("<u4").tobytes()
    swapped = indices[::-1].astype("<u4").tobytes()
    with pytest.raises(WireFormatError, match="strictly"):
        decode_contribution(_patch_first(frame, needle, swapped))


def test_out_of_range_sparse_index_rejected():
    state = {"w": np.zeros(16, dtype=np.float32)}
    trained = {"w": np.arange(16, dtype=np.float32)}
    frame = encode_contribution(0, trained, train_loss=0.0,
                                wall_time_s=0.0, profile="sparse",
                                base=state, keep_fraction=0.25)
    payload = decode_contribution(frame)
    indices = payload.sparse["w"].indices.astype("<u4")
    needle = indices.tobytes()
    oob = indices.copy()
    oob[-1] = 16  # one past the end of the 16-element tensor
    with pytest.raises(WireFormatError, match="out of range"):
        decode_contribution(_patch_first(frame, needle, oob.tobytes()))


def test_zero_scale_on_wire_rejected():
    _, frame = _sparse_frame(quantized=True)
    payload = decode_contribution(frame)
    scale = payload.sparse["w"].scale
    needle = struct.pack("<d", scale)
    with pytest.raises(WireFormatError, match="scale"):
        decode_contribution(
            _patch_first(frame, needle, struct.pack("<d", 0.0))
        )
    with pytest.raises(WireFormatError, match="scale"):
        decode_contribution(
            _patch_first(frame, needle, struct.pack("<d", float("nan")))
        )
    with pytest.raises(WireFormatError, match="scale"):
        decode_contribution(
            _patch_first(frame, needle, struct.pack("<d", -1.0))
        )


def test_out_of_range_quantization_codes_rejected():
    _, frame = _sparse_frame(quantized=True)
    payload = decode_contribution(frame)
    codes = payload.sparse["w"].codes.astype("<i2")
    needle = codes.tobytes()
    hot = codes.copy()
    hot[0] = 200  # 8-bit symmetric codes cap at 127
    with pytest.raises(WireFormatError, match="cap"):
        decode_contribution(_patch_first(frame, needle, hot.tobytes()))


def test_dense_quantized_layout_rejected():
    """FLAG_QUANTIZED without FLAG_SPARSE names a layout no encoder
    writes: on a contribution and on a dispatch it is a wire error."""
    from repro.pruning.plan import PruningPlan
    state = {"w": np.ones(8, dtype=np.float32)}
    frames = {
        decode_contribution: encode_contribution(
            0, state, train_loss=0.0, wall_time_s=0.0),
        decode_dispatch: encode_dispatch(
            0, PruningPlan(ratio=0.0), state, tau=1, hyper=HYPER),
    }
    for decode, frame in frames.items():
        patched = bytearray(frame)
        patched[7] |= 0x01  # FLAG_QUANTIZED
        with pytest.raises(WireFormatError, match="dense quantized"):
            decode(_reseal(patched))


def test_sparse_encode_requires_base():
    state = {"w": np.zeros(4, dtype=np.float32)}
    with pytest.raises(WireFormatError, match="base"):
        encode_contribution(0, state, train_loss=0.0, wall_time_s=0.0,
                            profile="sparse")


def test_materialise_requires_base():
    _, frame = _sparse_frame()
    with pytest.raises(WireFormatError, match="base"):
        decode_contribution(frame).materialise()


def test_unknown_profile_name_rejected_on_encode():
    state = {"w": np.zeros(4, dtype=np.float32)}
    with pytest.raises(WireFormatError, match="profile"):
        encode_contribution(0, state, train_loss=0.0, wall_time_s=0.0,
                            profile="dense")


# ----------------------------------------------------------------------
# quantizer guards (bug sweep: degenerate scales)
# ----------------------------------------------------------------------
def test_quantize_all_zero_tensor_roundtrips_cleanly():
    codes, scale = quantize_array(np.zeros(16, dtype=np.float32), 8)
    assert scale == 1.0
    np.testing.assert_array_equal(codes, np.zeros(16, dtype=np.int16))
    restored = codes.astype(np.float64) * scale
    assert np.all(np.isfinite(restored))
    np.testing.assert_array_equal(restored, np.zeros(16))


def test_quantize_subnormal_peak_never_underflows_scale():
    tiny = np.full(4, 1e-310, dtype=np.float64)  # subnormal peak
    codes, scale = quantize_array(tiny, 8)
    assert np.isfinite(scale) and scale > 0.0
    assert np.all(np.isfinite(codes.astype(np.float64) * scale))


def test_quantize_non_finite_values_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        quantize_array(np.array([1.0, np.inf], dtype=np.float32), 8)
    with pytest.raises(ValueError, match="non-finite"):
        quantize_array(np.array([np.nan], dtype=np.float32), 8)


def test_quantized_wire_roundtrip_of_zero_tensor():
    """End-to-end: an all-zero delta crosses the sparse+quantized wire
    as no positions under a unit scale, and materialises to exact zeros
    (the pre-guard failure mode was a zero scale the receiver rejects,
    or NaN/garbage)."""
    state = {"w": np.zeros((3, 3), dtype=np.float32)}
    frame = encode_contribution(0, state, train_loss=0.0, wall_time_s=0.0,
                                profile="sparse+quantized", base=state,
                                keep_fraction=1.0, quantize_bits=8)
    payload = decode_contribution(frame)
    assert payload.sparse["w"].scale == 1.0
    decoded = payload.materialise(state)["w"]
    np.testing.assert_array_equal(decoded, state["w"])
