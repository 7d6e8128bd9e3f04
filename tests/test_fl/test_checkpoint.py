"""Checkpoint/resume: format safety and round-trip fidelity.

Three layers of guarantees:

- **container format** -- bad magic, unknown versions and truncated
  payloads fail with typed errors before any pickle runs;
- **round-trip fidelity** (property tests) -- for every registry
  model, ``restore(save(state))`` reproduces the state bitwise:
  state dict, every RNG stream (engine, per-worker, RNG-bearing
  modules), E-UCB bandit state (signature + clean consistency
  report), error-feedback memory mass;
- **resume byte-identity** -- a run resumed from a mid-run checkpoint
  finishes with a normalised history byte-identical to the
  uninterrupted run's, under all three schedulers and both executors.
"""

from __future__ import annotations

import pickle
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments.setups import make_bench_task, make_devices
from repro.fl.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    CheckpointVersionError,
    capture_engine_state,
    decode_checkpoint,
    encode_checkpoint,
    latest_checkpoint,
    load_checkpoint,
    resolve_checkpoint,
    save_checkpoint,
)
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.hooks import CommVolumeHook, TimingHook
from repro.fl.runner import run_federated_training
from repro.telemetry import MetricsRegistry, Telemetry, Tracer
from repro.verify.differential import normalised_history_bytes
from tests.support.bandit import agent_signature

SCHEDULER_OVERRIDES = {
    "sync": {},
    "async": {"async_m": 2},
    "semi_sync": {"semi_sync_deadline_s": 20.0},
}


def _hooks():
    return [TimingHook(), CommVolumeHook()]


def _setup(preset, scheduler="sync", workers=4, strategy="fedmp",
           seed=17, rounds=2, **overrides):
    bench = make_bench_task(preset)
    devices = make_devices("medium", count=workers)
    config = bench.make_config(
        strategy, max_rounds=rounds, seed=seed,
        **SCHEDULER_OVERRIDES[scheduler], **overrides,
    )
    return bench, devices, config


def _checkpoint_after_run(preset, scheduler="sync", strategy="fedmp",
                          seed=17, rounds=2, workers=4, **overrides):
    """Run to completion with per-round checkpoints; load the last one
    that still has rounds left to replay (next_round == rounds - 1)."""
    with tempfile.TemporaryDirectory() as tmp:
        bench, devices, config = _setup(
            preset, scheduler=scheduler, strategy=strategy, seed=seed,
            rounds=rounds, workers=workers,
            checkpoint_dir=str(Path(tmp) / "ck"), **overrides,
        )
        run_federated_training(bench.make_task(0.0), devices, config,
                               hooks=_hooks())
        checkpoint = load_checkpoint(
            Path(tmp) / "ck" / f"ckpt-{rounds - 1:06d}.ckpt"
        )
    return bench, devices, checkpoint


def _recapture(bench, devices, checkpoint):
    """Restore an engine from a checkpoint and capture it again."""
    engine = Engine.restore(bench.make_task(0.0), devices, checkpoint,
                            hooks=_hooks())
    try:
        resume = engine.take_resume(checkpoint.scheduler)
        payload = capture_engine_state(
            engine, checkpoint.scheduler, resume["next_round"],
            queue=resume["queue"],
        )
        strategy = engine.strategy
    finally:
        engine.close()
    return payload, strategy


def _assert_rng_equal(a, b, label):
    assert a == b, f"{label} RNG state drifted across restore"


def _assert_payload_roundtrip(original, restored):
    assert restored["next_round"] == original["next_round"]
    assert restored["config"] == original["config"]
    for stream in ("master", "extract", "churn", "sampling"):
        _assert_rng_equal(original["rng"][stream],
                          restored["rng"][stream], stream)
    assert set(original["model_state"]) == set(restored["model_state"])
    for key in original["model_state"]:
        before = original["model_state"][key]
        after = restored["model_state"][key]
        assert before.dtype == after.dtype, key
        assert np.array_equal(before, after), key
    assert original["module_rngs"] == restored["module_rngs"]
    assert set(original["workers"]) == set(restored["workers"])
    for worker_id in original["workers"]:
        before = original["workers"][worker_id]
        after = restored["workers"][worker_id]
        _assert_rng_equal(before["rng"], after["rng"],
                          f"worker {worker_id}")
        _assert_rng_equal(before["timing_rng"], after["timing_rng"],
                          f"worker {worker_id} timing")
        assert ("iterator" in before) == ("iterator" in after)
        if "iterator" in before:
            assert np.array_equal(before["iterator"]["order"],
                                  after["iterator"]["order"])
            assert before["iterator"]["cursor"] \
                == after["iterator"]["cursor"]
    assert original["history"].rounds == restored["history"].rounds
    assert original["prev_train_loss"] == restored["prev_train_loss"]


def _assert_bandit_roundtrip(original_strategy, restored_strategy):
    agents = getattr(original_strategy, "agents", None)
    if agents is None:
        return
    restored = restored_strategy.agents
    assert agents.keys() == restored.keys()
    for key in agents:
        assert agent_signature(agents[key]) \
            == agent_signature(restored[key]), key
        assert restored[key].consistency_report() == [], key


def state_mass(state):
    """Sum of absolute values across a state dict, in float64.

    A cheap order-independent fingerprint of accumulated mass: a
    restored error-feedback memory must carry exactly the mass the
    original did (complementing the per-array bitwise comparison).
    """
    return float(sum(
        np.abs(np.asarray(value, dtype=np.float64)).sum()
        for value in state.values()
    ))


def _assert_error_feedback_roundtrip(original, restored):
    assert set(original) == set(restored)
    for worker_id in original:
        before = original[worker_id].memory_snapshot()
        after = restored[worker_id].memory_snapshot()
        assert state_mass(before) == state_mass(after)
        assert set(before) == set(after)
        for key in before:
            assert np.array_equal(before[key], after[key]), key


# ----------------------------------------------------------------------
# container format
# ----------------------------------------------------------------------
def test_decode_rejects_bad_magic():
    with pytest.raises(CheckpointError, match="bad magic"):
        decode_checkpoint(b"NOTACKPT" + b"\x00" * 64)


def test_decode_rejects_short_data():
    with pytest.raises(CheckpointError, match="bad magic"):
        decode_checkpoint(MAGIC[:4])


def test_decode_rejects_unknown_version():
    data = encode_checkpoint({"format_version": FORMAT_VERSION})
    future = (MAGIC + struct.pack("<I", FORMAT_VERSION + 7)
              + data[len(MAGIC) + 4:])
    with pytest.raises(CheckpointVersionError,
                       match=f"version {FORMAT_VERSION + 7}"):
        decode_checkpoint(future)


def test_decode_rejects_truncated_payload():
    data = encode_checkpoint({"payload": list(range(1000))})
    with pytest.raises(CheckpointError, match="truncated or corrupt"):
        decode_checkpoint(data[:-20])


def test_decode_rejects_a_version_2_file():
    """Version 2 had no CRC field: ``MAGIC | u32 2 | pickle``."""
    legacy = MAGIC + struct.pack("<I", 2) + pickle.dumps({"x": 1})
    with pytest.raises(CheckpointVersionError, match="version 2"):
        decode_checkpoint(legacy)


def test_flipped_byte_in_a_run_checkpoint_is_a_typed_error(tmp_path):
    """One flipped byte in a real `repro run` checkpoint is a typed
    error raised before the pickle runs: a version error in the version
    field, a CRC mismatch in the CRC field or the payload (start,
    middle, end)."""
    assert main(["run", "--task", "cnn", "--rounds", "2", "--workers",
                 "3", "--seed", "5", "--checkpoint-dir",
                 str(tmp_path)]) == 0
    path = latest_checkpoint(tmp_path)
    data = path.read_bytes()
    assert decode_checkpoint(data).next_round == 2
    header = len(MAGIC) + 8
    with pytest.raises(CheckpointVersionError):
        decode_checkpoint(data[:len(MAGIC)] + bytes([data[len(MAGIC)] ^ 0x40])
                          + data[len(MAGIC) + 1:])
    for offset in (header - 1, header, header + 1,
                   header + (len(data) - header) // 2, len(data) - 1):
        flipped = bytearray(data)
        flipped[offset] ^= 0x40
        with pytest.raises(CheckpointError, match="CRC mismatch"):
            decode_checkpoint(bytes(flipped))


def test_encode_rejects_unpicklable_payload():
    with pytest.raises(CheckpointError, match="not picklable"):
        encode_checkpoint({"bad": lambda: None})


def test_roundtrip_through_file(tmp_path):
    payload = {"format_version": FORMAT_VERSION, "x": np.arange(5)}
    path = tmp_path / "ckpt-000003.ckpt"
    size = save_checkpoint(path, payload)
    assert path.stat().st_size == size
    checkpoint = load_checkpoint(path)
    assert checkpoint.version == FORMAT_VERSION
    assert np.array_equal(checkpoint.payload["x"], np.arange(5))
    assert checkpoint.path == path


def test_latest_checkpoint_picks_highest_round(tmp_path):
    assert latest_checkpoint(tmp_path) is None
    for round_index in (1, 12, 3):
        save_checkpoint(tmp_path / f"ckpt-{round_index:06d}.ckpt", {})
    (tmp_path / "ckpt-garbage.ckpt").write_bytes(b"junk")
    assert latest_checkpoint(tmp_path).name == "ckpt-000012.ckpt"


def test_resolve_checkpoint(tmp_path):
    with pytest.raises(CheckpointError, match="no ckpt-"):
        resolve_checkpoint(tmp_path)
    with pytest.raises(CheckpointError, match="does not exist"):
        resolve_checkpoint(tmp_path / "missing.ckpt")
    path = tmp_path / "ckpt-000002.ckpt"
    save_checkpoint(path, {})
    assert resolve_checkpoint(tmp_path) == path
    assert resolve_checkpoint(path) == path


def test_config_validates_checkpoint_cadence():
    with pytest.raises(ValueError, match="checkpoint_every"):
        FLConfig(strategy="fedmp", max_rounds=2, checkpoint_every=0)


# ----------------------------------------------------------------------
# round-trip fidelity (property tests over the model registry)
# ----------------------------------------------------------------------
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       scheduler=st.sampled_from(sorted(SCHEDULER_OVERRIDES)))
def test_roundtrip_cnn_any_scheduler(seed, scheduler):
    bench, devices, checkpoint = _checkpoint_after_run(
        "cnn", scheduler=scheduler, seed=seed,
    )
    payload, strategy = _recapture(bench, devices, checkpoint)
    _assert_payload_roundtrip(checkpoint.payload, payload)
    _assert_bandit_roundtrip(checkpoint.payload["strategy"], strategy)


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_roundtrip_alexnet_dropout_rngs(seed):
    """AlexNet carries Dropout modules with private RNG streams."""
    bench, devices, checkpoint = _checkpoint_after_run(
        "alexnet", seed=seed,
    )
    assert checkpoint.payload["module_rngs"], \
        "alexnet checkpoint should carry Dropout RNG states"
    payload, strategy = _recapture(bench, devices, checkpoint)
    _assert_payload_roundtrip(checkpoint.payload, payload)
    _assert_bandit_roundtrip(checkpoint.payload["strategy"], strategy)


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_roundtrip_lstm_sequence_iterators(seed):
    bench, devices, checkpoint = _checkpoint_after_run(
        "lstm", seed=seed,
    )
    payload, strategy = _recapture(bench, devices, checkpoint)
    _assert_payload_roundtrip(checkpoint.payload, payload)
    _assert_bandit_roundtrip(checkpoint.payload["strategy"], strategy)


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_roundtrip_flexcom_error_feedback(seed):
    """FlexCom banks compressed-upload residuals per worker; the
    restored memory must carry exactly the original mass, bitwise."""
    bench, devices, checkpoint = _checkpoint_after_run(
        "cnn", strategy="flexcom", seed=seed,
    )
    engine = Engine.restore(bench.make_task(0.0), devices, checkpoint,
                            hooks=_hooks())
    try:
        _assert_error_feedback_roundtrip(
            checkpoint.payload["error_feedback"], engine.error_feedback,
        )
    finally:
        engine.close()


@pytest.mark.parametrize("preset", ["vgg19", "resnet50"])
def test_roundtrip_large_models_at_construction(preset):
    """The deep registry models round-trip at construction time (no
    training rounds, to bound test runtime): the restored engine's
    capture equals the original capture bitwise."""
    bench, devices, config = _setup(preset, rounds=2, workers=2)
    engine = Engine(bench.make_task(0.0), devices, config,
                    hooks=_hooks())
    try:
        payload = capture_engine_state(engine, "sync", 0)
    finally:
        engine.close()
    checkpoint = decode_checkpoint(encode_checkpoint(payload))
    restored, strategy = _recapture(bench, devices, checkpoint)
    _assert_payload_roundtrip(payload, restored)
    _assert_bandit_roundtrip(payload["strategy"], strategy)


# ----------------------------------------------------------------------
# resume byte-identity (in-process)
# ----------------------------------------------------------------------
def _resume_matches_uninterrupted(scheduler, executor="serial",
                                  num_procs=None, rounds=4):
    bench, devices, config = _setup(
        "cnn", scheduler=scheduler, rounds=rounds,
        executor=executor, num_procs=num_procs,
    )
    baseline = run_federated_training(
        bench.make_task(0.0), devices, config, hooks=_hooks(),
    )
    baseline_bytes = normalised_history_bytes(baseline)

    with tempfile.TemporaryDirectory() as tmp:
        bench2, devices2, config2 = _setup(
            "cnn", scheduler=scheduler, rounds=rounds,
            executor=executor, num_procs=num_procs,
            checkpoint_dir=str(Path(tmp) / "ck"),
        )
        run_federated_training(bench2.make_task(0.0), devices2, config2,
                               hooks=_hooks())
        resumed = run_federated_training(
            bench2.make_task(0.0), devices2, None, hooks=_hooks(),
            resume_from=str(Path(tmp) / "ck" / "ckpt-000002.ckpt"),
        )
    assert normalised_history_bytes(resumed) == baseline_bytes


@pytest.mark.parametrize("scheduler", sorted(SCHEDULER_OVERRIDES))
def test_resume_is_byte_identical_serial(scheduler):
    _resume_matches_uninterrupted(scheduler)


def test_resume_is_byte_identical_process_executor():
    _resume_matches_uninterrupted("sync", executor="process",
                                  num_procs=2)


def test_resume_from_a_checkpoint_whose_clock_carries_round_marks(tmp_path):
    """Checkpoints written while the clock kept per-round marks pickle
    a ``_round_marks`` list with it; they still load and resume
    byte-identically."""
    bench, devices, config = _setup(
        "cnn", rounds=4, checkpoint_dir=str(tmp_path / "ck"),
    )
    history = run_federated_training(bench.make_task(0.0), devices,
                                     config, hooks=_hooks())
    checkpoint = load_checkpoint(tmp_path / "ck" / "ckpt-000002.ckpt")
    clock = checkpoint.payload["clock"]
    clock._round_marks = [clock.now / 2, clock.now]
    legacy = tmp_path / "legacy.ckpt"
    save_checkpoint(legacy, checkpoint.payload)
    assert "_round_marks" in vars(load_checkpoint(legacy).payload["clock"])
    resumed = run_federated_training(
        bench.make_task(0.0), devices, None, hooks=_hooks(),
        resume_from=str(legacy),
    )
    assert normalised_history_bytes(resumed) \
        == normalised_history_bytes(history)


def test_resume_from_a_format_3_file_with_retired_keys(tmp_path):
    """Format-3 files written before the dispatch caches, the round
    snapshot, the payload's copy of the format version and
    ``FLConfig.eval_max_samples`` were dropped still load and resume
    byte-identically: the restore ignores what it no longer reads.  The
    async rule re-dispatches before it checkpoints, so the old files
    carried non-empty caches that no resumed round read."""
    bench, devices, config = _setup(
        "cnn", scheduler="async", rounds=4,
        checkpoint_dir=str(tmp_path / "ck"),
    )
    history = run_federated_training(bench.make_task(0.0), devices,
                                     config, hooks=_hooks())
    payload = load_checkpoint(tmp_path / "ck" / "ckpt-000002.ckpt").payload
    retired = {"format_version", "plan_cache", "submodel_cache",
               "round_state"}
    assert not retired & set(payload)
    payload.update(format_version=FORMAT_VERSION,
                   plan_cache={0.5: "stale"},
                   submodel_cache={0.5: ("stale", {})},
                   round_state={"stale": np.zeros(1)})
    vars(payload["config"])["eval_max_samples"] = None
    legacy = tmp_path / "legacy.ckpt"
    save_checkpoint(legacy, payload)
    resumed = run_federated_training(
        bench.make_task(0.0), devices, None, hooks=_hooks(),
        resume_from=str(legacy),
    )
    assert normalised_history_bytes(resumed) \
        == normalised_history_bytes(history)


def test_resume_rejects_conflicting_config(tmp_path):
    bench, devices, config = _setup(
        "cnn", rounds=2, checkpoint_dir=str(tmp_path / "ck"),
    )
    run_federated_training(bench.make_task(0.0), devices, config,
                           hooks=_hooks())
    other = _setup("cnn", rounds=3)[2]
    with pytest.raises(CheckpointError, match="differs"):
        run_federated_training(bench.make_task(0.0), devices, other,
                               hooks=_hooks(),
                               resume_from=str(tmp_path / "ck"))


def test_a_fresh_run_needs_a_config():
    bench, devices, _ = _setup("cnn")
    with pytest.raises(ValueError, match="config is required"):
        run_federated_training(bench.make_task(0.0), devices, None)


def test_resume_rejects_scheduler_mismatch(tmp_path):
    bench, devices, config = _setup(
        "cnn", scheduler="sync", rounds=2,
        checkpoint_dir=str(tmp_path / "ck"),
    )
    run_federated_training(bench.make_task(0.0), devices, config,
                           hooks=_hooks())
    checkpoint = load_checkpoint(latest_checkpoint(tmp_path / "ck"))
    engine = Engine.restore(bench.make_task(0.0), devices, checkpoint,
                            hooks=_hooks())
    try:
        with pytest.raises(CheckpointError, match="scheduler"):
            engine.take_resume("async")
    finally:
        engine.close()


def test_early_stop_checkpoint_resumes_as_noop(tmp_path):
    """A run that stops early records next_round == max_rounds, so a
    resume replays nothing and returns the same history."""
    bench, devices, config = _setup(
        "cnn", rounds=50, target_metric=0.05, eval_every=1,
        checkpoint_dir=str(tmp_path / "ck"),
    )
    history = run_federated_training(bench.make_task(0.0), devices,
                                     config, hooks=_hooks())
    assert len(history.rounds) < 50, "target should stop the run early"
    resumed = run_federated_training(
        bench.make_task(0.0), devices, None, hooks=_hooks(),
        resume_from=str(tmp_path / "ck"),
    )
    assert normalised_history_bytes(resumed) \
        == normalised_history_bytes(history)


def test_checkpoint_cadence_and_telemetry(tmp_path):
    telemetry = Telemetry(tracer=Tracer(),
                          metrics=MetricsRegistry(enabled=True))
    bench, devices, config = _setup(
        "cnn", rounds=4, checkpoint_dir=str(tmp_path / "ck"),
        checkpoint_every=3,
    )
    run_federated_training(bench.make_task(0.0), devices, config,
                           hooks=_hooks(), telemetry=telemetry)
    names = sorted(p.name for p in (tmp_path / "ck").glob("*.ckpt"))
    # cadence hits round 3; the final round always checkpoints
    assert names == ["ckpt-000003.ckpt", "ckpt-000004.ckpt"]
    written = sum(c.value for c in telemetry.metrics.counters
                  if c.name == "checkpoints_written_total")
    assert written == 2
    sizes = [g.value for g in telemetry.metrics.gauges
             if g.name == "checkpoint_bytes"]
    assert sizes and sizes[0] > 0
