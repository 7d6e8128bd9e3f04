"""Checkpoint and history persistence."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.fl.history import RoundRecord, TrainingHistory
from repro.io import atomic_write_bytes, atomic_write_text, save_history
from repro.telemetry.spans import to_jsonable


def _saved_rounds(history, path):
    """The ``rounds`` entries of ``history`` as written to ``path``."""
    save_history(history, path)
    return json.loads(path.read_text())["rounds"]


def _expected_entry(record):
    """``record`` as JSON: string keys, lists, ``cohorts`` only if set."""
    entry = to_jsonable(asdict(record))
    if record.cohorts is None:
        del entry["cohorts"]
    return entry


def test_atomic_write_bytes_creates_and_overwrites(tmp_path):
    path = tmp_path / "blob.bin"
    atomic_write_bytes(path, b"first")
    assert path.read_bytes() == b"first"
    atomic_write_bytes(path, b"second")
    assert path.read_bytes() == b"second"
    # no temp-file droppings on the success path
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blob.bin"]


def test_atomic_write_text_utf8(tmp_path):
    path = tmp_path / "note.txt"
    atomic_write_text(path, "résumé")
    assert path.read_text(encoding="utf-8") == "résumé"


def test_atomic_write_cleans_up_on_failure(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"original")

    import unittest.mock as mock

    with mock.patch("os.replace", side_effect=OSError("disk gone")):
        with pytest.raises(OSError, match="disk gone"):
            atomic_write_bytes(path, b"new content")
    assert path.read_bytes() == b"original"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blob.bin"]


def test_atomic_write_survives_sigkill_mid_write(tmp_path):
    """Regression (torn-file fix): a writer SIGKILLed at an arbitrary
    point must never tear the target -- the reader sees the complete
    old content or the complete new content, nothing in between."""
    import signal
    import subprocess
    import sys
    import time
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    target = tmp_path / "state.bin"
    old = b"O" * 65536
    new = b"N" * 65536
    target.write_bytes(old)
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from repro.io import atomic_write_bytes\n"
        "print('ready', flush=True)\n"
        "while True:\n"
        f"    atomic_write_bytes({str(target)!r}, b'N' * 65536)\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", script],
                            stdout=subprocess.PIPE)
    try:
        assert proc.stdout.readline().strip() == b"ready"
        time.sleep(0.05)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
    content = target.read_bytes()
    assert content in (old, new), \
        f"target torn: {len(content)} bytes, head {content[:8]!r}"


def test_history_roundtrip(tmp_path):
    history = TrainingHistory(strategy="fedmp", model_name="cnn/mnist",
                              higher_is_better=True)
    history.append(RoundRecord(
        round_index=0, sim_time_s=10.0, round_time_s=10.0, metric=0.5,
        eval_loss=1.2, train_loss=1.5, ratios={0: 0.3, 1: 0.0},
        completion_times={0: 8.0, 1: 10.0}, discarded=[2],
        overhead_s=0.01,
    ))
    history.append(RoundRecord(
        round_index=1, sim_time_s=20.0, round_time_s=10.0, metric=None,
        eval_loss=None, train_loss=1.1, ratios={}, completion_times={},
    ))
    path = tmp_path / "history.json"
    save_history(history, path)
    payload = json.loads(path.read_text())

    assert payload["strategy"] == "fedmp"
    assert payload["model_name"] == "cnn/mnist"
    assert payload["higher_is_better"] is True
    assert len(payload["rounds"]) == 2
    first = payload["rounds"][0]
    assert first["metric"] == 0.5
    assert first["ratios"] == {"0": 0.3, "1": 0.0}
    assert first["completion_times"] == {"0": 8.0, "1": 10.0}
    assert first["discarded"] == [2]
    assert first["overhead_s"] == 0.01
    assert payload["rounds"][1]["metric"] is None
    assert payload["rounds"][1]["eval_loss"] is None


def test_history_roundtrip_engine_fields(tmp_path):
    """The engine-era fields (carried_over, hook extras) roundtrip."""
    history = TrainingHistory(strategy="fedmp", model_name="cnn/mnist")
    history.append(RoundRecord(
        round_index=0, sim_time_s=6.0, round_time_s=6.0, metric=0.4,
        eval_loss=1.0, train_loss=1.5, ratios={0: 0.2},
        completion_times={0: 4.0}, carried_over=[1, 2],
        extras={"wall_time_s": 0.25, "download_params": 1000.0,
                "upload_params": 900.0},
    ))
    entry, = _saved_rounds(history, tmp_path / "history.json")
    assert entry["carried_over"] == [1, 2]
    assert entry["extras"] == {"wall_time_s": 0.25,
                               "download_params": 1000.0,
                               "upload_params": 900.0}


def test_live_history_roundtrip_preserves_every_field(tmp_path):
    """End-to-end: a history produced by the engine with the built-in
    hooks attached exports every field of every record to JSON."""
    from repro.data.synthetic import make_synthetic_mnist
    from repro.fl.config import FLConfig
    from repro.fl.hooks import CommVolumeHook, TimingHook
    from repro.fl.runner import run_federated_training
    from repro.fl.tasks import ClassificationTask
    from repro.simulation.cluster import make_scenario_devices

    dataset = make_synthetic_mnist(train_per_class=10, test_per_class=3,
                                   rng=np.random.default_rng(0))
    task = ClassificationTask(dataset, "cnn")
    devices = make_scenario_devices("medium", np.random.default_rng(7))
    config = FLConfig(strategy="synfl", max_rounds=2, local_iterations=1,
                      batch_size=8, seed=5, semi_sync_deadline_s=6.0)
    history = run_federated_training(
        task, devices, config, hooks=[TimingHook(), CommVolumeHook()]
    )

    entries = _saved_rounds(history, tmp_path / "live.json")
    assert entries == [_expected_entry(record) for record in history.rounds]


def test_history_roundtrip_nested_extras(tmp_path):
    """Telemetry-era extras nest dicts/lists and carry numpy scalars."""
    history = TrainingHistory(strategy="fedmp", model_name="cnn/mnist")
    history.append(RoundRecord(
        round_index=0, sim_time_s=6.0, round_time_s=6.0, metric=0.4,
        eval_loss=1.0, train_loss=1.5, ratios={0: 0.2},
        completion_times={0: 4.0},
        extras={
            "wall_time_s": np.float64(0.25),
            "eucb": {
                "agents": {
                    "0": {
                        "rounds_played": np.int64(3),
                        "arms": [
                            {"low": 0.0, "high": 0.4,
                             "pulls": 2, "mean": 0.8},
                            {"low": 0.4, "high": 0.8,
                             "pulls": 1, "mean": None},
                        ],
                    },
                },
            },
        },
    ))
    entry, = _saved_rounds(history, tmp_path / "history.json")
    extras = entry["extras"]
    assert extras["wall_time_s"] == 0.25
    agent = extras["eucb"]["agents"]["0"]
    assert agent["rounds_played"] == 3
    assert agent["arms"][1]["mean"] is None
    assert agent["arms"][0] == {"low": 0.0, "high": 0.4,
                                "pulls": 2, "mean": 0.8}


def test_live_telemetry_history_roundtrips(tmp_path):
    """A history carrying real E-UCB snapshots exports them intact."""
    from repro.data.synthetic import make_synthetic_mnist
    from repro.fl.config import FLConfig
    from repro.fl.runner import run_federated_training
    from repro.fl.tasks import ClassificationTask
    from repro.simulation.cluster import make_scenario_devices
    from repro.telemetry import Telemetry, TelemetryHook

    dataset = make_synthetic_mnist(train_per_class=10, test_per_class=3,
                                   rng=np.random.default_rng(0))
    task = ClassificationTask(dataset, "cnn")
    devices = make_scenario_devices("medium", np.random.default_rng(7))
    config = FLConfig(strategy="fedmp", max_rounds=2, local_iterations=1,
                      batch_size=8, seed=5,
                      strategy_kwargs={"warmup_rounds": 1})
    telemetry = Telemetry()
    history = run_federated_training(task, devices, config,
                                     hooks=[TelemetryHook(telemetry)],
                                     telemetry=telemetry)
    assert all("eucb" in r.extras for r in history.rounds)

    entries = _saved_rounds(history, tmp_path / "live.json")
    assert len(entries) == len(history.rounds)
    for original, entry in zip(history.rounds, entries):
        assert entry["extras"]["eucb"]["agents"].keys() \
            == original.extras["eucb"]["agents"].keys()
        assert entry["extras"]["eucb"] == original.extras["eucb"]
