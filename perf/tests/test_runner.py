"""Pass-level failure accounting and the hard timeout."""

import time

import pytest

from harness import runner
from harness.runner import LedgerHook, hard_timeout, run_pass, WorkloadTimeout
from harness.workloads import (
    WARMUP_ROUNDS,
    CnnAsyncProcess,
    CnnSyncSerial,
)
from repro.fl.history import RoundRecord, TrainingHistory


def test_hard_timeout_interrupts_a_blocking_wait():
    start = time.perf_counter()
    with pytest.raises(WorkloadTimeout):
        with hard_timeout(0.2):
            time.sleep(30)
    assert time.perf_counter() - start < 5.0


def test_hard_timeout_passes_through_except_exception():
    with pytest.raises(WorkloadTimeout):
        with hard_timeout(0.1):
            try:
                time.sleep(30)
            except Exception:  # what a program boundary might do
                pytest.fail("the timeout must not be swallowed")


class BrokenTraining(CnnSyncSerial):
    """Training raises in the second round."""

    def construct(self, task, devices, config, hooks, telemetry):
        session = super().construct(task, devices, config, hooks, telemetry)
        original = session.engine.train_all

        def train_all(dispatches, round_index):
            if round_index == 1:
                raise RuntimeError("lost client")
            return original(dispatches, round_index)

        session.engine.train_all = train_all
        return session


@pytest.mark.parametrize("traced", [False, True])
def test_a_raising_round_fails_every_operation(tmp_path, traced):
    result = run_pass(BrokenTraining(), seed=3, rounds=1, traced=traced,
                      work_dir=tmp_path / "work", timeout_s=120.0,
                      check_quality=False)
    assert result.error == "RuntimeError: lost client"
    assert result.attempted == (WARMUP_ROUNDS + 1) * 10
    assert result.accepted == 10          # round 0 did finish
    assert result.failed == result.attempted
    assert result.checks["completed_all_rounds"] is False
    assert len(result.round_walls) == 1
    assert not (tmp_path / "work").exists()
    if traced:
        assert result.recorder.wrapped == 0  # despite the raise
        failed = [s for s in result.recorder.spans if s.error]
        assert [s.name for s in failed] == ["engine.train_all"]


def test_a_timed_out_pass_fails_every_operation(tmp_path):
    result = run_pass(CnnSyncSerial(), seed=3, rounds=50, traced=False,
                      work_dir=tmp_path / "work", timeout_s=1.0,
                      check_quality=False)
    assert "timeout" in result.error
    assert result.failed == result.attempted == (WARMUP_ROUNDS + 50) * 10


def test_a_failed_output_check_fails_every_operation():
    result = runner.PassResult(workload="w", seed=0, rounds_planned=3,
                               traced=False, attempted=30, accepted=30)
    result.checks = {"completed_all_rounds": True}
    assert result.failed == 0
    result.checks["reaches_0.90_accuracy"] = False
    assert result.failed == 30


def test_ledger_counts_only_accepted_contributions():
    ledger = LedgerHook()
    ledger.on_aggregate(0, [object()] * 7)
    ledger.on_aggregate(1, [object()] * 3)
    assert ledger.accepted == 10


def test_counter_sums_over_matching_labels():
    result = runner.PassResult(workload="w", seed=0, rounds_planned=1,
                               traced=False)
    result.counters = [
        ("wire_bytes_total", {"kind": "dispatch"}, 10.0),
        ("wire_bytes_total", {"kind": "template"}, 5.0),
        ("retries_total", {"transport": "socket"}, 2.0),
    ]
    assert result.counter("wire_bytes_total") == 15.0
    assert result.counter("wire_bytes_total", kind="template") == 5.0
    assert result.counter("wire_bytes_total", kind="contribution") == 0.0
    assert result.counter("absent_total") == 0.0


@pytest.mark.parametrize("workload, expected", [
    (CnnSyncSerial(), 20.0),      # the clock when 0.90 was first met
    (CnnAsyncProcess(), None),    # no time-to-target off cnn_sync_serial
])
def test_time_to_target_is_cnn_sync_serial_only(workload, expected):
    history = TrainingHistory("fedmp", "cnn", rounds=[
        RoundRecord(index, 10.0 * (index + 1), 10.0, accuracy, 0.4, 0.5,
                    {}, {})
        for index, accuracy in enumerate([0.5, 0.95, 0.97])
    ])
    result = runner.PassResult(workload=workload.name, seed=0,
                               rounds_planned=3, traced=False)
    runner._fill_outputs(workload, result, history, None,
                         check_quality=False)
    assert result.sim_time_to_target_s == expected
    assert result.final_eval_loss == 0.4
