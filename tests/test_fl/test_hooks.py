"""Round hooks: callback ordering and the built-in instrumentation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fl.hooks as hooks_module
from repro.data.synthetic import make_synthetic_mnist
from repro.fl.config import FLConfig
from repro.fl.hooks import CommVolumeHook, HookList, RoundHook, TimingHook
from repro.fl.runner import run_federated_training
from repro.fl.tasks import ClassificationTask
from repro.simulation.cluster import make_scenario_devices


@pytest.fixture(scope="module")
def task():
    dataset = make_synthetic_mnist(train_per_class=20, test_per_class=5,
                                   rng=np.random.default_rng(0))
    return ClassificationTask(dataset, "cnn")


@pytest.fixture(scope="module")
def devices():
    return make_scenario_devices("medium", np.random.default_rng(7))


def _config(**kwargs):
    base = dict(strategy="synfl", max_rounds=2, local_iterations=1,
                batch_size=8, seed=3)
    base.update(kwargs)
    return FLConfig(**base)


class RecordingHook(RoundHook):
    """Logs every callback for ordering/content assertions."""

    def __init__(self):
        self.events = []

    def on_dispatch(self, round_index, dispatch):
        self.events.append(("dispatch", round_index, dispatch.worker_id))

    def on_contribution(self, round_index, dispatch, contribution,
                        train_loss):
        self.events.append(("contribution", round_index,
                            contribution.worker_id))

    def on_aggregate(self, round_index, contributions):
        self.events.append(
            ("aggregate", round_index,
             tuple(c.worker_id for c in contributions))
        )

    def on_round_end(self, record):
        self.events.append(("round_end", record.round_index, None))


def test_hook_sees_full_round_lifecycle(task, devices):
    hook = RecordingHook()
    run_federated_training(task, devices, _config(), hooks=[hook])
    kinds = [kind for kind, _, _ in hook.events]
    n = len(devices)
    # round 0: n dispatches, n contributions, one aggregate, one end
    assert kinds[:n] == ["dispatch"] * n
    assert kinds[n:2 * n] == ["contribution"] * n
    assert kinds[2 * n] == "aggregate"
    assert kinds[2 * n + 1] == "round_end"
    # every aggregate folds exactly the contributed workers
    for kind, round_index, payload in hook.events:
        if kind == "aggregate":
            assert len(payload) == n


def test_hook_list_forwards_in_order(task, devices):
    first, second = RecordingHook(), RecordingHook()
    hooks = HookList([first, second])
    hooks.on_round_end(_fake_record(0))
    assert first.events == second.events == [("round_end", 0, None)]


def _fake_record(round_index):
    from repro.fl.history import RoundRecord

    return RoundRecord(round_index=round_index, sim_time_s=1.0,
                       round_time_s=1.0, metric=None, eval_loss=None,
                       train_loss=1.0, ratios={}, completion_times={})


def test_timing_hook_publishes_wall_time(task, devices):
    timing = TimingHook()
    history = run_federated_training(task, devices, _config(),
                                     hooks=[timing])
    for record in history.rounds:
        assert record.extras["wall_time_s"] > 0.0
    assert timing.total_wall_time_s == pytest.approx(
        sum(r.extras["wall_time_s"] for r in history.rounds)
    )


def test_comm_volume_hook_counts_transfers(task, devices):
    comm = CommVolumeHook()
    history = run_federated_training(task, devices, _config(),
                                     hooks=[comm])
    for record in history.rounds:
        assert record.extras["download_params"] > 0
        assert record.extras["upload_params"] > 0
    assert comm.total_download_params == pytest.approx(
        sum(r.extras["download_params"] for r in history.rounds)
    )
    assert comm.total_params == pytest.approx(
        comm.total_download_params + comm.total_upload_params
    )


def test_comm_volume_tracks_pruning(task, devices):
    """FedMP's pruned dispatches move fewer parameters than full models."""
    full, pruned = CommVolumeHook(), CommVolumeHook()
    run_federated_training(task, devices, _config(strategy="synfl"),
                           hooks=[full])
    run_federated_training(
        task, devices,
        _config(strategy="fedmp",
                strategy_kwargs={"warmup_rounds": 1, "max_ratio": 0.7}),
        hooks=[pruned],
    )
    assert pruned.total_download_params < full.total_download_params


def test_hooks_do_not_change_training(task, devices):
    bare = run_federated_training(task, devices, _config())
    hooked = run_federated_training(
        task, devices, _config(),
        hooks=[TimingHook(), CommVolumeHook(), RecordingHook()],
    )
    for a, b in zip(bare.rounds, hooked.rounds):
        assert a.train_loss == b.train_loss
        assert a.sim_time_s == b.sim_time_s
        assert a.metric == b.metric


# ----------------------------------------------------------------------
# timing / comm-volume attribution under non-barrier schedulers
# ----------------------------------------------------------------------
def test_timing_hook_async_totals_reconcile(task, devices):
    """Async rounds re-dispatch for round k+1 before round k closes;
    wall-time attribution must stay disjoint so totals reconcile."""
    timing = TimingHook()
    history = run_federated_training(
        task, devices, _config(max_rounds=3, async_m=3), hooks=[timing]
    )
    walls = [r.extras["wall_time_s"] for r in history.rounds]
    assert all(w >= 0.0 for w in walls)
    assert timing.total_wall_time_s == pytest.approx(sum(walls))


def test_timing_hook_semi_sync_totals_reconcile(task, devices):
    timing = TimingHook()
    history = run_federated_training(
        task, devices, _config(max_rounds=3, semi_sync_deadline_s=6.0),
        hooks=[timing],
    )
    walls = [r.extras["wall_time_s"] for r in history.rounds]
    assert all(w >= 0.0 for w in walls)
    assert timing.total_wall_time_s == pytest.approx(sum(walls))


def _pending(volumes) -> float:
    """Volume a CommVolumeHook has not attributed to a closed round."""
    return float(sum(volumes.values()))


def test_comm_volume_async_carryover_reconciles(task, devices):
    """Dispatch volume is counted in the sending round, upload volume
    in the aggregating round; totals reconcile via the pending tail."""
    comm = CommVolumeHook()
    history = run_federated_training(
        task, devices, _config(max_rounds=3, async_m=3), hooks=[comm]
    )
    downloads = sum(r.extras["download_params"] for r in history.rounds)
    uploads = sum(r.extras["upload_params"] for r in history.rounds)
    # the last round's re-dispatches are labelled a round that never
    # closes, so they stay pending rather than in any round's extras
    assert _pending(comm._download) > 0.0
    assert comm.total_download_params == pytest.approx(
        downloads + _pending(comm._download)
    )
    # uploads always land in a closing round
    assert _pending(comm._upload) == 0.0
    assert comm.total_upload_params == pytest.approx(uploads)
    # every aggregated contribution was dispatched at some point
    assert comm.total_download_params >= comm.total_upload_params


def test_comm_volume_semi_sync_carryover_reconciles(task, devices):
    comm = CommVolumeHook()
    history = run_federated_training(
        task, devices, _config(max_rounds=3, semi_sync_deadline_s=6.0),
        hooks=[comm],
    )
    carried = any(r.carried_over for r in history.rounds)
    assert carried, "deadline chosen to force carry-over"
    downloads = sum(r.extras["download_params"] for r in history.rounds)
    assert comm.total_download_params == pytest.approx(
        downloads + _pending(comm._download)
    )
    assert _pending(comm._upload) == 0.0
    assert comm.total_upload_params == pytest.approx(
        sum(r.extras["upload_params"] for r in history.rounds)
    )


# ----------------------------------------------------------------------
# property: disjoint wall-time attribution (satellite of the zero-
# contribution double-charge fix)
# ----------------------------------------------------------------------
class _FakeClock:
    """Deterministic stand-in for the ``time`` module in hooks."""

    def __init__(self):
        self.now = 0.0

    def advance(self, dt):
        self.now += dt

    def perf_counter(self):
        return self.now


def _dispatch_stub():
    class _D:
        worker_id = 0
        download_params = 10
        upload_params = 10
    return _D()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            # host time spent inside the round before it ends
            st.floats(min_value=0.0, max_value=5.0,
                      allow_nan=False, allow_infinity=False),
            # number of dispatches observed during the round (0 models
            # a round that closes with no contributions at all)
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1, max_size=12,
    )
)
def test_timing_attribution_is_disjoint_and_total(rounds):
    """Per-round wall times are non-negative, tile the run without
    overlap, and always sum to the hook's running total -- including
    rounds that end with zero dispatches/contributions (the old
    per-round-start keying double-charged those)."""
    clock = _FakeClock()
    hook = TimingHook()
    original_time = hooks_module.time
    hooks_module.time = clock
    try:
        records = []
        first_dispatch_time = None
        first_end_time = None
        for index, (duration, dispatches) in enumerate(rounds):
            for _ in range(dispatches):
                if first_dispatch_time is None \
                        and first_end_time is None:
                    first_dispatch_time = clock.now
                hook.on_dispatch(index, _dispatch_stub())
                clock.advance(duration / (dispatches + 1))
            clock.advance(duration / (dispatches + 1))
            record = _fake_record(index)
            hook.on_round_end(record)
            if first_end_time is None:
                first_end_time = clock.now
            records.append(record)
    finally:
        hooks_module.time = original_time

    walls = [r.extras["wall_time_s"] for r in records]
    assert all(w >= 0.0 for w in walls)
    # totals always equal the sum of the per-round extras
    assert hook.total_wall_time_s == pytest.approx(sum(walls))
    # disjoint tiling: the charged intervals partition [t0, last_end]
    # exactly once, where t0 is the first dispatch the hook saw (or
    # the first round end, if no dispatch preceded it)
    t0 = first_dispatch_time if first_dispatch_time is not None \
        else first_end_time
    assert sum(walls) == pytest.approx(clock.now - t0)


# ----------------------------------------------------------------------
# attribution under PR-6 cohort-sharded rounds + client sampling
# ----------------------------------------------------------------------
_COHORT_SCHEDULERS = {
    "sync": {},
    "async": {"async_m": 3},
    "semi_sync": {"semi_sync_deadline_s": 6.0},
}


@pytest.mark.parametrize("scheduler", sorted(_COHORT_SCHEDULERS))
def test_timing_hook_cohort_sampled_totals_reconcile(
        task, devices, scheduler):
    """Cohort-sharded dispatch and client sampling change *which*
    on_dispatch calls the hook sees (one per sampled member, batched
    per cohort, possibly for future rounds via the DispatchQueue), but
    the disjoint-attribution invariant must survive unchanged."""
    timing = TimingHook()
    history = run_federated_training(
        task, devices,
        _config(max_rounds=3, clients_per_round=4,
                **_COHORT_SCHEDULERS[scheduler]),
        hooks=[timing],
    )
    walls = [r.extras["wall_time_s"] for r in history.rounds]
    assert len(walls) == 3
    assert all(w >= 0.0 for w in walls)
    assert timing.total_wall_time_s == pytest.approx(sum(walls))


@pytest.mark.parametrize("scheduler", sorted(_COHORT_SCHEDULERS))
def test_comm_volume_cohort_sampled_reconciles(task, devices, scheduler):
    comm = CommVolumeHook()
    history = run_federated_training(
        task, devices,
        _config(max_rounds=3, clients_per_round=4,
                **_COHORT_SCHEDULERS[scheduler]),
        hooks=[comm],
    )
    downloads = sum(r.extras["download_params"] for r in history.rounds)
    uploads = sum(r.extras["upload_params"] for r in history.rounds)
    assert comm.total_download_params == pytest.approx(
        downloads + _pending(comm._download)
    )
    assert _pending(comm._upload) == 0.0
    assert comm.total_upload_params == pytest.approx(uploads)
    assert comm.total_download_params >= comm.total_upload_params


def test_cohort_sampling_does_not_inflate_comm_volume(task, devices):
    """Sampling 4 of the fleet per round must move ~4 workers' bytes,
    not the full fleet's (the pre-PR-6 per-member accounting would)."""
    sampled, full = CommVolumeHook(), CommVolumeHook()
    run_federated_training(
        task, devices,
        _config(clients_per_round=4),
        hooks=[sampled],
    )
    run_federated_training(task, devices, _config(),
                           hooks=[full])
    assert sampled.total_download_params == pytest.approx(
        full.total_download_params * 4 / len(devices)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0,
                      allow_nan=False, allow_infinity=False),
            # current-round dispatches (0 = a round with no sampled
            # members contributing)
            st.integers(min_value=0, max_value=3),
            # dispatches the event-driven DispatchQueue issues for
            # FUTURE rounds before this round closes (async/semi-sync
            # carry-over re-dispatch)
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1, max_size=12,
    )
)
def test_timing_attribution_disjoint_under_future_dispatches(rounds):
    """The PR-6 DispatchQueue can hand the hook dispatches labelled
    round k+1 while round k is still open; attribution must charge
    that host time to the round that *closes* over it, exactly once,
    so the tiling invariant holds for cohort-sampled event-driven
    runs too."""
    clock = _FakeClock()
    hook = TimingHook()
    original_time = hooks_module.time
    hooks_module.time = clock
    try:
        records = []
        first_activity = None
        for index, (duration, dispatches, future) in enumerate(rounds):
            slots = dispatches + future + 1
            for _ in range(dispatches):
                if first_activity is None:
                    first_activity = clock.now
                hook.on_dispatch(index, _dispatch_stub())
                clock.advance(duration / slots)
            for _ in range(future):
                if first_activity is None:
                    first_activity = clock.now
                hook.on_dispatch(index + 1, _dispatch_stub())
                clock.advance(duration / slots)
            clock.advance(duration / slots)
            record = _fake_record(index)
            hook.on_round_end(record)
            if first_activity is None:
                first_activity = clock.now
            records.append(record)
    finally:
        hooks_module.time = original_time

    walls = [r.extras["wall_time_s"] for r in records]
    assert all(w >= 0.0 for w in walls)
    assert hook.total_wall_time_s == pytest.approx(sum(walls))
    # the charged intervals tile [first activity, last round end]
    assert sum(walls) == pytest.approx(clock.now - first_activity)
