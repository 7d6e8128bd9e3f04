"""InvariantHook: clean runs pass every check, corruption is caught."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.bandit.eucb import EUCBAgent
from repro.fl.hooks import RoundHook
from repro.fl.runner import run_federated_training
from repro.pruning.plan import LayerPrune, PruningPlan
from repro.telemetry import MetricsRegistry, Telemetry, Tracer
from repro.verify import ALL_CHECKS, InvariantHook, InvariantViolation


def _telemetry() -> Telemetry:
    return Telemetry(tracer=Tracer(), metrics=MetricsRegistry(enabled=True))


def _checks_by_kind(metrics: MetricsRegistry, name: str) -> dict:
    return {
        counter.labels["check"]: counter.value
        for counter in metrics.counters if counter.name == name
    }


def _stub_engine() -> SimpleNamespace:
    """Just enough engine surface for unit-level invariant checks."""
    return SimpleNamespace(telemetry=_telemetry())


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def test_rejects_unknown_violation_mode():
    with pytest.raises(ValueError, match="on_violation"):
        InvariantHook(on_violation="warn")


def test_rejects_unknown_check_names():
    with pytest.raises(ValueError, match="unknown checks"):
        InvariantHook(checks=("mass", "vibes"))


# ----------------------------------------------------------------------
# clean end-to-end runs
# ----------------------------------------------------------------------
def test_clean_fedmp_run_passes_all_checks(bench, fleet, short_config):
    hook = InvariantHook(on_violation="record")
    telemetry = _telemetry()
    run_federated_training(bench.make_task(0.0), fleet,
                           short_config("fedmp"),
                           hooks=[hook], telemetry=telemetry)
    assert hook.violations == []
    assert hook.checks_run > 0
    by_kind = _checks_by_kind(telemetry.metrics, "invariant_checks_total")
    # FedMP dispatches pruned sub-models and runs the bandit every round
    for kind in ("plan", "shapes", "mass", "bandit"):
        assert by_kind.get(kind, 0) > 0, f"{kind} check never ran"
    assert sum(by_kind.values()) == hook.checks_run
    assert not _checks_by_kind(telemetry.metrics,
                               "invariant_violations_total")


def test_clean_flexcom_run_checks_error_feedback(bench, fleet, short_config):
    hook = InvariantHook(on_violation="record")
    telemetry = _telemetry()
    run_federated_training(bench.make_task(0.0), fleet,
                           short_config("flexcom"),
                           hooks=[hook], telemetry=telemetry)
    assert hook.violations == []
    by_kind = _checks_by_kind(telemetry.metrics, "invariant_checks_total")
    # FlexCom compresses uploads, so the mass-accounting check engages
    assert by_kind.get("error_feedback", 0) > 0


# ----------------------------------------------------------------------
# corruption is caught
# ----------------------------------------------------------------------
class _CorruptGlobalState(RoundHook):
    """Perturb the aggregated global model before the invariant hook
    sees it (hooks run in list order)."""

    def attach(self, engine) -> None:
        self._engine = engine

    def on_aggregate(self, round_index, contributions) -> None:
        state = self._engine.global_state
        key = sorted(state)[0]
        state[key] = state[key] + np.float32(1e-3)
        self._engine.model.load_state_dict(state)


def test_mass_violation_recorded_on_corrupted_global_state(
        bench, fleet, short_config):
    hook = InvariantHook(on_violation="record", checks=("mass",))
    run_federated_training(bench.make_task(0.0), fleet,
                           short_config("fedmp"),
                           hooks=[_CorruptGlobalState(), hook],
                           telemetry=_telemetry())
    assert hook.violations
    assert all(v.check == "mass" for v in hook.violations)
    first = hook.violations[0]
    assert first.round_index == 0
    assert "ULPs" in str(first)


def test_mass_violation_raises_by_default(bench, fleet, short_config):
    hook = InvariantHook(checks=("mass",))
    with pytest.raises(InvariantViolation, match="invariant 'mass'"):
        run_federated_training(bench.make_task(0.0), fleet,
                               short_config("fedmp"),
                               hooks=[_CorruptGlobalState(), hook],
                               telemetry=_telemetry())


# ----------------------------------------------------------------------
# plan well-formedness (unit level)
# ----------------------------------------------------------------------
def _plan_with(kept_out, out_full=6, ratio=0.5) -> PruningPlan:
    plan = PruningPlan(ratio=ratio)
    plan.add("fc", LayerPrune(
        kind="linear",
        kept_out=np.asarray(kept_out, dtype=np.intp), out_full=out_full,
        kept_in=None, in_full=None,
    ))
    return plan


def _record_plan_check(plan: PruningPlan) -> InvariantHook:
    hook = InvariantHook(on_violation="record", checks=("plan",))
    hook.attach(_stub_engine())
    hook.on_dispatch(0, SimpleNamespace(plan=plan, worker_id=0))
    return hook


def test_plan_unsorted_indices_detected():
    hook = _record_plan_check(_plan_with([3, 1, 0]))
    assert any("strictly increasing" in str(v) for v in hook.violations)


def test_plan_out_of_range_indices_detected():
    hook = _record_plan_check(_plan_with([2, 6]))
    assert any("out of range" in str(v) for v in hook.violations)


def test_plan_wrong_keep_count_detected():
    # ratio 0.5 over 6 outputs keeps 3; keeping 2 is neither that nor
    # the whole layer
    hook = _record_plan_check(_plan_with([1, 4]))
    assert any("keep_count" in str(v) for v in hook.violations)


def test_plan_keep_count_accepts_protected_layers():
    hook = _record_plan_check(_plan_with([0, 1, 2, 3, 4, 5]))
    assert hook.violations == []


# ----------------------------------------------------------------------
# bandit statistics integrity
# ----------------------------------------------------------------------
def _played_agent(plays: int = 12) -> EUCBAgent:
    agent = EUCBAgent(rng=np.random.default_rng(3))
    for step in range(plays):
        agent.select_ratio()
        agent.observe(float(np.sin(step)))
    return agent


def test_consistency_report_clean_agent():
    assert _played_agent().consistency_report() == []


def test_consistency_report_detects_corrupted_stats():
    agent = _played_agent()
    stats = next(s for s in agent._stats.values() if s.disc_count > 0)
    stats.disc_count *= 1.5
    problems = agent.consistency_report()
    assert problems
    assert any("drift" in problem for problem in problems)


def test_bandit_check_flags_corrupted_agent_via_hook():
    agent = _played_agent()
    next(s for s in agent._stats.values() if s.disc_count > 0).disc_raw_sum += 7.0
    engine = _stub_engine()
    engine.strategy = SimpleNamespace(agents={4: agent})
    hook = InvariantHook(on_violation="record", checks=("bandit",))
    hook.attach(engine)
    hook.on_round_end(SimpleNamespace(round_index=5))
    assert hook.violations
    violation = hook.violations[0]
    assert violation.check == "bandit"
    assert violation.round_index == 5
    assert "worker 4" in str(violation)


def test_bandit_check_skips_non_bandit_strategies():
    engine = _stub_engine()
    engine.strategy = SimpleNamespace()   # no .agents attribute
    hook = InvariantHook(on_violation="record", checks=("bandit",))
    hook.attach(engine)
    hook.on_round_end(SimpleNamespace(round_index=0))
    assert hook.checks_run == 0
    assert hook.violations == []


def test_all_checks_is_the_default():
    assert InvariantHook().checks == ALL_CHECKS
