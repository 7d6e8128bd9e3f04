"""The ``repro verify`` entry point: one declared table of stages.

Every stage is a row of :data:`STAGES` -- its name and the check behind
its verdict -- run in table order over one bench preset:

1. **Invariant runs** -- a FedMP run and a FlexCom run (the latter
   exercises compressed uploads, hence the error-feedback accounting)
   with every :class:`~repro.verify.invariants.InvariantHook` check in
   ``record`` mode.
2. **Differential runs** -- the engine vs the per-member reference
   round with dense aggregation (must be bitwise identical, on
   rng-bearing models too), and sync vs semi-sync with an unreachable
   deadline (equal up to floating-point summation reordering).
3. **Fault conformance** -- every fault kind in
   :data:`~repro.verify.faults.FAULT_KINDS` is injected into a short
   run and the engine's documented behaviour is asserted.
4. **Kill-and-resume** -- for each scheduler, `repro run` is SIGKILLed
   mid-round, resumed with ``--resume`` in a fresh process, and
   compared against the uninterrupted in-process run: normalised
   history byte-for-byte, final weights at 0 ULP; again (sync, async)
   on a 200-worker fleet sampling 4 a round: most workers untouched.
5. **Parallel-runtime parity** (``executor="process"`` only) -- serial
   vs process-pool states at 0 ULP (sync, async and semi-sync: flights
   that outlive a round) and byte-identical history, and an async
   kill-and-resume whose kill lands while flights are in the air.
6. **Service mode** -- `repro serve` plus one `repro client` per
   worker on a loopback socket, scripted churn (one leave, one join),
   against the in-process run over the same roster script; the same
   choreography with the service SIGKILLed mid-round and resumed on
   the same port while the clients reconnect; and a live-roster run
   drained by SIGTERM.

Runs, legs and comparisons go through :mod:`repro.verify.harness`.
``repro verify --stages PREFIX[,...]`` runs the rows whose names start
with a prefix (``checkpoint/`` and ``service/`` are CI's resume and
serve smokes).  ``run_verification`` returns a
:class:`VerificationReport`; the CLI renders it and exits non-zero
when any check failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.setups import make_bench_task, make_devices
from repro.fl.hooks import RoundHook
from repro.fl.runner import run_federated_training
from repro.telemetry import MetricsRegistry, Telemetry, Tracer
from repro.verify.differential import (
    StateCaptureHook,
    compare_state_sequences,
)
from repro.verify.errors import (
    DuplicateContributionError,
    EmptyRoundError,
    PoisonedUpdateError,
)
from repro.verify.faults import FaultInjectionHook, FaultSpec
from repro.verify.harness import SCHEDULERS, Harness, RunSpec, churn_roster
from repro.verify.invariants import InvariantHook

__all__ = ["CheckResult", "STAGES", "Stage", "VerificationReport",
           "run_verification", "select_stages"]


@dataclass
class CheckResult:
    """One verification stage's outcome."""

    name: str
    passed: bool
    detail: str


@dataclass
class VerificationReport:
    """Everything one ``repro verify`` invocation established."""

    preset: str
    rounds: int
    results: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def failures(self) -> List[CheckResult]:
        return [result for result in self.results if not result.passed]

    def describe(self) -> str:
        lines = [f"verification of preset {self.preset!r} "
                 f"({self.rounds} rounds):"]
        for result in self.results:
            mark = "PASS" if result.passed else "FAIL"
            lines.append(f"  [{mark}] {result.name}: {result.detail}")
        verdict = "OK" if self.passed else \
            f"{len(self.failures())} check(s) FAILED"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


class _Battery:
    """What the rows of one ``run_verification`` call share."""

    def __init__(self, spec: RunSpec, executor: str,
                 num_procs: Optional[int], tolerance_ulps: int,
                 artifact_dir: Optional[str]) -> None:
        #: the plain sync run on the serial executor
        self.spec = spec
        #: the same run on the executor under test
        self.parallel = replace(spec, executor=executor, num_procs=num_procs)
        self.tolerance_ulps = tolerance_ulps
        self.harness = Harness(artifact_dir)
        self.bench = make_bench_task(spec.preset)
        self.devices = make_devices(spec.scenario, count=spec.workers)
        worker_ids = sorted(device.device_id for device in self.devices)
        self.first, self.fleet = worker_ids[0], len(worker_ids)
        self.fault_rounds = min(3, spec.rounds)
        fleet = min(4, self.fleet)
        self.service = replace(spec, workers=fleet, served=True,
                               roster=churn_roster(fleet, spec.rounds))

    def one_short(self, round_index: int) -> List[int]:
        """Per-round contribution counts when ``round_index`` aggregates
        one worker fewer than the fleet."""
        counts = [self.fleet] * self.fault_rounds
        counts[round_index] -= 1
        return counts


Check = Callable[[_Battery], Tuple[bool, str]]


@dataclass(frozen=True)
class Stage:
    """One row of the battery: its name and the check behind it."""

    name: str
    check: Check
    process_only: bool = False


class _AggregateCountHook(RoundHook):
    """Record how many contributions each round actually aggregated."""

    def __init__(self) -> None:
        self.counts: List[int] = []

    def on_aggregate(self, round_index, contributions) -> None:
        self.counts.append(len(contributions))


def _fresh_telemetry() -> Telemetry:
    return Telemetry(tracer=Tracer(), metrics=MetricsRegistry(enabled=True))


def _counter_total(metrics: MetricsRegistry, name: str) -> float:
    return sum(c.value for c in metrics.counters if c.name == name)


def _invariants(strategy: str) -> Check:
    def check(b: _Battery) -> Tuple[bool, str]:
        rounds = b.spec.rounds
        config = b.bench.make_config(strategy, max_rounds=rounds,
                                     seed=b.spec.seed, target_metric=None,
                                     eval_every=rounds)
        hook = InvariantHook(on_violation="record")
        telemetry = _fresh_telemetry()
        run_federated_training(b.bench.make_task(0.0), b.devices, config,
                               hooks=[hook], telemetry=telemetry)
        checks = int(_counter_total(telemetry.metrics,
                                    "invariant_checks_total"))
        if hook.violations:
            worst = "; ".join(str(v) for v in hook.violations[:3])
            return False, (f"{len(hook.violations)} violation(s) in "
                           f"{checks} checks: {worst}")
        if checks == 0:
            return False, "no invariant checks ran"
        return True, f"{checks} checks over {rounds} rounds, 0 violations"
    return check


def _differential(label_a: str, label_b: str,
                  candidate: Callable[[_Battery], RunSpec],
                  scheduler: str = "sync") -> Check:
    """The battery's plain run (under ``scheduler``) vs ``candidate``,
    state by state."""
    def check(b: _Battery) -> Tuple[bool, str]:
        _, states_a = b.harness.reference(replace(b.spec,
                                                  scheduler=scheduler))
        _, states_b = b.harness.reference(candidate(b))
        report = compare_state_sequences(
            states_a, states_b, b.tolerance_ulps,
            label_a=label_a, label_b=label_b)
        return report.passed, report.describe()
    return check


def _serial_vs_process(scheduler: str) -> Check:
    return _differential(
        f"serial/{scheduler}", "process",
        lambda b: replace(b.parallel, scheduler=scheduler),
        scheduler=scheduler)


def _history_bytes(b: _Battery) -> Tuple[bool, str]:
    identical = (b.harness.reference(b.spec)[0]
                 == b.harness.reference(b.parallel)[0])
    return identical, (
        "normalised history JSON is byte-identical under both executors"
        if identical else
        "normalised history JSON DIFFERS between executors")


def _fault(faults: Callable[[_Battery], List[FaultSpec]],
           expect_error: Optional[type] = None,
           expect_counts: Optional[Callable[[_Battery], List[int]]] = None,
           min_skipped_poison: int = 0, **config_overrides) -> Check:
    """Run one fault scenario and assert the documented outcome."""
    def check(b: _Battery) -> Tuple[bool, str]:
        config = b.bench.make_config(
            "fedmp", max_rounds=b.fault_rounds, seed=b.spec.seed,
            target_metric=None, eval_every=b.fault_rounds,
            **config_overrides)
        hook = FaultInjectionHook(faults(b))
        counter = _AggregateCountHook()
        capture = StateCaptureHook()
        telemetry = _fresh_telemetry()
        error: Optional[BaseException] = None
        try:
            run_federated_training(b.bench.make_task(0.0), b.devices, config,
                                   hooks=[hook, counter, capture],
                                   telemetry=telemetry)
        except Exception as exc:   # the documented outcome may BE an error
            error = exc

        injected = len(hook.injected)
        if expect_error is not None:
            if error is None:
                return False, (f"expected {expect_error.__name__}, but the "
                               f"run completed")
            if not isinstance(error, expect_error):
                return False, (f"expected {expect_error.__name__}, "
                               f"got {type(error).__name__}: {error}")
            return True, (f"{injected} fault(s) injected, round rejected "
                          f"with {expect_error.__name__}")

        if error is not None:
            return False, f"run failed with {type(error).__name__}: {error}"
        if injected == 0:
            return False, "no fault was injected"
        if hook.pending_stale:
            return False, (f"{hook.pending_stale} stale contribution(s) "
                           f"never landed")
        expected = expect_counts(b) if expect_counts is not None else None
        if expected is not None and counter.counts != expected:
            return False, (f"per-round aggregated-contribution counts "
                           f"{counter.counts}, expected {expected}")
        skipped = int(_counter_total(telemetry.metrics,
                                     "poisoned_updates_total"))
        if skipped < min_skipped_poison:
            return False, (f"expected >= {min_skipped_poison} skipped "
                           f"poisoned update(s), telemetry counted "
                           f"{skipped}")
        if capture.states:
            bad = [key for key, value in capture.states[-1].items()
                   if not np.isfinite(value).all()]
            if bad:
                return False, (f"non-finite values leaked into the final "
                               f"global state ({bad[:3]})")
        detail = (f"{injected} fault(s) injected, run completed; "
                  f"per-round contributions {counter.counts}")
        if min_skipped_poison:
            detail += f"; {skipped} poisoned update(s) skipped and counted"
        return True, detail
    return check


def _kill_and_resume(b: _Battery, stage: str = "checkpoint/kill_and_resume",
                     schedulers: Sequence[str] = SCHEDULERS,
                     **fleet) -> Tuple[bool, str]:
    spec = replace(b.parallel, kill_at=max(1, b.spec.rounds // 2), **fleet)
    checks = [b.harness.kill_and_resume(replace(spec, scheduler=scheduler),
                                        stage)
              for scheduler in schedulers]
    return (all(passed for passed, _ in checks),
            "; ".join(detail for _, detail in checks))


def _served_kill(b: _Battery) -> Tuple[bool, str]:
    rounds = b.spec.rounds
    return b.harness.served(
        replace(b.service, kill_at=min(rounds - 1, rounds // 2 + 1)))


STAGES: Tuple[Stage, ...] = (
    Stage("invariants/fedmp", _invariants("fedmp")),
    Stage("invariants/flexcom", _invariants("flexcom")),
    Stage("differential/engine_vs_reference", _differential(
        "engine", "reference",
        lambda b: replace(b.spec, executor="reference"))),
    Stage("differential/sync_vs_semisync", _differential(
        "sync", "semi_sync_inf",
        lambda b: replace(b.spec, scheduler="semi_sync_inf"))),
    Stage("fault/drop", _fault(
        lambda b: [FaultSpec("drop", 1, b.first)],
        expect_counts=lambda b: b.one_short(1))),
    Stage("fault/drop_all", _fault(
        lambda b: [FaultSpec("drop", 1, device.device_id)
                   for device in b.devices],
        expect_error=EmptyRoundError)),
    Stage("fault/duplicate", _fault(
        lambda b: [FaultSpec("duplicate", 1, b.first)],
        expect_error=DuplicateContributionError)),
    Stage("fault/poison_raise", _fault(
        lambda b: [FaultSpec("poison", 1, b.first)],
        expect_error=PoisonedUpdateError)),
    Stage("fault/poison_skip", _fault(
        lambda b: [FaultSpec("poison", 1, b.first)],
        min_skipped_poison=1, nan_policy="skip")),
    Stage("fault/stale", _fault(
        lambda b: [FaultSpec("stale", 0, b.first, delay_rounds=1)],
        # round 1 counts the late contribution in place of the fresh one
        expect_counts=lambda b: b.one_short(0))),
    Stage("fault/zero_samples", _fault(
        lambda b: [FaultSpec("zero_samples", 1, b.first)],
        # the zero-sample contribution stays in the round: the weighted
        # aggregator skips it internally
        expect_counts=lambda b: [b.fleet] * b.fault_rounds,
        sync_scheme="r2sp_weighted")),
    Stage("checkpoint/kill_and_resume", _kill_and_resume),
    Stage("checkpoint/sampled_fleet_kill_and_resume", lambda b: _kill_and_resume(
        b, "checkpoint/sampled_fleet_kill_and_resume", ("sync", "async"),
        workers=200, clients_per_round=4)),
    Stage("differential/serial_vs_process", _serial_vs_process("sync"),
          process_only=True),
    Stage("differential/serial_vs_process_async",
          _serial_vs_process("async"), process_only=True),
    Stage("differential/serial_vs_process_semi_sync",
          _serial_vs_process("semi_sync"), process_only=True),
    Stage("history/serial_vs_process_bytes", _history_bytes,
          process_only=True),
    # twice the fleet, half of it collected a round: the kill always
    # finds the other half's flights submitted and uncollected
    Stage("checkpoint/async_flights_in_the_air", lambda b: _kill_and_resume(
        b, "checkpoint/async_flights_in_the_air", ("async",),
        workers=2 * b.fleet), process_only=True),
    Stage("service/loopback_socket", lambda b: b.harness.served(b.service)),
    Stage("service/kill_and_resume", _served_kill),
    Stage("service/live_roster_drain",
          lambda b: b.harness.live_roster_drain(b.spec)),
)


def select_stages(prefixes: Optional[Sequence[str]] = None,
                  executor: str = "serial") -> List[Stage]:
    """The rows a run executes, in table order: those whose names start
    with one of ``prefixes`` (all when ``None``), the ``process_only``
    rows only under ``executor="process"``.  A prefix that starts no
    stage name is an error."""
    if executor not in ("serial", "process"):
        raise ValueError(f"unknown executor {executor!r}")
    unknown = [prefix for prefix in prefixes or ()
               if not any(s.name.startswith(prefix) for s in STAGES)]
    if unknown:
        raise ValueError(f"no stage name starts with {', '.join(unknown)} "
                         f"(stages: {', '.join(s.name for s in STAGES)})")
    return [stage for stage in STAGES
            if (executor == "process" or not stage.process_only)
            and (prefixes is None
                 or any(stage.name.startswith(p) for p in prefixes))]


def run_verification(preset: str = "cnn", rounds: int = 5,
                     tolerance_ulps: int = 0,
                     scenario: str = "medium",
                     workers: Optional[int] = None,
                     seed: int = 17,
                     executor: str = "serial",
                     num_procs: Optional[int] = None,
                     stages: Optional[Sequence[str]] = None,
                     artifact_dir: Optional[str] = None,
                     ) -> VerificationReport:
    """Run the verification battery (or the ``stages`` prefixes of it)
    on one bench preset.

    ``executor="process"`` runs the kill-and-resume legs on the process
    pool and adds the serial-vs-process rows.  ``artifact_dir`` keeps
    every subprocess leg's working directory (logs, checkpoints,
    history, trace) under it.
    """
    if rounds < 2:
        raise ValueError("verification needs at least 2 rounds")
    selected = select_stages(stages, executor)
    battery = _Battery(
        RunSpec(preset=preset, scenario=scenario, workers=workers,
                rounds=rounds, seed=seed),
        executor, num_procs, tolerance_ulps, artifact_dir)
    report = VerificationReport(preset=preset, rounds=rounds)
    for stage in selected:
        try:
            passed, detail = stage.check(battery)
        except TimeoutError as exc:   # a stuck leg fails its row only
            passed, detail = False, str(exc)
        report.results.append(CheckResult(stage.name, passed, detail))
    return report
