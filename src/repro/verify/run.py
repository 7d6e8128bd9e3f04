"""The ``repro verify`` entry point: one self-contained conformance run.

Composes the three verification tools into a pass/fail report over a
bench preset:

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
4. **Kill-and-resume** -- for each scheduler, a subprocess run is
   SIGKILLed mid-round, resumed from its latest checkpoint in a fresh
   process, and compared against the uninterrupted reference:
   normalised history byte-for-byte, final weights at 0 ULP (see
   :mod:`repro.verify.resume`).
5. **Service mode** -- a `FedMPService` subprocess on a loopback
   socket, one client subprocess per worker, scripted churn (one
   leave, one join), compared against a serial in-process reference
   over the same roster script; then the same choreography with the
   service SIGKILLed mid-round and resumed on the same port while the
   clients reconnect (see :mod:`repro.verify.service`).

``run_verification`` returns a :class:`VerificationReport`; the CLI
renders it and exits non-zero when any check failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.experiments.setups import make_bench_task, make_devices
from repro.fl.hooks import RoundHook
from repro.fl.runner import run_federated_training
from repro.telemetry import MetricsRegistry, Telemetry, Tracer
from repro.verify.differential import (
    DifferentialReport,
    StateCaptureHook,
    differential_engine_vs_reference,
    differential_serial_vs_process,
    differential_sync_vs_semisync,
)
from repro.verify.errors import (
    DuplicateContributionError,
    EmptyRoundError,
    PoisonedUpdateError,
)
from repro.verify.faults import FaultInjectionHook, FaultSpec
from repro.verify.invariants import InvariantHook

__all__ = ["CheckResult", "VerificationReport", "run_verification"]

#: default ULP tolerance for the sync-vs-semisync comparison: 0, because
#: the aggregator's float64 accumulator makes the reordered float32 sums
#: exact (see DESIGN.md section 3.4); configurable for float64 models
DEFAULT_SEMISYNC_TOLERANCE_ULPS = 0


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


def _invariant_stage(name: str, strategy: str, bench, devices,
                     rounds: int, seed: int) -> CheckResult:
    config = bench.make_config(strategy, max_rounds=rounds, seed=seed,
                               target_metric=None, eval_every=rounds)
    hook = InvariantHook(on_violation="record")
    telemetry = _fresh_telemetry()
    run_federated_training(bench.make_task(0.0), devices, config,
                           hooks=[hook], telemetry=telemetry)
    checks = int(_counter_total(telemetry.metrics,
                                "invariant_checks_total"))
    if hook.violations:
        worst = "; ".join(str(v) for v in hook.violations[:3])
        return CheckResult(name, False,
                           f"{len(hook.violations)} violation(s) in "
                           f"{checks} checks: {worst}")
    if checks == 0:
        return CheckResult(name, False, "no invariant checks ran")
    return CheckResult(name, True,
                       f"{checks} checks over {rounds} rounds, "
                       f"0 violations")


def _differential_stage(name: str,
                        report_factory: Callable[[], DifferentialReport],
                        ) -> CheckResult:
    report = report_factory()
    return CheckResult(name, report.passed, report.describe())


def _fault_stage(name: str, bench, devices, config, specs,
                 expect_error: Optional[type] = None,
                 expect_counts: Optional[Callable[[List[int]], bool]] = None,
                 count_hint: str = "",
                 min_skipped_poison: int = 0) -> CheckResult:
    """Run one fault scenario and assert the documented outcome."""
    hook = FaultInjectionHook(specs)
    counter = _AggregateCountHook()
    capture = StateCaptureHook()
    telemetry = _fresh_telemetry()
    error: Optional[BaseException] = None
    try:
        run_federated_training(bench.make_task(0.0), devices, config,
                               hooks=[hook, counter, capture],
                               telemetry=telemetry)
    except Exception as exc:   # the documented outcome may BE an error
        error = exc

    injected = len(hook.injected)
    if expect_error is not None:
        if error is None:
            return CheckResult(
                name, False,
                f"expected {expect_error.__name__}, but the run completed",
            )
        if not isinstance(error, expect_error):
            return CheckResult(
                name, False,
                f"expected {expect_error.__name__}, "
                f"got {type(error).__name__}: {error}",
            )
        return CheckResult(
            name, True,
            f"{injected} fault(s) injected, round rejected with "
            f"{expect_error.__name__}",
        )

    if error is not None:
        return CheckResult(name, False,
                           f"run failed with {type(error).__name__}: {error}")
    if injected == 0:
        return CheckResult(name, False, "no fault was injected")
    if hook.pending_stale:
        return CheckResult(name, False,
                           f"{hook.pending_stale} stale contribution(s) "
                           f"never landed")
    if expect_counts is not None and not expect_counts(counter.counts):
        return CheckResult(
            name, False,
            f"per-round aggregated-contribution counts {counter.counts} "
            f"violate: {count_hint}",
        )
    skipped = int(_counter_total(telemetry.metrics,
                                 "poisoned_updates_total"))
    if skipped < min_skipped_poison:
        return CheckResult(
            name, False,
            f"expected >= {min_skipped_poison} skipped poisoned update(s), "
            f"telemetry counted {skipped}",
        )
    if capture.states:
        final = capture.states[-1]
        bad = [key for key, value in final.items()
               if not np.isfinite(value).all()]
        if bad:
            return CheckResult(
                name, False,
                f"non-finite values leaked into the final global state "
                f"({bad[:3]})",
            )
    detail = (f"{injected} fault(s) injected, run completed; "
              f"per-round contributions {counter.counts}")
    if min_skipped_poison:
        detail += f"; {skipped} poisoned update(s) skipped and counted"
    return CheckResult(name, True, detail)


def run_verification(preset: str = "cnn", rounds: int = 5,
                     tolerance_ulps: int = 0,
                     semisync_tolerance_ulps: int =
                     DEFAULT_SEMISYNC_TOLERANCE_ULPS,
                     scenario: str = "medium",
                     workers: Optional[int] = None,
                     seed: int = 17,
                     executor: str = "serial",
                     num_procs: Optional[int] = None,
                     service: bool = True) -> VerificationReport:
    """Run the full verification battery on one bench preset.

    ``executor="process"`` adds a fourth stage: a serial-vs-process
    differential run that must be 0-ULP identical in every per-round
    global state *and* byte-identical in the normalised history JSON.
    ``service=False`` skips the loopback-socket service stages (real
    subprocess fleets; the slowest part of the battery).
    """
    if rounds < 2:
        raise ValueError("verification needs at least 2 rounds")
    bench = make_bench_task(preset)
    devices = make_devices(scenario, count=workers)
    worker_ids = sorted(device.device_id for device in devices)
    report = VerificationReport(preset=preset, rounds=rounds)

    # --- stage 1: runtime invariants -------------------------------------
    report.results.append(_invariant_stage(
        "invariants/fedmp", "fedmp", bench, devices, rounds, seed,
    ))
    report.results.append(_invariant_stage(
        "invariants/flexcom", "flexcom", bench, devices, rounds, seed,
    ))

    # --- stage 2: differential runs --------------------------------------
    base = bench.make_config("fedmp", max_rounds=rounds, seed=seed,
                             target_metric=None, eval_every=rounds)
    report.results.append(_differential_stage(
        "differential/engine_vs_reference",
        lambda: differential_engine_vs_reference(
            lambda: bench.make_task(0.0), devices, base,
            tolerance_ulps=tolerance_ulps,
        ),
    ))
    report.results.append(_differential_stage(
        "differential/sync_vs_semisync",
        lambda: differential_sync_vs_semisync(
            lambda: bench.make_task(0.0), devices, base,
            tolerance_ulps=semisync_tolerance_ulps,
        ),
    ))

    # --- stage 3: fault conformance --------------------------------------
    fault_rounds = min(3, rounds)
    fault_config = bench.make_config(
        "fedmp", max_rounds=fault_rounds, seed=seed,
        target_metric=None, eval_every=fault_rounds,
    )
    first, fleet = worker_ids[0], len(worker_ids)

    report.results.append(_fault_stage(
        "fault/drop", bench, devices, fault_config,
        [FaultSpec("drop", 1, first)],
        expect_counts=lambda counts: counts[1] == fleet - 1
        and all(c == fleet for i, c in enumerate(counts) if i != 1),
        count_hint=f"round 1 aggregates {fleet - 1} of {fleet} workers",
    ))
    report.results.append(_fault_stage(
        "fault/drop_all", bench, devices, fault_config,
        [FaultSpec("drop", 1, wid) for wid in worker_ids],
        expect_error=EmptyRoundError,
    ))
    report.results.append(_fault_stage(
        "fault/duplicate", bench, devices, fault_config,
        [FaultSpec("duplicate", 1, first)],
        expect_error=DuplicateContributionError,
    ))
    report.results.append(_fault_stage(
        "fault/poison_raise", bench, devices, fault_config,
        [FaultSpec("poison", 1, first)],
        expect_error=PoisonedUpdateError,
    ))
    skip_config = bench.make_config(
        "fedmp", max_rounds=fault_rounds, seed=seed, target_metric=None,
        eval_every=fault_rounds, nan_policy="skip",
    )
    report.results.append(_fault_stage(
        "fault/poison_skip", bench, devices, skip_config,
        [FaultSpec("poison", 1, first)],
        min_skipped_poison=1,
    ))
    report.results.append(_fault_stage(
        "fault/stale", bench, devices, fault_config,
        [FaultSpec("stale", 0, first, delay_rounds=1)],
        expect_counts=lambda counts: counts[0] == fleet - 1
        and all(c == fleet for i, c in enumerate(counts) if i != 0),
        count_hint=f"round 0 aggregates {fleet - 1} workers, the stale "
                   f"contribution replaces the fresh one in round 1",
    ))
    weighted_config = bench.make_config(
        "fedmp", max_rounds=fault_rounds, seed=seed, target_metric=None,
        eval_every=fault_rounds, sync_scheme="r2sp_weighted",
    )
    report.results.append(_fault_stage(
        "fault/zero_samples", bench, devices, weighted_config,
        [FaultSpec("zero_samples", 1, first)],
        expect_counts=lambda counts: all(c == fleet for c in counts),
        count_hint="the zero-sample contribution stays in the round "
                   "(the weighted aggregator skips it internally)",
    ))

    # --- stage 4: checkpoint / kill-and-resume ----------------------------
    # SIGKILL a subprocess run mid-round, resume it in a fresh process,
    # and demand byte-identical normalised history plus 0-ULP final
    # weights against the uninterrupted reference -- per scheduler.
    # Imported lazily so `python -m repro.verify.resume` does not see
    # the module pre-imported through the package (runpy warning).
    from repro.verify.resume import differential_kill_and_resume

    resume_checks = differential_kill_and_resume(
        preset=preset, scenario=scenario, workers=len(worker_ids),
        rounds=rounds, kill_at=max(1, rounds // 2), seed=seed,
        executor=executor, num_procs=num_procs,
    )
    report.results.append(CheckResult(
        "checkpoint/kill_and_resume",
        all(check.passed for check in resume_checks),
        "; ".join(check.detail for check in resume_checks),
    ))

    # --- stage 5: parallel-runtime parity (opt-in) ------------------------
    if executor == "process":
        diff_report, histories_match = differential_serial_vs_process(
            lambda: bench.make_task(0.0), devices, base,
            tolerance_ulps=tolerance_ulps, num_procs=num_procs,
        )
        report.results.append(CheckResult(
            "differential/serial_vs_process", diff_report.passed,
            diff_report.describe(),
        ))
        report.results.append(CheckResult(
            "history/serial_vs_process_bytes", histories_match,
            "normalised history JSON is byte-identical under both "
            "executors" if histories_match else
            "normalised history JSON DIFFERS between executors",
        ))
    elif executor != "serial":
        raise ValueError(f"unknown executor {executor!r}")

    # --- stage 6: service mode (loopback sockets) -------------------------
    # a served run with scripted churn must equal the serial reference
    # byte-for-byte, even across a SIGKILL-and-resume of the service
    if service:
        from repro.verify.service import differential_serve_loopback

        fleet = min(4, len(worker_ids))
        report.results.append(_service_check(differential_serve_loopback(
            preset=preset, scenario=scenario, workers=fleet,
            rounds=rounds, seed=seed,
        )))
        report.results.append(_service_check(differential_serve_loopback(
            preset=preset, scenario=scenario, workers=fleet,
            rounds=rounds, seed=seed,
            kill_at=min(rounds - 1, rounds // 2 + 1),
        )))

    return report


def _service_check(check) -> CheckResult:
    return CheckResult(check.name, check.passed, check.detail)
