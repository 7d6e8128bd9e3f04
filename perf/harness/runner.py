"""One pass of one workload: set-up, drive, close, and what was seen.

A *pass* builds the workload's inputs from the seed, constructs the
program (``Engine`` or ``FedMPService``), drives every round and closes
it.  The timed pass attaches only the benchmark's own
:class:`LedgerHook`, with tracing and the metrics registry off; the
traced pass adds the program's ``CommVolumeHook`` and a metrics registry
(the public sources of the counts) and wraps the public callables listed
in :data:`WRAPPED` with a :class:`~harness.spans.Recorder`.
"""

from __future__ import annotations

import math
import resource
import shutil
import signal
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.fl.hooks import CommVolumeHook, RoundHook
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.runtime import Telemetry

from harness.spans import Recorder
from harness.workloads import WARMUP_ROUNDS, Workload, derive_seeds

#: set-ups timed per pass, the driven one included, budget permitting
SETUP_REPEATS = 5


class WorkloadTimeout(BaseException):
    """The pass overran its hard timeout.

    Derives from ``BaseException`` so that no ``except Exception`` in
    the program can swallow it and leave the pass hanging.
    """


@contextmanager
def hard_timeout(seconds: float):
    """Raise :class:`WorkloadTimeout` in the main thread after
    ``seconds``; a blocking wait is interrupted by the signal."""
    def on_alarm(signum, frame):
        raise WorkloadTimeout(f"pass exceeded its {seconds:.0f}s timeout")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class LedgerHook(RoundHook):
    """The benchmark's own round observer: timestamps and counts only."""

    def __init__(self, recorder: Optional[Recorder] = None) -> None:
        self.recorder = recorder
        self.round_ends: List[float] = []
        #: per-round (train_loss, sim_time_s), the determinism digest
        self.digest: List[Tuple[float, float]] = []
        self.accepted = 0

    def on_aggregate(self, round_index, contributions) -> None:
        self.accepted += len(contributions)

    def on_round_end(self, record) -> None:
        self.round_ends.append(time.perf_counter())
        self.digest.append((record.train_loss, record.sim_time_s))
        if self.recorder is not None:
            self.recorder.next_round()


#: span name (= attribute path) -> units of work of one call
WRAPPED = {
    "engine.present_workers": lambda a, k, r: len(r),
    "engine.sample_clients": lambda a, k, r: len(r),
    "engine.dispatch_many": lambda a, k, r: len(r),
    "engine.train_all": lambda a, k, r: len(r),
    "engine.aggregate": lambda a, k, r: len(a[0]),
    "engine.evaluate": lambda a, k, r: int(r[0] is not None),
    "engine.maybe_checkpoint": None,
    "engine.strategy.select_ratios": lambda a, k, r: len(r),
    "engine.strategy.observe_round": None,
    "engine.task.build_plan": lambda a, k, r: 1,
    "engine.task.extract": lambda a, k, r: 1,
    "engine.executor.run": lambda a, k, r: len(a[0]),
    "engine.executor.run_cohort": lambda a, k, r: len(a[0].worker_ids),
}


def install_wrappers(recorder: Recorder, engine) -> None:
    """Wrap every callable in :data:`WRAPPED` on its instance."""
    for name, count in WRAPPED.items():
        owner = engine
        *path, attr = name.split(".")[1:]
        for part in path:
            owner = getattr(owner, part)
        if name == "engine.maybe_checkpoint":
            # a checkpoint pickles the strategy wholesale; its wrappers
            # are closures, so they step aside while the program pickles
            recorder.wrap(
                owner, attr, name, count=count,
                guard=lambda: recorder.suspended(engine.strategy))
        else:
            recorder.wrap(owner, attr, name, count=count)


@dataclass
class PassResult:
    """Everything one pass observed."""

    workload: str
    seed: int
    rounds_planned: int
    traced: bool
    setup_samples: List[float] = field(default_factory=list)
    #: task factory / device fleet / constructor, of the driven set-up
    setup_parts: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    run_wall_s: float = 0.0
    round_walls: List[float] = field(default_factory=list)
    digest: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    accepted: int = 0
    error: Optional[str] = None
    traceback: Optional[str] = None
    final_eval_loss: Optional[float] = None
    sim_time_to_target_s: Optional[float] = None
    #: download + upload params (traced pass only, like the counters)
    params_moved: float = 0.0
    #: the program's counters: (name, labels, value)
    counters: List[Tuple[str, Dict[str, object], float]] = field(
        default_factory=list)
    service_counters: Optional[Dict[str, int]] = None
    peak_rss_mb: float = 0.0
    checks: Dict[str, bool] = field(default_factory=dict)
    recorder: Optional[Recorder] = None

    @property
    def timed_walls(self) -> List[float]:
        return self.round_walls[WARMUP_ROUNDS:]

    @property
    def failed(self) -> int:
        """Operations that did not end in an accepted contribution; a
        failed output check fails every operation the pass attempted."""
        if self.error is not None or not all(self.checks.values()):
            return self.attempted
        return self.attempted - self.accepted

    def counter(self, name: str, **labels) -> float:
        """Sum of the program counter ``name`` over the instruments
        carrying ``labels`` (an absent instrument counts 0)."""
        return sum(
            value for found, found_labels, value in self.counters
            if found == name and all(
                str(found_labels.get(key)) == str(wanted)
                for key, wanted in labels.items()
            )
        )


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its (reaped) children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_pass(workload: Workload, seed: int, rounds: int, *,
             traced: bool, work_dir: Path, timeout_s: float,
             setup_budget_s: float = 0.0,
             check_quality: bool = True) -> PassResult:
    """Run one pass of ``rounds`` timed rounds (warm-up on top).

    After the driven run has closed, the whole set-up (inputs,
    constructor, close) is repeated while ``setup_budget_s`` lasts, so
    ``setup_s`` is a median; a set-up too slow for the budget (the
    100k-worker fleet) is measured once.  Never raises for a failing
    workload: the failure is recorded in the result and every operation
    it covers counts as failed.
    """
    total_rounds = WARMUP_ROUNDS + rounds
    seeds = derive_seeds(seed)
    result = PassResult(
        workload=workload.name, seed=seed, rounds_planned=total_rounds,
        traced=traced,
        attempted=total_rounds * workload.members_per_round,
    )
    recorder = Recorder() if traced else None
    ledger = LedgerHook(recorder)
    volume = CommVolumeHook()
    metrics = MetricsRegistry()
    hooks, telemetry = [ledger], None
    if traced:  # the counting instruments stay out of the timed pass
        hooks, telemetry = [volume, ledger], Telemetry(metrics=metrics)

    def set_up(hooks, telemetry=None):
        start = time.perf_counter()
        task = workload.make_task(seeds.data)
        built_task = time.perf_counter()
        devices = workload.make_devices(seeds.devices)
        built_devices = time.perf_counter()
        config = workload.make_config(
            seeds.config, total_rounds, str(work_dir / "ckpt"))
        built = workload.construct(task, devices, config, hooks, telemetry)
        end = time.perf_counter()
        return built, (built_task - start, built_devices - built_task,
                       end - built_devices)

    session = history = drive_start = None
    try:
        with hard_timeout(timeout_s):
            run_start = time.perf_counter()
            session, result.setup_parts = set_up(hooks, telemetry)
            result.setup_samples.append(sum(result.setup_parts))
            if recorder is not None:
                install_wrappers(recorder, session.engine)
                recorder.start_rounds()
            drive_start = time.perf_counter()
            try:
                history = session.drive()
            finally:
                session.close()
                result.run_wall_s = time.perf_counter() - run_start
                result.peak_rss_mb = peak_rss_mb()
                if recorder is not None:
                    recorder.finish()
                    recorder.restore()
            spent = 0.0
            while (len(result.setup_samples) < SETUP_REPEATS
                   and spent + result.setup_samples[0] <= setup_budget_s):
                rehearsal, parts = set_up([LedgerHook()])
                rehearsal.close()
                result.setup_samples.append(sum(parts))
                spent += sum(parts)
    except WorkloadTimeout as exc:
        result.error = str(exc)
    except Exception as exc:  # the pass boundary: record, never crash
        result.error = f"{type(exc).__name__}: {exc}"
        result.traceback = traceback.format_exc()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result.recorder = recorder
    result.accepted = ledger.accepted
    result.digest = list(ledger.digest)
    result.params_moved = volume.total_params
    result.counters = [
        (counter.name, dict(counter.labels), float(counter.value))
        for counter in metrics.counters
    ]
    if session is not None:
        result.service_counters = session.service_counters
    if ledger.round_ends:
        edges = [drive_start] + ledger.round_ends
        result.round_walls = [
            later - earlier for earlier, later in zip(edges, edges[1:])
        ]
    _fill_outputs(workload, result, history, session, check_quality)
    return result


def _fill_outputs(workload: Workload, result: PassResult, history,
                  session, check_quality: bool) -> None:
    """Quality figures and output checks from the run's history."""
    done = len(history.rounds) if history is not None else 0
    checks = {
        "completed_all_rounds":
            result.error is None and done == result.rounds_planned,
        "finite_train_losses": done > 0 and all(
            math.isfinite(loss) for loss, _ in result.digest),
    }
    if done:
        last = history.rounds[-1]
        result.final_eval_loss = last.eval_loss
        checks["finite_final_eval_loss"] = (
            last.eval_loss is not None and math.isfinite(last.eval_loss))
        if workload.time_to_target is not None:
            result.sim_time_to_target_s = history.time_to_target(
                workload.time_to_target)
        if check_quality and done == result.rounds_planned:
            checks.update(workload.quality_checks(history, session))
    result.checks = checks
