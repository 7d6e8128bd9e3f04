"""One proof harness: a seeded run described once, run in-process or
as `repro` CLI legs, and one comparison.

A :class:`RunSpec` names one seeded run.  :meth:`Harness.reference`
runs it in-process -- its config built by the CLI's own
:func:`repro.cli.prepare_run` from the spec's command line -- and
memoises the outcome, so the run behind several comparisons is
computed once.  Every subprocess leg is the production CLI
(``python -m repro.cli run|serve|client``); the one thing the CLI
cannot do, die by ``SIGKILL`` in ``before_aggregate`` of round K, is
added by the ``python -m repro.verify --kill-at K`` shim.  Every
comparison is the same: a leg's normalised ``--history`` bytes against
the reference's, and its last checkpoint's weights against the
reference's final global state at 0 ULPs.

The served checks run under the sync scheduler: ``--leave-after``
counts completed dispatches, which align with round boundaries only
when every present worker trains exactly once per round.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.cli import build_parser, prepare_run
from repro.experiments.setups import make_devices
from repro.fl.checkpoint import latest_checkpoint, load_checkpoint
from repro.fl.engine import Engine
from repro.fl.hooks import CommVolumeHook, TimingHook
from repro.fl.schedulers import make_scheduler
from repro.verify.differential import (
    UNREACHABLE_DEADLINE_S,
    StateCaptureHook,
    compare_state_sequences,
    normalised_history_bytes,
    normalised_history_file,
)
from repro.verify.oracle import ReferenceEngine

__all__ = ["SCHEDULERS", "Harness", "RunSpec", "churn_roster"]

#: the schedulers every kill-and-resume check covers
SCHEDULERS = ("sync", "async", "semi_sync")

#: a semi-sync deadline short enough to exercise carry-over on the
#: bench device fleets, long enough that every round makes progress
SEMI_SYNC_DEADLINE_S = 20.0

Roster = Tuple[Tuple[int, Tuple[int, ...]], ...]
#: normalised history bytes and the global state after every round
Outcome = Tuple[bytes, List[Dict[str, np.ndarray]]]


@dataclass(frozen=True)
class RunSpec:
    """One seeded FedMP run of a bench preset.

    ``scheduler`` is ``sync``, ``async`` (m = half the fleet),
    ``semi_sync`` (a 20 s deadline) or ``semi_sync_inf`` (a deadline no
    round can miss).  ``executor="reference"`` is the per-member
    :class:`~repro.verify.oracle.ReferenceEngine`, in-process only.  A
    ``served`` run trains through `repro serve`; ``roster`` pins its
    membership as ``((round, worker ids), ...)``, the largest round
    <= the current one applying.  ``kill_at`` SIGKILLs the CLI leg in
    ``before_aggregate`` of that round.
    """

    preset: str = "cnn"
    scenario: str = "medium"
    workers: Optional[int] = None
    rounds: int = 5
    seed: int = 17
    scheduler: str = "sync"
    executor: str = "serial"
    num_procs: Optional[int] = None
    served: bool = False
    roster: Roster = ()
    kill_at: Optional[int] = None

    def argv(self) -> List[str]:
        """The `repro run` (or `repro serve`) command line of this run."""
        argv = ["serve" if self.served else "run", "--task", self.preset,
                "--scenario", self.scenario, "--rounds", str(self.rounds),
                "--seed", str(self.seed)]
        if self.workers is not None:
            argv += ["--workers", str(self.workers)]
        if self.scheduler == "async":
            fleet = len(make_devices(self.scenario, count=self.workers))
            argv += ["--async-m", str(max(1, fleet // 2))]
        elif self.scheduler == "semi_sync":
            argv += ["--deadline-s", str(SEMI_SYNC_DEADLINE_S)]
        elif self.scheduler == "semi_sync_inf":
            argv += ["--deadline-s", str(UNREACHABLE_DEADLINE_S)]
        elif self.scheduler != "sync":
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.executor == "process":
            argv += ["--executor", "process"]
        if self.num_procs is not None:
            argv += ["--num-procs", str(self.num_procs)]
        if self.roster:
            argv += ["--roster-script", json.dumps(
                {str(round_index): list(ids) for round_index, ids in
                 self.roster})]
        return argv


def churn_roster(workers: int, rounds: int) -> Roster:
    """The canonical churn script: one leave and one join mid-run.

    Workers ``0 .. N-2`` are present from round 0; at round
    ``rounds // 2`` worker ``N-2`` leaves and worker ``N-1`` joins.
    Degenerates to a fixed roster for tiny fleets or single rounds.
    """
    if workers < 2 or rounds < 2:
        return ((0, tuple(range(workers))),)
    return ((0, tuple(range(workers - 1))),
            (max(1, rounds // 2),
             tuple(range(workers - 2)) + (workers - 1,)))


def _run_in_process(spec: RunSpec) -> Outcome:
    args = build_parser().parse_args(spec.argv())
    task, devices, config, _, _ = prepare_run(args.task, args.strategy, args)
    capture = StateCaptureHook()
    engine_cls = ReferenceEngine if spec.executor == "reference" else Engine
    engine = engine_cls(task, devices, config,
                        hooks=[TimingHook(), CommVolumeHook(), capture])
    if spec.roster:
        script = dict(spec.roster)
        engine.membership_provider = lambda round_index: list(
            script[max(k for k in script if k <= round_index)])
    try:
        history = make_scheduler(config).run(engine)
    finally:
        engine.close()
    return normalised_history_bytes(history), capture.states


def _compare(reference: Outcome, history: Path,
             checkpoint_dir: Path) -> Tuple[bool, str]:
    """A leg's ``--history`` file and last checkpoint against an
    in-process outcome: identical normalised history bytes, final
    weights at 0 ULPs."""
    ref_bytes, ref_states = reference
    identical = normalised_history_file(history) == ref_bytes
    final = load_checkpoint(latest_checkpoint(checkpoint_dir))
    report = compare_state_sequences(ref_states[-1:],
                                     [final.payload["model_state"]])
    return identical and report.passed, (
        f"history {'identical' if identical else 'DIFFERS'}, "
        f"final weights at {report.max_ulps} ULPs")


class _Legs:
    """The subprocess legs of one check, in one working directory.

    Each leg is ``python -m`` in its own session, with stdout and stderr
    in ``<tag>.log`` -- a file, not a pipe: a leg's pool children
    inherit its stdio, and an inherited pipe would outlive a SIGKILLed
    leg.  Leaving the ``with`` block SIGKILLs every leg's session --
    on pass, fail or timeout -- so no leg, pool child or client
    outlives the check.  The directory is temporary unless
    ``artifact_dir`` is given.
    """

    def __init__(self, artifact_dir: Optional[str], name: str,
                 timeout_s: float) -> None:
        self.timeout_s = timeout_s
        self.procs: Dict[str, subprocess.Popen] = {}
        self._temporary = artifact_dir is None
        if self._temporary:
            self.dir = Path(tempfile.mkdtemp(prefix="repro-verify-"))
        else:
            self.dir = (Path(artifact_dir) / name).resolve()
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir.mkdir(parents=True)

    def __enter__(self) -> "_Legs":
        return self

    def __exit__(self, *exc_info) -> None:
        for proc in self.procs.values():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if self._temporary:
            shutil.rmtree(self.dir, ignore_errors=True)

    def start(self, tag: str, argv: Sequence[str],
              kill_at: Optional[int] = None) -> None:
        """Start ``repro <argv>`` (through the kill-at shim when
        ``kill_at`` is set) as leg ``tag``."""
        entry = (["repro.cli"] if kill_at is None
                 else ["repro.verify", "--kill-at", str(kill_at)])
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        with open(self.dir / f"{tag}.log", "wb") as log:
            self.procs[tag] = subprocess.Popen(
                [sys.executable, "-m", *entry, *argv], env=env,
                stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)

    def serve(self, tag: str, argv: Sequence[str],
              kill_at: Optional[int] = None) -> int:
        """Start a `repro serve` leg and return its port once bound."""
        port_file = self.dir / f"{tag}.port"
        self.start(tag, [*argv, "--port-file", str(port_file)], kill_at)
        deadline = time.monotonic() + 60.0
        while not port_file.exists() or not port_file.stat().st_size:
            if self.procs[tag].poll() is not None \
                    or time.monotonic() > deadline:
                raise TimeoutError(f"{tag} never reported its port; "
                                   f"output: {self.tail(tag)}")
            time.sleep(0.05)
        return int(port_file.read_text())

    def exited(self, tag: str, expected: int = 0) -> Optional[str]:
        """Wait for leg ``tag``: ``None`` when it exits with ``expected``
        (``-SIGKILL`` for a killed leg), otherwise what went wrong."""
        try:
            code = self.procs[tag].wait(timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            raise TimeoutError(
                f"{tag} did not exit within {self.timeout_s:.0f}s; output: "
                f"{self.tail(tag)}") from None
        if code == expected:
            return None
        return (f"{tag} leg exited {code}, expected {expected}; output: "
                f"{self.tail(tag)}")

    def tail(self, tag: str, limit: int = 500) -> str:
        return (self.dir / f"{tag}.log").read_text(errors="replace")[-limit:]


class Harness:
    """Runs :class:`RunSpec`\\ s in-process and as CLI legs.

    In-process outcomes are memoised per spec for the harness's
    lifetime: hooks are observational, so one run serves every
    comparison that needs it.  Checks return ``(passed, detail)``; a
    leg that outlives ``timeout_s`` raises :class:`TimeoutError`.
    """

    def __init__(self, artifact_dir: Optional[str] = None,
                 timeout_s: float = 540.0) -> None:
        self.artifact_dir = artifact_dir
        self.timeout_s = timeout_s
        self._outcomes: Dict[RunSpec, Outcome] = {}

    def _legs(self, name: str) -> _Legs:
        return _Legs(self.artifact_dir, name, self.timeout_s)

    def reference(self, spec: RunSpec) -> Outcome:
        """``spec`` run in-process to completion (no kill), once."""
        spec = replace(spec, kill_at=None)
        if spec not in self._outcomes:
            self._outcomes[spec] = _run_in_process(spec)
        return self._outcomes[spec]

    def kill_and_resume(self, spec: RunSpec) -> Tuple[bool, str]:
        """SIGKILL ``spec``'s `repro run` in ``before_aggregate`` of round
        ``spec.kill_at`` -- after the round's dispatch pricing consumed
        RNG, before any history write -- resume it with ``--resume`` in
        a fresh process, and compare it against the uninterrupted run."""
        name = spec.scheduler
        with self._legs(f"checkpoint/kill_and_resume/{name}") as legs:
            ckpt, history = legs.dir / "ckpt", legs.dir / "history.json"
            legs.start("crash", spec.argv() + ["--checkpoint-dir", str(ckpt)],
                       kill_at=spec.kill_at)
            reference = self.reference(spec)
            failure = legs.exited("crash", -signal.SIGKILL)
            if failure is not None:
                return False, f"{name}: {failure}"
            source = latest_checkpoint(ckpt)
            legs.start("resume", spec.argv() + [
                "--resume", str(ckpt), "--history", str(history)])
            failure = legs.exited("resume")
            if failure is not None:
                return False, f"{name}: {failure}"
            passed, verdict = _compare(reference, history, ckpt)
            return passed, (f"{name}: killed at round {spec.kill_at}, "
                            f"resumed from {source.name}, {verdict}")

    def served(self, spec: RunSpec) -> Tuple[bool, str]:
        """``spec`` as a `repro serve` leg plus one `repro client` leg
        per scripted worker, against the in-process run over the same
        roster script.  With ``kill_at`` the service is SIGKILLed in that
        round and resumed with ``--resume`` on the same port while the
        clients redial (``--reconnect``)."""
        script = dict(spec.roster)
        join_round = max(script)
        leavers = set(script[0]) - set(script[join_round])
        workers = sorted({w for ids in script.values() for w in ids})
        killed = spec.kill_at is not None
        name = "service/kill_and_resume" if killed \
            else "service/loopback_socket"
        with self._legs(name) as legs:
            ckpt, history = legs.dir / "ckpt", legs.dir / "history.json"
            argv = spec.argv() + ["--checkpoint-dir", str(ckpt),
                                  "--history", str(history)]
            port = legs.serve("serve", argv, kill_at=spec.kill_at)
            for wid in workers:
                client = ["client", "--connect", f"127.0.0.1:{port}",
                          "--worker-id", str(wid)]
                if wid in leavers:
                    # one dispatch per present round (sync), so this
                    # departs after round join_round - 1
                    client += ["--leave-after", str(join_round)]
                if killed:
                    client += ["--reconnect", "--reconnect-timeout", "120"]
                legs.start(f"client{wid}", client)
            reference = self.reference(spec)
            failure = legs.exited("serve", -signal.SIGKILL if killed else 0)
            if failure is None and killed:
                legs.serve("resume", argv + ["--resume", str(ckpt),
                                             "--port", str(port)])
                failure = legs.exited("resume")
            for wid in workers:
                failure = failure or legs.exited(f"client{wid}")
            if failure is not None:
                return False, failure
            passed, verdict = _compare(reference, history, ckpt)
            churn = (f"leave@{join_round - 1} join@{join_round}"
                     if leavers else "no churn")
            resumed = (f", SIGKILLed at round {spec.kill_at} and resumed on "
                       f"port {port}" if killed else "")
            return passed, (f"{len(workers)} socket clients, {spec.rounds} "
                            f"rounds, {churn}{resumed}: {verdict}")

    def live_roster_drain(self, spec: RunSpec) -> Tuple[bool, str]:
        """A 4-slot `repro serve` with a live roster: three immediate
        clients (one leaves after two dispatches) and a joiner started
        once round 0 is checkpointed, SIGTERMed once ``spec.rounds``
        rounds are checkpointed, the leave happened and the joiner
        registered.  It must finish the round in flight, write an
        interrupt checkpoint, drain every client and exit 0, as must
        every client."""
        # the round budget is never reached: SIGTERM ends the run
        served = replace(spec, workers=4, rounds=spec.rounds + 1000,
                         served=True, roster=(), kill_at=None)
        with self._legs("service/live_roster_drain") as legs:
            ckpt = legs.dir / "ckpt"

            def wait_for(rounds: int, joins: int, leaves: int = 0) -> None:
                """Until a checkpoint has ``rounds`` rounds, ``joins``
                registrations (a join into a vacated slot counts as a
                reconnect) and ``leaves`` leaves."""
                deadline = time.monotonic() + self.timeout_s
                while True:
                    latest = latest_checkpoint(ckpt)
                    if latest is not None:
                        state = load_checkpoint(latest)
                        counts = state.payload["service"]["counters"]
                        if (state.next_round >= rounds
                                and counts.get("register", 0)
                                + counts.get("reconnect", 0) >= joins
                                and counts.get("leave", 0) >= leaves):
                            return
                    if legs.procs["serve"].poll() is not None \
                            or time.monotonic() > deadline:
                        raise TimeoutError(
                            f"the service stopped or stalled before a "
                            f"checkpoint had {rounds} round(s), {joins} "
                            f"joins and {leaves} leaves; output: "
                            f"{legs.tail('serve')}")
                    time.sleep(0.1)

            port = legs.serve("serve", served.argv() + [
                "--min-workers", "3", "--checkpoint-dir", str(ckpt),
                "--trace-out", str(legs.dir / "serve-trace.jsonl")])
            connect = ["client", "--connect", f"127.0.0.1:{port}"]
            legs.start("client-a", connect)
            legs.start("client-b", connect)
            legs.start("client-leaver", connect + ["--leave-after", "2"])
            wait_for(1, joins=3)
            legs.start("client-late", connect)
            wait_for(spec.rounds, joins=4, leaves=1)
            legs.procs["serve"].send_signal(signal.SIGTERM)
            failure = None
            for tag in list(legs.procs):
                failure = failure or legs.exited(tag)
            if failure is not None:
                return False, failure
            latest = latest_checkpoint(ckpt)
            return True, (f"{len(legs.procs) - 1} socket clients, one leave, "
                          f"one late join: SIGTERM drain after >= "
                          f"{spec.rounds} rounds, interrupt checkpoint "
                          f"{latest.name} (next_round="
                          f"{load_checkpoint(latest).next_round})")
