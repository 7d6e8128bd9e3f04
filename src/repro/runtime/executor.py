"""The engine's execution seam: in-process or remote training.

Schedulers hand the engine a batch of dispatches; the engine hands
them to the executor at dispatch (:meth:`Executor.submit`) and collects
them, one :class:`CohortTrainRequest` per cohort, as a whole round
(:meth:`Executor.run_round`).  :class:`SerialExecutor` trains at
collect, in process, a round's independent flights side by side on
threads (bitwise as one after another).
:class:`RemoteExecutor` encodes each member with the wire codec, hands
the frames to a *link* -- the work queue of a persistent
:class:`~repro.runtime.pool.ProcessPool` (from dispatch on), or the
pull pump of a :class:`~repro.serve.service.FedMPService` (a cohort at
a time) -- gathers the contribution frames, and decodes them, with
``serialize`` / ``transfer`` / ``parallel_train`` spans and
``wire_bytes_total`` / ``retries_total`` / ``stragglers_total`` /
``flights_ready_at_collect_total`` counters.

Both executors return the same :class:`TrainResult` list in submission
order, and both are bitwise-identical to each other: the receiver
derives the sub-model from its own skeleton and the frame's plan, state
and RNG record (:func:`repro.runtime.pool.derive_submodel`), the
worker's data stream rides in the frame and comes back advanced (and
is committed when the reply is collected), and trained states travel
back as exact ``float32`` payloads.
"""

from __future__ import annotations

import copy
import ctypes
import itertools
import os
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.loader import BatchIterator
from repro.nn import functional as F
from repro.nn.batched import train_cohort
from repro.nn.module import Module
from repro.pruning.plan import plan_signature_digest
from repro.runtime.codec import (
    WIRE_PROFILES,
    TrainHyper,
    decode_contribution,
    encode_dispatch,
)
from repro.runtime.pool import InFlight, LazyFleet, ProcessPool
from repro.runtime.transport import StragglerDetector, TransportError
from repro.telemetry.runtime import DISABLED_TELEMETRY, Telemetry

__all__ = [
    "TrainRequest",
    "TrainResult",
    "CohortTrainRequest",
    "Executor",
    "SerialExecutor",
    "RemoteExecutor",
    "make_executor",
]


@dataclass
class TrainRequest:
    """One unit of local training, as the executor sees it."""

    worker_id: int
    ratio: float
    tau: int
    plan: object
    #: the template the member's model is cloned from (only read)
    submodel: object
    dispatched_state: Dict[str, np.ndarray]
    hyper: TrainHyper
    #: simulated finish time (orders a work queue)
    finish_s: float = 0.0


@dataclass
class TrainResult:
    """One unit of finished local training."""

    worker_id: int
    sub_state: Dict[str, np.ndarray]
    train_loss: float
    wall_time_s: float = 0.0


@dataclass
class CohortTrainRequest:
    """One cohort's worth of local training (see ``repro.fl.cohort``).

    The shared template/state/plan live on ``cohort``; per-member
    scalars ride alongside, aligned with ``worker_ids``.
    """

    cohort: object
    worker_ids: List[int]
    taus: List[int]
    hyper: TrainHyper
    finish_s: List[float] = field(default_factory=list)


class Executor:
    """Runs batches of training requests; returns results in order."""

    name = "base"

    def __init__(self, workers: Optional[LazyFleet] = None) -> None:
        #: worker ids the straggler heartbeat flagged in the most
        #: recent batch (always empty for serial execution)
        self.last_stragglers: List[int] = []
        #: the fleet whose streams training advances (set by the engine)
        self.workers = workers

    def submit(self, requests: Sequence[CohortTrainRequest],
               round_index: int = 0) -> None:
        """New cohorts at dispatch, collected later by :meth:`run_round`
        (the base route trains at collect: nothing to do yet)."""

    def run(self, requests: Sequence[TrainRequest],
            round_index: int = 0) -> List[TrainResult]:
        raise NotImplementedError

    def run_cohort(self, request: CohortTrainRequest,
                   round_index: int = 0) -> List[TrainResult]:
        """Train one cohort; results align with ``request.worker_ids``.

        The base route decomposes the cohort into per-member
        :class:`TrainRequest` records and delegates to :meth:`run`.
        Subclasses may override with a genuinely cohort-level execution
        (see :meth:`SerialExecutor.run_cohort`).
        """
        return self.run(self._decompose(request), round_index)

    def run_round(self, requests: Sequence[CohortTrainRequest],
                  round_index: int = 0) -> List[List[TrainResult]]:
        """Train every cohort of one round: the engine's only entry
        point.  One result list per request, each aligned with its
        ``worker_ids``.  The base route is :meth:`run_cohort` per
        request, in order."""
        return [self.run_cohort(request, round_index)
                for request in requests]

    @staticmethod
    def _decompose(request: CohortTrainRequest) -> List[TrainRequest]:
        """Per-member requests of one cohort, each pointing at the
        shared template, which a request's trainer only reads."""
        cohort = request.cohort
        zeros = [0.0] * len(request.worker_ids)
        return [
            TrainRequest(
                worker_id=worker_id, ratio=cohort.ratio, tau=tau,
                plan=cohort.plan, submodel=cohort.template,
                dispatched_state=cohort.dispatched_state,
                hyper=request.hyper, finish_s=finish_s,
            )
            for worker_id, tau, finish_s in zip(
                request.worker_ids, request.taus, request.finish_s or zeros,
            )
        ]

    def close(self) -> None:
        """Release executor resources (no-op by default)."""


#: glibc's ``mallopt`` (None where the C library has none)
_MALLOPT = getattr(ctypes.CDLL(None), "mallopt", None)


def flight_threads() -> int:
    """Threads a round's flights may train on: this process's CPUs over
    each BLAS call's threads; 1 (the plain loop) without an OpenBLAS."""
    blas = F.openblas_threads()
    return 1 if blas is None else max(1, len(os.sched_getaffinity(0)) // blas)


def _fan_out(flights: Sequence[Callable[[], object]],
             threads: int) -> List[object]:
    """Results of ``flights`` in order, run on this thread and
    ``threads - 1`` more started and joined here.  Once one raises no
    other starts; the first error in submission order is raised when
    the started ones have finished."""
    if threads <= 1:
        return [flight() for flight in flights]
    # one malloc arena for every thread: per-thread arenas keep what a
    # flight freed and grow peak RSS (DESIGN.md 3.5.1)
    if _MALLOPT is not None:
        _MALLOPT(-8, 1)  # M_ARENA_MAX
    results: List[object] = [None] * len(flights)
    errors: Dict[int, BaseException] = {}
    claims = itertools.count()

    def drain() -> None:
        while not errors:
            index = next(claims)
            if index >= len(flights):
                return
            try:
                results[index] = flights[index]()
            except BaseException as error:
                errors[index] = error

    helpers = [threading.Thread(target=drain, daemon=True)
               for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results


class SerialExecutor(Executor):
    """In-process execution on the parent's workers (the default; the
    name stays because configs and checkpoints carry it).  A round's
    *flights* -- each member of a per-member cohort, each member slice
    of a stacked cohort -- train side by side on :func:`flight_threads`
    threads, bitwise as one after another; worker lookups, spans and
    counters stay on the calling thread (DESIGN.md 3.5.1)."""

    name = "serial"

    def __init__(self, workers: Dict[int, object],
                 telemetry: Optional[Telemetry] = None) -> None:
        super().__init__(workers)
        self.telemetry = (
            telemetry if telemetry is not None else DISABLED_TELEMETRY
        )

    def run(self, requests: Sequence[TrainRequest],
            round_index: int = 0) -> List[TrainResult]:
        """Train each request on its own clone of the template, as
        flights; one ``local_train`` span per request once all landed,
        with the flight's own seconds as ``worker_wall_s``."""
        profiler = self.telemetry.profiler
        profiled = [profiler is not None and profiler.matches(r.worker_id)
                    for r in requests]
        flights = [
            partial(self._execute, request, self.workers[request.worker_id],
                    profiler if profile else None)
            for request, profile in zip(requests, profiled)
        ]
        # the profiler's one table is written by one flight at a time
        results = _fan_out(flights, 1 if sum(profiled) > 1
                           else min(flight_threads(), len(flights)))
        for request, result in zip(requests, results):
            with self.telemetry.span("local_train", round=round_index,
                                     worker=request.worker_id,
                                     tau=request.tau,
                                     ratio=request.ratio) as span:
                span.set("train_loss", float(result.train_loss))
                span.set("worker_wall_s", result.wall_time_s)
        return results

    def run_round(self, requests: Sequence[CohortTrainRequest],
                  round_index: int = 0) -> List[List[TrainResult]]:
        """Every per-member cohort's members through one :meth:`run`,
        then each stacked cohort through :meth:`run_cohort`; results in
        request order."""
        stacked = [self._vectorisable(request) for request in requests]
        members = iter(self._run_members(
            [r for r, vector in zip(requests, stacked) if not vector],
            round_index))
        return [self.run_cohort(request, round_index) if vector
                else next(members)
                for request, vector in zip(requests, stacked)]

    def _run_members(self, requests: Sequence[CohortTrainRequest],
                     round_index: int) -> List[List[TrainResult]]:
        """Per-member cohorts, trained through one :meth:`run` call."""
        if not requests:
            return []
        results = iter(self.run(
            [member for request in requests
             for member in self._decompose(request)], round_index))
        metrics = self.telemetry.metrics
        batches = []
        for request in requests:
            batch = [next(results) for _ in request.worker_ids]
            metrics.counter("cohort_train_fallback_total").inc(len(batch))
            metrics.histogram("cohort_train_s", path="fallback").observe(
                sum(result.wall_time_s for result in batch))
            batches.append(batch)
        return batches

    def run_cohort(self, request: CohortTrainRequest,
                   round_index: int = 0) -> List[TrainResult]:
        """Train one cohort, stacked into a single batched pass per
        member slice when the architecture and request allow it (one
        forward/backward per step for the slice instead of per member;
        bitwise-identical, see :mod:`repro.nn.batched`).  Ineligible
        cohorts fall back to the per-member decomposition.
        """
        if not self._vectorisable(request):
            return self._run_members([request], round_index)[0]

        cohort = request.cohort
        hyper = request.hyper
        tau = request.taus[0]
        iterators = [
            self.workers[worker_id].iterator
            for worker_id in request.worker_ids
        ]
        threads = min(flight_threads(), len(iterators))
        bounds = [len(iterators) * k // threads for k in range(threads + 1)]
        with self.telemetry.span(
            "cohort_train", round=round_index, ratio=cohort.ratio,
            cluster=cohort.cluster, members=len(request.worker_ids),
            tau=tau,
        ) as span:
            if self.telemetry.tracer.enabled:
                span.set("path", "vectorised")
                span.set("plan_sig", plan_signature_digest(cohort.plan))
            start = time.perf_counter()
            slices = _fan_out([
                partial(train_cohort, cohort.template,
                        cohort.dispatched_state, iterators[lo:hi], tau,
                        lr=hyper.lr, momentum=hyper.momentum,
                        weight_decay=hyper.weight_decay,
                        prox_mu=hyper.prox_mu, clip_norm=hyper.clip_norm,
                        anchor=cohort.dispatched_state)
                for lo, hi in zip(bounds, bounds[1:])
            ], threads)
            states = [state for part, _ in slices for state in part]
            losses = [loss for _, part in slices for loss in part]
            elapsed = time.perf_counter() - start
            span.set("mean_train_loss",
                     float(sum(losses) / len(losses)))
        self.telemetry.metrics.counter(
            "cohort_train_vectorised_total",
        ).inc(len(request.worker_ids))
        self.telemetry.metrics.histogram(
            "cohort_train_s", path="vectorised",
        ).observe(elapsed)
        per_member = elapsed / len(request.worker_ids)
        return [
            TrainResult(worker_id=worker_id, sub_state=state,
                        train_loss=float(loss), wall_time_s=per_member)
            for worker_id, state, loss in zip(
                request.worker_ids, states, losses
            )
        ]

    def _vectorisable(self, request: CohortTrainRequest) -> bool:
        """The stacked path needs >=2 members, a supported architecture,
        uniform tau, no attached profiler
        (it instruments per-member modules), and plain equal-batch
        :class:`~repro.data.loader.BatchIterator` shards."""
        cohort = request.cohort
        if len(request.worker_ids) < 2 or not cohort.supports_vectorised:
            return False
        if len(set(request.taus)) != 1:
            return False
        if self.telemetry.profiler is not None:
            return False
        iterators = [
            self.workers[worker_id].iterator
            for worker_id in request.worker_ids
        ]
        if any(type(it) is not BatchIterator for it in iterators):
            return False
        return len({it.batch_size for it in iterators}) == 1

    @staticmethod
    def _execute(request: TrainRequest, worker,
                 profiler=None) -> TrainResult:
        """One member's flight: a clone of the template (generator states
        included) trained, and dropped once its state is taken."""
        model = copy.deepcopy(request.submodel)
        model.load_state_dict(request.dispatched_state)
        hyper = request.hyper
        start = time.perf_counter()
        with profiler.attach(model) if profiler is not None \
                else nullcontext():
            train_loss = worker.local_train(
                model, tau=request.tau, lr=hyper.lr,
                momentum=hyper.momentum, weight_decay=hyper.weight_decay,
                prox_mu=hyper.prox_mu, clip_norm=hyper.clip_norm,
                anchor=request.dispatched_state,
            )
        return TrainResult(
            worker_id=request.worker_id,
            sub_state=model.state_dict(),
            train_loss=float(train_loss),
            wall_time_s=time.perf_counter() - start,
        )


class RemoteExecutor(Executor):
    """Training on remote receivers, behind the wire codec.

    Owns everything about a remote round exactly once: serialize ->
    gather -> decode / validate / materialise / commit -> straggler
    flagging, with the spans and counters that go with them.  How bytes
    reach the receivers is the ``link``'s business -- it supplies
    ``name``, ``parallelism``, ``busy_s`` (receiver-seconds spent so
    far), ``wave_cohorts`` (cohorts per collect-time wave; ``None``:
    flights go out at dispatch, through ``submit(flights)`` /
    ``cancel(flight)``), ``gather(flights)`` (fill in every
    :class:`~repro.runtime.pool.InFlight` reply, waiting in
    :meth:`~repro.runtime.transport.RetryClock.wait_until` under its own
    retry policy; return each worker's seconds from send to reply) and
    ``close()``.

    A dispatch frame is all a receiver needs: it derives the sub-model
    from its skeleton and the frame's plan, state and RNG record, and
    -- once an engine has given the executor its fleet -- trains from
    the worker's stream record, whose advanced copy :meth:`run` commits
    on collect (a flight never collected changes nothing).

    ``wire_profile`` selects how receivers encode contributions:
    ``exact`` (dense float32, bitwise parity), ``sparse`` (top-k moved
    positions, exact at shipped positions) or ``sparse+quantized``
    (top-k quantized deltas).  The profile rides in the dispatch frame
    flags and replies are validated against it.
    """

    def __init__(self, link, telemetry: Optional[Telemetry] = None,
                 straggler_quorum: float = 0.85,
                 straggler_multiplier: float = 1.5,
                 wire_profile: str = "exact",
                 wire_keep_fraction: float = 0.25,
                 wire_quantize_bits: int = 8) -> None:
        super().__init__()
        if wire_profile not in WIRE_PROFILES:
            raise ValueError(
                f"wire_profile must be one of {WIRE_PROFILES}, "
                f"got {wire_profile!r}"
            )
        self.link = link
        self.name = link.name
        self.telemetry = (
            telemetry if telemetry is not None else DISABLED_TELEMETRY
        )
        self.wire_profile = wire_profile
        self.wire_keep_fraction = wire_keep_fraction
        self.wire_quantize_bits = wire_quantize_bits
        self.detector = StragglerDetector(straggler_quorum,
                                          straggler_multiplier)
        #: worker id -> (request, flight) submitted at dispatch
        self._flights: Dict[int, Tuple[TrainRequest, InFlight]] = {}
        #: (wall clock, link busy seconds) at the last occupancy sample
        self._window = (time.perf_counter(), 0.0)

    @classmethod
    def from_config(cls, link, config,
                    telemetry: Optional[Telemetry] = None,
                    ) -> "RemoteExecutor":
        """The executor a run configuration implies, over ``link``."""
        quorum = config.deadline_quorum
        return cls(
            link, telemetry=telemetry,
            straggler_quorum=0.85 if quorum is None else quorum,
            straggler_multiplier=config.deadline_multiplier,
            wire_profile=config.wire_profile,
            wire_keep_fraction=config.wire_keep_fraction,
            wire_quantize_bits=config.wire_quantize_bits,
        )

    def _encode(self, request: TrainRequest) -> InFlight:
        negotiated = self.wire_profile != "exact"
        frame = encode_dispatch(
            request.worker_id, request.plan, request.dispatched_state,
            tau=request.tau, hyper=request.hyper,
            reply_profile=self.wire_profile,
            reply_keep_fraction=(
                self.wire_keep_fraction if negotiated else None
            ),
            reply_quantize_bits=(
                self.wire_quantize_bits if negotiated else None
            ),
            module_rngs=request.submodel.rng_states(),
            stream=(self.workers[request.worker_id].stream()
                    if self.workers is not None else None),
        )
        self.telemetry.metrics.counter("wire_bytes_total",
                                       kind="dispatch").inc(len(frame))
        return InFlight(request.worker_id, frame, finish_s=request.finish_s)

    def _sample_busy_share(self) -> float:
        """Receiver-seconds in use over receiver-seconds offered since
        the previous collect (a round, on the pool): idle time between
        collects counts too."""
        now, busy = time.perf_counter(), self.link.busy_s
        then, busy_then = self._window
        self._window = (now, busy)
        return (busy - busy_then) / (
            max(self.link.parallelism, 1) * max(now - then, 1e-9))

    def submit(self, requests: Sequence[CohortTrainRequest],
               round_index: int = 0) -> None:
        """Encode and queue new cohorts' members if the link takes
        flights at dispatch; each replaces its worker's uncollected one
        (a dispatch the scheduler discarded)."""
        if self.link.wave_cohorts is not None or not requests:
            return
        with self.telemetry.span("serialize", round=round_index):
            for request in requests:
                for member in self._decompose(request):
                    if member.worker_id in self._flights:
                        self.link.cancel(self._flights[member.worker_id][1])
                    flight = self._encode(member)
                    self._flights[member.worker_id] = (member, flight)
                    self.link.submit([flight])  # children start at once

    def _take(self, request: TrainRequest) -> InFlight:
        """The flight submitted for ``request`` at dispatch, or a new
        one if there is none or it was for other work."""
        submitted, flight = self._flights.pop(request.worker_id,
                                              (None, None))
        if submitted is not None \
                and submitted.dispatched_state is request.dispatched_state \
                and submitted.submodel is request.submodel \
                and (submitted.tau, submitted.hyper) \
                == (request.tau, request.hyper):
            return flight
        if flight is not None:
            self.link.cancel(flight)
        return self._encode(request)

    def run(self, requests: Sequence[TrainRequest],
            round_index: int = 0) -> List[TrainResult]:
        self.last_stragglers = []
        if not requests:
            return []
        telemetry = self.telemetry
        metrics = telemetry.metrics
        profile = self.wire_profile
        with telemetry.span("parallel_train", round=round_index,
                            requests=len(requests),
                            procs=self.link.parallelism) as batch_span:
            # -- serialize (what dispatch did not) ----------------------
            with telemetry.span("serialize", round=round_index,
                                requests=len(requests)):
                flights = [self._take(request) for request in requests]
            ready = sum(flight.reply is not None for flight in flights)
            metrics.counter("flights_ready_at_collect_total",
                            executor=self.name).inc(ready)

            # -- transfer + gather --------------------------------------
            with telemetry.span("transfer", round=round_index,
                                requests=len(requests)) as transfer_span:
                completion_s = self.link.gather(flights)
                busy_share = self._sample_busy_share()
                metrics.gauge("pool_busy_share",
                              executor=self.name).set(busy_share)
                transfer_span.set("pool_busy_share", busy_share)
                transfer_span.set("ready_at_collect", ready)
                reply_bytes = sum(len(flight.reply) for flight in flights)
                metrics.counter("wire_bytes_total",
                                kind="contribution").inc(reply_bytes)
                transfer_span.set("reply_bytes", reply_bytes)

            # -- decode + commit + per-request spans --------------------
            results = []
            for request, flight in zip(requests, flights):
                payload = decode_contribution(flight.reply,
                                              expect_profile=profile)
                flight.reply = None  # a wave's replies are not held twice
                worker_id, stream = request.worker_id, payload.stream
                if payload.worker_id != worker_id or (
                        self.workers is not None and (
                            stream is None or stream.worker_id != worker_id)):
                    raise TransportError(
                        f"a reply for worker {worker_id} carries worker "
                        f"{payload.worker_id}, stream "
                        f"{stream and stream.worker_id}")
                if self.workers is not None:
                    self.workers[worker_id].load_stream(stream)
                with telemetry.span("local_train", round=round_index,
                                    worker=worker_id, tau=request.tau,
                                    ratio=request.ratio) as span:
                    span.set("train_loss", float(payload.train_loss))
                    span.set("worker_wall_s", float(payload.wall_time_s))
                results.append(TrainResult(
                    worker_id=worker_id,
                    sub_state=payload.materialise(
                        request.dispatched_state
                    ),
                    train_loss=float(payload.train_loss),
                    wall_time_s=float(payload.wall_time_s),
                ))

            # -- straggler heartbeat ------------------------------------
            flagged = sorted(self.detector.flag(completion_s))
            if flagged:
                self.last_stragglers = flagged
                metrics.counter("stragglers_total",
                                executor=self.name).inc(len(flagged))
                telemetry.event("straggler_detected", round=round_index,
                                workers=flagged)
                batch_span.set("stragglers", flagged)
        return results

    def run_round(self, requests: Sequence[CohortTrainRequest],
                  round_index: int = 0) -> List[List[TrainResult]]:
        """Collect the round's members through :meth:`run` in *waves* of
        ``link.wave_cohorts`` cohorts (``None``: the whole round), one
        ``gather`` each, encoded straight from each cohort's shared
        plan, state and generator record (no template clone) unless
        :meth:`submit` already sent them.  Results keep request order
        whatever the wave size: each worker has at most one dispatch in
        flight, and its stream advances once per collected flight, in
        collect order -- exactly as training at collect would.
        """
        per_wave = self.link.wave_cohorts or len(requests) or 1
        batches: List[List[TrainResult]] = []
        for start in range(0, len(requests), per_wave):
            wave = requests[start:start + per_wave]
            results = iter(self.run([
                member for request in wave
                for member in self._decompose(request)
            ], round_index))
            batches.extend(
                [next(results) for _ in request.worker_ids]
                for request in wave
            )
        return batches

    def close(self) -> None:
        self._flights.clear()
        self.link.close()

def make_executor(config, *, workers: LazyFleet,
                  telemetry: Optional[Telemetry] = None,
                  skeleton: Optional[Module] = None) -> Executor:
    """Build the executor ``config.executor`` names (``skeleton`` is
    what pool children derive dispatched sub-models from)."""
    kind = getattr(config, "executor", "serial")
    if kind == "serial":
        return SerialExecutor(workers, telemetry=telemetry)
    if kind == "process":
        bundle = telemetry if telemetry is not None else DISABLED_TELEMETRY
        if bundle.profiler is not None:
            raise ValueError(
                "the per-layer profiler requires executor='serial': "
                "with executor='process' the modules it would instrument "
                "train in child processes"
            )
        pool = ProcessPool(
            [workers.spec(worker_id) for worker_id in workers],
            skeleton, num_procs=config.num_procs, metrics=bundle.metrics,
        )
        return RemoteExecutor.from_config(pool, config, telemetry)
    raise ValueError(f"unknown executor {kind!r}")
