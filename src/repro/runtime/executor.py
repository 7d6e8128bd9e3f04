"""The engine's execution seam: in-process or remote training.

Schedulers hand the engine a batch of dispatches; the engine hands
them to the executor at dispatch (:meth:`Executor.submit`) and collects
them, one :class:`CohortTrainRequest` per cohort, as a whole round
through the one collect route every plane shares
(:meth:`Executor.run_round`): waves of :attr:`Executor.wave_cohorts`
cohorts, each wave's per-member cohorts through one :meth:`Executor.run`
call and each stacked cohort through :meth:`Executor.run_cohort`.  A
cohort's *member flights* are :class:`~repro.runtime.codec.
DispatchPayload` records -- what a dispatch frame carries -- and one
body trains a member flight on every plane
(:func:`repro.runtime.pool.train_dispatch`).  :class:`SerialExecutor`
runs it at collect, in process, on a round's independent flights side
by side on threads (bitwise as one after another), and trains stacked
cohorts through :mod:`repro.nn.batched`.
:class:`RemoteExecutor` encodes each member with the wire codec, hands
the frames to a *link* -- the work queue of a persistent
:class:`~repro.runtime.pool.ProcessPool` (from dispatch on), or the
pull pump of a :class:`~repro.serve.service.FedMPService` (a cohort at
a time) -- gathers the contribution frames, and decodes them, with
``serialize`` / ``transfer`` / ``parallel_train`` spans and
``wire_bytes_total`` / ``retries_total`` / ``stragglers_total`` /
``flights_ready_at_collect_total`` counters.  :func:`make_executor`
builds either, always with the engine's fleet.

Both executors return the same :class:`TrainResult` list in submission
order, and both are bitwise-identical to each other: every plane
derives the sub-model from a skeleton and the flight's plan, state and
RNG record (:func:`repro.runtime.pool.derive_submodel`); over a wire the
worker's data stream rides in the frame and comes back advanced (and
is committed when the reply is collected), and trained states travel
back as exact ``float32`` payloads.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.loader import BatchIterator
from repro.nn.batched import train_cohort
from repro.nn.module import Module
from repro.numerics import cap_malloc_arenas, flight_threads
from repro.pruning.plan import plan_signature_digest
from repro.runtime.codec import (
    WIRE_PROFILES,
    ContributionPayload,
    DispatchPayload,
    TrainHyper,
    decode_contribution,
    encode_dispatch,
)
from repro.runtime.pool import InFlight, LazyFleet, ProcessPool, train_dispatch
from repro.runtime.transport import StragglerDetector, TransportError
from repro.telemetry.runtime import DISABLED_TELEMETRY, Telemetry

__all__ = [
    "TrainResult",
    "CohortTrainRequest",
    "Executor",
    "SerialExecutor",
    "RemoteExecutor",
    "make_executor",
]


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
    """Runs batches of member flights; returns results in order."""

    name = "base"
    #: cohorts per collect-time wave (``None``: the whole round)
    wave_cohorts: Optional[int] = None

    def __init__(self, workers: LazyFleet,
                 telemetry: Optional[Telemetry] = None) -> None:
        #: worker ids the straggler heartbeat flagged in the most
        #: recent batch (always empty for serial execution)
        self.last_stragglers: List[int] = []
        #: the fleet whose streams training advances
        self.workers = workers
        self.telemetry = (
            telemetry if telemetry is not None else DISABLED_TELEMETRY
        )

    def submit(self, requests: Sequence[CohortTrainRequest],
               round_index: int = 0) -> None:
        """New cohorts at dispatch, collected later by :meth:`run_round`
        (the base route trains at collect: nothing to do yet)."""

    def run(self, flights: Sequence[DispatchPayload],
            round_index: int = 0) -> List[TrainResult]:
        raise NotImplementedError

    def run_cohort(self, request: CohortTrainRequest,
                   round_index: int = 0) -> List[TrainResult]:
        """Train one cohort; results align with ``request.worker_ids``.
        Here it is a one-cohort round (its member flights through
        :meth:`run`); an executor with a stacked path overrides it (see
        :meth:`SerialExecutor.run_cohort`)."""
        return self.run_round([request], round_index)[0]

    def run_round(self, requests: Sequence[CohortTrainRequest],
                  round_index: int = 0) -> List[List[TrainResult]]:
        """Train every cohort of one round: the engine's only entry
        point.  One result list per request, each aligned with its
        ``worker_ids``, in request order.

        The round goes out in waves of :attr:`wave_cohorts` cohorts.
        Within a wave, every per-member cohort's member flights go
        through one :meth:`run` call, then each stacked cohort
        (:meth:`_vectorisable`) through :meth:`run_cohort`.  Results
        keep request order whatever the wave size: each worker has at
        most one dispatch in flight, and its stream advances once per
        collected flight, in collect order -- exactly as training at
        collect would.
        """
        metrics = self.telemetry.metrics
        per_wave = self.wave_cohorts or len(requests) or 1
        batches: List[List[TrainResult]] = []
        for start in range(0, len(requests), per_wave):
            wave = requests[start:start + per_wave]
            stacked = [self._vectorisable(request) for request in wave]
            members = [r for r, vector in zip(wave, stacked) if not vector]
            results = iter(self.run([
                member for request in members
                for member in self._decompose(request)
            ], round_index) if members else ())
            landed = [[next(results) for _ in request.worker_ids]
                      for request in members]
            for batch in landed:
                metrics.counter("cohort_train_fallback_total").inc(
                    len(batch))
                metrics.histogram("cohort_train_s", path="fallback").observe(
                    sum(result.wall_time_s for result in batch))
            decomposed = iter(landed)
            batches.extend(
                self.run_cohort(request, round_index) if vector
                else next(decomposed)
                for request, vector in zip(wave, stacked))
        return batches

    def _vectorisable(self, request: CohortTrainRequest) -> bool:
        """Whether ``request`` trains as one stacked cohort through
        :meth:`run_cohort` (never, without a stacked path)."""
        return False

    @staticmethod
    def _decompose(request: CohortTrainRequest) -> List[DispatchPayload]:
        """One cohort's member flights: what a dispatch frame carries,
        each sharing the cohort's plan, dispatched state and module RNG
        record (read once here), none of which a flight writes."""
        cohort = request.cohort
        module_rngs = cohort.template.rng_states()
        return [
            DispatchPayload(
                worker_id=worker_id, tau=tau, hyper=request.hyper,
                plan=cohort.plan, state=cohort.dispatched_state,
                module_rngs=module_rngs,
            )
            for worker_id, tau in zip(request.worker_ids, request.taus)
        ]

    def _landed(self, flight: DispatchPayload, reply: ContributionPayload,
                round_index: int) -> TrainResult:
        """A trained flight's ``local_train`` span and result, with the
        flight's own seconds as ``worker_wall_s``."""
        with self.telemetry.span("local_train", round=round_index,
                                 worker=flight.worker_id, tau=flight.tau,
                                 ratio=flight.plan.ratio) as span:
            span.set("train_loss", float(reply.train_loss))
            span.set("worker_wall_s", float(reply.wall_time_s))
        return TrainResult(
            worker_id=flight.worker_id,
            sub_state=reply.materialise(flight.state),
            train_loss=float(reply.train_loss),
            wall_time_s=float(reply.wall_time_s),
        )

    def close(self) -> None:
        """Release executor resources (no-op by default)."""


def _fan_out(flights: Sequence[Callable[[], object]],
             threads: int) -> List[object]:
    """Results of ``flights`` in order, run on this thread and
    ``threads - 1`` more started and joined here.  Once one raises no
    other starts; the first error in submission order is raised when
    the started ones have finished."""
    if threads <= 1:
        return [flight() for flight in flights]
    cap_malloc_arenas()
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

    def __init__(self, workers: LazyFleet, skeleton: Module,
                 telemetry: Optional[Telemetry] = None) -> None:
        super().__init__(workers, telemetry)
        #: what each flight's sub-model is derived from (the engine's
        #: model: only read while a round trains)
        self.skeleton = skeleton

    def run(self, flights: Sequence[DispatchPayload],
            round_index: int = 0) -> List[TrainResult]:
        """Train each flight through :func:`~repro.runtime.pool.
        train_dispatch`, the body pool children and served clients run,
        side by side; one ``local_train`` span per flight once all
        landed."""
        profiler = self.telemetry.profiler
        profiled = [profiler is not None and profiler.matches(f.worker_id)
                    for f in flights]
        jobs = [
            partial(train_dispatch, self.workers[flight.worker_id],
                    self.skeleton, flight, profiler if profile else None)
            for flight, profile in zip(flights, profiled)
        ]
        # the profiler's one table is written by one flight at a time
        replies = _fan_out(jobs, 1 if sum(profiled) > 1
                           else min(flight_threads(), len(jobs)))
        return [self._landed(flight, reply, round_index)
                for flight, reply in zip(flights, replies)]

    def run_cohort(self, request: CohortTrainRequest,
                   round_index: int = 0) -> List[TrainResult]:
        """Train one cohort, stacked into a single batched pass per
        member slice when the architecture and request allow it (one
        forward/backward per step for the slice instead of per member;
        bitwise-identical, see :mod:`repro.nn.batched`).  Ineligible
        cohorts fall back to their member flights.
        """
        if not self._vectorisable(request):
            return super().run_cohort(request, round_index)

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


class RemoteExecutor(Executor):
    """Training on remote receivers, behind the wire codec.

    Owns everything about a remote round exactly once: serialize ->
    gather -> decode / validate / materialise / commit -> straggler
    flagging, with the spans and counters that go with them.  How bytes
    reach the receivers is the ``link``'s business -- it supplies
    ``name``, ``parallelism``, ``busy_s`` (receiver-seconds spent so
    far), ``wave_cohorts`` (cohorts per :meth:`~Executor.run_round`
    wave; ``None``: flights go out at dispatch, through
    ``submit(flights)`` / ``cancel(flight)``), ``gather(flights)`` (fill
    in every
    :class:`~repro.runtime.pool.InFlight` reply, waiting in
    :meth:`~repro.runtime.transport.RetryClock.wait_until` under its own
    retry policy; return each worker's seconds from send to reply) and
    ``close()``.

    A dispatch frame is all a receiver needs: it derives the sub-model
    from its skeleton and the frame's plan, state and RNG record, and
    trains from the worker's stream record, whose advanced copy
    :meth:`run` commits to the fleet on collect (a flight never
    collected changes nothing).

    ``wire_profile`` selects how receivers encode contributions:
    ``exact`` (dense float32, bitwise parity), ``sparse`` (the top
    quarter of moved positions, exact there) or ``sparse+quantized``
    (their deltas in 8-bit codes).  The profile rides in the dispatch
    frame flags and replies are validated against it.
    """

    def __init__(self, link, workers: LazyFleet,
                 telemetry: Optional[Telemetry] = None,
                 straggler_quorum: float = 0.85,
                 straggler_multiplier: float = 1.5,
                 wire_profile: str = "exact") -> None:
        super().__init__(workers, telemetry)
        if wire_profile not in WIRE_PROFILES:
            raise ValueError(
                f"wire_profile must be one of {WIRE_PROFILES}, "
                f"got {wire_profile!r}"
            )
        self.link = link
        self.name = link.name
        self.wire_profile = wire_profile
        self.detector = StragglerDetector(straggler_quorum,
                                          straggler_multiplier)
        #: worker id -> (flight record, flight) submitted at dispatch
        self._flights: Dict[int, Tuple[DispatchPayload, InFlight]] = {}
        #: (wall clock, link busy seconds) at the last occupancy sample
        self._window = (time.perf_counter(), 0.0)

    @property
    def wave_cohorts(self) -> Optional[int]:
        """The link's wave size (``None``: flights go out at dispatch
        and a round is collected in one gather)."""
        return self.link.wave_cohorts

    def _encode(self, flight: DispatchPayload,
                finish_s: float = 0.0) -> InFlight:
        frame = encode_dispatch(
            flight.worker_id, flight.plan, flight.state,
            tau=flight.tau, hyper=flight.hyper,
            reply_profile=self.wire_profile,
            module_rngs=flight.module_rngs,
            stream=self.workers[flight.worker_id].stream(),
        )
        self.telemetry.metrics.counter("wire_bytes_total",
                                       kind="dispatch").inc(len(frame))
        return InFlight(flight.worker_id, frame, finish_s=finish_s)

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
        if self.wave_cohorts is not None or not requests:
            return
        with self.telemetry.span("serialize", round=round_index):
            for request in requests:
                for member, finish_s in zip(
                        self._decompose(request),
                        request.finish_s or itertools.repeat(0.0)):
                    if member.worker_id in self._flights:
                        self.link.cancel(self._flights[member.worker_id][1])
                    flight = self._encode(member, finish_s)
                    self._flights[member.worker_id] = (member, flight)
                    self.link.submit([flight])  # children start at once

    def _take(self, member: DispatchPayload) -> InFlight:
        """The flight submitted for ``member`` at dispatch, or a new
        one if there is none or it was for other work."""
        submitted, flight = self._flights.pop(member.worker_id,
                                              (None, None))
        if submitted is not None and submitted.state is member.state \
                and (submitted.tau, submitted.hyper) \
                == (member.tau, member.hyper):
            return flight
        if flight is not None:
            self.link.cancel(flight)
        return self._encode(member)

    def run(self, flights: Sequence[DispatchPayload],
            round_index: int = 0) -> List[TrainResult]:
        self.last_stragglers = []
        if not flights:
            return []
        telemetry = self.telemetry
        metrics = telemetry.metrics
        with telemetry.span("parallel_train", round=round_index,
                            requests=len(flights),
                            procs=self.link.parallelism) as batch_span:
            # -- serialize (what dispatch did not) ----------------------
            with telemetry.span("serialize", round=round_index,
                                requests=len(flights)):
                sent = [self._take(flight) for flight in flights]
            ready = sum(flight.reply is not None for flight in sent)
            metrics.counter("flights_ready_at_collect_total",
                            executor=self.name).inc(ready)

            # -- transfer + gather --------------------------------------
            with telemetry.span("transfer", round=round_index,
                                requests=len(flights)) as transfer_span:
                completion_s = self.link.gather(sent)
                busy_share = self._sample_busy_share()
                metrics.gauge("pool_busy_share",
                              executor=self.name).set(busy_share)
                transfer_span.set("pool_busy_share", busy_share)
                transfer_span.set("ready_at_collect", ready)
                reply_bytes = sum(len(flight.reply) for flight in sent)
                metrics.counter("wire_bytes_total",
                                kind="contribution").inc(reply_bytes)
                transfer_span.set("reply_bytes", reply_bytes)

            # -- decode + commit + per-flight spans ---------------------
            results = []
            for flight, in_flight in zip(flights, sent):
                reply = decode_contribution(in_flight.reply,
                                            expect_profile=self.wire_profile)
                in_flight.reply = None  # a wave's replies are not held twice
                worker_id, stream = flight.worker_id, reply.stream
                if reply.worker_id != worker_id or stream is None \
                        or stream.worker_id != worker_id:
                    raise TransportError(
                        f"a reply for worker {worker_id} carries worker "
                        f"{reply.worker_id}, stream "
                        f"{stream and stream.worker_id}")
                self.workers[worker_id].load_stream(stream)
                results.append(self._landed(flight, reply, round_index))

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

    def close(self) -> None:
        self._flights.clear()
        self.link.close()


def make_executor(config, *, workers: LazyFleet,
                  telemetry: Optional[Telemetry] = None,
                  skeleton: Optional[Module] = None,
                  link=None) -> Executor:
    """The executor a run configuration implies, training ``workers``:
    over ``link`` when one is given (the service's), else the one
    ``config.executor`` names -- in process, or over a process pool
    forked here (``skeleton`` is what member flights derive their
    sub-models from)."""
    if link is None:
        if config.executor == "serial":
            return SerialExecutor(workers, skeleton, telemetry=telemetry)
        if config.executor != "process":
            raise ValueError(f"unknown executor {config.executor!r}")
        bundle = telemetry if telemetry is not None else DISABLED_TELEMETRY
        if bundle.profiler is not None:
            raise ValueError(
                "the per-layer profiler requires executor='serial': "
                "with executor='process' the modules it would instrument "
                "train in child processes"
            )
        link = ProcessPool(
            [workers.spec(worker_id) for worker_id in workers],
            skeleton, num_procs=config.num_procs, metrics=bundle.metrics,
        )
    quorum = config.deadline_quorum
    return RemoteExecutor(
        link, workers, telemetry=telemetry,
        straggler_quorum=0.85 if quorum is None else quorum,
        straggler_multiplier=config.deadline_multiplier,
        wire_profile=config.wire_profile,
    )
