"""Workers built from specs, and the processes that host them.

A worker owns live RNG streams (its iterator/worker generator and the
timing model's jitter generator), so it never travels -- generator
state would fork.  What travels is a :class:`WorkerSpec`: the *seed*
the engine drew for it plus everything else construction needs.
:meth:`WorkerSpec.build` is the one construction path (the engine's
fleet, pool children, service clients) and runs one sequence:

1. ``rng = np.random.default_rng(seed)``;
2. the data iterator is built first (a ``BatchIterator`` draws its
   epoch permutation *at construction*);
3. ``Worker.__init__`` then draws the :class:`~repro.simulation.timing.
   TimingModel` seed from the same generator.

Step order is load-bearing (``tests/test_runtime/test_pool.py`` pins
it).  A worker's state before its first dispatch is its seed's, so the
engine's and each pool child's :class:`LazyFleet` builds on first use.

The parent owns every worker's data stream: a dispatch frame carries
its :meth:`~repro.fl.worker.Worker.stream` record, the receiver trains
from it and replies with the advanced record, which the parent commits
when it collects the reply.  A flight's result is a function of its
frame alone, so any receiver may train it, and sending it twice trains
the same bits.

Every pool child holds every spec and serves one duplex pipe that
carries only frames: a dispatch frame down, then its reply up -- decode,
derive the sub-model from its *skeleton* of the global model (inherited
at the fork; :func:`derive_submodel`), ``local_train``, a contribution frame.
:class:`ProcessPool` is the pipe *link* of
:class:`~repro.runtime.executor.RemoteExecutor`: one work queue,
drained onto whichever child is free.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
import traceback
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_for_connections
from typing import TYPE_CHECKING, Callable, Collection, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.pruning.structured import extract_submodel
from repro.runtime.codec import (
    DispatchPayload,
    WireFormatError,
    decode_dispatch,
    encode_contribution,
)
from repro.runtime.transport import (
    RetryPolicy,
    TransportError,
    WorkerCrashError,
)
from repro.simulation.device import DeviceProfile
from repro.telemetry.runtime import DISABLED_TELEMETRY

if TYPE_CHECKING:  # cycle guard: repro.fl.engine imports this package
    from repro.fl.worker import Worker
    from repro.nn.module import Module

__all__ = [
    "ITERATOR_KINDS",
    "InFlight",
    "LazyFleet",
    "WorkerSpec",
    "PoolMember",
    "ProcessPool",
    "derive_submodel",
    "handle_train",
]

#: iterator families a spec can rebuild ("batch" draws an epoch
#: permutation at construction; "sequence" draws only per batch)
ITERATOR_KINDS = ("batch", "sequence")


@dataclass
class WorkerSpec:
    """Everything that builds one worker exactly (:meth:`build`):
    arrays, a frozen :class:`~repro.simulation.device.DeviceProfile` and
    plain scalars -- a service ships it as a codec worker record."""

    worker_id: int
    seed: int
    shard_inputs: np.ndarray
    shard_targets: np.ndarray
    batch_size: int
    device: DeviceProfile
    jitter_sigma: float
    num_samples: int
    iterator_kind: str = "batch"
    #: restored runtime state from a checkpoint (see
    #: :meth:`repro.fl.worker.Worker.capture_runtime_state`); when set,
    #: :meth:`build` fast-forwards the new worker's streams to it
    runtime_state: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if self.iterator_kind not in ITERATOR_KINDS:
            raise ValueError(
                f"iterator_kind must be one of {ITERATOR_KINDS}, "
                f"got {self.iterator_kind!r}"
            )

    def build(self) -> Worker:
        """The worker, with the same streams in every process: the one
        construction path (module docstring), then ``runtime_state``."""
        # imported here, not at module scope: repro.fl.engine imports
        # this package, so a top-level repro.fl import would be a cycle
        from repro.fl.tasks import _SequenceBatchIterator
        from repro.fl.worker import Worker

        rng = np.random.default_rng(self.seed)
        if self.iterator_kind == "batch":
            from repro.data.loader import BatchIterator
            iterator = BatchIterator(self.shard_inputs, self.shard_targets,
                                     self.batch_size, rng=rng)
        else:
            iterator = _SequenceBatchIterator(self.shard_inputs,
                                              self.shard_targets, rng)
        worker = Worker(self.worker_id, iterator, self.device,
                        jitter_sigma=self.jitter_sigma, rng=rng,
                        num_samples=self.num_samples)
        if self.runtime_state is not None:
            worker.restore_runtime_state(self.runtime_state)
        return worker


class LazyFleet(Mapping):
    """Worker id -> :class:`Worker` over a whole fleet (``len`` and
    iteration cover every id), each built on its first lookup from the
    spec ``make_spec(worker_id)`` supplies the first time one is needed."""

    def __init__(self, worker_ids: Collection[int],
                 make_spec: Callable[[int], WorkerSpec]) -> None:
        self._ids = worker_ids
        self._make_spec = make_spec
        self._specs: Dict[int, WorkerSpec] = {}
        self._built: Dict[int, Worker] = {}

    def spec(self, worker_id: int) -> WorkerSpec:
        spec = self._specs.get(worker_id)
        if spec is None:   # make_spec raises KeyError outside the fleet
            spec = self._specs[worker_id] = self._make_spec(worker_id)
        return spec

    def __getitem__(self, worker_id: int) -> Worker:
        worker = self._built.get(worker_id)
        if worker is None:
            worker = self._built[worker_id] = self.spec(worker_id).build()
        return worker

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __contains__(self, worker_id) -> bool:
        return worker_id in self._ids

    def restore(self, worker_id: int, state: Dict[str, object]) -> None:
        """Start ``worker_id`` at a checkpointed stream position."""
        self.spec(worker_id).runtime_state = state
        self._built.pop(worker_id, None)

    def capture(self) -> Dict[int, Dict[str, object]]:
        """Built workers' captures, restored untouched ones' restored
        states; a pristine worker is absent -- its seed is its state."""
        states = {worker_id: spec.runtime_state
                  for worker_id, spec in self._specs.items()
                  if spec.runtime_state is not None}
        states.update((worker_id, worker.capture_runtime_state())
                      for worker_id, worker in self._built.items())
        return states


# ----------------------------------------------------------------------
# what a receiver does with a dispatch frame
# ----------------------------------------------------------------------
def derive_submodel(skeleton: Module, payload: DispatchPayload) -> Module:
    """The dispatched sub-model, rebuilt at the receiver.

    A sub-model's structure is a pure function of (architecture, plan):
    extract it from the local skeleton, load the frame's state over
    whatever the extractor gathered (``load_state_dict`` copies every
    array, so ``payload.state`` stays the pristine base a sparse reply
    diffs against), and put each RNG-bearing module at the generator
    state the frame recorded (the seeds extraction draws for them come
    from its default throwaway generator and are overwritten).  A frame
    whose plan, state or RNG record does not fit the skeleton is a
    :class:`WireFormatError`, whatever it tripped over.
    """
    try:
        submodel = extract_submodel(skeleton, payload.plan)
        submodel.load_state_dict(payload.state)
        submodel.load_rng_states(payload.module_rngs)
    except (KeyError, ValueError, IndexError) as exc:
        raise WireFormatError(
            f"dispatch does not fit the sub-model its plan derives: {exc}"
        ) from exc
    return submodel


def handle_train(workers: Mapping, skeleton: Module, frame: bytes) -> bytes:
    """Serve one dispatch frame: derive, train from its stream record
    (without one: from this receiver's own worker), encode the reply."""
    payload = decode_dispatch(frame)
    submodel = derive_submodel(skeleton, payload)
    worker = workers[payload.worker_id]
    if payload.stream is not None:
        worker.load_stream(payload.stream)
    hyper = payload.hyper
    start = time.perf_counter()
    train_loss = worker.local_train(
        submodel, tau=payload.tau, lr=hyper.lr, momentum=hyper.momentum,
        weight_decay=hyper.weight_decay, prox_mu=hyper.prox_mu,
        clip_norm=hyper.clip_norm, anchor=payload.state,
    )
    wall_s = time.perf_counter() - start
    profile = payload.reply_profile
    return encode_contribution(
        payload.worker_id, submodel.state_dict(),
        train_loss=float(train_loss), wall_time_s=wall_s,
        num_samples=worker.num_samples, profile=profile,
        base=payload.state if profile != "exact" else None,
        keep_fraction=(
            0.25 if payload.reply_keep_fraction is None
            else payload.reply_keep_fraction
        ),
        quantize_bits=(
            payload.reply_quantize_bits
            if profile == "sparse+quantized" else None
        ),
        stream=payload.stream and worker.stream(),
    )


def _child_main(conn, skeleton: Module, specs: List[WorkerSpec],
                inherited=()) -> None:
    """Answer each dispatch frame that comes down ``conn`` with
    ``("ok", contribution_frame)`` or ``("err", traceback_text)``, until
    EOF.

    ``inherited`` holds the parent-side pipe ends a forked child was
    born with (those of every pool member in the parent, its own
    included).  They are closed first: while any copy stays open, the parent closing its end (or
    dying, SIGKILL included) never shows up as EOF on ``conn``, and the
    child would serve a dead pipe for ever.
    """
    for parent_end in inherited:
        parent_end.close()
    specs = {spec.worker_id: spec for spec in specs}
    workers = LazyFleet(specs, specs.__getitem__)
    try:
        while True:
            try:
                frame = conn.recv()
            except (EOFError, OSError):
                break
            try:
                reply = ("ok", handle_train(workers, skeleton, frame))
            except Exception:
                reply = ("err", traceback.format_exc())
            conn.send(reply)
    except KeyboardInterrupt:
        pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
@dataclass
class InFlight:
    """One dispatch frame on its way through a link, and its reply."""

    worker_id: int
    #: ``None`` once the pool has written it out
    frame: Optional[bytes] = field(repr=False)
    reply: Optional[bytes] = field(default=None, repr=False)
    finish_s: float = 0.0   # simulated finish time: the queue order
    busy_s: float = 0.0     # receiver seconds from send to reply


@dataclass
class PoolMember:
    """One child process and the parent's end of its pipe."""

    index: int
    proc: mp.process.BaseProcess
    conn: object


class ProcessPool:
    """A fixed fleet of persistent worker processes behind one queue.

    Every child holds every spec, so any child trains any flight.
    Children are daemonic and hold no copy of the parent's pipe ends,
    so they exit on EOF however the parent closes or dies (SIGKILL
    included).  ``skeleton`` is what the children derive sub-models
    from (under ``fork`` they simply inherit it and the specs: nothing
    is serialised).  From the first flight on, the pipes belong to a pump
    thread that hands the next queued flight -- wanted by a ``gather``
    first, then by simulated finish time -- to the first free child,
    while the main thread aggregates.
    """

    name = "process"
    #: ``None``: flights are submitted at dispatch (children are other
    #: OS processes; all of it may be in the air)
    wave_cohorts: Optional[int] = None
    #: every pool member's parent-side pipe end in this process: a
    #: forked child closes them all, so closing one is EOF in its child
    #: however many pools were started after it
    _parent_ends: weakref.WeakSet = weakref.WeakSet()

    def __init__(self, specs: List[WorkerSpec], skeleton: Module,
                 num_procs: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None,
                 metrics=None) -> None:
        if not specs:
            raise ValueError("a process pool needs at least one WorkerSpec")
        specs = sorted(specs, key=lambda spec: spec.worker_id)
        count = num_procs if num_procs is not None else (mp.cpu_count() or 1)
        count = max(1, min(int(count), len(specs)))
        # fork where the platform has it; only fork hands a child the
        # parent's open descriptors (and passes args without pickling)
        forked = "fork" in mp.get_all_start_methods()
        ctx = mp.get_context("fork" if forked else "spawn")
        self.retry = retry if retry is not None else RetryPolicy()
        self.metrics = (
            metrics if metrics is not None else DISABLED_TELEMETRY.metrics
        )
        self.members: List[PoolMember] = []
        for index in range(count):
            parent_conn, child_conn = ctx.Pipe()
            self._parent_ends.add(parent_conn)
            proc = ctx.Process(
                target=_child_main,
                args=(child_conn, skeleton, specs,
                      list(self._parent_ends) if forked else []),
                name=f"repro-pool-{index}", daemon=True,
            )
            proc.start()
            child_conn.close()
            self.members.append(
                PoolMember(index=index, proc=proc, conn=parent_conn))
        # shared with the pump thread, under _cond: queued flights (in
        # submission order), the id()s a gather waits for, and each
        # child's one flight as (flight, sent at)
        self._cond = threading.Condition()
        self._queue: List[InFlight] = []
        self._wanted: Set[int] = set()
        self._outstanding: Dict[int, Tuple[InFlight, float]] = {}
        self._failure: Optional[TransportError] = None
        self._busy_s = 0.0
        self._closed = False
        self._pump: Optional[threading.Thread] = None
        # made after the forks: no child holds the wake-up pipe
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def parallelism(self) -> int:
        return len(self.members)

    @property
    def busy_s(self) -> float:
        """Child-seconds spent on flights so far, running ones included."""
        with self._cond:
            now = time.perf_counter()
            return self._busy_s + sum(
                now - sent_at for _, sent_at in self._outstanding.values()
            )

    def submit(self, flights: List[InFlight]) -> None:
        with self._cond:
            self._queue.extend(flights)
        self._wake()

    def cancel(self, flight: InFlight) -> None:
        """Unqueue a flight nobody will collect (a sent one finishes)."""
        with self._cond:
            self._queue = [f for f in self._queue if f is not flight]

    def gather(self, flights: List[InFlight]) -> Dict[int, float]:
        """Wait for every flight's reply, queueing any not yet submitted
        and sending all of them ahead of the rest of the queue.
        Returns ``{worker_id: seconds from its own send to its reply}``
        -- the worker's time, not its place in the queue.

        Waits in :meth:`~repro.runtime.transport.RetryClock.wait_until`
        under the pool's :class:`RetryPolicy`; a dead child is a
        :class:`WorkerCrashError`, and an error a child reported (which
        leaves the pool unusable) is raised as it is, traceback
        included.
        """
        with self._cond:   # a flight keeps its frame until it is sent
            queued = {id(flight) for flight in self._queue}
            self._queue.extend(flight for flight in flights
                               if flight.frame and id(flight) not in queued)
            self._wanted = {id(flight) for flight in flights}
        self._wake()

        def lost() -> Optional[str]:
            if self._failure is not None:
                raise self._failure
            dead = [member.index for member in self.members
                    if not member.proc.is_alive()]
            return (f"pool member(s) {dead} died with training "
                    f"request(s) outstanding") if dead else None

        try:
            with self._cond:
                self.retry.clock().wait_until(
                    lambda: all(flight.reply is not None
                                for flight in flights),
                    self._cond.wait, lost, self.metrics, self.name)
        finally:
            with self._cond:
                self._wanted = set()
        return {flight.worker_id: flight.busy_s for flight in flights}

    def _wake(self) -> None:
        if self._pump is None:
            self._pump = threading.Thread(target=self._pump_main,
                                          name="repro-pool-pump",
                                          daemon=True)
            self._pump.start()
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # a wake-up is already pending

    def _pump_main(self) -> None:
        """Keep every child busy until close.

        Only this thread touches the pipes, with at most ONE flight
        outstanding per child: the next is sent only after the previous
        reply has been fully read, so the child is always parked in
        ``recv`` when the pump writes and no pipe write can stall
        (frames exceed the OS pipe buffer: fire-and-forget would
        deadlock, parent writing frame *n+1*, child writing reply *n*).
        So every reply answers its child's one outstanding flight.  The
        main thread never waits on a pipe; a broken pipe is a
        :class:`WorkerCrashError`.
        """
        by_fd = {member.conn.fileno(): member for member in self.members}
        try:
            while True:
                sends = []
                with self._cond:
                    if self._closed:
                        return
                    for member in self.members:
                        if self._queue and \
                                member.index not in self._outstanding:
                            # wanted first, then by finish time (min()
                            # keeps submission order among equals)
                            flight = self._queue.pop(min(
                                range(len(self._queue)),
                                key=lambda i: (
                                    id(self._queue[i]) not in self._wanted,
                                    self._queue[i].finish_s)))
                            sends.append((member, flight.frame))
                            flight.frame = None   # sent: never resent
                            self._outstanding[member.index] = (
                                flight, time.perf_counter())
                for member, frame in sends:
                    try:
                        member.conn.send(frame)
                    except OSError as exc:
                        raise WorkerCrashError(
                            f"pool member {member.index} is gone: {exc}"
                        ) from exc
                busy = [self.members[index].conn
                        for index in list(self._outstanding)]
                for ready in _wait_for_connections(busy + [self._wake_r]):
                    if ready == self._wake_r:
                        os.read(self._wake_r, 4096)
                        continue
                    member = by_fd[ready.fileno()]
                    try:
                        reply = member.conn.recv()
                    except (EOFError, OSError) as exc:
                        raise WorkerCrashError(
                            f"pool member {member.index} closed its pipe "
                            f"with a flight outstanding"
                        ) from exc
                    self._settle(member.index, reply)
        except Exception as exc:   # a gather raises it, never hangs
            with self._cond:
                self._failure = exc if isinstance(exc, TransportError) \
                    else TransportError(f"the pool's pump failed: {exc!r}")
                self._cond.notify_all()

    def _settle(self, index: int, reply) -> None:
        op, body = reply
        if op == "err":
            raise TransportError(
                f"worker process raised during training:\n{body}"
            )
        with self._cond:
            flight, sent_at = self._outstanding.pop(index)
            flight.busy_s = time.perf_counter() - sent_at
            flight.reply = body
            self._busy_s += flight.busy_s
            self._cond.notify_all()

    def close(self, join_timeout_s: float = 5.0) -> None:
        """Stop the pump and close every pipe (EOF: the child exits); a
        child still training a flight nobody collects is killed, as is
        any that does not exit in time.  Idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
        if self._pump is not None:
            self._wake()
            self._pump.join(timeout=join_timeout_s)
        for member in self.members:
            member.conn.close()
            if member.index in self._outstanding:
                member.proc.kill()   # SIGTERM may have a forked handler
        for member in self.members:
            member.proc.join(timeout=join_timeout_s)
            if member.proc.is_alive():
                member.proc.kill()
                member.proc.join(timeout=join_timeout_s)
        os.close(self._wake_r)
        os.close(self._wake_w)
