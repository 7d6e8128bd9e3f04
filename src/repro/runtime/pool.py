"""Workers built from picklable specs, and the processes that host them.

A worker owns live RNG streams (its iterator/worker generator and the
timing model's jitter generator), so it is never pickled -- generator
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

Each pool child owns a *group* of workers (round-robin over sorted
worker ids, so the assignment is a pure function of the fleet) and
serves ``train`` requests off one duplex pipe: decode the dispatch
frame, derive the sub-model, run ``local_train``, reply with a
contribution frame encoded under the dispatch's negotiated wire
profile.  No module graph ever crosses the pipe after start-up: the
child holds a *skeleton* of the global model (shipped once, next to its
specs) and derives every dispatched sub-model from it -- see
:func:`derive_submodel`.

:class:`ProcessPool` is also the pipe *link* of
:class:`~repro.runtime.executor.RemoteExecutor`: ``gather`` pumps one
wave of dispatch frames (a whole round's: ``wave_cohorts = None``)
through the children's queues and collects the replies, ``capture``
pulls their worker runtime states for a checkpoint.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
import traceback
import zlib
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_for_connections
from typing import TYPE_CHECKING, Callable, Collection, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.pruning.structured import extract_submodel
from repro.runtime.codec import (
    DispatchPayload,
    WireFormatError,
    decode_dispatch,
    encode_contribution,
)
from repro.runtime.transport import (
    ProcessTransport,
    RetryClock,
    RetryPolicy,
    TransportError,
    TransportTimeoutError,
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
    "pack_skeleton",
    "unpack_skeleton",
]

#: iterator families a spec can rebuild ("batch" draws an epoch
#: permutation at construction; "sequence" draws only per batch)
ITERATOR_KINDS = ("batch", "sequence")


@dataclass
class WorkerSpec:
    """Everything that builds one worker exactly (:meth:`build`).

    Picklable by construction: arrays, a frozen
    :class:`~repro.simulation.device.DeviceProfile` and plain scalars.
    """

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
        """Start ``worker_id`` (here, or in pool children spawned from its
        spec) at a checkpointed stream position."""
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
# the skeleton, and what a receiver does with it
# ----------------------------------------------------------------------
def pack_skeleton(task) -> bytes:
    """A skeleton for ``task`` as bytes, for a receiver in another
    address space (a service client).

    The graph's arrays are zeroed: their values are never read (each
    dispatch overwrites them), only their shapes, and zeros compress to
    almost nothing -- so a skeleton costs kilobytes, not a model's
    worth.
    """
    model = task.build_model(np.random.default_rng(0))
    for _, module in model.named_modules():
        for arrays in (module.params, module.grads, module.buffers):
            for value in arrays.values():
                value.fill(0)
    return zlib.compress(pickle.dumps(model, pickle.HIGHEST_PROTOCOL), 1)


def unpack_skeleton(blob: bytes) -> Module:
    return pickle.loads(zlib.decompress(blob))


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


def handle_train(workers: Mapping, skeleton: Optional[Module],
                 frame: bytes) -> bytes:
    """Serve one dispatch frame: derive, train, encode the reply."""
    if skeleton is None:
        raise RuntimeError("this receiver was started without a skeleton")
    payload = decode_dispatch(frame)
    submodel = derive_submodel(skeleton, payload)
    worker = workers[payload.worker_id]
    hyper = payload.hyper
    start = time.perf_counter()
    if payload.emulate_s > 0.0:
        # device-time emulation: occupy real wall-clock for the
        # simulated device latency (see DESIGN.md 3.5)
        time.sleep(payload.emulate_s)
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
    )


def _child_main(conn, skeleton: Optional[Module],
                specs_blob: bytes, inherited=()) -> None:
    """Serve one pipe until shutdown.

    ``inherited`` holds the parent-side pipe ends a forked child was
    born with (its own and every earlier member's).  They are closed
    first: while any copy stays open, a SIGKILLed parent never shows up
    as EOF on ``conn`` and the child would serve a dead pipe for ever.

    Message grammar (tuples; ``seq`` correlates replies to requests):

    - ``("ping", seq, delay_s)`` -> ``("pong", seq)`` after sleeping
      ``delay_s`` (the delay exists so tests can provoke timeouts);
    - ``("train", seq, frame)`` -> ``("ok", seq, contribution_frame)``
      or ``("err", seq, traceback_text)``;
    - ``("capture", seq)`` -> ``("state", seq, states)`` with
      :meth:`LazyFleet.capture` of this child's workers (the
      checkpoint subsystem merges these into the parent's view, since
      in process mode the data/RNG streams advance here);
    - ``("shutdown",)`` -> exit.
    """
    for parent_end in inherited:
        parent_end.close()
    specs = {spec.worker_id: spec for spec in pickle.loads(specs_blob)}
    workers = LazyFleet(specs, specs.__getitem__)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = message[0]
            if op == "shutdown":
                break
            if op == "ping":
                _, seq, delay_s = message
                if delay_s:
                    time.sleep(delay_s)
                conn.send(("pong", seq))
            elif op == "train":
                _, seq, frame = message
                try:
                    reply = handle_train(workers, skeleton, frame)
                except Exception:
                    conn.send(("err", seq, traceback.format_exc()))
                else:
                    conn.send(("ok", seq, reply))
            elif op == "capture":
                _, seq = message
                try:
                    states = workers.capture()
                except Exception:
                    conn.send(("err", seq, traceback.format_exc()))
                else:
                    conn.send(("state", seq, states))
            # unknown ops are dropped silently: the parent's sequence
            # numbers make lost requests visible as timeouts
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
    #: ``None`` once a link that never resends has written it out
    frame: Optional[bytes] = field(repr=False)
    reply: Optional[bytes] = field(default=None, repr=False)


@dataclass
class PoolMember:
    """One child process and the parent's end of its pipe."""

    index: int
    proc: mp.process.BaseProcess
    conn: object
    worker_ids: List[int] = field(default_factory=list)


def _pick_start_method() -> str:
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ProcessPool:
    """A fixed fleet of persistent worker processes.

    Workers are assigned round-robin over their sorted ids, so the
    worker -> child mapping is deterministic for a given fleet and
    pool size.  Children are daemonic and hold no copy of the parent's
    pipe ends, so they exit on EOF however the parent dies (SIGKILL
    included).  ``skeleton`` is what the children derive
    sub-models from (under ``fork`` they simply inherit it: nothing is
    pickled); a pool started without one serves only the control plane
    (``ping`` / ``capture``).
    """

    name = "process"
    #: cohorts per ``RemoteExecutor.run_round`` gather: the whole round
    #: (children are other OS processes; all of it may be in the air)
    wave_cohorts: Optional[int] = None

    def __init__(self, specs: List[WorkerSpec],
                 num_procs: Optional[int] = None,
                 start_method: Optional[str] = None,
                 skeleton: Optional[Module] = None,
                 retry: Optional[RetryPolicy] = None,
                 metrics=None) -> None:
        if not specs:
            raise ValueError("a process pool needs at least one WorkerSpec")
        specs = sorted(specs, key=lambda spec: spec.worker_id)
        count = num_procs if num_procs is not None else (mp.cpu_count() or 1)
        count = max(1, min(int(count), len(specs)))
        ctx = mp.get_context(start_method or _pick_start_method())
        # only fork hands a child the parent's open descriptors (and
        # only fork passes args without pickling them)
        forked = ctx.get_start_method() == "fork"
        self.retry = retry if retry is not None else RetryPolicy()
        self.metrics = (
            metrics if metrics is not None else DISABLED_TELEMETRY.metrics
        )
        self.members: List[PoolMember] = []
        self.by_worker: Dict[int, PoolMember] = {}
        self.transports: Dict[int, ProcessTransport] = {}
        self._seq = 0
        for index in range(count):
            group = specs[index::count]
            parent_conn, child_conn = ctx.Pipe()
            inherited = (
                [parent_conn] + [member.conn for member in self.members]
                if forked else []
            )
            proc = ctx.Process(
                target=_child_main,
                args=(child_conn, skeleton, pickle.dumps(group), inherited),
                name=f"repro-pool-{index}", daemon=True,
            )
            proc.start()
            child_conn.close()
            member = PoolMember(
                index=index, proc=proc, conn=parent_conn,
                worker_ids=[spec.worker_id for spec in group],
            )
            self.members.append(member)
            self.transports[index] = ProcessTransport(
                member, retry=self.retry, metrics=self.metrics
            )
            for spec in group:
                self.by_worker[spec.worker_id] = member

    def __len__(self) -> int:
        return len(self.members)

    @property
    def parallelism(self) -> int:
        return len(self.members)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def ping(self) -> None:
        """Round-trip every member: a child that died during start-up
        surfaces here as a typed transport error."""
        for transport in self.transports.values():
            transport.request(("ping", self._next_seq(), 0.0))

    def gather(self, flights: List[InFlight],
               clock: RetryClock) -> Dict[int, float]:
        """Pump every flight through its worker's child; fill in the
        replies.  Returns ``{worker_id: seconds from its own send to
        its reply}`` -- the worker's time, not its place in the queue.

        At most ONE train request is outstanding per member: the next
        one is sent only after the previous reply has been fully read.
        This is deadlock-free by construction -- a pipe write can only
        stall when its reader is busy, and with one request in flight
        the child is always parked in ``recv`` when the parent writes
        (frames are regularly larger than the OS pipe buffer, so
        fire-and-forget batching genuinely deadlocks: parent blocked
        writing request *n+1*, child blocked writing reply *n*).
        Sequencing costs nothing because each child handles requests
        serially anyway.

        Train requests are never resent (a replay would double-consume
        child RNG streams); each empty poll interval counts as one
        retry, and the batch fails with a typed error after
        ``max_retries`` consecutive empty intervals, after
        ``timeout_s`` of total waiting, or as soon as a member with
        outstanding work dies.
        """
        queues: Dict[int, deque] = {}
        for flight in flights:
            member = self.by_worker[flight.worker_id]
            queues.setdefault(member.index, deque()).append(flight)
        # member index -> (seq, flight, sent at) of its one request
        outstanding: Dict[int, Tuple[int, InFlight, float]] = {}

        def send_next(index: int) -> None:
            flight = queues[index].popleft()
            seq = self._next_seq()
            sent_at = clock.elapsed()
            self.transports[index].send(("train", seq, flight.frame))
            flight.frame = None  # never resent: do not pin it
            outstanding[index] = (seq, flight, sent_at)

        for index in queues:
            send_next(index)
        completion: Dict[int, float] = {}
        while outstanding:
            conns = {
                self.members[index].conn: index for index in outstanding
            }
            if clock.remaining() <= 0.0:
                raise TransportTimeoutError(
                    f"{len(outstanding)} training repl(y/ies) still "
                    f"missing after {clock.elapsed():.1f}s "
                    f"(budget {clock.budget_s:.1f}s)"
                )
            ready = _wait_for_connections(list(conns),
                                          timeout=clock.interval())
            if not ready:
                self.metrics.counter("retries_total",
                                     transport=self.name).inc()
                for index in outstanding:
                    if not self.transports[index].alive():
                        raise WorkerCrashError(
                            f"pool member {index} died with "
                            f"{len(outstanding)} training request(s) "
                            f"outstanding"
                        )
                if not clock.tick():
                    raise TransportTimeoutError(
                        f"no training reply after "
                        f"{clock.attempts} backoff interval(s) "
                        f"({clock.elapsed():.1f}s elapsed)"
                    )
                continue
            clock.reset()
            for conn in ready:
                index = conns[conn]
                transport = self.transports[index]
                while conn.poll(0):
                    reply = transport.receive()
                    op, seq = reply[0], reply[1]
                    if op == "err":
                        raise TransportError(
                            f"worker process raised during training:\n"
                            f"{reply[2]}"
                        )
                    expected, flight, sent_at = outstanding[index]
                    if op != "ok" or seq != expected:
                        continue  # stale control-plane reply
                    flight.reply = reply[2]
                    completion[flight.worker_id] = (
                        clock.elapsed() - sent_at
                    )
                    if queues[index]:
                        send_next(index)
                    else:
                        del outstanding[index]
                        break
        return completion

    def capture(self) -> Dict[int, Dict[str, object]]:
        """Every child's worker runtime states, over the pipes.

        In process mode the data/worker RNG streams advance in the
        children, so a checkpoint must read them from there.  Uses the
        idempotent control-plane ``("capture", seq)`` round trip per
        member (safe to resend -- capturing consumes no stream).
        """
        states: Dict[int, Dict[str, object]] = {}
        for transport in self.transports.values():
            reply = transport.request(("capture", self._next_seq()))
            states.update(reply[2])
        return states

    def close(self, join_timeout_s: float = 5.0) -> None:
        """Ask every child to exit; terminate any that do not."""
        for member in self.members:
            try:
                member.conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        for member in self.members:
            member.proc.join(timeout=join_timeout_s)
            if member.proc.is_alive():
                member.proc.terminate()
                member.proc.join(timeout=join_timeout_s)
            try:
                member.conn.close()
            except OSError:
                pass
