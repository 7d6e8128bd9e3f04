"""The round engine: shared dispatch/train/record plumbing.

An :class:`Engine` owns everything one federated experiment needs --
the global model (the parameter server's copy), the worker pool, the
strategy, the simulated clock, the aggregator and the hook list -- and
exposes the per-round building blocks (``dispatch_many``,
``train_all``, ``aggregate``, ``evaluate``, ``finish_round``).  It deliberately contains **no round
loop**: a :mod:`repro.fl.schedulers` scheduler decides *when* to call
the blocks (barrier, first-``m`` arrivals, or per-round deadline), so
new synchronisation rules are one scheduler file, not a runner fork.

There is one round path.  A :class:`~repro.fl.cohort.Cohort` -- one or
more workers sharing a pruning plan, an extracted template and a frozen
global snapshot -- is the only thing dispatched, trained and
aggregated; a worker dispatched alone is a cohort of one.  The slow
reference behaviours this path is checked against live in
:mod:`repro.verify.oracle`, which nothing here imports.

RNG discipline: every random stream is derived from ``config.seed`` in
a fixed order at construction time, and the building blocks consume
their streams in call order -- two runs with the same config, task and
devices are bitwise identical, whichever scheduler drives them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.aggregation import Aggregator, Contribution, make_aggregator
from repro.fl.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointManager,
)
from repro.fl.cohort import Cohort
from repro.fl.compression import ErrorFeedback, top_k_sparsify
from repro.fl.config import FLConfig
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.hooks import HookList, RoundHook
from repro.fl.strategies import Strategy, make_strategy
from repro.nn.batched import supports_cohort_training
from repro.pruning.plan import plan_signature_digest
from repro.runtime.codec import TrainHyper
from repro.runtime.executor import (
    CohortTrainRequest,
    Executor,
    make_executor,
)
from repro.runtime.pool import LazyFleet, WorkerSpec
from repro.simulation.clock import SimulationClock
from repro.simulation.device import DeviceProfile
from repro.simulation.faults import DeadlinePolicy, simulate_membership_churn
from repro.simulation.timing import RoundCosts
from repro.telemetry.runtime import DISABLED_TELEMETRY, Telemetry


@dataclass
class Dispatch:
    """One worker's share of a dispatched cohort.

    The plan, the pristine sub-model state and the frozen global
    snapshot live once on ``cohort``; the member record adds only what
    differs per worker (pricing, timing, shard size).
    """

    worker_id: int
    ratio: float
    cohort: Cohort
    tau: int
    costs: RoundCosts
    dispatch_time: float = 0.0
    upload_params: int = 0
    #: local shard size, carried so aggregation-time weighting never
    #: re-resolves the full worker table
    num_samples: int = 1
    #: raw trained sub-model state (pre upload-compression), set by
    #: ``train_all`` only while the contribution hooks run
    trained_state: Optional[Dict[str, np.ndarray]] = None

    @property
    def plan(self):
        return self.cohort.plan

    @property
    def dispatched_state(self) -> Dict[str, np.ndarray]:
        return self.cohort.dispatched_state

    @property
    def global_state(self) -> Optional[Dict[str, np.ndarray]]:
        return self.cohort.global_state

    @property
    def download_params(self) -> int:
        return self.cohort.num_params

    @property
    def finish_time(self) -> float:
        return self.dispatch_time + self.costs.total_s


class Engine:
    """Shared state and building blocks of one experiment.

    Parameters
    ----------
    task:
        A :mod:`repro.fl.tasks` adapter.
    devices:
        Heterogeneous device profiles, one worker per device.
    config:
        The run configuration; selects strategy, aggregation scheme and
        stopping criteria.
    aggregator:
        Optional explicit :class:`~repro.fl.aggregation.Aggregator`;
        defaults to the one named by ``config.sync_scheme``.
    hooks:
        Optional iterable of :class:`~repro.fl.hooks.RoundHook`
        observers threaded through every round.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` bundle; the engine
        and its scheduler open spans (``round`` / ``decide`` / ``prune``
        / ``dispatch`` / ``local_train`` / ``aggregate`` / ``eval``)
        against it.  Defaults to the shared disabled bundle, whose
        instruments are all no-ops.
    link:
        Optional transport for a remote executor (the service's
        ``PullLink``); without one ``config.executor`` names the
        executor.  Either way the engine builds it, with its fleet.
    """

    def __init__(self, task, devices: Sequence[DeviceProfile],
                 config: FLConfig,
                 aggregator: Optional[Aggregator] = None,
                 hooks: Optional[Iterable[RoundHook]] = None,
                 telemetry: Optional[Telemetry] = None,
                 link=None,
                 restore: Optional[Checkpoint] = None,
                 checkpoint_meta: Optional[dict] = None) -> None:
        self.task = task
        self.config = config
        #: caller-supplied context stored in every checkpoint (e.g. how
        #: to rebuild the task/devices for a fresh-process resume)
        self.checkpoint_meta = checkpoint_meta
        #: pending resume target set by :meth:`_apply_restore`, consumed
        #: once by the scheduler via :meth:`take_resume`
        self._resume: Optional[Dict[str, object]] = None
        #: service-mode seam: when set, :meth:`present_workers` asks
        #: this callable (round_index -> worker ids) instead of the
        #: churn simulation; consumes no engine RNG either way
        self.membership_provider: Optional[
            Callable[[int], List[int]]] = None
        #: service-mode seam: extra state stored under the checkpoint's
        #: ``service`` key (fleet roster, protocol counters)
        self.checkpoint_extra_provider: Optional[Callable[[], dict]] = None
        #: the restored checkpoint's ``service`` payload, if any; the
        #: service rebuilds its roster from it after ``Engine.restore``
        self.restored_service_state: Optional[dict] = None
        #: cooperative-stop flag (SIGTERM drain): schedulers finish the
        #: round in flight, checkpoint with the true next round (NOT
        #: the early-stop pin), and return
        self._interrupt = False
        self.telemetry = (
            telemetry if telemetry is not None else DISABLED_TELEMETRY
        )
        self.master_rng = np.random.default_rng(config.seed)

        self.model = task.build_model(
            np.random.default_rng(self.master_rng.integers(2 ** 31))
        )
        self.aggregator = (
            aggregator if aggregator is not None
            else make_aggregator(config.sync_scheme,
                                 nan_policy=config.nan_policy)
        )
        self.aggregator.metrics = self.telemetry.metrics
        #: global shapes for zero-expansion, captured once (values go
        #: stale; read only shapes/keys from it)
        self.template: Dict[str, np.ndarray] = self.model.state_dict()
        self.hooks = HookList(hooks)

        shard_rng = np.random.default_rng(self.master_rng.integers(2 ** 31))
        shards = task.partition(len(devices), shard_rng)
        # one seed per device, in device order (one vectorised draw is
        # bit-equal to a scalar draw each); the fleet is lazy (DESIGN.md §3.6)
        seeds = self.master_rng.integers(2 ** 31, size=len(devices))
        position = {device.device_id: i for i, device in enumerate(devices)}

        def make_spec(worker_id: int) -> WorkerSpec:
            index = position[worker_id]
            inputs, targets = shards[index]
            return WorkerSpec(
                worker_id=worker_id, seed=int(seeds[index]),
                shard_inputs=inputs, shard_targets=targets,
                batch_size=config.batch_size, device=devices[index],
                jitter_sigma=config.jitter_sigma,
                num_samples=int(inputs.shape[0]),
                iterator_kind=getattr(task, "iterator_kind", "batch"),
            )

        #: the fleet; ``workers.spec(id)`` reads a device, builds nothing
        self.workers = LazyFleet(position, make_spec)
        self.worker_ids = sorted(position)
        self.strategy: Strategy = make_strategy(
            config.strategy, self.worker_ids, config,
            rng=np.random.default_rng(self.master_rng.integers(2 ** 31)),
            devices=devices,
        )
        if getattr(self.strategy, "needs_calibration", False):
            self.strategy.calibrate(
                devices, task.count_flops(self.model),
                self.model.num_parameters(),
            )
        self.extract_rng = np.random.default_rng(self.master_rng.integers(2 ** 31))

        # Dispatch cache: within one cache epoch (between two
        # aggregations) the global model is frozen, so same-ratio workers
        # share one plan and the round needs at most one global-state
        # snapshot.  The extracted template is shared too unless
        # extraction consumes randomness the members must not share
        # (rng-bearing modules such as Dropout draw a seed per clone).
        self._has_rng_modules = bool(self.model.rng_states())
        self._plan_cache: Dict[float, object] = {}
        self._submodel_cache: Dict[float, Tuple[object, Dict[str, np.ndarray]]] = {}
        self._round_state: Optional[Dict[str, np.ndarray]] = None

        self.clock = SimulationClock()
        self.history = TrainingHistory(
            strategy=config.strategy, model_name=task.name,
            higher_is_better=task.higher_is_better,
        )
        #: per-worker upload-compression memory, made on first use
        self.error_feedback: Dict[int, ErrorFeedback] = {}
        self.deadline_policy = (
            DeadlinePolicy(config.deadline_quorum, config.deadline_multiplier)
            if config.deadline_quorum is not None else None
        )
        self._prev_train_loss: Optional[float] = None
        self._churn_rng = np.random.default_rng(
            self.master_rng.integers(2 ** 31)
        )
        # client sampling draws from its own stream, derived after every
        # pre-existing one so unsampled runs keep their bit-exact traces
        self._sampling_rng = np.random.default_rng(
            self.master_rng.integers(2 ** 31)
        )

        self.history_detail = config.history_detail
        if self.history_detail == "auto":
            self.history_detail = (
                "member"
                if len(devices) < FLConfig._HISTORY_DETAIL_AUTO_FLEET
                else "cohort"
            )
        self.checkpointer: Optional[CheckpointManager] = (
            CheckpointManager(config.checkpoint_dir,
                              every=config.checkpoint_every)
            if config.checkpoint_dir is not None else None
        )
        # a restore is applied after all normal construction (so every
        # stream exists to be overwritten) but BEFORE hooks attach and
        # the executor forks: attach must see the restored strategy, and
        # pool children must spawn from specs carrying restored runtime
        # state
        if restore is not None:
            self._apply_restore(restore)
        self.hooks.attach(self)
        # the execution seam is built last: with the process executor the
        # pool forks here, after every RNG stream above has been derived
        self.executor: Executor = make_executor(
            config, workers=self.workers, telemetry=self.telemetry,
            # pool children fork here, before the model has run a
            # forward pass: they inherit a graph free of activations
            skeleton=self.model, link=link,
        )

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    @classmethod
    def restore(cls, task, devices: Sequence[DeviceProfile],
                checkpoint: Checkpoint, **kwargs) -> "Engine":
        """Build an engine resumed from ``checkpoint``.

        ``task`` and ``devices`` must be reconstructed the same way as
        for the original run (the checkpoint's ``meta`` records how);
        the checkpoint supplies the config and every piece of mutable
        state.  The scheduler then picks the run up at
        ``checkpoint.next_round`` via :meth:`take_resume`.
        """
        return cls(task, devices, checkpoint.config, restore=checkpoint,
                   **kwargs)

    def _apply_restore(self, checkpoint: Checkpoint) -> None:
        payload = checkpoint.payload
        if payload["config"] != self.config:
            raise CheckpointError(
                "checkpoint config does not match the engine config; "
                "resume with the checkpoint's own config "
                "(Engine.restore passes it through automatically)"
            )
        # a checkpoint covers the touched workers, not the pristine ones
        saved_workers: Dict[int, Dict[str, object]] = payload["workers"]
        unknown = sorted(w for w in saved_workers if w not in self.workers)
        if unknown:
            raise CheckpointError(
                f"checkpoint covers workers {unknown} that the rebuilt "
                f"fleet of {len(self.workers)} does not have"
            )

        self.master_rng.bit_generator.state = payload["rng"]["master"]
        self.extract_rng.bit_generator.state = payload["rng"]["extract"]
        self._churn_rng.bit_generator.state = payload["rng"]["churn"]
        self._sampling_rng.bit_generator.state = payload["rng"]["sampling"]

        self.model.load_state_dict(payload["model_state"])
        try:
            self.model.load_rng_states(payload["module_rngs"])
        except KeyError as exc:
            raise CheckpointError(
                f"checkpoint module RNG states do not fit the rebuilt "
                f"model: {exc}"
            ) from exc

        for worker_id, state in saved_workers.items():
            self.workers.restore(worker_id, state)

        self.strategy = payload["strategy"]
        self.error_feedback = payload["error_feedback"]
        self.clock = payload["clock"]
        self.history = payload["history"]
        self._prev_train_loss = payload["prev_train_loss"]

        # hook states match by class name, in order: the resumed run
        # must attach the same hook stack as the original (extra saved
        # states for hooks not re-attached are an error -- silently
        # dropping one would desynchronise the resumed extras)
        unclaimed = list(self.hooks.hooks)
        for class_name, state in payload["hooks"]:
            for position, hook in enumerate(unclaimed):
                if type(hook).__name__ == class_name:
                    hook.restore_state(state)
                    del unclaimed[position]
                    break
            else:
                raise CheckpointError(
                    f"checkpoint carries state for hook {class_name!r} "
                    f"but no unmatched attached hook has that type"
                )

        # optional service-mode extras (fleet roster, protocol
        # counters); absent in checkpoints from batch runs
        self.restored_service_state = payload.get("service")

        self._resume = {
            "scheduler": payload["scheduler"],
            "next_round": int(payload["next_round"]),
            "queue": payload["queue"],
        }

    def take_resume(self, scheduler_name: str) -> Optional[Dict[str, object]]:
        """Hand the pending resume target to the scheduler (once).

        Returns ``None`` for a fresh run.  Raises if the engine was
        restored for a different scheduler: replaying an async
        checkpoint under the barrier would silently diverge.
        """
        resume = self._resume
        if resume is None:
            return None
        self._resume = None
        if resume["scheduler"] != scheduler_name:
            raise CheckpointError(
                f"checkpoint was written by the {resume['scheduler']!r} "
                f"scheduler but this run uses {scheduler_name!r}"
            )
        return resume

    def worker_runtime_states(self) -> Dict[int, Dict[str, object]]:
        """Per-worker runtime state for checkpointing: the fleet's own
        under every executor (a remote flight commits its stream when
        collected; an uncollected one never does)."""
        return self.workers.capture()

    def maybe_checkpoint(self, scheduler_name: str, next_round: int,
                         queue=None, stop: bool = False) -> None:
        """Scheduler notification: a round just finished.

        Writes a checkpoint when a manager is configured and the
        cadence is due (always at the end of the run).  When the
        scheduler is about to stop early, the recorded ``next_round``
        is pinned to ``max_rounds`` so resuming the checkpoint is a
        no-op instead of running rounds the original run never ran.
        """
        if self.checkpointer is None:
            return
        final = stop or next_round >= self.config.max_rounds
        recorded_next = self.config.max_rounds if stop else next_round
        if self._interrupt and not final:
            # a drain was requested: the run is pausing, not finishing,
            # so force a checkpoint at the true next round regardless
            # of the cadence -- resuming must pick up exactly here
            self.checkpointer.save(self, scheduler_name, recorded_next,
                                   queue=queue)
            return
        self.checkpointer.maybe_save(
            self, scheduler_name, recorded_next,
            queue=queue, final=final,
        )

    def request_interrupt(self) -> None:
        """Ask the scheduler to pause after the round in flight.

        Used by the service's SIGTERM drain: unlike early *stopping*
        (:meth:`should_stop`), an interrupt checkpoint records the true
        next round so a resumed run continues instead of no-opping.
        """
        self._interrupt = True

    @property
    def interrupt_requested(self) -> bool:
        return self._interrupt

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def present_workers(self, round_index: int) -> List[int]:
        """Workers participating this round (without churn or a
        provider, :attr:`worker_ids` itself: callers only read it).

        With a :attr:`membership_provider` installed (service mode) the
        live roster decides; otherwise the churn model simulates
        presence.  The provider path consumes no engine RNG, exactly
        like the churn-disabled path, so a serial reference run driven
        by a scripted provider stays bit-identical to a service run
        whose roster follows the same script.
        """
        if self.membership_provider is not None:
            return sorted(self.membership_provider(round_index))
        if self.config.churn_leave_prob <= 0:
            return self.worker_ids
        return simulate_membership_churn(
            self.worker_ids, round_index,
            leave_prob=self.config.churn_leave_prob,
            rejoin_after=self.config.churn_rejoin_after,
            rng=self._churn_rng,
        )

    def sample_clients(self, candidates: Sequence[int],
                       round_index: int) -> Sequence[int]:
        """Sample ``clients_per_round`` workers from ``candidates``.

        Draws from the dedicated sampling stream only when the config
        actually subsamples, so runs without ``clients_per_round`` (and
        rounds where everyone fits) consume no extra randomness.  The
        sample is returned in ``candidates`` order, keeping downstream
        iteration order deterministic (without subsampling, it is
        ``candidates`` itself).
        """
        m = self.config.clients_per_round
        metrics = self.telemetry.metrics
        if m is None or m >= len(candidates):
            if candidates:
                metrics.gauge("fleet_sampled_fraction").set(1.0)
            return candidates
        picked = self._sampling_rng.choice(
            len(candidates), size=m, replace=False
        )
        metrics.counter("clients_sampled_total").inc(m)
        metrics.gauge("fleet_sampled_fraction").set(m / len(candidates))
        return [candidates[index] for index in sorted(picked)]

    # ------------------------------------------------------------------
    # per-round building blocks
    # ------------------------------------------------------------------
    def dispatch_many(self, ratios: Dict[int, float], dispatch_time: float,
                      round_index: int) -> Dict[int, Dispatch]:
        """Prune the global model for a round's workers and price them.

        Workers are bucketed by ``(ratio, cluster)`` in first-occurrence
        order and each bucket becomes one
        :class:`~repro.fl.cohort.Cohort`: one plan, one extracted
        template and one pristine state for all its members, so
        per-member work shrinks to pricing (round costs) and a
        lightweight :class:`Dispatch` pointing at the cohort.  When the
        model carries rng-bearing modules every worker is a cohort of
        its own -- the plan is still cached per ratio, but each member
        gets a fresh extraction, in ``ratios`` order, so ``extract_rng``
        is consumed once per worker.
        """
        buckets: Dict[tuple, List[int]] = {}
        for worker_id, ratio in ratios.items():
            key = (float(ratio), self.workers.spec(worker_id).device.cluster)
            if self._has_rng_modules:
                key += (worker_id,)     # never shared: a cohort of one
            buckets.setdefault(key, []).append(worker_id)
        # the round's first touches, in one batch (DESIGN.md §3.6)
        self.workers.build(ratios)

        metrics = self.telemetry.metrics
        dispatches: Dict[int, Dispatch] = {}
        for (ratio, cluster, *_), member_ids in buckets.items():
            with self.telemetry.span(
                "dispatch_cohort", round=round_index, ratio=ratio,
                cluster=cluster, members=len(member_ids),
            ) as cohort_span:
                with self.telemetry.span("prune", round=round_index,
                                         ratio=ratio, cluster=cluster):
                    plan, template, state = self._cohort_template(ratio)
                cohort = Cohort(
                    ratio=ratio, cluster=cluster, plan=plan,
                    template=template, dispatched_state=state,
                    member_ids=list(member_ids),
                    num_params=template.num_parameters(),
                    supports_vectorised=supports_cohort_training(template),
                    global_state=(
                        self._round_global_state()
                        if self.aggregator.needs_residual else None
                    ),
                )
                flops = self.task.count_flops(template)
                cohort_span.set("download_params", cohort.num_params)
                if self.telemetry.tracer.enabled:
                    cohort_span.set("plan_sig",
                                    plan_signature_digest(plan))
                metrics.gauge("cohort_members", ratio=ratio,
                              cluster=cluster).set(len(member_ids))
                for worker_id in member_ids:
                    dispatches[worker_id] = self._dispatch_member(
                        worker_id, cohort, flops, dispatch_time, round_index
                    )
            metrics.counter("dispatch_cohorts_total").inc()
            metrics.counter("dispatch_cohort_members_total").inc(
                len(member_ids)
            )
        ordered = {worker_id: dispatches[worker_id] for worker_id in ratios}
        # a remote executor sends the flights now; train_all collects
        self.executor.submit(
            self._cohort_requests(list(ordered.values()))[1], round_index
        )
        return ordered

    def _dispatch_member(self, worker_id: int, cohort: Cohort, flops: float,
                         dispatch_time: float, round_index: int) -> Dispatch:
        """Price one member's round on its device and record the
        dispatch (``flops`` is the cohort template's forward cost)."""
        with self.telemetry.span("dispatch", round=round_index,
                                 worker=worker_id, ratio=cohort.ratio) as span:
            worker = self.workers[worker_id]
            num_params = cohort.num_params
            tau = self.strategy.local_iterations(worker_id)
            keep = self.strategy.upload_keep_fraction(worker_id)
            upload_params = max(1, int(round(num_params * keep)))
            costs = worker.round_costs(
                flops, download_params=num_params,
                upload_params=upload_params,
                batch_size=self.config.batch_size, tau=tau,
            )
            span.set("download_params", num_params)
            span.set("upload_params", upload_params)
            span.set("tau", tau)
            span.set("completion_time_s", costs.total_s)
            dispatch = Dispatch(
                worker_id=worker_id, ratio=cohort.ratio, cohort=cohort,
                tau=tau, costs=costs, dispatch_time=dispatch_time,
                upload_params=upload_params, num_samples=worker.num_samples,
            )
            self.hooks.on_dispatch(round_index, dispatch)
        return dispatch

    def _cohort_template(self, ratio: float):
        """Plan + extracted template + its pristine state for ``ratio``,
        served from the per-epoch cache.

        A cached template is returned itself (no clone): nothing trains
        it in place.  The shared ``dispatched_state`` dict is treated as
        immutable by all consumers.  Rng-bearing models cache only the
        plan -- extraction draws a seed per clone there.
        """
        metrics = self.telemetry.metrics
        key = float(ratio)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = self.task.build_plan(self.model, ratio)
            self._plan_cache[key] = plan
            metrics.counter("dispatch_cache_misses_total", kind="plan").inc()
        else:
            metrics.counter("dispatch_cache_hits_total", kind="plan").inc()

        cached = self._submodel_cache.get(key)
        if cached is not None:
            template, state = cached
            metrics.counter("dispatch_cache_hits_total",
                            kind="submodel").inc()
            return plan, template, state
        template = self.task.extract(self.model, plan, self.extract_rng)
        state = template.state_dict()
        if not self._has_rng_modules:
            self._submodel_cache[key] = (template, state)
            metrics.counter("dispatch_cache_misses_total",
                            kind="submodel").inc()
        return plan, template, state

    def _round_global_state(self) -> Dict[str, np.ndarray]:
        """One frozen global-state snapshot per cache epoch, shared by
        every R2SP dispatch of the round in place of a materialised
        residual model."""
        if self._round_state is None:
            self._round_state = self.global_state
        return self._round_state

    def train_all(self, dispatches: Sequence[Dispatch],
                  round_index: int) -> List[Tuple[Contribution, float]]:
        """Run local training for a batch of dispatches via the executor.

        Results come back in dispatch order regardless of executor, and
        the post-processing below (upload compression, contribution
        assembly, hook notification) always runs sequentially in that
        order in the parent -- so hook observations and every RNG-free
        reduction are independent of the execution backend.
        """
        dispatches = list(dispatches)
        results = self._run_training(dispatches, round_index)

        out: List[Tuple[Contribution, float]] = []
        for dispatch, result in zip(dispatches, results):
            sub_state = result.sub_state
            train_loss = result.train_loss
            dispatch.trained_state = sub_state
            keep = self.strategy.upload_keep_fraction(dispatch.worker_id)
            if keep < 1.0:
                sub_state = self._compress_upload(
                    dispatch.worker_id, dispatch.dispatched_state, sub_state,
                    keep, dispatch.plan,
                )
            contribution = Contribution(
                worker_id=dispatch.worker_id, sub_state=sub_state,
                plan=dispatch.plan, num_samples=dispatch.num_samples,
                global_state=dispatch.global_state,
            )
            self.hooks.on_contribution(round_index, dispatch, contribution,
                                       train_loss)
            # the round's Collected keeps its dispatches until the next
            # collect: a stored state would pin its cohort block so long
            dispatch.trained_state = None
            out.append((contribution, train_loss))
        return out

    def _cohort_requests(self, dispatches: Sequence[Dispatch],
                         ) -> Tuple[List[List[int]],
                                    List[CohortTrainRequest]]:
        """One request per owning cohort and the dispatch indices each
        covers, in dispatch order (so scatter-back is deterministic)."""
        hyper = TrainHyper(
            lr=self.config.lr, momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
            prox_mu=self.strategy.proximal_mu(),
            clip_norm=self.config.clip_norm,
        )
        groups: Dict[int, List[int]] = {}
        for index, dispatch in enumerate(dispatches):
            groups.setdefault(id(dispatch.cohort), []).append(index)
        requests = [
            CohortTrainRequest(
                cohort=dispatches[indices[0]].cohort,
                worker_ids=[dispatches[i].worker_id for i in indices],
                taus=[dispatches[i].tau for i in indices],
                hyper=hyper,
                finish_s=[dispatches[i].finish_time for i in indices],
            )
            for indices in groups.values()
        ]
        return list(groups.values()), requests

    def _run_training(self, dispatches: Sequence[Dispatch],
                      round_index: int) -> List[object]:
        """Collect the dispatches from the executor as one round of
        cohort requests: :class:`~repro.runtime.executor.TrainResult`
        objects aligned with ``dispatches``."""
        groups, requests = self._cohort_requests(dispatches)
        results: List[object] = [None] * len(dispatches)
        batches = self.executor.run_round(requests, round_index)
        for indices, batch in zip(groups, batches):
            for index, result in zip(indices, batch):
                results[index] = result
        return results

    def round_detail(self, ratios: Dict[int, float],
                     times: Dict[int, float],
                     dispatches: Dict[int, Dispatch]):
        """Round-record detail at the configured history granularity.

        Returns ``(ratios, completion_times, cohorts)``: the member
        dicts verbatim (and no cohort list) under ``member`` detail, or
        empty dicts plus a per-cohort aggregate list under ``cohort``
        detail so record size is O(cohorts), not O(fleet).
        """
        if self.history_detail == "member":
            return dict(ratios), dict(times), None

        buckets: Dict[Tuple[float, str], List[int]] = {}
        for worker_id, ratio in ratios.items():
            dispatch = dispatches.get(worker_id)
            cluster = (
                dispatch.cohort.cluster if dispatch is not None
                else self.workers.spec(worker_id).device.cluster
            )
            buckets.setdefault((float(ratio), cluster), []).append(worker_id)

        cohorts = []
        for (ratio, cluster), member_ids in buckets.items():
            entry = {
                "ratio": ratio, "cluster": cluster,
                "members": len(member_ids),
                "num_samples": int(sum(
                    dispatches[w].num_samples if w in dispatches
                    else self.workers.spec(w).num_samples
                    for w in member_ids
                )),
            }
            member_times = [
                times[w] for w in member_ids if w in times
            ]
            if member_times:
                entry["time_min"] = min(member_times)
                entry["time_mean"] = sum(member_times) / len(member_times)
                entry["time_max"] = max(member_times)
            cohorts.append(entry)
        return {}, {}, cohorts

    def close(self) -> None:
        """Release the executor (worker processes, pipes).  Idempotent."""
        self.executor.close()

    def _compress_upload(self, worker_id: int,
                         dispatched: Dict[str, np.ndarray],
                         trained: Dict[str, np.ndarray],
                         keep: float, plan) -> Dict[str, np.ndarray]:
        """FlexCom path: top-k sparsify the update with error feedback.

        The error memory is kept in global coordinates via the round's
        pruning plan, so adaptive pruning may change the sub-model
        shape (and which units each position maps to) between rounds
        without corrupting or crashing the feedback loop.
        """
        delta = {key: trained[key] - dispatched[key] for key in trained}
        feedback = self.error_feedback.setdefault(worker_id, ErrorFeedback())
        compensated = feedback.compensate(delta, plan=plan)
        sparse_delta, _ = top_k_sparsify(compensated, keep)
        feedback.update(compensated, sparse_delta, plan=plan,
                        template=self.template)
        return {
            key: dispatched[key] + sparse_delta[key] for key in trained
        }

    @property
    def global_state(self) -> Dict[str, np.ndarray]:
        """A fresh copy of the current global model state."""
        return self.model.state_dict()

    def aggregate(self, contributions: List[Contribution],
                  round_index: int) -> None:
        """Fold one round of contributions into the global model.

        ``before_aggregate`` hooks may rewrite the contribution set
        first (the sanctioned interception point fault injectors use);
        every observer hook then sees the set that was aggregated.
        """
        # the span records the contribution *count*, not the id list: a
        # sampled fleet round can carry thousands of members and the
        # trace must stay O(cohorts) per round
        with self.telemetry.span(
            "aggregate", round=round_index,
            contributions=len(contributions),
        ) as span:
            contributions = self.hooks.before_aggregate(round_index,
                                                        contributions)
            apply_start = time.perf_counter()
            self.model.load_state_dict(
                self.aggregator.aggregate(contributions, self.template)
            )
            apply_s = time.perf_counter() - apply_start
            span.set("apply_s", apply_s)
            self.telemetry.metrics.histogram(
                "aggregate_apply_s",
            ).observe(apply_s)
            # the global model changed: every cached plan/sub-model and
            # the round snapshot are stale from here on
            self._plan_cache.clear()
            self._submodel_cache.clear()
            self._round_state = None
            self.hooks.on_aggregate(round_index, contributions)

    def evaluate(self, round_index: int,
                 force: bool = False) -> Tuple[Optional[float], Optional[float]]:
        due = (round_index + 1) % self.config.eval_every == 0
        if not (due or force):
            return None, None
        with self.telemetry.span("eval", round=round_index) as span:
            metric, loss = self.task.evaluate(self.model)
            if metric is not None:
                span.set("metric", float(metric))
            if loss is not None:
                span.set("eval_loss", float(loss))
        return metric, loss

    def delta_loss(self, mean_train_loss: float) -> float:
        """Loss decrease vs the previous round (0 on the first round)."""
        if self._prev_train_loss is None:
            delta = 0.0
        else:
            delta = self._prev_train_loss - mean_train_loss
        self._prev_train_loss = mean_train_loss
        return delta

    def finish_round(self, record: RoundRecord) -> None:
        """Close the round: notify hooks, append to the history."""
        self.hooks.on_round_end(record)
        self.history.append(record)

    def should_stop(self, record: RoundRecord) -> bool:
        config = self.config
        if record.metric is not None and config.target_metric is not None:
            reached = (
                record.metric >= config.target_metric
                if self.history.higher_is_better
                else record.metric <= config.target_metric
            )
            if reached:
                return True
        if config.time_budget_s is not None:
            if record.sim_time_s >= config.time_budget_s:
                return True
        return False
