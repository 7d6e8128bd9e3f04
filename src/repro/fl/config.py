"""Experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass
class FLConfig:
    """All knobs of one federated-training run.

    Defaults follow Section V-A: 10 workers, discount factor 0.95,
    granularity ``theta`` in the recommended ``[0.01, 0.05]`` band.
    """

    # strategy
    strategy: str = "fedmp"
    strategy_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: aggregation scheme: "r2sp" | "bsp" | "r2sp_weighted" | "bsp_weighted"
    #: (the weighted variants weight participants by local sample count)
    sync_scheme: str = "r2sp"

    # local training
    local_iterations: int = 5          # tau
    batch_size: int = 16
    lr: float = 0.05
    momentum: float = 0.0
    weight_decay: float = 0.0
    clip_norm: Optional[float] = 5.0

    # stopping criteria (any that is set may stop the run)
    max_rounds: int = 50
    time_budget_s: Optional[float] = None
    target_metric: Optional[float] = None

    # NaN/Inf-poisoned uploads: "raise" rejects the round with a typed
    # PoisonedUpdateError, "skip" drops the offending contribution (and
    # counts it in telemetry), "off" disables the finiteness scan
    nan_policy: str = "raise"

    # execution backend: "serial" trains in process (a round's flights
    # side by side on threads), "process" fans local training out to a
    # persistent process pool behind the wire codec (bitwise-identical
    # results; see repro.runtime)
    executor: str = "serial"
    #: process-pool size; None means one process per CPU, clamped to the
    #: fleet size
    num_procs: Optional[int] = None
    #: contribution wire profile for executor="process": "exact" ships
    #: dense float32 states (bitwise parity with serial), "sparse"
    #: ships the top quarter of moved positions with exact values,
    #: "sparse+quantized" their deltas as 8-bit codes (Section III-C).
    #: Ignored by the serial executor (nothing crosses a wire there).
    wire_profile: str = "exact"

    # checkpoint/resume: when checkpoint_dir is set, the engine writes a
    # versioned, atomic checkpoint every checkpoint_every completed
    # rounds (and always at the end of the run), from which
    # Engine/run_federated_training can resume with byte-identical
    # continuation; None disables checkpointing
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 1

    # bookkeeping
    eval_every: int = 1
    seed: int = 0
    jitter_sigma: float = 0.08
    deadline_quorum: Optional[float] = None   # e.g. 0.85 enables deadlines
    deadline_multiplier: float = 1.5

    # membership churn (Section V-A: joins/leaves do not affect the
    # workflow); 0 disables churn
    churn_leave_prob: float = 0.0
    churn_rejoin_after: int = 2

    # scheduling: "auto" derives the rule from the legacy knobs below
    # (async_m set -> "async", semi_sync_deadline_s set -> "semi_sync",
    # otherwise "sync"); set explicitly to force one
    scheduler: str = "auto"   # "auto" | "sync" | "async" | "semi_sync"

    # asynchronous setting (Algorithm 2)
    async_m: Optional[int] = None

    # semi-synchronous setting: per-round deadline in simulated seconds
    # (aggregate whoever arrived by then, carry stragglers over)
    semi_sync_deadline_s: Optional[float] = None

    # fleet scale: sample this many clients per round from the present
    # workers (seeded via the engine's master RNG, after all existing
    # streams, so unsampled runs keep their bit-exact traces); None
    # trains the whole present fleet every round
    clients_per_round: Optional[int] = None

    # deprecated spelling, read nowhere: every round is cohort-sharded
    # (workers sharing a (pruning-plan, cluster) bucket are dispatched,
    # trained and aggregated as one cohort; a worker alone is a cohort
    # of one).  "auto" and "on" are accepted and identical; the old
    # "off" per-member path is now the repro.verify.oracle reference
    # round.
    cohort_rounds: str = "auto"   # "auto" | "on"

    # history granularity: "member" keeps per-worker ratios/completion
    # times in every RoundRecord (O(fleet) JSON), "cohort" stores
    # per-cohort aggregates instead; "auto" picks member below
    # _HISTORY_DETAIL_AUTO_FLEET workers and cohort at fleet scale
    history_detail: str = "auto"   # "auto" | "member" | "cohort"

    _SYNC_SCHEMES = ("r2sp", "bsp", "r2sp_weighted", "bsp_weighted")
    _SCHEDULERS = ("auto", "sync", "async", "semi_sync")
    _NAN_POLICIES = ("raise", "skip", "off")
    _EXECUTORS = ("serial", "process")
    _WIRE_PROFILES = ("exact", "sparse", "sparse+quantized")
    _HISTORY_DETAILS = ("auto", "member", "cohort")
    #: fleet size at which history_detail="auto" switches to cohort
    _HISTORY_DETAIL_AUTO_FLEET = 1024

    def __post_init__(self) -> None:
        if self.local_iterations <= 0:
            raise ValueError("local_iterations must be positive")
        if self.executor not in self._EXECUTORS:
            raise ValueError(
                f"executor must be one of {self._EXECUTORS}, "
                f"got {self.executor!r}"
            )
        if self.num_procs is not None and self.num_procs <= 0:
            raise ValueError("num_procs must be positive when set")
        if self.wire_profile not in self._WIRE_PROFILES:
            raise ValueError(
                f"wire_profile must be one of {self._WIRE_PROFILES}, "
                f"got {self.wire_profile!r}"
            )
        if self.nan_policy not in self._NAN_POLICIES:
            raise ValueError(
                f"nan_policy must be one of {self._NAN_POLICIES}, "
                f"got {self.nan_policy!r}"
            )
        if self.sync_scheme not in self._SYNC_SCHEMES:
            raise ValueError(
                f"sync_scheme must be one of {self._SYNC_SCHEMES}, "
                f"got {self.sync_scheme!r}"
            )
        if self.scheduler not in self._SCHEDULERS:
            raise ValueError(
                f"scheduler must be one of {self._SCHEDULERS}, "
                f"got {self.scheduler!r}"
            )
        if self.async_m is not None and self.async_m <= 0:
            raise ValueError("async_m must be positive when set")
        if (self.semi_sync_deadline_s is not None
                and self.semi_sync_deadline_s <= 0):
            raise ValueError("semi_sync_deadline_s must be positive when set")
        if self.scheduler == "async" and self.async_m is None:
            raise ValueError("scheduler='async' requires async_m")
        if (self.scheduler == "semi_sync"
                and self.semi_sync_deadline_s is None):
            raise ValueError(
                "scheduler='semi_sync' requires semi_sync_deadline_s"
            )
        if self.scheduler == "sync" and self.async_m is not None:
            raise ValueError("scheduler='sync' conflicts with async_m")
        if self.async_m is not None and self.semi_sync_deadline_s is not None:
            raise ValueError(
                "async_m and semi_sync_deadline_s are mutually exclusive"
            )
        if self.async_m is not None and self.churn_leave_prob > 0:
            # batch async re-dispatches exactly its arrivals and never
            # consults the churn model after round 0
            raise ValueError(
                "the async scheduler does not model churn; "
                "churn_leave_prob must be 0 with async_m"
            )
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.clients_per_round is not None and self.clients_per_round <= 0:
            raise ValueError("clients_per_round must be positive when set")
        if self.cohort_rounds not in ("auto", "on"):
            raise ValueError(
                f"cohort_rounds is deprecated and accepts only 'auto' or "
                f"'on' (identical), got {self.cohort_rounds!r}; the "
                f"per-member path survives only as the reference round "
                f"in repro.verify.oracle"
            )
        if self.history_detail not in self._HISTORY_DETAILS:
            raise ValueError(
                f"history_detail must be one of {self._HISTORY_DETAILS}, "
                f"got {self.history_detail!r}"
            )
