"""FedMP: per-worker E-UCB pruning-ratio decisions (Sections III-IV)."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.bandit.eucb import EUCBAgent
from repro.bandit.reward import eucb_reward
from repro.fl.config import FLConfig
from repro.fl.strategies.base import Capabilities, RoundObservation, Strategy


class FedMPStrategy(Strategy):
    """Adaptive per-worker pruning via one E-UCB agent per worker.

    Each agent learns, purely from completion times and global loss
    movement, which pruning ratio fits its worker's capabilities -- no
    prior knowledge of compute or bandwidth is used anywhere.

    ``strategy_kwargs`` accepted: ``discount`` (lambda, default 0.95),
    ``theta`` (granularity, default 0.05), ``max_ratio`` (default 0.9),
    ``exploration`` and ``warmup_rounds`` (ratio 0 for the first rounds
    so early rewards reflect the unpruned baseline), and ``scope``:
    ``"worker"`` (the paper's setting, one agent per worker) or
    ``"cluster"`` (one agent per device cluster -- the fleet-scale
    setting, where the agent observes each cohort's mean reward with
    member multiplicity; see ``repro.fl.cohort``).
    """

    name = "fedmp"
    #: the factory passes the device profiles so cluster scope can map
    #: workers to their device cluster
    accepts_devices = True
    capabilities = Capabilities(
        efficient_computation=True,
        efficient_communication=True,
        hardware_independent=True,
        computation_heterogeneity=True,
        communication_heterogeneity=True,
        convergence_guarantee=True,
    )

    def __init__(self, worker_ids: List[int], config: FLConfig,
                 rng: Optional[np.random.Generator] = None,
                 devices=None) -> None:
        super().__init__(worker_ids, config, rng)
        kwargs = config.strategy_kwargs
        self.discount = kwargs.get("discount", 0.95)
        self.theta = kwargs.get("theta", 0.05)
        self.max_ratio = kwargs.get("max_ratio", 0.9)
        # 0.5 keeps the padding term from drowning the normalised
        # rewards at FL round horizons (tens to hundreds of rounds)
        self.exploration = kwargs.get("exploration", 0.5)
        self.warmup_rounds = kwargs.get("warmup_rounds", 1)
        # reward shape: "eq8" (the paper's fit-to-capability reward) or
        # "time" (loss decrease per second -- the ablation baseline)
        self.reward = kwargs.get("reward", "eq8")
        if self.reward not in ("eq8", "time"):
            raise ValueError(f"unknown reward shape {self.reward!r}")
        self.scope = kwargs.get("scope", "worker")
        if self.scope not in ("worker", "cluster"):
            raise ValueError(f"unknown agent scope {self.scope!r}")
        self._cluster_of: Optional[Dict[int, str]] = None
        if self.scope == "cluster":
            if devices is None:
                raise ValueError(
                    "scope='cluster' needs the device profiles to map "
                    "workers to clusters"
                )
            self._cluster_of = {
                device.device_id: device.cluster for device in devices
            }
            keys = sorted({
                self._cluster_of[wid] for wid in self.worker_ids
            })
        else:
            keys = self.worker_ids
        self.agents: Dict[object, EUCBAgent] = {
            key: EUCBAgent(
                discount=self.discount, theta=self.theta,
                max_ratio=self.max_ratio, exploration=self.exploration,
                rng=np.random.default_rng(self.rng.integers(2 ** 31)),
            )
            for key in keys
        }
        self._pending: Dict[int, float] = {}

    def _agent_key(self, worker_id: int):
        if self._cluster_of is not None:
            return self._cluster_of[worker_id]
        return worker_id

    def select_ratios(self, round_index: int,
                      worker_ids: Optional[List[int]] = None) -> Dict[int, float]:
        ids = worker_ids if worker_ids is not None else self.worker_ids
        if round_index < self.warmup_rounds:
            ratios = {}
            for wid in ids:
                # play arm 0 explicitly so the agent still learns from it
                agent = self.agents[self._agent_key(wid)]
                agent._pending_arm = 0.0
                ratios[wid] = 0.0
            self._pending = dict(ratios)
            return ratios
        if self._cluster_of is None:
            ratios = {wid: self.agents[wid].select_ratio() for wid in ids}
            self._pending = dict(ratios)
            return ratios
        # cluster scope: one arm decision per cluster per round; workers
        # whose cluster already has an in-flight play (async/semi-sync
        # re-dispatch before the earlier wave was observed) join it
        ratios = {}
        arm_by_key: Dict[object, float] = {}
        for wid in ids:
            key = self._agent_key(wid)
            if key not in arm_by_key:
                agent = self.agents[key]
                if agent._pending_arm is not None:
                    arm_by_key[key] = agent._pending_arm
                else:
                    arm_by_key[key] = agent.select_ratio()
            ratios[wid] = arm_by_key[key]
        self._pending = dict(ratios)
        return ratios

    def observe_round(self, observation: RoundObservation) -> None:
        times = {
            wid: costs.total_s for wid, costs in observation.costs.items()
        }
        observed_keys = set()
        if times:
            mean_time = sum(times.values()) / len(times)

            def member_reward(total: float) -> float:
                if self.reward == "eq8":
                    return eucb_reward(
                        observation.delta_loss, total, mean_time
                    )
                return observation.delta_loss / max(total, 1e-6)

            if self._cluster_of is None:
                for wid, total in times.items():
                    self.agents[wid].observe(member_reward(total))
            else:
                by_key: Dict[object, List[float]] = {}
                for wid, total in times.items():
                    by_key.setdefault(self._agent_key(wid), []).append(total)
                for key, member_times in by_key.items():
                    agent = self.agents[key]
                    if agent._pending_arm is None:
                        # the play was already credited by an earlier
                        # arrival wave of this cluster
                        continue
                    rewards = [member_reward(t) for t in member_times]
                    agent.observe(sum(rewards) / len(rewards),
                                  count=len(rewards))
                    observed_keys.add(key)
        for wid in observation.discarded:
            key = self._agent_key(wid)
            agent = self.agents[key]
            if self._cluster_of is None:
                agent.abandon()
            elif key not in observed_keys and agent._pending_arm is not None:
                agent.abandon()
        self._pending.clear()

    # ------------------------------------------------------------------
    # live fleet membership (service mode)
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: int, device=None) -> None:
        """Create (or reuse) the agent behind a mid-run registration.

        A worker known since construction -- a service reconnect, or a
        slot the fleet was provisioned with -- keeps its existing agent
        untouched, so re-registering consumes no RNG and the run stays
        deterministic.  A genuinely new worker gets a fresh agent
        seeded from the strategy RNG *at registration time* (the
        construction-order seed contract extends append-only).
        """
        super().register_worker(worker_id, device=device)
        if self._cluster_of is not None:
            if worker_id not in self._cluster_of:
                if device is None:
                    raise ValueError(
                        "scope='cluster' needs the device profile to "
                        "map a new worker to its cluster"
                    )
                self._cluster_of[worker_id] = device.cluster
        key = self._agent_key(worker_id)
        if key not in self.agents:
            self.agents[key] = EUCBAgent(
                discount=self.discount, theta=self.theta,
                max_ratio=self.max_ratio, exploration=self.exploration,
                rng=np.random.default_rng(self.rng.integers(2 ** 31)),
            )

    def retire_worker(self, worker_id: int) -> None:
        """Park a leaving worker's agent without deleting it.

        Any pending play is abandoned (the deferred-split rule keeps
        the partition untouched), unless the agent is cluster-scoped
        and other members of the cluster are still present -- their
        in-flight play must stay observable.  The agent itself is kept
        so a rejoining worker resumes with its learned statistics.
        """
        key = self._agent_key(worker_id)
        super().retire_worker(worker_id)
        agent = self.agents.get(key)
        if agent is None:
            return
        if self._cluster_of is not None and any(
                self._agent_key(wid) == key for wid in self.worker_ids):
            return
        agent.abandon()

    def snapshot(self) -> dict:
        """JSON-ready E-UCB introspection across every worker's agent.

        The telemetry hook publishes this each round (trace event
        ``eucb_snapshot`` and ``RoundRecord.extras["eucb"]``), making
        the bandit's convergence -- arm means, confidence radii, pull
        counts, interval splits -- visible per worker per round.
        """
        return {
            "discount": self.discount,
            "theta": self.theta,
            "exploration": self.exploration,
            "reward": self.reward,
            "scope": self.scope,
            "agents": {
                str(key): agent.snapshot()
                for key, agent in self.agents.items()
            },
        }
