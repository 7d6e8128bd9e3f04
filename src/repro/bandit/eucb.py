"""E-UCB agent (Algorithm 1): discounted UCB over an adaptive partition.

One agent exists per worker.  Each round it

1. computes, per partition region, the discounted empirical mean
   (Eq. 9) and the discounted padding (Eq. 10),
2. picks the region maximising the upper confidence bound (Eq. 11),
   preferring never-played regions,
3. samples the pruning ratio uniformly inside the region,
4. once the play's reward is *observed*, splits the region at the
   played arm while its diameter exceeds the granularity ``theta``, and
5. receives the observed reward via :meth:`observe`.

The discount factor ``lambda`` (default 0.95, Section V-A) weights
recent rounds more, letting the agent track capability drift.

Two implementation notes:

- **Incremental statistics.**  The discounted per-region counts and
  reward sums are maintained incrementally (every ``observe`` multiplies
  each region's running statistics by the discount and adds the new
  play), so a selection costs O(regions) rather than the
  O(rounds x regions) full-history replay of the original
  implementation.  Reward min-max normalisation is folded in
  analytically: the normalised discounted mean is
  ``(raw_mean - low) / (high - low)`` over the running reward range, so
  only raw sums need to be stored.  Plays are re-assigned to child
  regions only when a region is actually split.
- **Deferred splits.**  The split of the played region happens in
  :meth:`observe`, not :meth:`select_ratio`.  Splitting at selection
  time leaked tree structure when a play was abandoned (deadline miss /
  churn): the pending arm was cleared but the split persisted, so
  phantom never-rewarded regions accumulated, each with an infinite
  UCB, permanently distorting exploration.  A play that produces no
  reward now leaves the partition untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bandit.partition import Partition, Region


@dataclass
class _PlayRecord:
    """One historical play: the arm value, its observed reward, and the
    1-based play index (used to recompute discount weights on splits).

    ``count`` > 1 records a *cohort* play: ``count`` members shared the
    arm and reported one mean reward, accounted as ``count`` consecutive
    virtual plays ending at ``step``.
    """

    arm: float
    reward: float
    step: int = 0
    count: int = 1


@dataclass
class _RegionStats:
    """Running discounted statistics of one partition region.

    ``disc_count`` / ``disc_raw_sum`` use the "latest play has weight 1"
    convention: after the ``n``-th observation they equal
    ``sum_i d**(n - step_i)`` and ``sum_i d**(n - step_i) * reward_i``
    over the region's plays.  Eq. 9/10 weights (``d**(k - step)`` with
    ``k = n + 1``) are recovered by multiplying by one extra discount.
    """

    plays: List[_PlayRecord] = field(default_factory=list)
    disc_count: float = 0.0
    disc_raw_sum: float = 0.0


class EUCBAgent:
    """Extended-UCB agent for one worker's pruning-ratio decisions."""

    def __init__(self, discount: float = 0.95, theta: float = 0.05,
                 max_ratio: float = 0.9, exploration: float = 1.0,
                 normalize_rewards: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        if not 0.0 < discount < 1.0:
            raise ValueError(f"discount must be in (0, 1), got {discount}")
        if theta <= 0:
            raise ValueError(f"theta must be positive, got {theta}")
        if not 0.0 < max_ratio <= 1.0:
            raise ValueError(f"max_ratio must be in (0, 1], got {max_ratio}")
        self.discount = discount
        self.theta = theta
        self.exploration = exploration
        self.normalize_rewards = normalize_rewards
        self.partition = Partition(0.0, max_ratio)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.history: List[_PlayRecord] = []
        #: total number of *virtual* plays (sum of record counts); equals
        #: ``len(history)`` while every play has count 1
        self._total_steps: int = 0
        self._stats: Dict[Region, _RegionStats] = {}
        self._reward_low: Optional[float] = None
        self._reward_high: Optional[float] = None
        self._pending_arm: Optional[float] = None
        self._pending_region: Optional[Region] = None
        self._pending_split: bool = False

    # ------------------------------------------------------------------
    # statistics (Eqs. 9-11)
    # ------------------------------------------------------------------
    def _geom(self, count: int) -> float:
        """Discount-weighted size of a ``count``-member virtual play
        group whose last member has weight 1:
        ``1 + d + ... + d**(count-1)``.  Exactly 1.0 for count 1, so
        single-member plays keep their historical bit patterns."""
        if count == 1:
            return 1.0
        d = self.discount
        return (1.0 - d ** count) / (1.0 - d)

    def _normalized_mean(self, stats: _RegionStats) -> float:
        """Discounted empirical mean of the region's (effective)
        rewards; the extra Eq. 9 discount cancels in the ratio."""
        mean_raw = stats.disc_raw_sum / stats.disc_count
        if not self.normalize_rewards:
            return mean_raw
        low, high = self._reward_low, self._reward_high
        spread = high - low
        if spread <= 0.0:
            return 0.5
        return (mean_raw - low) / spread

    def _discounted_stats(self) -> Tuple[dict, float]:
        """Per-region (discounted count, discounted normalised mean or
        ``None``) in Eq. 9 convention, plus the total discounted count
        ``n_k`` over all regions.  O(regions)."""
        d = self.discount
        counts = {}
        total = 0.0
        for region in self.partition:
            stats = self._stats.get(region)
            count = d * stats.disc_count if stats is not None else 0.0
            counts[region] = count
            total += count
        stats_out = {}
        for region in self.partition:
            count = counts[region]
            if count > 0.0:
                mean = self._normalized_mean(self._stats[region])
            else:
                mean = None
            stats_out[region] = (count, mean)
        return stats_out, total

    def upper_confidence_bounds(self) -> dict:
        """Eq. 11 for every region; unexplored regions get ``inf``."""
        stats, total = self._discounted_stats()
        bounds = {}
        for region, (count, mean) in stats.items():
            if count <= 0.0 or mean is None:
                bounds[region] = math.inf
            else:
                padding = self.exploration * math.sqrt(
                    2.0 * math.log(max(total, math.e)) / count
                )
                bounds[region] = mean + padding
        return bounds

    def _replay_stats(self) -> Tuple[dict, float]:
        """Reference O(rounds x regions) full-history replay of Eq. 9.

        Used only by tests to cross-check the incremental statistics;
        the hot path never calls this.
        """
        k = self._total_steps + 1
        counts = {region: 0.0 for region in self.partition}
        sums = {region: 0.0 for region in self.partition}
        raw = [record.reward for record in self.history]
        if self.normalize_rewards and raw:
            low, high = min(raw), max(raw)
            spread = high - low
            if spread <= 0.0:
                rewards = [0.5] * len(raw)
            else:
                rewards = [(value - low) / spread for value in raw]
        else:
            rewards = raw
        for record, reward in zip(self.history, rewards):
            weight = (self.discount ** (k - record.step)
                      * self._geom(record.count))
            region = self.partition.find(record.arm)
            counts[region] += weight
            sums[region] += weight * reward
        total = sum(counts.values())
        stats = {
            region: (counts[region], sums[region]) for region in self.partition
        }
        return stats, total

    # ------------------------------------------------------------------
    # Algorithm 1 main loop
    # ------------------------------------------------------------------
    def select_ratio(self) -> float:
        """Choose the round's pruning ratio (Lines 3-8 of Algorithm 1).

        The split of the chosen region is *deferred* to :meth:`observe`
        so that an abandoned play leaves the partition untouched.
        """
        if self._pending_arm is not None:
            raise RuntimeError(
                "select_ratio called twice without observing a reward"
            )
        bounds = self.upper_confidence_bounds()
        best_region = max(self.partition, key=lambda r: bounds[r])
        arm = float(self.rng.uniform(best_region.low, best_region.high))
        self._pending_arm = arm
        self._pending_region = best_region
        self._pending_split = best_region.diameter > self.theta
        return arm

    def observe(self, reward: float, count: int = 1) -> None:
        """Record the reward of the most recent play (Lines 11-12) and
        perform the play's deferred region split.

        ``count`` > 1 books the play with *member multiplicity*: a
        cohort of ``count`` workers shared the arm and reported one mean
        reward, accounted as ``count`` consecutive virtual plays (the
        older stats age by ``discount**count``, the play contributes a
        geometric weight ``1 + d + ... + d**(count-1)``).  ``count=1``
        is bit-for-bit the historical single-worker update.
        """
        if self._pending_arm is None:
            raise RuntimeError("observe called without a pending play")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        arm = self._pending_arm
        if self._pending_split and self._pending_region is not None:
            left, right = self.partition.split(self._pending_region, arm)
            self._split_stats(self._pending_region, left, right)
        self._pending_arm = None
        self._pending_region = None
        self._pending_split = False

        self._total_steps += count
        record = _PlayRecord(arm, float(reward), step=self._total_steps,
                             count=count)
        self.history.append(record)
        d = self.discount
        aging = d if count == 1 else d ** count
        for stats in self._stats.values():
            stats.disc_count *= aging
            stats.disc_raw_sum *= aging
        weight = self._geom(count)
        target = self.partition.find(arm)
        stats = self._stats.setdefault(target, _RegionStats())
        stats.plays.append(record)
        stats.disc_count += weight
        stats.disc_raw_sum += weight * record.reward
        if self._reward_low is None or record.reward < self._reward_low:
            self._reward_low = record.reward
        if self._reward_high is None or record.reward > self._reward_high:
            self._reward_high = record.reward

    def _split_stats(self, region: Region, left: Region,
                     right: Region) -> None:
        """Re-assign a split region's plays and statistics to its
        children.  O(plays in the region); splits happen at most once
        per region, so the amortised cost stays negligible."""
        old = self._stats.pop(region, None)
        if old is None:
            return
        n = self._total_steps
        for record in old.plays:
            child = left if left.contains(record.arm) else right
            stats = self._stats.setdefault(child, _RegionStats())
            stats.plays.append(record)
            weight = (self.discount ** (n - record.step)
                      * self._geom(record.count))
            stats.disc_count += weight
            stats.disc_raw_sum += weight * record.reward

    def snapshot(self) -> dict:
        """JSON-ready view of the agent's internal state (Eqs. 9-11).

        Reports, per partition region: the raw pull count, the
        discounted play count, the discounted empirical mean of the
        (effective) rewards and the confidence radius -- exactly the
        quantities :meth:`select_ratio` maximises over -- plus the
        current interval partition.  Purely observational: calling it
        never changes the agent.
        """
        stats, total = self._discounted_stats()
        arms = []
        for region in self.partition:
            count, mean = stats[region]
            region_stats = self._stats.get(region)
            pulls = len(region_stats.plays) if region_stats is not None else 0
            if count > 0.0:
                radius = self.exploration * math.sqrt(
                    2.0 * math.log(max(total, math.e)) / count
                )
            else:
                radius = None
            arms.append({
                "low": region.low,
                "high": region.high,
                "pulls": pulls,
                "discounted_count": count,
                "mean": mean,
                "radius": radius,
            })
        return {
            "rounds_played": len(self.history),
            "total_steps": self._total_steps,
            "num_regions": len(self.partition),
            "pending_arm": self._pending_arm,
            "partition": self.partition.snapshot(),
            "arms": arms,
        }

    def consistency_report(self, tolerance: float = 1e-9) -> List[str]:
        """Cross-check the agent's internal state; return violations.

        Three families of checks, all observational:

        - **Partition integrity.**  The regions must tile
          ``[low, high]`` exactly -- contiguous, non-degenerate, no
          gaps or overlaps -- and every historical arm must fall inside
          the partition's range.
        - **Non-negative statistics.**  Discounted counts and the total
          discounted count can never go negative.
        - **Incremental == replay.**  The O(regions) incremental
          discounted statistics must agree (within ``tolerance``,
          relative) with the O(rounds x regions) full-history replay
          oracle :meth:`_replay_stats`.

        An empty list means the agent is internally consistent.
        """
        problems: List[str] = []
        regions = list(self.partition)
        low = regions[0].low
        high = regions[-1].high
        cursor = low
        for region in regions:
            if not math.isclose(region.low, cursor, abs_tol=tolerance):
                problems.append(
                    f"partition gap/overlap: region starts at {region.low!r}"
                    f" but previous one ended at {cursor!r}"
                )
            if region.high <= region.low:
                problems.append(
                    f"degenerate region [{region.low!r}, {region.high!r}]"
                )
            cursor = region.high
        if not math.isclose(cursor, high, abs_tol=tolerance):
            problems.append(
                f"partition does not reach its upper bound: last region "
                f"ends at {cursor!r}, expected {high!r}"
            )
        for record in self.history:
            if not low <= record.arm <= high:
                problems.append(
                    f"historical arm {record.arm!r} outside "
                    f"[{low!r}, {high!r}]"
                )

        inc_stats, inc_total = self._discounted_stats()
        ref_stats, ref_total = self._replay_stats()
        if inc_total < 0.0:
            problems.append(f"negative total discounted count {inc_total!r}")
        scale = max(abs(ref_total), 1.0)
        if abs(inc_total - ref_total) > tolerance * scale:
            problems.append(
                f"total discounted count drifted: incremental {inc_total!r}"
                f" vs replay {ref_total!r}"
            )
        for region in regions:
            count, mean = inc_stats[region]
            ref_count, ref_sum = ref_stats[region]
            if count < 0.0:
                problems.append(
                    f"negative discounted count {count!r} in region "
                    f"[{region.low!r}, {region.high!r}]"
                )
            if abs(count - ref_count) > tolerance * max(abs(ref_count), 1.0):
                problems.append(
                    f"discounted count drifted in region "
                    f"[{region.low!r}, {region.high!r}]: incremental "
                    f"{count!r} vs replay {ref_count!r}"
                )
                continue
            if mean is None:
                if ref_count > tolerance:
                    problems.append(
                        f"region [{region.low!r}, {region.high!r}] has "
                        f"replay count {ref_count!r} but no incremental mean"
                    )
                continue
            if ref_count <= 0.0:
                continue
            ref_mean = ref_sum / ref_count
            if abs(mean - ref_mean) > tolerance * max(abs(ref_mean), 1.0):
                problems.append(
                    f"discounted mean drifted in region "
                    f"[{region.low!r}, {region.high!r}]: incremental "
                    f"{mean!r} vs replay {ref_mean!r}"
                )
        return problems

    def abandon(self) -> None:
        """Discard a pending play (used when a worker misses the round
        deadline and produces no reward signal).  Because the region
        split is deferred to :meth:`observe`, abandoning leaves the
        partition exactly as it was before :meth:`select_ratio`."""
        self._pending_arm = None
        self._pending_region = None
        self._pending_split = False

    @property
    def num_regions(self) -> int:
        """Current number of partition leaves (decision-tree size)."""
        return len(self.partition)

    @property
    def rounds_played(self) -> int:
        return len(self.history)
