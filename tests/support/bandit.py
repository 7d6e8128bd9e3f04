"""Bandit test instrument: a fingerprint of an E-UCB agent's state."""

from __future__ import annotations

import hashlib
import json

from repro.bandit.eucb import EUCBAgent, _RegionStats


def agent_signature(agent: EUCBAgent) -> str:
    """Stable fingerprint of the agent's complete mutable state.

    Covers the partition tree, the full play history, every region's
    incremental statistics, the pending play, the reward normalisation
    window and the private RNG stream position -- everything
    :meth:`~repro.bandit.eucb.EUCBAgent.select_ratio` and
    :meth:`~repro.bandit.eucb.EUCBAgent.observe` read.  Two agents with
    equal signatures make identical future decisions; the checkpoint
    round-trip tests compare a restored agent against the original with
    it.
    """
    payload = {
        "discount": agent.discount,
        "theta": agent.theta,
        "exploration": agent.exploration,
        "normalize_rewards": agent.normalize_rewards,
        "partition": agent.partition.snapshot(),
        "history": [
            (record.arm, record.reward, record.step, record.count)
            for record in agent.history
        ],
        "stats": [
            (region.low, region.high,
             stats.plays and [
                 (p.arm, p.reward, p.step, p.count)
                 for p in stats.plays
             ] or [],
             stats.disc_count, stats.disc_raw_sum)
            for region in list(agent.partition)
            for stats in [agent._stats.get(region, _RegionStats())]
        ],
        "total_steps": agent._total_steps,
        "reward_window": [agent._reward_low, agent._reward_high],
        "pending": [agent._pending_arm, agent._pending_split,
                    None if agent._pending_region is None
                    else (agent._pending_region.low,
                          agent._pending_region.high)],
        "rng": repr(agent.rng.bit_generator.state),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()
