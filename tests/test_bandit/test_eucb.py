"""E-UCB agent: Algorithm 1 mechanics and learning behaviour."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from repro.bandit.eucb import EUCBAgent


def _play(agent, reward_fn, rounds, rng):
    for _ in range(rounds):
        arm = agent.select_ratio()
        agent.observe(reward_fn(arm) + rng.normal(0, 0.02))


def test_arms_stay_inside_bounds(rng):
    agent = EUCBAgent(max_ratio=0.7, rng=rng)
    for _ in range(50):
        arm = agent.select_ratio()
        assert 0.0 <= arm < 0.7
        agent.observe(0.0)


def test_arm_is_drawn_uniformly_in_the_chosen_region():
    """Algorithm 1, line 6: the ratio is one uniform draw inside the
    region with the highest bound, wherever that region lies."""
    agent = EUCBAgent(theta=0.05, max_ratio=0.8,
                      rng=np.random.default_rng(5))
    noise = np.random.default_rng(6)
    for _ in range(30):
        bounds = agent.upper_confidence_bounds()
        best = max(agent.partition, key=lambda region: bounds[region])
        draw = copy.deepcopy(agent.rng).uniform(best.low, best.high)
        arm = agent.select_ratio()
        assert arm == draw
        agent.observe(1.0 - (arm - 0.3) ** 2 + noise.normal(0, 0.02))


def test_tree_growth_respects_theta(rng):
    """Regions with diameter <= theta are never split further, so with a
    large theta the leaf count saturates quickly and stays constant."""
    agent = EUCBAgent(theta=0.5, max_ratio=0.8, rng=rng)
    _play(agent, lambda a: 1.0, 40, rng)
    saturated = agent.num_regions
    assert saturated > 1
    _play(agent, lambda a: 1.0, 40, rng)
    assert agent.num_regions == saturated


def test_smaller_theta_grows_bigger_tree(rng):
    fine = EUCBAgent(theta=0.02, max_ratio=0.8,
                     rng=np.random.default_rng(0))
    coarse = EUCBAgent(theta=0.2, max_ratio=0.8,
                       rng=np.random.default_rng(0))
    noise = np.random.default_rng(1)
    _play(fine, lambda a: 1.0, 120, noise)
    _play(coarse, lambda a: 1.0, 120, noise)
    assert fine.num_regions > coarse.num_regions


def test_double_select_raises(rng):
    agent = EUCBAgent(rng=rng)
    agent.select_ratio()
    with pytest.raises(RuntimeError):
        agent.select_ratio()


def test_observe_without_select_raises(rng):
    with pytest.raises(RuntimeError):
        EUCBAgent(rng=rng).observe(1.0)


def test_abandon_clears_pending(rng):
    agent = EUCBAgent(rng=rng)
    agent.select_ratio()
    agent.abandon()
    agent.select_ratio()  # must not raise
    agent.observe(0.0)
    assert agent.rounds_played == 1


def test_abandon_does_not_leak_partition_regions(rng):
    """Regression: abandoned plays used to leave behind the split made
    at selection time, accumulating phantom never-rewarded regions with
    infinite UCB."""
    agent = EUCBAgent(theta=0.01, max_ratio=0.9, rng=rng)
    agent.select_ratio()
    agent.observe(1.0)
    before = agent.num_regions
    for _ in range(25):
        agent.select_ratio()
        agent.abandon()
    assert agent.num_regions == before
    # and no unexplored-phantom regions distort the bounds beyond the
    # single legitimate unexplored sibling of the first split
    bounds = agent.upper_confidence_bounds()
    assert sum(math.isinf(b) for b in bounds.values()) <= 1


def test_split_is_deferred_to_observe(rng):
    agent = EUCBAgent(theta=0.01, max_ratio=0.9, rng=rng)
    before = agent.num_regions
    agent.select_ratio()
    assert agent.num_regions == before       # not yet
    agent.observe(1.0)
    assert agent.num_regions == before + 1   # split lands with the reward


def test_incremental_stats_match_full_replay():
    """The O(regions) incremental statistics must agree with the
    reference full-history replay through splits, abandons and drift."""
    agent = EUCBAgent(theta=0.05, discount=0.9, max_ratio=0.9,
                      rng=np.random.default_rng(3))
    noise = np.random.default_rng(4)
    for round_index in range(120):
        arm = agent.select_ratio()
        if round_index % 7 == 3:
            agent.abandon()
            continue
        peak = 0.2 if round_index < 60 else 0.7
        agent.observe(1.0 - 6.0 * (arm - peak) ** 2 + noise.normal(0, 0.02))
        incremental, inc_total = agent._discounted_stats()
        replay, rep_total = agent._replay_stats()
        assert inc_total == pytest.approx(rep_total, rel=1e-9)
        for region in agent.partition:
            inc_count, inc_mean = incremental[region]
            rep_count, rep_sum = replay[region]
            assert inc_count == pytest.approx(rep_count, rel=1e-9, abs=1e-12)
            if rep_count > 0.0:
                assert inc_mean == pytest.approx(rep_sum / rep_count,
                                                 rel=1e-9, abs=1e-12)


def test_ucb_is_eqs_9_to_11_in_closed_form():
    """Every region's bound, recomputed from the play history alone:
    Eq. 9's discounted count ``N_k(P) = sum d**(k - step)`` and
    min-max-normalised discounted mean, Eq. 10's padding
    ``sqrt(2 log n_k / N_k(P))`` (``n_k`` the total, clamped at ``e``)
    and Eq. 11's sum.  The snapshot reports the same padding."""
    rng = np.random.default_rng(4)
    agent = EUCBAgent(discount=0.9, theta=0.05, max_ratio=0.8,
                      rng=np.random.default_rng(9))
    _play(agent, lambda arm: 1.0 - arm, 14, rng)
    d, k = agent.discount, len(agent.history) + 1
    rewards = [record.reward for record in agent.history]
    low, high = min(rewards), max(rewards)
    counts = {region: 0.0 for region in agent.partition}
    sums = dict(counts)
    for record in agent.history:
        region = agent.partition.find(record.arm)
        weight = d ** (k - record.step)
        counts[region] += weight
        sums[region] += weight * (record.reward - low) / (high - low)
    total = sum(counts.values())
    assert total > math.e

    bounds = agent.upper_confidence_bounds()
    played = [region for region in agent.partition if counts[region] > 0]
    assert len(played) >= 3
    for region in agent.partition:
        if counts[region] == 0.0:
            assert bounds[region] == math.inf
            continue
        mean = sums[region] / counts[region]
        padding = math.sqrt(2.0 * math.log(total) / counts[region])
        assert bounds[region] == pytest.approx(mean + padding, rel=1e-12)
    radii = {(arm["low"], arm["high"]): arm["radius"]
             for arm in agent.snapshot()["arms"]}
    for region in played:
        assert radii[(region.low, region.high)] == pytest.approx(
            math.sqrt(2.0 * math.log(total) / counts[region]), rel=1e-12)


def test_snapshot_pull_counts_survive_splits(rng):
    agent = EUCBAgent(theta=0.02, max_ratio=0.8,
                      rng=np.random.default_rng(6))
    _play(agent, lambda a: 1.0 - (a - 0.3) ** 2, 60,
          np.random.default_rng(7))
    snapshot = agent.snapshot()
    assert sum(arm["pulls"] for arm in snapshot["arms"]) == 60


def test_unexplored_regions_have_infinite_ucb(rng):
    agent = EUCBAgent(theta=0.2, rng=rng)
    agent.select_ratio()
    agent.observe(1.0)
    bounds = agent.upper_confidence_bounds()
    assert any(math.isinf(b) for b in bounds.values())


def test_agent_prefers_high_reward_region(rng):
    """Peaked reward at 0.6 -> late arms concentrate near the peak."""
    agent = EUCBAgent(theta=0.05, max_ratio=0.9, discount=0.98,
                      rng=np.random.default_rng(0))
    reward = lambda a: 1.0 - 6.0 * (a - 0.6) ** 2
    _play(agent, reward, 250, np.random.default_rng(1))
    late_arms = [record.arm for record in agent.history[-40:]]
    assert abs(float(np.mean(late_arms)) - 0.6) < 0.25


def test_discounting_adapts_to_drift(rng):
    """Optimal arm moves mid-run; the discounted agent follows."""
    agent = EUCBAgent(theta=0.05, discount=0.9, max_ratio=0.9,
                      rng=np.random.default_rng(2))
    noise = np.random.default_rng(3)
    _play(agent, lambda a: 1.0 - 6.0 * (a - 0.2) ** 2, 150, noise)
    _play(agent, lambda a: 1.0 - 6.0 * (a - 0.7) ** 2, 200, noise)
    late_arms = [record.arm for record in agent.history[-40:]]
    assert float(np.mean(late_arms)) > 0.4


def test_parameter_validation():
    with pytest.raises(ValueError):
        EUCBAgent(discount=1.0)
    with pytest.raises(ValueError):
        EUCBAgent(theta=0.0)
    with pytest.raises(ValueError):
        EUCBAgent(max_ratio=0.0)


def test_reward_normalization_constant_rewards(rng):
    agent = EUCBAgent(rng=rng)
    for _ in range(10):
        agent.select_ratio()
        agent.observe(5.0)  # constant -> zero spread
    bounds = agent.upper_confidence_bounds()
    assert all(np.isfinite(b) or math.isinf(b) for b in bounds.values())


def test_snapshot_reports_bandit_state(rng):
    agent = EUCBAgent(theta=0.1, max_ratio=0.8,
                      rng=np.random.default_rng(0))
    _play(agent, lambda a: 1.0 - (a - 0.4) ** 2, 30,
          np.random.default_rng(1))
    snapshot = agent.snapshot()
    assert snapshot["rounds_played"] == 30
    assert snapshot["num_regions"] == agent.num_regions
    assert snapshot["pending_arm"] is None
    assert len(snapshot["arms"]) == snapshot["num_regions"]
    # raw pull counts account for every play
    assert sum(arm["pulls"] for arm in snapshot["arms"]) == 30
    # arms tile the partition exactly
    edges = snapshot["partition"]["edges"]
    assert [arm["low"] for arm in snapshot["arms"]] == edges[:-1]
    assert [arm["high"] for arm in snapshot["arms"]] == edges[1:]
    for arm in snapshot["arms"]:
        if arm["discounted_count"] > 0:
            assert arm["mean"] is not None
            assert arm["radius"] is not None and arm["radius"] > 0
        else:
            assert arm["mean"] is None
            assert arm["radius"] is None


def test_snapshot_is_json_ready_and_pure(rng):
    import json

    agent = EUCBAgent(theta=0.2, rng=np.random.default_rng(4))
    _play(agent, lambda a: 0.5, 10, np.random.default_rng(5))
    first = agent.snapshot()
    json.dumps(first)  # JSON-serialisable as-is
    assert agent.snapshot() == first  # observation does not mutate
    arm = agent.select_ratio()  # agent still fully functional
    assert agent.snapshot()["pending_arm"] == arm
    agent.observe(0.5)


def test_snapshot_of_fresh_agent(rng):
    snapshot = EUCBAgent(rng=rng).snapshot()
    assert snapshot["rounds_played"] == 0
    assert all(arm["mean"] is None for arm in snapshot["arms"])


def test_multiplicity_matches_repeated_plays_of_one_arm():
    """``observe(reward, count=n)`` books one cohort play as ``n``
    virtual single plays of the same arm: aging by ``discount**n`` and
    a geometric play weight reproduce the statistics of ``n`` repeated
    observations bit-for-bit (geometric-series identity, no rounding
    headroom needed for these short sums)."""
    grouped = EUCBAgent(rng=np.random.default_rng(8))
    repeated = EUCBAgent(rng=np.random.default_rng(8))
    # a warmup-style forced arm keeps both partitions untouched, so
    # the only moving part is the discounted bookkeeping
    reward, count = 0.37, 3
    grouped._pending_arm = 0.0
    grouped.observe(reward, count=count)
    for _ in range(count):
        repeated._pending_arm = 0.0
        repeated.observe(reward)
    assert grouped._total_steps == repeated._total_steps == count
    bounds_a = grouped.upper_confidence_bounds()
    bounds_b = repeated.upper_confidence_bounds()
    assert set(bounds_a) == set(bounds_b)
    for region in bounds_a:
        assert np.isclose(bounds_a[region], bounds_b[region],
                          rtol=0, atol=1e-12)
    # the incremental stats still agree with the full-history replay
    # oracle, which understands counts natively
    assert grouped.consistency_report() == []
    assert repeated.consistency_report() == []


def test_multiplicity_count_one_is_bitwise_legacy():
    a = EUCBAgent(rng=np.random.default_rng(9))
    b = EUCBAgent(rng=np.random.default_rng(9))
    arm_a = a.select_ratio()
    arm_b = b.select_ratio()
    assert arm_a == arm_b
    a.observe(0.5)
    b.observe(0.5, count=1)
    assert a.upper_confidence_bounds() == b.upper_confidence_bounds()


def test_multiplicity_validation():
    agent = EUCBAgent(rng=np.random.default_rng(10))
    agent.select_ratio()
    with pytest.raises(ValueError):
        agent.observe(0.5, count=0)
