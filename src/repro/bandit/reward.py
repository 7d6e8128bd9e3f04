"""The E-UCB reward (Eq. 8).

``R(alpha_n^k) = DeltaLoss / |T_n^k - mean_n' T_n'^k|``

"The numerator indicates the contribution of the workers to model
convergence. The denominator represents the gap between the completion
time of worker n and the average completion time. A smaller gap means
that the selected pruning ratio fits the worker's capabilities better,
leading to a higher reward."
"""

from __future__ import annotations


def eucb_reward(delta_loss: float, completion_time: float,
                mean_completion_time: float,
                time_eps: float = 1e-3) -> float:
    """Reward for one worker's round (Eq. 8).

    Parameters
    ----------
    delta_loss:
        Decrease of the global loss this round (may be negative when
        the loss went up).
    completion_time / mean_completion_time:
        This worker's round completion time and the mean over workers.
    time_eps:
        Floor on the denominator so a perfectly average worker gets a
        large—but finite—reward.
    """
    gap = abs(completion_time - mean_completion_time)
    return delta_loss / max(gap, time_eps)
