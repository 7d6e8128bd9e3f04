"""Sparse and residual models (the R2SP auxiliary objects, Section III-C).

- The **sparse model** has the global structure with every logically
  pruned position set to zero.
- The **residual model** is ``global - sparse``: zeros at surviving
  positions, the original global values at pruned positions.

R2SP's aggregation identity: ``recovered + residual`` equals the trained
values at surviving positions and the untouched global values at pruned
positions, so "each model parameter has a chance to be trained".

:func:`keep_mask` spells the pruning rule out per layer kind, on purpose
*not* derived from :data:`repro.pruning.plan.COUPLING`: it is the
reference that ``repro.verify`` checks the table-driven gather/scatter
path against, and a reference sharing the table could not catch a wrong
row in it.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.pruning.plan import LayerPrune, PruningPlan


def keep_mask(suffix: str, entry: LayerPrune,
              shape: Tuple[int, ...]) -> np.ndarray:
    """Boolean mask of surviving positions for one parameter array.

    Public so the verification subsystem can reason about which
    positions of a global array a plan dispatches versus leaves to the
    residual model.
    """
    mask = np.zeros(shape, dtype=bool)
    kind = entry.kind
    if kind in ("conv", "linear") and suffix == "weight":
        mask[np.ix_(entry.kept_out, entry.kept_in)] = True
    elif (kind in ("conv", "linear") and suffix == "bias") or kind == "bn":
        mask[entry.kept_out] = True
    elif kind == "lstm":
        # unit j owns row j of each of the four stacked gate blocks
        rows = np.concatenate(
            [gate * entry.out_full + entry.kept_out for gate in range(4)])
        if suffix == "w_ih":
            mask[np.ix_(rows, entry.kept_in)] = True
        elif suffix == "w_hh":
            mask[np.ix_(rows, entry.kept_out)] = True
        else:
            mask[rows] = True
    else:
        raise ValueError(f"no mask rule for kind={kind!r} suffix={suffix!r}")
    return mask


def sparse_state_dict(full_state: Dict[str, np.ndarray],
                      plan: PruningPlan) -> Dict[str, np.ndarray]:
    """The sparse model: global values with pruned positions zeroed."""
    planned = plan.param_names()
    sparse: Dict[str, np.ndarray] = {}
    for key, value in full_state.items():
        if key in planned:
            layer_name, suffix = planned[key]
            mask = keep_mask(suffix, plan[layer_name], value.shape)
            sparse[key] = np.where(mask, value, 0.0)
        else:
            sparse[key] = value.copy()
    return sparse


def residual_state_dict(full_state: Dict[str, np.ndarray],
                        plan: PruningPlan) -> Dict[str, np.ndarray]:
    """The residual model ``global - sparse`` (Eq. before (2))."""
    sparse = sparse_state_dict(full_state, plan)
    return {key: full_state[key] - sparse[key] for key in full_state}
