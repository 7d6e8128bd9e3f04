"""Hypothesis strategies for property-based verification.

Generators for the domain objects the verification suite fuzzes over:
random state dicts, well-formed pruning plans over layer-chain
templates of every plan kind (with matching gathered sub-models), and
heterogeneous worker fleets.  They live under ``tests/`` because
``hypothesis`` is a dev-only dependency the shipped package never
imports.

Every strategy produces *well-formed* objects by construction (sorted
unique kept indices, chained ``kept_in`` == upstream ``kept_out``,
last layer protected) -- property tests that want malformed inputs
should corrupt these explicitly, so the failure is the property under
test and not generator noise.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.pruning.plan import LayerPrune, PruningPlan, keep_count
from repro.pruning.structured import gather_param
from repro.simulation.device import JETSON_TX2_MODES, DeviceProfile

__all__ = [
    "state_dicts",
    "pruning_ratios",
    "chain_scenarios",
    "worker_fleets",
]


def _array_values(shape: Tuple[int, ...], seed: int,
                  dtype=np.float32) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape).astype(dtype)


@st.composite
def state_dicts(draw, min_entries: int = 1, max_entries: int = 4,
                max_dim: int = 6) -> Dict[str, np.ndarray]:
    """A dict of named float32 arrays with random 1-D/2-D shapes."""
    num_entries = draw(st.integers(min_entries, max_entries))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    state: Dict[str, np.ndarray] = {}
    for index in range(num_entries):
        ndim = draw(st.integers(1, 2))
        shape = tuple(
            draw(st.integers(1, max_dim)) for _ in range(ndim)
        )
        state[f"param{index}"] = _array_values(shape, seed + index)
    return state


def pruning_ratios(max_ratio: float = 0.8) -> st.SearchStrategy[float]:
    """Pruning ratios in ``[0, max_ratio]``, quantised to 1/64ths so
    shrinking produces readable values."""
    steps = int(max_ratio * 64)
    return st.integers(0, steps).map(lambda k: k / 64.0)


def _kept_indices(draw, full: int, count: int) -> np.ndarray:
    kept = draw(st.sets(st.integers(0, full - 1),
                        min_size=count, max_size=count))
    return np.asarray(sorted(kept), dtype=np.intp)


@st.composite
def chain_scenarios(draw, max_layers: int = 3, max_units: int = 8,
                    max_ratio: float = 0.8):
    """A consistent (template, plan, sub_state, weight) quadruple.

    The template is a chain of layers ``fc0 .. fcN``, each of a drawn
    kind (linear, conv followed by its batch norm ``bn<i>``, or lstm;
    the last is linear) with every array that kind owns.  The plan
    prunes each hidden layer to :func:`keep_count` units at the drawn
    ratio with the kept set drawn uniformly (not just a prefix), chains
    ``kept_in`` to the upstream ``kept_out``, and keeps the last layer's
    outputs whole -- the same shape discipline the real plan builder
    follows.  ``sub_state`` is the plan's gather of the template;
    ``weight`` is an aggregation weight in ``(0, 4]``.
    """
    num_layers = draw(st.integers(1, max_layers))
    sizes = [draw(st.integers(2, max_units))
             for _ in range(num_layers + 1)]
    ratio = draw(pruning_ratios(max_ratio))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    weight = draw(
        st.floats(0.25, 4.0, allow_nan=False, allow_infinity=False)
    )

    plan = PruningPlan(ratio=ratio)
    kept_in = np.arange(sizes[0], dtype=np.intp)
    for index in range(num_layers):
        in_full, out_full = sizes[index], sizes[index + 1]
        if index == num_layers - 1:
            kind = "linear"
            kept_out = np.arange(out_full, dtype=np.intp)
        else:
            kind = draw(st.sampled_from(("linear", "conv", "lstm")))
            kept_out = _kept_indices(
                draw, out_full, keep_count(out_full, ratio)
            )
        plan.add(f"fc{index}", LayerPrune(
            kind=kind, kept_out=kept_out, out_full=out_full,
            kept_in=kept_in, in_full=in_full,
        ))
        if kind == "conv":
            plan.add(f"bn{index}", LayerPrune(
                kind="bn", kept_out=kept_out, out_full=out_full,
            ))
        kept_in = kept_out

    template: Dict[str, np.ndarray] = {}
    for key, (layer, suffix) in plan.param_names().items():
        entry = plan[layer]
        widths = {"out": entry.out_full, "in": entry.in_full,
                  "gates": 4 * entry.out_full}
        shape = tuple(widths[role] for role in entry.roles(suffix))
        if entry.kind == "conv" and suffix == "weight":
            shape += (3, 3)
        template[key] = _array_values(shape, seed + len(template))
    sub_state = {
        key: gather_param(suffix, plan[layer], template[key])
        for key, (layer, suffix) in plan.param_names().items()
    }
    return template, plan, sub_state, weight


@st.composite
def worker_fleets(draw, min_workers: int = 2, max_workers: int = 6):
    """A heterogeneous device fleet: mixed Table II modes and
    log-uniform link bandwidths, ids dense from 0."""
    count = draw(st.integers(min_workers, max_workers))
    devices = []
    for device_id in range(count):
        mode = JETSON_TX2_MODES[draw(st.integers(0, 3))]
        exponent = draw(
            st.floats(6.0, 8.0, allow_nan=False, allow_infinity=False)
        )
        devices.append(DeviceProfile(
            device_id=device_id, mode=mode,
            bandwidth_bps=float(10.0 ** exponent),
            cluster=draw(st.sampled_from(("A", "B"))),
        ))
    return devices
