"""Distributed structured pruning (Section III-B, VI) and model recovery.

Three operations, all driven by a :class:`~repro.pruning.plan.PruningPlan`:

- :func:`build_pruning_plan` -- walk a global model, score every
  filter / neuron / LSTM hidden unit by l1 norm, and decide which units
  survive at a given pruning ratio (the same ratio in every layer,
  output layer and residual boundaries protected);
- :func:`extract_submodel` -- the compact sub-model the PS sends to a
  worker: a structural clone of the model whose planned arrays are the
  surviving slices;
- :func:`recover_state_dict` -- zero-expand a trained sub-model back to
  the global shape (the "model recovery" step R2SP performs before
  aggregation).

There is one walk for every model family.  It carries which units of
the running activation survive, so each layer drops the matching input
connections: "when the filters with their feature maps are pruned, the
corresponding channels of filters in the next layer are also removed
[and] the weights of the subsequent batch normalization layer are
removed too."  An LSTM's hidden units are pruned the same way (an ISS
component couples unit ``j`` across the four gate blocks, the recurrent
column ``j`` and the next layer's input column); which array axes that
touches is :data:`repro.pruning.plan.COUPLING`, not code here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.models.blocks import Bottleneck
from repro.nn.layers import BatchNorm2d, Conv2d, Linear
from repro.nn.module import Module
from repro.nn.recurrent import LSTM
from repro.pruning.importance import (
    conv_filter_scores,
    linear_neuron_scores,
    lstm_iss_scores,
    top_indices,
)
from repro.pruning.plan import LayerPrune, PruningPlan, keep_count

#: Every module type that owns planned arrays: plan kind, the attribute
#: holding its input width (``None``: no input axis), the one holding
#: its output width, and the l1 score of its units.  A row without a
#: score *follows*: it keeps exactly the units its input kept.
_PLANNED = {
    Conv2d: ("conv", "in_channels", "out_channels",
             lambda m: conv_filter_scores(m.params["weight"])),
    Linear: ("linear", "in_features", "out_features",
             lambda m: linear_neuron_scores(m.params["weight"])),
    LSTM: ("lstm", "input_size", "hidden_size",
           lambda m: lstm_iss_scores(m.params["w_ih"], m.params["w_hh"])),
    BatchNorm2d: ("bn", None, "num_features", None),
}

#: what a layer reads: (surviving unit indices, full width) of the
#: activation before it; ``None`` when nothing planned came before
_State = Optional[Tuple[np.ndarray, int]]


def build_pruning_plan(model: Module, ratio: float) -> PruningPlan:
    """Build a structured pruning plan for ``model`` at ``ratio``.

    Every convolution / fully-connected / LSTM layer is pruned at the
    same ratio (the paper avoids layer-wise hyper-parameters); the final
    Linear layer (classifier or vocabulary decoder) and residual-block
    boundary convolutions keep their full width.  ``ratio == 0`` yields
    an identity plan.
    """
    plan = PruningPlan(ratio=float(ratio))
    _walk(model, "", None, ratio, plan, _protected_layers(model))
    return plan


def _protected_layers(model: Module) -> Set[str]:
    """Layers whose output width is never reduced: the last Linear, and
    in every bottleneck the two convolutions the residual sum joins."""
    protected: Set[str] = set()
    last_linear = None
    for name, module in model.named_modules():
        if isinstance(module, Linear):
            last_linear = name
        elif isinstance(module, Bottleneck):
            protected.update((f"{name}.conv3", f"{name}.downsample.conv"))
    if last_linear is None:
        raise ValueError("model has no Linear output layer")
    protected.add(last_linear)
    return protected


def _kept_inputs(state: _State, full: int, qual: str,
                 fan_out: bool = False) -> np.ndarray:
    """Surviving input connections of a layer reading ``full`` inputs."""
    if state is None:
        return np.arange(full, dtype=np.intp)
    kept, width = state
    fan, rest = divmod(full, width)
    if rest or (fan != 1 and not fan_out):
        raise ValueError(
            f"layer {qual!r} reads {full} inputs: not "
            f"{'a multiple of ' if fan_out else ''}the {width} units before it"
        )
    if fan == 1:
        return kept
    # a Flatten in between: channel c became features [c*fan, (c+1)*fan)
    return (kept[:, None] * fan + np.arange(fan)).reshape(-1).astype(np.intp)


def _walk(module: Module, qual: str, state: _State, ratio: float,
          plan: PruningPlan, protected: Set[str]) -> _State:
    """Plan ``module`` given what it reads; return what it emits."""
    spec = _PLANNED.get(type(module))
    if spec is not None:
        kind, in_attr, out_attr, score = spec
        out_full = getattr(module, out_attr)
        if score is None:
            plan.add(qual, LayerPrune(
                kind=kind, kept_out=_kept_inputs(state, out_full, qual),
                out_full=out_full,
            ))
            return state
        in_full = getattr(module, in_attr)
        if qual in protected:
            kept_out = np.arange(out_full, dtype=np.intp)
        else:
            kept_out = top_indices(score(module), keep_count(out_full, ratio))
        plan.add(qual, LayerPrune(
            kind=kind, kept_out=kept_out, out_full=out_full,
            kept_in=_kept_inputs(state, in_full, qual, kind == "linear"),
            in_full=in_full,
        ))
        return kept_out, out_full

    if module._children:
        # a container is its children in order; a bottleneck's skip path
        # reads what the block read and joins the (protected) main path
        entry = state
        residual = isinstance(module, Bottleneck)
        if (residual and not module.has_projection and entry is not None
                and entry[0].size != entry[1]):
            raise ValueError(
                f"bottleneck {qual!r} has an identity skip but a pruned "
                "input; give the first block of each stage a projection"
            )
        for name, child in module.children():
            sub = f"{qual}.{name}" if qual else name
            if residual and name == "downsample":
                _walk(child, sub, entry, ratio, plan, protected)
            else:
                state = _walk(child, sub, state, ratio, plan, protected)
        return state

    if module.params or module.buffers:
        # arrays no plan entry describes (an embedding table) travel
        # whole, so they cannot sit behind a pruned layer
        if state is not None and state[0].size != state[1]:
            raise TypeError(
                f"cannot plan pruning through layer {qual!r} of type "
                f"{type(module).__name__}"
            )
        return None
    return state  # activations, pooling, flatten, dropout: width-preserving


# ----------------------------------------------------------------------
# sub-model extraction
# ----------------------------------------------------------------------
def extract_submodel(model: Module, plan: PruningPlan,
                     rng: Optional[np.random.Generator] = None) -> Module:
    """The compact sub-model ``plan`` describes: what the PS transmits.

    A structural clone of ``model`` (:meth:`Module.fresh` -- no layer
    initialiser runs) in which every planned array is the
    :func:`gather_param` slice of its source, every other array a copy,
    and every width attribute the kept count.  ``rng`` is drawn from
    once per RNG-bearing module (Dropout), in graph order, to seed that
    module's own generator -- and for nothing else.

    Raises ``ValueError`` unless ``plan`` has an entry of the right kind
    and full widths for exactly the planned layers of ``model``.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    planned = {name for name, module in model.named_modules()
               if type(module) in _PLANNED}
    if planned != set(plan.layers):
        raise ValueError(
            "plan and model disagree on which layers are planned: "
            f"{sorted(planned ^ set(plan.layers))}"
        )
    return _clone(model, "", plan, rng)


def _clone(module: Module, qual: str, plan: PruningPlan,
           rng: np.random.Generator) -> Module:
    clone = module.fresh()
    entry = None
    spec = _PLANNED.get(type(module))
    if spec is not None:
        kind, in_attr, out_attr, _ = spec
        entry = plan[qual]
        fits = (kind, getattr(module, out_attr),
                getattr(module, in_attr) if in_attr else None)
        if (entry.kind, entry.out_full, entry.in_full) != fits:
            raise ValueError(
                f"layer {qual!r} is (kind, out, in) = {fits} but its plan "
                f"entry says {(entry.kind, entry.out_full, entry.in_full)}"
            )
        setattr(clone, out_attr, entry.kept_out.size)
        if in_attr:
            setattr(clone, in_attr, entry.axis("in").size)
    for arrays, cloned in ((module.params, clone.params),
                           (module.buffers, clone.buffers)):
        for name, value in arrays.items():
            cloned[name] = (value.copy() if entry is None
                            else gather_param(name, entry, value))
    for name, value in clone.params.items():
        clone.grads[name] = np.zeros_like(value)
    if getattr(module, "rng", None) is not None:
        clone.rng = np.random.default_rng(rng.integers(2 ** 31))
    for name, child in module.children():
        clone.add_child(name, _clone(
            child, f"{qual}.{name}" if qual else name, plan, rng))
    return clone


# ----------------------------------------------------------------------
# model recovery (zero expansion)
# ----------------------------------------------------------------------
def recover_state_dict(sub_state: Dict[str, np.ndarray], plan: PruningPlan,
                       template: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Zero-expand a trained sub-model state back to the global shape.

    ``template`` supplies the full shapes (typically the global model's
    ``state_dict()``); its values are never read, only their shapes.
    Entries not covered by the plan are copied through unchanged.
    """
    planned = plan.param_names()
    recovered: Dict[str, np.ndarray] = {}
    for key, full_value in template.items():
        sub_value = sub_state[key]
        if key in planned:
            layer_name, suffix = planned[key]
            recovered[key] = np.zeros(full_value.shape, dtype=sub_value.dtype)
            scatter_assign_param(recovered[key], suffix, plan[layer_name],
                                 sub_value)
        elif sub_value.shape != full_value.shape:
            raise ValueError(
                f"unplanned entry {key!r} changed shape: "
                f"{sub_value.shape} vs {full_value.shape}"
            )
        else:
            recovered[key] = sub_value.copy()
    return recovered


def _kept_axes(suffix: str, entry: LayerPrune) -> List[np.ndarray]:
    """The kept (surviving) positions along each coupled leading axis of
    a full array -- the positions a sub-model array maps onto."""
    return [entry.axis(role) for role in entry.roles(suffix)]


def gather_param(suffix: str, entry: LayerPrune,
                 full_value: np.ndarray) -> np.ndarray:
    """Extract the sub-model view of a full-shape parameter (the exact
    inverse of :func:`scatter_assign_param`).  Always returns a copy:
    one ``take`` per coupled axis."""
    for axis, kept in enumerate(_kept_axes(suffix, entry)):
        full_value = full_value.take(kept, axis=axis)
    return full_value


def scatter_assign_param(full: np.ndarray, suffix: str, entry: LayerPrune,
                         sub_value: np.ndarray) -> None:
    """Write ``sub_value`` into the kept positions of ``full`` in place;
    every other position is left untouched.  With a second coupled axis
    the kept rows are read as one block, assigned at the kept columns
    and written back: copies of the same values an open-mesh index
    writes, without the mesh."""
    rows, *cols = _kept_axes(suffix, entry)
    if not cols:
        full[rows] = sub_value
        return
    (col,) = cols
    block = full.take(rows, axis=0)
    block[:, col] = sub_value
    full[rows] = block


def scatter_add_param(acc: np.ndarray, suffix: str, entry: LayerPrune,
                      sub_value: np.ndarray, weight: float) -> None:
    """Accumulate ``weight * sub_value`` into the kept positions of
    ``acc`` in place — what ``acc += weight * recovered`` does, without
    allocating the zero-expanded array."""
    acc[np.ix_(*_kept_axes(suffix, entry))] += weight * sub_value
