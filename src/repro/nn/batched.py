"""Vectorised cohort training: one forward/backward per cohort step.

A *cohort* is a set of workers that received the same pruned sub-model
(same :class:`~repro.pruning.plan.PruningPlan`, same dispatched state).
Training them one by one repeats identical-shape matmuls ``M`` times per
step; this module instead stacks the ``M`` member shards into batched
tensors and runs each layer **once** per step over a member-major
``(M * B, ...)`` activation block.

The stacked computation is *specified to be bitwise identical* to the
per-member reference path (``differential/engine_vs_reference`` in
``repro verify`` pins this at 0 ULPs).  The equivalences it relies on:

- per-sample layers (ReLU, pooling, Flatten, im2col and the tap-wise
  input gradient's adds) act row- or sample-wise, so running them on
  the stacked block is literally the same arithmetic per member slice;
- NumPy's batched matmul ``(M, B, I) @ (M, I, O)`` computes each
  ``(B, I) @ (I, O)`` slice with the same kernel as the 2-D call, so
  stacked Linear/Conv2d forward/backward products match per-member
  products bit for bit;
- float scalars (``lr``, ``momentum``, clip scales) are applied
  elementwise, and the clip scales come from the per-member
  optimiser's own rule, :func:`repro.nn.optim.clip_scales`, over the
  member rows of the gradient blocks in the same parameter order.

Memory contract (DESIGN.md 3.3): the ``(M, ...)`` parameter and gradient
blocks are allocated once per cohort, clipping allocates nothing
cohort-sized, and trained states leave as row views of the blocks.

Members share weights only at dispatch: after the first step their
parameters diverge (different local batches), hence every Linear/Conv2d
carries *stacked per-member* weights of shape ``(M, ...)``.

Unsupported architectures (anything with cross-sample statistics such
as BatchNorm2d, RNG-bearing layers such as Dropout, or recurrent cells)
are rejected by :func:`supports_cohort_training`; callers fall back to
the per-member path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.loss import softmax_with_log
from repro.nn.module import Module, Sequential
from repro.nn.optim import clip_scales

__all__ = ["supports_cohort_training", "train_cohort"]

#: layers with no parameters and strictly per-sample semantics: they run
#: unchanged on the stacked ``(M * B, ...)`` activation block
_STATELESS_TYPES = (ReLU, MaxPool2d, AvgPool2d, Flatten)


def supports_cohort_training(model: Module) -> bool:
    """True iff ``model`` can be trained with the stacked cohort path.

    Requires a flat :class:`Sequential` whose layers are exactly
    ``Linear``/``Conv2d`` (stacked weights) or per-sample stateless
    layers.  Exact type checks on purpose: a subclass may override
    ``forward`` with semantics the batched formulas do not replicate.
    """
    if type(model) is not Sequential:
        return False
    for layer in model.layers:
        if layer._children:
            return False
        if type(layer) not in (Linear, Conv2d) + _STATELESS_TYPES:
            return False
    return True


class _StackedLinear:
    """``M`` independent Linear layers as one batched computation."""

    def __init__(self, name: str, weight: np.ndarray, bias: np.ndarray,
                 members: int) -> None:
        self.name = name
        self.members = members
        self.requires_input_grad = True
        self.params = {
            "weight": np.repeat(weight[None], members, axis=0),
            "bias": np.repeat(bias[None], members, axis=0),
        }
        # every backward overwrites both through ``out=``
        self.grads = {
            "weight": np.empty_like(self.params["weight"]),
            "bias": np.empty_like(self.params["bias"]),
        }
        self._x3: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        m = self.members
        x3 = x.reshape(m, -1, x.shape[-1])
        self._x3 = x3
        out = x3 @ self.params["weight"].transpose(0, 2, 1)
        out += self.params["bias"][:, None, :]
        return out.reshape(-1, out.shape[-1])

    def backward(self, grad_out: np.ndarray) -> Optional[np.ndarray]:
        if self._x3 is None:
            raise RuntimeError("backward called before forward")
        m = self.members
        g3 = grad_out.reshape(m, -1, grad_out.shape[-1])
        # one backward per step: write the fresh gradients in place
        # (identical values to zero + accumulate, no temporaries)
        np.matmul(g3.transpose(0, 2, 1), self._x3,
                  out=self.grads["weight"])
        np.sum(g3, axis=1, out=self.grads["bias"])
        if not self.requires_input_grad:
            return None
        dx = g3 @ self.params["weight"]
        return dx.reshape(-1, dx.shape[-1])


class _StackedConv2d:
    """``M`` independent Conv2d layers as one batched computation.

    im2col is per-sample, so one lowering of the stacked ``(M * B, C,
    H, W)`` block yields every member's patch rows in member-major
    order; only the weight products need batching.  The input gradient
    takes the ``(M, Cout, C, kh, kw)`` banks tap by tap, a block of
    samples never spanning two members.
    """

    def __init__(self, name: str, template: Conv2d, weight: np.ndarray,
                 bias: np.ndarray, members: int) -> None:
        self.name = name
        self.members = members
        self.out_channels = template.out_channels
        self.kernel_size = template.kernel_size
        self.stride = template.stride
        self.padding = template.padding
        self.requires_input_grad = True
        self.params = {
            "weight": np.repeat(weight[None], members, axis=0),
            "bias": np.repeat(bias[None], members, axis=0),
        }
        self.grads = {
            "weight": np.empty_like(self.params["weight"]),
            "bias": np.empty_like(self.params["bias"]),
        }
        self._cols3: Optional[np.ndarray] = None
        self._x_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, _, h, w = x.shape
        m = self.members
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = F.conv_output_size(h, k, s, p)
        out_w = F.conv_output_size(w, k, s, p)

        cols = F.im2col(x, k, k, s, p)
        cols3 = F.gemm_operand(cols.reshape(m, -1, cols.shape[-1]),
                               self.out_channels)
        self._cols3 = cols3
        self._x_shape = x.shape

        w_mat3 = self.params["weight"].reshape(m, self.out_channels, -1)
        out = cols3 @ w_mat3.transpose(0, 2, 1)
        out += self.params["bias"][:, None, :]
        return (out.reshape(n, out_h, out_w, self.out_channels)
                .transpose(0, 3, 1, 2))

    def backward(self, grad_out: np.ndarray) -> Optional[np.ndarray]:
        if self._cols3 is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        m = self.members
        s, p = self.stride, self.padding
        grad_mat = (grad_out.transpose(0, 2, 3, 1)
                    .reshape(-1, self.out_channels))
        g3 = grad_mat.reshape(m, -1, self.out_channels)

        # one backward per step: write fresh gradients straight into the
        # (C-contiguous) grad buffers through reshaped views
        np.matmul(g3.transpose(0, 2, 1), self._cols3,
                  out=self.grads["weight"].reshape(
                      m, self.out_channels, -1))
        np.sum(g3, axis=1, out=self.grads["bias"])

        if not self.requires_input_grad:
            return None
        return F.conv2d_input_grad(grad_mat, self.params["weight"],
                                   self._x_shape, s, p)


def _build_stacked(model: Sequential, init_state: Dict[str, np.ndarray],
                   members: int) -> List[object]:
    """Mirror the template architecture with stacked/cloned layers, all
    members initialised from the shared dispatched state."""
    stacked: List[object] = []
    for name, layer in zip(model.layer_names, model.layers):
        if type(layer) is Linear:
            stacked.append(_StackedLinear(
                name, init_state[f"{name}.weight"],
                init_state[f"{name}.bias"], members,
            ))
        elif type(layer) is Conv2d:
            stacked.append(_StackedConv2d(
                name, layer, init_state[f"{name}.weight"],
                init_state[f"{name}.bias"], members,
            ))
        elif type(layer) in _STATELESS_TYPES:
            # a clone, so cohort runs never disturb the template's
            # forward caches
            clone = layer.fresh()
            clone.name = name            # type: ignore[attr-defined]
            stacked.append(clone)
        else:
            raise TypeError(f"not a supported cohort layer: {type(layer)!r}")
    return stacked


def _param_layers(stacked: Sequence[object]) -> List[object]:
    return [layer for layer in stacked
            if isinstance(layer, (_StackedLinear, _StackedConv2d))]


def train_cohort(model: Sequential, init_state: Dict[str, np.ndarray],
                 iterators: Sequence, tau: int, lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0,
                 prox_mu: float = 0.0, clip_norm: Optional[float] = None,
                 anchor: Optional[Dict[str, np.ndarray]] = None,
                 ) -> Tuple[List[Dict[str, np.ndarray]], List[float]]:
    """Train one cohort for ``tau`` steps, one batched pass per step.

    ``model`` is any member's sub-model (architecture template only; it
    is never mutated), ``init_state`` the shared dispatched state and
    ``iterators`` the members' batch iterators, in cohort order.  Every
    iterator is consumed exactly ``tau`` times, in member order per
    step, so each member sees the identical batch sequence the
    per-member path would have drawn.

    Returns the per-member trained state dicts and mean batch losses,
    both in cohort order -- bitwise equal to running
    :meth:`repro.fl.worker.Worker.local_train` per member.
    """
    members = len(iterators)
    if members == 0:
        return [], []
    stacked = _build_stacked(model, init_state, members)
    param_layers = _param_layers(stacked)
    # the backward loop stops at the first parameter layer: nothing reads
    # its input gradient, whatever the template's flag says
    if param_layers:
        param_layers[0].requires_input_grad = False
    velocity: Dict[int, Dict[str, np.ndarray]] = {}
    anchor_state = anchor if anchor is not None else init_state
    totals = [0.0] * members
    batch: Optional[int] = None

    for _ in range(tau):
        inputs_list, targets_list = [], []
        for iterator in iterators:
            inputs, targets = iterator.next_batch()
            if batch is None:
                batch = inputs.shape[0]
            elif inputs.shape[0] != batch:
                raise ValueError(
                    "cohort members drew unequal batch sizes "
                    f"({inputs.shape[0]} vs {batch}); the caller must "
                    "group members by batch shape"
                )
            inputs_list.append(inputs)
            targets_list.append(targets)
        x = np.concatenate(inputs_list, axis=0)
        targets = np.concatenate(targets_list, axis=0)

        for layer in stacked:
            x = layer.forward(x)

        # --- loss: per-member mean over its own B rows -----------------
        logits = x
        rows = logits.shape[0]
        probs, log_probs = softmax_with_log(logits)
        picked = log_probs[np.arange(rows), targets]
        for index in range(members):
            member_rows = picked[index * batch:(index + 1) * batch]
            totals[index] += float(-member_rows.mean())
        grad = probs.copy()
        grad[np.arange(rows), targets] -= 1.0
        grad /= batch

        # --- backward (layers overwrite their grads: zero_grad +
        # accumulate collapses to a single in-place write per step) ---
        for layer in reversed(stacked):
            grad = layer.backward(grad)
            if grad is None:       # the first parameter layer
                break

        _sgd_step(param_layers, velocity, members, lr, momentum,
                  weight_decay, prox_mu, clip_norm, anchor_state)

    # hand-off: a member's state is its (disjoint) row of each block
    named = [(f"{layer.name}.{name}", value) for layer in param_layers
             for name, value in layer.params.items()]
    states = [{key: value[index] for key, value in named}
              for index in range(members)]
    losses = [total / tau for total in totals]
    return states, losses


def _sgd_step(param_layers: Sequence[object],
              velocity: Dict[int, Dict[str, np.ndarray]], members: int,
              lr: float, momentum: float, weight_decay: float,
              prox_mu: float, clip_norm: Optional[float],
              anchor: Dict[str, np.ndarray]) -> None:
    """One stacked SGD step replicating :class:`repro.nn.optim.SGD`
    (and the FedProx proximal term) in the exact per-member order:
    proximal gradient, then clipping, then decay/momentum/update."""
    if prox_mu > 0.0:
        for layer in param_layers:
            for name, param in layer.params.items():
                ref = anchor.get(f"{layer.name}.{name}")
                if ref is not None and param.shape[1:] == ref.shape:
                    layer.grads[name] += prox_mu * (param - ref[None])

    if clip_norm is not None:
        # SGD._apply_clipping's rule, per member in its parameter order;
        # unclipped members keep scale 1 and are masked out
        grads = [grad.reshape(members, -1) for layer in param_layers
                 for grad in layer.grads.values()]
        scales = clip_scales(grads, members, clip_norm)
        clipped = (scales != 1.0)[:, None]
        if clipped.any():
            for rows in grads:
                np.multiply(rows, scales.astype(rows.dtype)[:, None],
                            out=rows, where=clipped)

    for layer in param_layers:
        for name, param in layer.params.items():
            grad = layer.grads[name]
            if weight_decay:
                grad = grad + weight_decay * param
            if momentum:
                slot = velocity.setdefault(id(layer), {})
                vel = slot.get(name)
                if vel is None or vel.shape != grad.shape:
                    vel = np.zeros_like(grad)
                vel = momentum * vel + grad
                slot[name] = vel
                # vel lives across steps: keep the update out of place
                param -= lr * vel
            else:
                # grad is this layer's scratch buffer (or the decay
                # temporary): scale it in place, then update in place --
                # same float ops as ``param - lr * grad``, no new arrays
                np.multiply(grad, lr, out=grad)
                np.subtract(param, grad, out=param)
