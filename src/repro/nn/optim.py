"""SGD-family optimisers.

:class:`SGD` covers the local update every strategy performs;
:class:`ProximalSGD` adds the FedProx proximal term
``(mu/2) * ||w - w_global||^2`` whose gradient is ``mu * (w - w_global)``
— exactly the baseline in Li et al., "Federated Optimization in
Heterogeneous Networks".
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.nn.module import Module

#: float64 elements per exact-norm block (256 KiB: stays in L2); a
#: parameter wider than this is walked one member at a time
_NORM_BLOCK_ELEMENTS = 32 * 1024

#: float32 unit roundoff, and the most one float32 product can lose to
#: underflow (flush-to-zero included): the clip screen's error model
_F32_UNIT = 2.0 ** -24
_F32_FLUSH = 2.0 ** -126


def squared_norm(grad: np.ndarray,
                 member_axis: bool = False) -> Union[float, np.ndarray]:
    """Sum of squares of ``grad`` in float64: the exact clip-norm total.

    With ``member_axis`` the result is one total per leading-axis row
    (a cohort member), reduced over that row's own contiguous elements:
    bit for bit the scalar total of the member's array alone.
    """
    rows = grad.reshape(len(grad) if member_axis else 1, -1)
    squares = rows.astype(np.float64)
    np.square(squares, out=squares)
    totals = squares.sum(axis=1)
    return totals if member_axis else float(totals[0])


def clip_scales(blocks: Sequence[np.ndarray], members: int,
                clip_norm: float) -> np.ndarray:
    """Per-member gradient scales of global-norm clipping: the one
    clip-norm rule.

    ``blocks`` are the gradients in the optimiser's parameter order,
    each viewed as ``(members, -1)``: one row per cohort member, or one
    row for a single model.  A member whose norm ``sqrt(total)`` (the
    float64 :func:`squared_norm` totals added in parameter order)
    exceeds ``clip_norm`` gets ``clip_norm / norm``, every other member
    exactly ``1.0``.

    The total is computed only for members a float32 screen cannot
    clear: one row dot per block bounds each member's total from above
    (DESIGN.md 3.3, screen rule), and a bound below ``clip_norm ** 2``
    proves the member unclipped.  A NaN or infinite bound, an overflowed
    float32 square or a block too long for the bound never clears.
    """
    bound = np.zeros(members)
    elements = 0
    for rows in blocks:
        n = rows.shape[1]
        elements += n
        if rows.dtype != np.float32 or 2 * n * _F32_UNIT >= 1.0:
            bound[:] = np.inf
            break
        # S <= (s + n * 2 * flush) / (1 - gamma_n), with
        # 1 / (1 - gamma_n) = (1 - n u) / (1 - 2 n u): one rounding
        dots = np.vecdot(rows, rows).astype(np.float64)
        dots += n * 2 * _F32_FLUSH
        dots *= (1.0 - n * _F32_UNIT) / (1.0 - 2 * n * _F32_UNIT)
        bound += dots
    # the float64 rounding of the exact totals and of the bound itself
    bound *= 1.0 + (elements + len(blocks) + 16) * 2.0 ** -52
    exact = np.flatnonzero(~(bound < clip_norm * clip_norm))
    scales = np.ones(members)
    if exact.size == 0:
        return scales
    totals = np.zeros(exact.size)
    # all members left (a single model, say): slices, so no row copies
    everyone = exact.size == members
    for rows in blocks:
        step = max(1, _NORM_BLOCK_ELEMENTS // rows.shape[1])
        for start in range(0, exact.size, step):
            picked = (slice(start, start + step) if everyone
                      else exact[start:start + step])
            totals[start:start + step] += squared_norm(rows[picked],
                                                       member_axis=True)
    # the member optimiser's python-float sqrt and division
    for index, total in zip(exact.tolist(), totals.tolist()):
        norm = total ** 0.5
        if norm > clip_norm and norm > 0:
            scales[index] = clip_norm / norm
    return scales


class SGD:
    """Stochastic gradient descent with optional momentum, weight decay
    and global-norm gradient clipping (``clip_norm``)."""

    def __init__(self, model: Module, lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0,
                 clip_norm: Optional[float] = None) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.model = model
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self._velocity: Dict[int, Dict[str, np.ndarray]] = {}

    def _apply_clipping(self) -> None:
        """Scale all gradients so their global l2 norm <= clip_norm."""
        if self.clip_norm is None:
            return
        blocks = [grad.reshape(1, -1) for _, grad in self.model.named_grads()]
        scale = float(clip_scales(blocks, 1, self.clip_norm)[0])
        if scale != 1.0:
            for _, module in self.model.named_modules():
                for name in module.grads:
                    module.grads[name] *= scale

    def step(self) -> None:
        """Apply one update using the gradients accumulated in the model."""
        self._apply_clipping()
        for _, module in self.model.named_modules():
            for name, param in module.params.items():
                grad = module.grads[name]
                if self.weight_decay:
                    grad = grad + self.weight_decay * param
                if self.momentum:
                    slot = self._velocity.setdefault(id(module), {})
                    vel = slot.get(name)
                    if vel is None or vel.shape != grad.shape:
                        vel = np.zeros_like(grad)
                    vel = self.momentum * vel + grad
                    slot[name] = vel
                    grad = vel
                module.params[name] = param - self.lr * grad

    def zero_grad(self) -> None:
        """Clear the model's gradients."""
        self.model.zero_grad()


class ProximalSGD(SGD):
    """SGD with a FedProx proximal term anchored at the round's global model.

    ``set_anchor`` must be called with the global state dict at the start
    of each round; the step then subtracts ``mu * (w - w_anchor)`` in
    addition to the stochastic gradient.
    """

    def __init__(self, model: Module, lr: float, mu: float,
                 momentum: float = 0.0, weight_decay: float = 0.0,
                 clip_norm: Optional[float] = None) -> None:
        super().__init__(model, lr, momentum, weight_decay,
                         clip_norm=clip_norm)
        if mu < 0:
            raise ValueError(f"proximal coefficient must be non-negative, got {mu}")
        self.mu = mu
        self._anchor: Optional[Dict[str, np.ndarray]] = None

    def set_anchor(self, state: Dict[str, np.ndarray]) -> None:
        """Anchor the proximal term at ``state`` (the global model)."""
        self._anchor = {name: value.copy() for name, value in state.items()}

    def step(self) -> None:
        if self._anchor is not None and self.mu > 0:
            for full_name, _ in self.model.named_parameters():
                anchor = self._anchor.get(full_name)
                if anchor is None:
                    continue
                # locate owning module to add the proximal gradient
                mod_path, _, p_name = full_name.rpartition(".")
                module = self._resolve(mod_path)
                if module.params[p_name].shape == anchor.shape:
                    module.grads[p_name] += self.mu * (
                        module.params[p_name] - anchor
                    )
        super().step()

    def _resolve(self, path: str) -> Module:
        module: Module = self.model
        if path:
            for part in path.split("."):
                module = dict(module.children())[part]
        return module
