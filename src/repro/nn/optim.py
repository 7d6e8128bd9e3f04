"""SGD-family optimisers.

:class:`SGD` covers the local update every strategy performs;
:class:`ProximalSGD` adds the FedProx proximal term
``(mu/2) * ||w - w_global||^2`` whose gradient is ``mu * (w - w_global)``
— exactly the baseline in Li et al., "Federated Optimization in
Heterogeneous Networks".
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.nn.module import Module


def squared_norm(grad: np.ndarray,
                 member_axis: bool = False) -> Union[float, np.ndarray]:
    """Sum of squares of ``grad`` in float64: the one clip-norm rule.

    With ``member_axis`` the result is one total per leading-axis row
    (a cohort member), reduced over that row's own contiguous elements:
    bit for bit the scalar total of the member's array alone.
    """
    rows = grad.reshape(len(grad) if member_axis else 1, -1)
    squares = rows.astype(np.float64)
    np.square(squares, out=squares)
    totals = squares.sum(axis=1)
    return totals if member_axis else float(totals[0])


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
        total = 0.0
        for _, grad in self.model.named_grads():
            total += squared_norm(grad)
        norm = total ** 0.5
        if norm > self.clip_norm and norm > 0:
            scale = self.clip_norm / norm
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
