"""Module base class and the :class:`Sequential` container.

The contract is intentionally close to (a tiny subset of) ``torch.nn``:
modules own named parameter arrays and gradient arrays, can be walked
recursively, and expose ``state_dict`` / ``load_state_dict`` for the
parameter-server exchange format used throughout :mod:`repro.fl`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.dtype import get_default_dtype


class Module:
    """Base class for all neural-network layers and containers.

    Subclasses register parameters with :meth:`add_param` and buffers
    (non-trainable state such as batch-norm running statistics) with
    :meth:`add_buffer`.  Parameters and their gradients are stored as
    plain ``numpy`` arrays in ``self.params`` and ``self.grads``.
    """

    def __init__(self) -> None:
        self.params: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.grads: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._children: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_param(self, name: str, value: np.ndarray) -> None:
        """Register a trainable parameter and its zero-filled gradient."""
        value = np.asarray(value, dtype=get_default_dtype())
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)

    def add_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable buffer (e.g. running statistics)."""
        self.buffers[name] = np.asarray(value, dtype=get_default_dtype())

    def add_child(self, name: str, module: "Module") -> None:
        """Register a sub-module under ``name``."""
        self._children[name] = module

    def fresh(self) -> "Module":
        """An empty module of this one's class, built by allocation only:
        no initialiser runs, so no weight draw and no RNG use.

        Public attributes (widths, strides, ``input_shape``, whatever a
        model builder set) carry over by reference -- so an ``rng`` is
        *shared* with the source until the caller replaces it; private
        ones, by convention forward caches, start ``None``; arrays,
        children and the training flag are those of a new Module.
        """
        clone = object.__new__(type(self))
        Module.__init__(clone)
        base = set(vars(clone))
        for key, value in vars(self).items():
            if key not in base:
                setattr(clone, key, None if key.startswith("_") else value)
        return clone

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def children(self) -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(name, module)`` for direct sub-modules."""
        yield from self._children.items()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` for this module and all
        descendants, depth first (self first, with an empty name at the
        root when ``prefix`` is empty)."""
        yield prefix, self
        for name, child in self._children.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def leaf_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` for child-free modules.

        These are the compute layers -- containers delegate all work to
        their children -- which is what per-layer instrumentation (the
        telemetry profiler) wants to wrap exactly once each.
        """
        for name, module in self.named_modules(prefix):
            if not module._children:
                yield name, module

    def _named_arrays(self, store: str,
                      prefix: str) -> Iterator[Tuple[str, np.ndarray]]:
        for mod_name, module in self.named_modules(prefix):
            for name, value in getattr(module, store).items():
                yield (f"{mod_name}.{name}" if mod_name else name), value

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(qualified_name, array)`` for every parameter."""
        return self._named_arrays("params", prefix)

    def named_grads(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(qualified_name, array)`` for every gradient."""
        return self._named_arrays("grads", prefix)

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(qualified_name, array)`` for every buffer."""
        return self._named_arrays("buffers", prefix)

    # ------------------------------------------------------------------
    # state exchange
    # ------------------------------------------------------------------
    def state_dict(self, include_buffers: bool = True) -> Dict[str, np.ndarray]:
        """Return a copy of all parameters (and optionally buffers).

        The returned mapping is the canonical exchange format between
        workers and the parameter server.
        """
        state = {name: value.copy() for name, value in self.named_parameters()}
        if include_buffers:
            state.update(
                {name: value.copy() for name, value in self.named_buffers()}
            )
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameters/buffers from ``state`` (copies the arrays).

        With ``strict=True`` every expected entry must be present and
        shape-compatible; otherwise missing entries are skipped.
        """
        for mod_name, module in self.named_modules():
            for p_name in module.params:
                full = f"{mod_name}.{p_name}" if mod_name else p_name
                if full not in state:
                    if strict:
                        raise KeyError(f"missing parameter {full!r} in state dict")
                    continue
                incoming = np.asarray(state[full], dtype=get_default_dtype())
                if incoming.shape != module.params[p_name].shape:
                    raise ValueError(
                        f"shape mismatch for {full!r}: expected "
                        f"{module.params[p_name].shape}, got {incoming.shape}"
                    )
                module.params[p_name] = incoming.copy()
                module.grads[p_name] = np.zeros_like(incoming)
            for b_name in module.buffers:
                full = f"{mod_name}.{b_name}" if mod_name else b_name
                if full in state:
                    module.buffers[b_name] = np.asarray(
                        state[full], dtype=get_default_dtype()
                    ).copy()

    def rng_states(self) -> Dict[str, dict]:
        """``bit_generator.state`` of every RNG-bearing descendant
        (``Dropout``), by qualified module name -- the one part of a
        module graph that ``state_dict`` and its structure do not pin."""
        return {
            name: module.rng.bit_generator.state
            for name, module in self.named_modules()
            if getattr(module, "rng", None) is not None
        }

    def load_rng_states(self, states: Dict[str, dict]) -> None:
        """Apply a :meth:`rng_states` snapshot; the names must match this
        graph's RNG-bearing modules exactly."""
        modules = dict(self.named_modules())
        expected = set(self.rng_states())
        if set(states) != expected:
            raise KeyError(
                f"RNG states cover modules {sorted(states)} but the "
                f"model's RNG-bearing modules are {sorted(expected)}"
            )
        for name, state in states.items():
            modules[name].rng.bit_generator.state = state

    # ------------------------------------------------------------------
    # training mode / gradients
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Switch this module and all descendants into training mode."""
        for _, module in self.named_modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Switch this module and all descendants into evaluation mode."""
        for _, module in self.named_modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        """Reset all accumulated gradients to zero."""
        for _, module in self.named_modules():
            for name in module.grads:
                module.grads[name].fill(0.0)

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return int(sum(value.size for _, value in self.named_parameters()))

    # ------------------------------------------------------------------
    # computation (to be provided by subclasses)
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Sequential(Module):
    """Chain of layers executed in order.

    Layers may be passed positionally (auto-named ``"0"``, ``"1"``, ...)
    or as ``(name, layer)`` pairs, which the model zoo uses so that
    pruning plans can refer to stable layer names.
    """

    def __init__(self, *layers) -> None:
        super().__init__()
        for index, entry in enumerate(layers):
            if isinstance(entry, tuple):
                name, layer = entry
            else:
                name, layer = str(index), entry
            if not isinstance(layer, Module):
                raise TypeError(f"layer {name!r} is not a Module: {layer!r}")
            self.add_child(name, layer)

    @property
    def layers(self) -> List[Module]:
        """The contained layers, in execution order."""
        return list(self._children.values())

    @property
    def layer_names(self) -> List[str]:
        """Names of the contained layers, in execution order."""
        return list(self._children.keys())

    def get(self, name: str) -> Module:
        """Return the direct child layer called ``name``."""
        return self._children[name]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self._children.values():
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(list(self._children.values())):
            grad_out = layer.backward(grad_out)
        return grad_out
