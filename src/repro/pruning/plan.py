"""Pruning plan: the per-worker index record kept by the parameter server.

A :class:`PruningPlan` says, for every affected layer, which output
units (filters / neurons / hidden units) and which input connections
survive.  It is exactly the "binary vector storing the indexes of the
remaining parameters" that Section III-C describes, in index form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

#: The coupling table -- the one place the pruning rule of Section III-B
#: ("the corresponding channels of filters in the next layer are also
#: removed [and] the weights of the subsequent batch normalization layer
#: are removed too"; Section VI does the same for LSTM ISS components)
#: is written down: per layer kind, per array, what each leading axis
#: counts.  ``"out"`` is the layer's own units, ``"in"`` the upstream
#: units it reads, ``"gates"`` the layer's units once per stacked LSTM
#: gate block; trailing axes (conv kernels) are never indexed.
#: Gather, scatter, sub-model extraction and
#: :meth:`PruningPlan.param_names` are all derived from it.  The codec
#: writes a kind as its position here, so new kinds go at the end.
COUPLING: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "conv": {"weight": ("out", "in"), "bias": ("out",)},
    "linear": {"weight": ("out", "in"), "bias": ("out",)},
    "bn": {"gamma": ("out",), "beta": ("out",),
           "running_mean": ("out",), "running_var": ("out",)},
    "lstm": {"w_ih": ("gates", "in"), "w_hh": ("gates", "out"),
             "bias": ("gates",)},
}

#: Recognised layer kinds, in wire order.
LAYER_KINDS = tuple(COUPLING)


@dataclass
class LayerPrune:
    """Kept indices for one layer.

    Attributes
    ----------
    kind:
        One of :data:`LAYER_KINDS`.
    kept_out:
        Sorted indices of surviving output units (filters, neurons,
        hidden units, or BN channels).
    kept_in:
        Sorted indices of surviving input connections (``None`` for
        layers without an input axis, e.g. batch norm).
    out_full / in_full:
        Full (unpruned) sizes of the respective axes, needed to allocate
        zero-expanded arrays during recovery.
    """

    kind: str
    kept_out: np.ndarray
    out_full: int
    kept_in: Optional[np.ndarray] = None
    in_full: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        self.kept_out = np.asarray(self.kept_out, dtype=np.intp)
        if self.kept_in is not None:
            self.kept_in = np.asarray(self.kept_in, dtype=np.intp)

    def roles(self, suffix: str) -> Tuple[str, ...]:
        """The :data:`COUPLING` row of this entry's array ``suffix``."""
        try:
            return COUPLING[self.kind][suffix]
        except KeyError:
            raise ValueError(
                f"no coupling rule for kind={self.kind!r} suffix={suffix!r}"
            ) from None

    def axis(self, role: str) -> np.ndarray:
        """Positions along one full-array axis of ``role``: those of the
        surviving units."""
        if role == "in":
            if self.kept_in is None:
                raise ValueError(
                    f"{self.kind!r} entry carries no input indices")
            units, full = self.kept_in, self.in_full
        else:
            units, full = self.kept_out, self.out_full
        if role == "gates":  # the four gate blocks stacked along axis 0
            units = np.concatenate(
                [gate * full + units for gate in range(4)]
            ).astype(np.intp)
        return units


@dataclass
class PruningPlan:
    """Mapping of layer qualified name -> :class:`LayerPrune`.

    ``ratio`` records the pruning ratio the plan was built from, for
    bookkeeping and reward computation.
    """

    ratio: float
    layers: Dict[str, LayerPrune] = field(default_factory=dict)
    #: lazily built full-parameter-key -> (layer, suffix) mapping; reset
    #: whenever a layer is added
    _param_names: Optional[Dict[str, Tuple[str, str]]] = field(
        default=None, init=False, repr=False, compare=False,
    )

    def __getitem__(self, name: str) -> LayerPrune:
        return self.layers[name]

    def __contains__(self, name: str) -> bool:
        return name in self.layers

    def get(self, name: str) -> Optional[LayerPrune]:
        return self.layers.get(name)

    def items(self) -> Iterator[Tuple[str, LayerPrune]]:
        return iter(self.layers.items())

    def add(self, name: str, entry: LayerPrune) -> None:
        if name in self.layers:
            raise ValueError(f"duplicate plan entry for layer {name!r}")
        self.layers[name] = entry
        self._param_names = None

    def param_names(self) -> Dict[str, Tuple[str, str]]:
        """Full-state-dict key -> ``(layer_name, param_suffix)`` for every
        parameter this plan touches.  Built once and cached; the mapping is
        pure index bookkeeping so it never depends on model values.
        """
        if self._param_names is None:
            mapping: Dict[str, Tuple[str, str]] = {}
            for layer_name, entry in self.layers.items():
                for suffix in COUPLING[entry.kind]:
                    mapping[f"{layer_name}.{suffix}"] = (layer_name, suffix)
            self._param_names = mapping
        return self._param_names


def plan_signature(plan: PruningPlan) -> Tuple:
    """Architecture signature of a plan: the kept sizes per layer.

    Two plans with the same signature produce structurally identical
    sub-models, so callers may share templates, cohort buckets and
    child-side caches across them.  Pure index bookkeeping -- never
    depends on model values.
    """
    return tuple(
        (name, entry.kind, int(entry.out_full), int(entry.kept_out.size),
         -1 if entry.in_full is None else int(entry.in_full),
         -1 if entry.kept_in is None else int(entry.kept_in.size))
        for name, entry in plan.items()
    )


def plan_signature_digest(plan: PruningPlan) -> str:
    """Short stable hex digest of :func:`plan_signature`.

    The tuple form is exact but unwieldy as a metric label or span
    attribute; the digest is the observability-friendly spelling (12
    hex chars of SHA-1 over the signature's repr).
    """
    import hashlib

    raw = repr(plan_signature(plan)).encode("utf-8")
    return hashlib.sha1(raw).hexdigest()[:12]


def keep_count(full: int, ratio: float) -> int:
    """Units kept in a layer of size ``full`` at pruning ratio ``ratio``.

    The paper removes the lowest-scoring fraction ``ratio`` per layer;
    at least one unit always survives.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"pruning ratio must be in [0, 1), got {ratio}")
    return max(1, full - int(np.floor(full * ratio)))
