"""Residual blocks used by the ResNet-50 builder.

Structured pruning inside residual networks follows the standard
convention (Li et al., 2016): only the *internal* convolutions of a
block are pruned, block input/output widths are preserved so the skip
connection always type-checks.  :class:`Bottleneck` reads its inner
widths off its children, so a structural clone with pruned children is a
well-formed block.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.layers import BatchNorm2d, Conv2d, ReLU
from repro.nn.module import Module, Sequential


class Bottleneck(Module):
    """ResNet bottleneck: 1x1 reduce -> 3x3 -> 1x1 expand, plus skip.

    ``conv1`` and ``conv2`` are prunable (their output channels may
    shrink); ``conv3`` and the optional projection ``downsample`` always
    emit ``out_channels`` so the residual addition stays well-formed.
    """

    #: the residual branch, in execution order; its output is added to
    #: the skip path (``downsample`` or the identity) before ``relu3``
    MAIN_PATH = ("conv1", "bn1", "relu1", "conv2", "bn2", "relu2",
                 "conv3", "bn3")

    def __init__(self, in_channels, mid_channels, out_channels: int,
                 stride: int = 1, project: bool = False,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if isinstance(mid_channels, int):
            mid1, mid2 = mid_channels, mid_channels
        else:
            mid1, mid2 = mid_channels
        self.out_channels = out_channels
        self.stride = stride
        rng = rng if rng is not None else np.random.default_rng(0)

        self.add_child("conv1", Conv2d(in_channels, mid1, 1, rng=rng))
        self.add_child("bn1", BatchNorm2d(mid1))
        self.add_child("relu1", ReLU())
        self.add_child("conv2", Conv2d(mid1, mid2, 3,
                                       stride=stride, padding=1, rng=rng))
        self.add_child("bn2", BatchNorm2d(mid2))
        self.add_child("relu2", ReLU())
        self.add_child("conv3", Conv2d(mid2, out_channels, 1, rng=rng))
        self.add_child("bn3", BatchNorm2d(out_channels))
        self.add_child("relu3", ReLU())

        needs_projection = project or stride != 1 or in_channels != out_channels
        if needs_projection:
            self.add_child(
                "downsample",
                Sequential(
                    ("conv", Conv2d(in_channels, out_channels, 1,
                                    stride=stride, rng=rng)),
                    ("bn", BatchNorm2d(out_channels)),
                ),
            )
        self.has_projection = needs_projection

    @property
    def in_channels(self) -> int:
        return self._children["conv1"].in_channels

    @property
    def mid_channels(self) -> Tuple[int, int]:
        """Widths of the two prunable convolutions (read off the
        children, so a pruned clone reports its reduced widths)."""
        c = self._children
        return c["conv1"].out_channels, c["conv2"].out_channels

    @property
    def downsample(self) -> Optional[Module]:
        """The projection path, or ``None`` for identity skips."""
        return self._children.get("downsample")

    def forward(self, x: np.ndarray) -> np.ndarray:
        c = self._children
        out = x
        for name in self.MAIN_PATH:
            out = c[name].forward(out)
        skip = c["downsample"].forward(x) if self.has_projection else x
        return c["relu3"].forward(out + skip)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        c = self._children
        grad_sum = c["relu3"].backward(grad_out)
        grad_x = grad_sum
        for name in reversed(self.MAIN_PATH):
            grad_x = c[name].backward(grad_x)
        if self.has_projection:
            return grad_x + c["downsample"].backward(grad_sum)
        return grad_x + grad_sum
