"""Arm-space partitions: the leaves of E-UCB's incremental tree.

The agent "maintains a sequence of finite partitions of the arm space"
with union ``[0, 1)``; each region is a half-open interval and can be
split at a played arm, growing the tree adaptively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

#: narrowest region a split may create; a cut closer to an edge falls
#: back to the midpoint
MIN_WIDTH = 1e-4


@dataclass(frozen=True)
class Region:
    """Half-open interval ``[low, high)`` of pruning ratios."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.low < self.high <= 1.0:
            raise ValueError(f"invalid region [{self.low}, {self.high})")

    @property
    def diameter(self) -> float:
        return self.high - self.low

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.low + self.high)

    def contains(self, arm: float) -> bool:
        return self.low <= arm < self.high


class Partition:
    """A finite partition of ``[low, high) ⊆ [0, 1)`` into regions.

    The initial partition is the single region covering the whole arm
    space (``P_0 = {[0, 1)}`` by default; FedMP restricts the upper end
    below 1 so at least a sliver of every layer survives).
    """

    def __init__(self, low: float = 0.0, high: float = 1.0) -> None:
        self._regions: List[Region] = [Region(low, high)]

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions)

    @property
    def regions(self) -> Tuple[Region, ...]:
        return tuple(self._regions)

    def snapshot(self) -> dict:
        """JSON-ready view of the partition: its bounds and cut edges.

        ``edges`` lists every region boundary left to right, so
        consecutive pairs are the current regions.
        """
        return {
            "low": self._regions[0].low,
            "high": self._regions[-1].high,
            "edges": [region.low for region in self._regions]
            + [self._regions[-1].high],
        }

    def find(self, arm: float) -> Region:
        """Region containing ``arm``; raises if outside the partition."""
        for region in self._regions:
            if region.contains(arm):
                return region
        raise ValueError(f"arm {arm} outside partition bounds")

    def split(self, region: Region, at: float) -> Tuple[Region, Region]:
        """Split ``region`` at ``at``, falling back to the midpoint when
        the cut would create a degenerate sliver.

        Returns the two new regions; the partition is updated in place.
        """
        if region not in self._regions:
            raise ValueError(f"region {region} is not a leaf of this partition")
        cut = at
        if cut - region.low < MIN_WIDTH or region.high - cut < MIN_WIDTH:
            cut = region.midpoint
        left = Region(region.low, cut)
        right = Region(cut, region.high)
        index = self._regions.index(region)
        self._regions[index:index + 1] = [left, right]
        return left, right
