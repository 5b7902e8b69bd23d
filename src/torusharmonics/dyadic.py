"""Dyadic interval/rectangle addressing and torus geometry.

Dyadic intervals are addressed by (level k, index j) with k >= 1 and
0 <= j < 2^k, representing [j 2^-k, (j+1) 2^-k); the torus itself is not a
dyadic interval.  All interval arithmetic that decides containment or the
trichotomy is integer-exact; floats appear only when evaluating on grids.
Intervals are half-open on the grid so that cell membership is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


def dist_torus(x: float, y: float) -> float:
    """min(|x-y|, 1-|x-y|), the circle metric, for x, y in [0, 1)."""
    d = abs(float(x) - float(y)) % 1.0
    return min(d, 1.0 - d)


class Relation(Enum):
    EQUAL = "equal"
    A_INSIDE_B = "a_inside_b"
    B_INSIDE_A = "b_inside_a"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
class DyadicInterval:
    """The dyadic interval [j 2^-k, (j+1) 2^-k) at level k >= 1."""

    level: int
    index: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("dyadic level must be >= 1 (T itself is not dyadic)")
        if not 0 <= self.index < 2**self.level:
            raise ValueError(f"index {self.index} outside [0, {2**self.level})")

    @property
    def length(self) -> float:
        return 2.0**-self.level

    @property
    def left(self) -> float:
        return self.index * 2.0**-self.level

    @property
    def center(self) -> float:
        return (self.index + 0.5) * 2.0**-self.level

    def ancestor(self, j: int) -> "DyadicInterval":
        """The unique dyadic ancestor with length 2^j times this one's."""
        if not 1 <= j <= self.level - 1:
            raise ValueError(f"enlargement {j} must be in [1, {self.level - 1}]")
        return DyadicInterval(self.level - j, self.index >> j)

    def shift(self, n: int) -> "DyadicInterval":
        """I^n = I + n|I|, reduced mod 1 (again dyadic at the same level)."""
        return DyadicInterval(self.level, (self.index + n) % 2**self.level)

    def as_torus_interval(self) -> "TorusInterval":
        return TorusInterval(self.left, self.length)

    def relate(self, other: "DyadicInterval") -> Relation:
        """Trichotomy for dyadic intervals, by level/index arithmetic only."""
        a, b = self, other
        if a.level == b.level:
            return Relation.EQUAL if a.index == b.index else Relation.DISJOINT
        if a.level > b.level:
            # a is shorter; a inside b iff b is an ancestor of a
            return (
                Relation.A_INSIDE_B
                if a.index >> (a.level - b.level) == b.index
                else Relation.DISJOINT
            )
        return (
            Relation.B_INSIDE_A
            if b.index >> (b.level - a.level) == a.index
            else Relation.DISJOINT
        )

    def grid_slice(self, log_size: int) -> slice:
        """Sample-index range covered on a grid of 2^log_size points."""
        if self.level > log_size:
            raise ValueError("interval finer than the grid")
        step = 2 ** (log_size - self.level)
        return slice(self.index * step, (self.index + 1) * step)

    def __str__(self):
        return f"{self.level}:{self.index}"


def relate(a: DyadicInterval, b: DyadicInterval) -> Relation:
    return a.relate(b)


def all_dyadic_intervals(max_level: int):
    for k in range(1, max_level + 1):
        for j in range(2**k):
            yield DyadicInterval(k, j)


@dataclass(frozen=True)
class TorusInterval:
    """A (possibly wrapped) interval on T, stored as left endpoint + length.

    Membership is tested mod 1; length 1 means all of T.
    """

    left: float
    length: float

    def __post_init__(self):
        if not 0.0 < self.length <= 1.0:
            raise ValueError("length must be in (0, 1]")
        object.__setattr__(self, "left", float(self.left) % 1.0)

    @property
    def center(self) -> float:
        return (self.left + self.length / 2.0) % 1.0

    @property
    def is_full(self) -> bool:
        return self.length == 1.0

    def contains(self, x) -> np.ndarray:
        """Vectorized membership of points in [left, left+length) mod 1."""
        rel = (np.asarray(x, dtype=float) - self.left) % 1.0
        if self.is_full:
            return np.ones_like(rel, dtype=bool)
        return rel < self.length

    def indicator(self, log_size: int) -> np.ndarray:
        n = 2**log_size
        return self.contains(np.arange(n) / n)

    def shift(self, n: int, alpha: float = 0.0) -> "TorusInterval":
        """I + (n + alpha)|I| with endpoints reduced mod 1."""
        return TorusInterval(self.left + (n + alpha) * self.length, self.length)


def dist_intervals(a, b) -> float:
    """dist_T(A, B): 0 when the arcs meet, else the shorter gap between them."""
    if isinstance(a, DyadicInterval):
        a = a.as_torus_interval()
    if isinstance(b, DyadicInterval):
        b = b.as_torus_interval()
    if a.is_full or b.is_full:
        return 0.0
    a_end = (a.left + a.length) % 1.0
    b_end = (b.left + b.length) % 1.0
    gap_ab = (b.left - a_end) % 1.0
    gap_ba = (a.left - b_end) % 1.0
    # disjoint arcs tile the circle: lengths + gaps == 1; any overlap makes
    # the mod-1 gaps wrap and the total exceed 1
    if a.length + b.length + gap_ab + gap_ba > 1.0 + 1e-12:
        return 0.0
    return min(gap_ab, gap_ba)


def shift_interval(interval, n: int, alpha: float = 0.0) -> TorusInterval:
    """I + (n + alpha)|I| for a dyadic or torus interval."""
    if isinstance(interval, DyadicInterval):
        interval = interval.as_torus_interval()
    return interval.shift(n, alpha)


def enlarge_shift(interval: DyadicInterval, j: int, n: int) -> TorusInterval:
    """I(j, n): enlarge to the dyadic ancestor of length 2^j |I|, shift n."""
    return interval.ancestor(j).shift(n).as_torus_interval()


def concentric_scale(interval: TorusInterval, alpha: float) -> TorusInterval:
    """The interval concentric with I of length alpha |I| (alpha <= 1/|I|)."""
    if isinstance(interval, DyadicInterval):
        interval = interval.as_torus_interval()
    if not 0.0 < alpha <= 1.0 / interval.length:
        raise ValueError(f"scale factor {alpha} outside (0, 1/|I|]")
    new_length = alpha * interval.length
    return TorusInterval(interval.center - new_length / 2.0, new_length)


def star(interval) -> TorusInterval:
    """I* = 3I, or all of T when |I| > 1/3."""
    if isinstance(interval, DyadicInterval):
        interval = interval.as_torus_interval()
    if interval.length > 1.0 / 3.0:
        return TorusInterval(0.0, 1.0)
    return concentric_scale(interval, 3.0)


@dataclass(frozen=True)
class DyadicRectangle:
    """R = I x J with dyadic component intervals."""

    axis1: DyadicInterval
    axis2: DyadicInterval

    def indicator(self, log_sizes) -> np.ndarray:
        ind1 = np.zeros(2 ** log_sizes[0], dtype=bool)
        ind1[self.axis1.grid_slice(log_sizes[0])] = True
        ind2 = np.zeros(2 ** log_sizes[1], dtype=bool)
        ind2[self.axis2.grid_slice(log_sizes[1])] = True
        return ind1[:, None] & ind2[None, :]

    def __str__(self):
        return f"{self.axis1}x{self.axis2}"
