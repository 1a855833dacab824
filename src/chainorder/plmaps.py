"""Piecewise-linear self-maps of the unit interval, exact over rationals.

A map is stored as its graph vertices: strictly increasing breakpoints
b_0 = 0 < ... < b_k = 1 with values v_0..v_k in [0,1], interpolated
linearly in between.  Evaluation, preimage enumeration, and lap
(monotone branch) analysis all stay in ``Fraction`` arithmetic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .foundations import Rational


class PreimageError(ValueError):
    """Raised when a level set contains a whole segment (flat at the value)."""


@dataclass(frozen=True)
class Lap:
    """A maximal strictly monotone run of segments.

    ``start``/``stop`` are breakpoint indices; the lap's domain is
    [breakpoints[start], breakpoints[stop]].
    """

    start: int
    stop: int
    increasing: bool


@dataclass(frozen=True)
class PLMap:
    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        bps = tuple(Fraction(b) for b in self.breakpoints)
        vals = tuple(Fraction(v) for v in self.values)
        if len(bps) < 2 or len(bps) != len(vals):
            raise ValueError("need equally many breakpoints and values, at least two")
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("domain must be exactly [0,1]")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(not 0 <= v <= 1 for v in vals):
            raise ValueError("values must lie in [0,1]")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    def segments(self):
        """Yield (b0, b1, v0, v1) per linear piece, left to right."""
        for i in range(len(self.breakpoints) - 1):
            yield (
                self.breakpoints[i],
                self.breakpoints[i + 1],
                self.values[i],
                self.values[i + 1],
            )

    def __call__(self, t: int | Fraction) -> Fraction:
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise ValueError(f"argument outside [0,1]: {t}")
        i = bisect_right(self.breakpoints, t) - 1
        if i == len(self.breakpoints) - 1:
            i -= 1  # t == 1 falls into the last segment
        b0, b1 = self.breakpoints[i], self.breakpoints[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (v1 - v0) * (t - b0) / (b1 - b0)

    def preimages(self, y: int | Fraction) -> tuple[Fraction, ...]:
        """All solutions of f(t) = y, ascending and exact."""
        y = Fraction(y)
        if not 0 <= y <= 1:
            raise ValueError(f"value outside [0,1]: {y}")
        hits: set[Fraction] = set()
        for b0, b1, v0, v1 in self.segments():
            if v0 == v1:
                if v0 == y:
                    raise PreimageError(f"level set of {y} contains [{b0}, {b1}]")
                continue
            lo, hi = (v0, v1) if v0 < v1 else (v1, v0)
            if lo <= y <= hi:
                hits.add(b0 + (y - v0) * (b1 - b0) / (v1 - v0))
        return tuple(sorted(hits))

    def laps(self) -> tuple[Lap, ...]:
        """Maximal strictly monotone runs; rejects maps with flat segments."""
        dirs = []
        for _, _, v0, v1 in self.segments():
            if v0 == v1:
                raise ValueError("map has a flat segment; laps undefined")
            dirs.append(v1 > v0)
        laps = []
        start = 0
        for i in range(1, len(dirs)):
            if dirs[i] != dirs[start]:
                laps.append(Lap(start, i, dirs[start]))
                start = i
        laps.append(Lap(start, len(dirs), dirs[start]))
        return tuple(laps)

    def is_full_lap(self) -> bool:
        """True when every monotone branch maps onto all of [0,1]."""
        try:
            laps = self.laps()
        except ValueError:
            return False
        return all(
            {self.values[lap.start], self.values[lap.stop]} == {Fraction(0), Fraction(1)}
            for lap in laps
        )

    def branch(self, lap: Lap, y: int | Fraction) -> Fraction:
        """The unique t in the lap's domain with f(t) = y."""
        y = Fraction(y)
        if not 0 <= y <= 1:
            raise ValueError(f"value outside [0,1]: {y}")
        for i in range(lap.start, lap.stop):
            v0, v1 = self.values[i], self.values[i + 1]
            lo, hi = (v0, v1) if v0 < v1 else (v1, v0)
            if lo <= y <= hi:
                b0, b1 = self.breakpoints[i], self.breakpoints[i + 1]
                return b0 + (y - v0) * (b1 - b0) / (v1 - v0)
        raise ValueError(f"value {y} outside the lap's range")

    def lipschitz(self) -> Fraction:
        """The least Lipschitz constant (max absolute slope)."""
        return max(abs((v1 - v0) / (b1 - b0)) for b0, b1, v0, v1 in self.segments())


_TENT = None


def tent() -> PLMap:
    """The full tent map: 2t on [0,1/2], 2-2t on [1/2,1]."""
    global _TENT
    if _TENT is None:
        _TENT = PLMap((Fraction(0), Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(1), Fraction(0)))
    return _TENT
