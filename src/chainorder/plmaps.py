"""Piecewise-linear self-maps of the unit interval, exact over rationals.

A map is stored as its graph vertices: strictly increasing breakpoints
b_0 = 0 < ... < b_k = 1 with values v_0..v_k in [0,1], interpolated
linearly in between.  Evaluation, preimage enumeration, and lap
(monotone branch) analysis are all exact.

Each map compiles its segments into tables of integer numerators and
denominators the first time it is evaluated or inverted, and keeps its
laps, Lipschitz constant and lap geometry once computed.  All of it is
stored on the map object, so it lives exactly as long as the map does.
Preimages are solved and returned as reduced integer pairs
(``preimage_pairs``); ``preimages`` wraps those pairs as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from math import gcd, lcm


class PreimageError(ValueError):
    """Raised when a level set contains a whole segment (flat at the value)."""


def _per_map(method):
    """Compute a no-argument method once per map and keep the result on it."""
    key = "_per_map_" + method.__name__

    @wraps(method)
    def cached(self):
        try:
            return self.__dict__[key]
        except KeyError:
            value = self.__dict__[key] = method(self)
            return value

    return cached


def _over_common_denominator(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """(a', b', d) with a = a'/d and b = b'/d."""
    d = lcm(a.denominator, b.denominator)
    return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d


@dataclass(frozen=True)
class Lap:
    """A maximal strictly monotone run of segments.

    ``start``/``stop`` are breakpoint indices; the lap's domain is
    [breakpoints[start], breakpoints[stop]].
    """

    start: int
    stop: int
    increasing: bool


# Bands of a value for the sign machine: the preimages of 0 and of 1
# under a full-lap map sit at lap boundaries, every other value has one
# preimage inside each lap.
_ZERO_BAND, _ONE_BAND, _INT_BAND = 0, 1, 2


def band_of(num: int, den: int) -> int:
    """The band of the value num/den, given in lowest terms."""
    if num == 0:
        return _ZERO_BAND
    if num == den:
        return _ONE_BAND
    return _INT_BAND


@dataclass(frozen=True)
class LapGeometry:
    """Combinatorial data of a full-lap map used by the sign machine.

    Positions live on a scale where lap k's interior is 2k+1 and the
    boundary knot to its right is 2k+2; the left endpoint of [0,1] is 0.
    ``steps[band][letter]`` is the (band, position) of the preimage that
    the letter picks for a value in that band.
    """

    laps: tuple[Lap, ...]
    steps: tuple[tuple[tuple[int, int], ...], ...]

    def step_point(self, band: int, letter: int) -> tuple[int, int]:
        """(new band, scale position) after one letter."""
        steps = self.steps[band]
        if letter >= len(steps):
            if band == _INT_BAND:
                raise ValueError(f"letter {letter} exceeds the {len(self.laps)} laps")
            raise ValueError(f"letter {letter} exceeds {len(steps)} boundary preimages")
        return steps[letter]


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

    @_per_map
    def _forward(self) -> tuple[tuple[int, ...], ...]:
        """Per segment, its right end r_n/r_d and f(t) = (c + m*t)/d on
        it, all as integers (r_n, r_d, c, m, d)."""
        table = []
        for b0, b1, v0, v1 in self.segments():
            slope = (v1 - v0) / (b1 - b0)
            c, m, d = _over_common_denominator(v0 - b0 * slope, slope)
            table.append((b1.numerator, b1.denominator, c, m, d))
        return tuple(table)

    @_per_map
    def _inverse(self) -> tuple[tuple, ...]:
        """Per segment, its value range [lo_n/lo_d, hi_n/hi_d] and either
        the segment's domain (flat) or its inverse t = (c + s*y)/d as
        integers (c, s, d)."""
        table = []
        for b0, b1, v0, v1 in self.segments():
            lo, hi = (v0, v1) if v0 <= v1 else (v1, v0)
            if v0 == v1:
                branch = (b0, b1)
            else:
                slope = (b1 - b0) / (v1 - v0)
                branch = _over_common_denominator(b0 - v0 * slope, slope)
            table.append((lo.numerator, lo.denominator, hi.numerator, hi.denominator, branch))
        return tuple(table)

    def _value(self, t: int | Fraction) -> tuple[int, int]:
        """f(t) as an unreduced integer numerator and denominator."""
        if type(t) is not Fraction:
            t = Fraction(t)
        p, q = t.numerator, t.denominator
        if not 0 <= p <= q:
            raise ValueError(f"argument outside [0,1]: {t}")
        # The first segment ending right of t; t == 1 falls into the last.
        for r_n, r_d, c, m, d in self._forward():
            if p * r_d < r_n * q:
                break
        return c * q + m * p, d * q

    def __call__(self, t: int | Fraction) -> Fraction:
        return Fraction(*self._value(t))

    def sends(self, t: int | Fraction, v: Fraction) -> bool:
        """Whether f(t) == v, by cross-multiplication."""
        num, den = self._value(t)
        return num * v.denominator == v.numerator * den

    def preimages(self, y: int | Fraction) -> tuple[Fraction, ...]:
        """All solutions of f(t) = y, ascending and exact."""
        pairs = self.preimage_pairs(*Fraction(y).as_integer_ratio())
        return tuple(Fraction(n, d) for n, d in pairs)

    def preimage_pairs(self, p: int, q: int) -> tuple[tuple[int, int], ...]:
        """``preimages`` of p/q, q > 0, as reduced (numerator, denominator) pairs."""
        if not 0 <= p <= q:
            raise ValueError(f"value outside [0,1]: {Fraction(p, q)}")
        hits = []
        last_num, last_den = -1, 1
        for lo_n, lo_d, hi_n, hi_d, branch in self._inverse():
            if lo_n * q <= p * lo_d and p * hi_d <= hi_n * q:
                if len(branch) == 2:  # a flat segment, at the value y
                    y = Fraction(p, q)
                    raise PreimageError(f"level set of {y} contains [{branch[0]}, {branch[1]}]")
                c, s, d = branch
                num, den = c * q + s * p, d * q
                # Segments run left to right, so a hit can only repeat
                # the previous one, at the breakpoint the two share.
                if num * last_den != last_num * den:
                    g = gcd(num, den)
                    hits.append((num // g, den // g))
                    last_num, last_den = num, den
        return tuple(hits)

    @_per_map
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

    @_per_map
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

    @_per_map
    def lipschitz(self) -> Fraction:
        """The least Lipschitz constant (max absolute slope)."""
        return max(abs((v1 - v0) / (b1 - b0)) for b0, b1, v0, v1 in self.segments())

    @_per_map
    def lap_geometry(self) -> LapGeometry:
        """The sign machine's view of a full-lap map."""
        if not self.is_full_lap():
            raise ValueError("sign machine needs a full-lap bonding map")
        laps = self.laps()
        knot_scale = {self.breakpoints[laps[0].start]: 0}
        for k, lap in enumerate(laps):
            knot_scale[self.breakpoints[lap.stop]] = 2 * (k + 1)
        boundary = []
        for y in (Fraction(0), Fraction(1)):
            knots = self.preimages(y)
            if any(t not in knot_scale for t in knots):
                raise AssertionError("extreme preimage not at a lap boundary")
            boundary.append(tuple((band_of(*t.as_integer_ratio()), knot_scale[t]) for t in knots))
        interior = tuple((_INT_BAND, 2 * k + 1) for k in range(len(laps)))
        return LapGeometry(laps, (boundary[0], boundary[1], interior))


_TENT = None


def tent() -> PLMap:
    """The full tent map: 2t on [0,1/2], 2-2t on [1/2,1]."""
    global _TENT
    if _TENT is None:
        _TENT = PLMap((Fraction(0), Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(1), Fraction(0)))
    return _TENT
