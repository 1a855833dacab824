"""Strand models and chain-sequence generators for the example continua.

Five planar spaces live here, each presented as a finite list of
parameterized strands: the arc, the closed sine curve S1 (oscillating
strand plus its limit interval), the variant S2 whose limit interval is
extended by an outer arc, the forest S3 of sine-approached teeth, and
the space T whose limit interval is replaced by a spiral strand that
accumulates on the whole closed sine curve.  S1, S2 and T share one
sine curve and one walk along it: the S2 family is the S1 family with
the outer arc as its limit strand, and T covers its bar and oscillation
with a reversed S1 level.

Every chain family assigns link indices combinatorially, as exact
rational functions of strand parameters, so level relations and the
orders they stabilize to are computed without any floating point.  The
planar geometry enters only through the declared mesh bounds, which the
validator checks against exact L-infinity diameters computed from each
family's link windows.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm
from typing import Callable, ClassVar, NamedTuple

from .chains import BOTH, GE_ONLY, LE_ONLY, ChainLevel, LinkMemo, settled_from
from .foundations import rational, rational_str
from .inverse_limit import Certificate
from .orientation import parse_word

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _floor(f: Fraction) -> int:
    return f.numerator // f.denominator


def _ceil(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


def _clamp(t: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    return min(max(t, lo), hi)


Pair = tuple[int, int]  # a rational as numerator and denominator, for cross-multiplying


class _Grid(NamedTuple):
    """Windows i = lo..hi of a grid, window i spanning ((i-1)*step - ov, i*step + ov).

    With step = p/q and ov = c/e the grid keeps e*q, c*q and e*p, so a
    lookup takes three products and two floors on integers.
    """

    eq: int
    cq: int
    ep: int
    lo: int
    hi: int


def _grid(step: Fraction, ov: Fraction, lo: int, hi: int) -> _Grid:
    q, e = step.denominator, ov.denominator
    return _Grid(e * q, ov.numerator * q, e * step.numerator, lo, hi)


def _window_range(g: _Grid, a: int, b: int) -> Pair:
    """The windows of ``g`` that hold the coordinate a/b (b > 0).

    With ov < step/2 a point meets one window or two consecutive ones,
    which is exactly the link-pair contract of ``ChainLevel.index_of``.
    """
    eq, cq, ep, lo, hi = g
    x, y, den = a * eq, b * cq, b * ep
    return max((x - y) // den + 1, lo), min(-((-x - y) // den), hi)


def _q(f: Fraction) -> Pair:
    return f.numerator, f.denominator


def _farther(s: Pair, t: Pair, g: _Grid) -> bool:
    """|s - t| > step + 2*ov, the longest stretch one window of ``g`` covers,
    for s and t given as numerator/denominator pairs."""
    (a, b), (c, d) = s, t
    return abs(a * d - c * b) * g.eq > (g.ep + 2 * g.cq) * b * d


# The level-independent geometry that placing a point needs (the wave's
# height, a gap's point, the spiral's arclength and host) is memoized for the
# last _MEMO points per helper: a point is placed once on each level read.
_MEMO = 64


# -- exact plane distance ---------------------------------------------------

Point2 = tuple[Fraction, Fraction]


def _segment_distance(z: Point2, a: Point2, b: Point2) -> Fraction:
    """Exact L-infinity distance from z to the segment [a, b].

    The distance is the minimum over t of max(|fx + t*dx|, |fy + t*dy|);
    minima of a max of two absolute linear functions occur at endpoints,
    at the zero of either function, or where the two are equal.
    """
    fx, fy = a[0] - z[0], a[1] - z[1]
    dx, dy = b[0] - a[0], b[1] - a[1]
    candidates = [_ZERO, _ONE]
    if dx:
        candidates.append(-fx / dx)
    if dy:
        candidates.append(-fy / dy)
    for sign in (1, -1):
        den = dx - sign * dy
        if den:
            candidates.append(-(fx - sign * fy) / den)
    best: Fraction | None = None
    for t in candidates:
        t = _clamp(t, _ZERO, _ONE)
        value = max(abs(fx + t * dx), abs(fy + t * dy))
        if best is None or value < best:
            best = value
    return best


def _polyline_distance(z: Point2, pts: list[Point2]) -> Fraction:
    if len(pts) == 1:
        return max(abs(pts[0][0] - z[0]), abs(pts[0][1] - z[1]))
    return min(_segment_distance(z, pts[i], pts[i + 1]) for i in range(len(pts) - 1))


# -- the oscillating strand --------------------------------------------------

_WAVE_Y = (-1, 0, 1, 0)


def _wave_anchor_x(j: int) -> Fraction:
    return Fraction(2, j + 3)


@lru_cache(maxsize=_MEMO)
def _wave_height(a: int, b: int) -> int:
    """b times the wave's height at u = a/b."""
    # With u = j + r/b, y moves from anchor j's height by r/b.
    j, r = divmod(a, b)
    y0 = _WAVE_Y[j % 4]
    return y0 * b + r * (_WAVE_Y[(j + 1) % 4] - y0)


def _wave_point(u: Fraction) -> Point2:
    """Piecewise linear oscillation through (2/(j+3), -1,0,1,0,...).

    Anchor j sits at x = 2/(j+3); successive anchors differ by 1 in the
    parameter and sweep y through a full -1,0,1,0 cycle, so the strand
    alternates troughs and peaks while x decreases to 0.
    """
    # With u = j + r/b, x = 2(b(j+4) - r) / (b(j+3)(j+4)): one gcd per coordinate.
    a, b = u.numerator, u.denominator
    j, r = divmod(a, b)
    x = Fraction(2 * (b * (j + 4) - r), b * (j + 3) * (j + 4))
    return x, Fraction(_wave_height(a, b), b)


def _wave_polyline(ua: Fraction, ub: Fraction) -> list[Point2]:
    params = [ua]
    j = _floor(ua) + 1
    while j < ub:
        if j > ua:
            params.append(Fraction(j))
        j += 1
    if ub > params[-1]:
        params.append(ub)
    return [_wave_point(t) for t in params]


# -- points, strands, spaces -------------------------------------------------


@dataclass(frozen=True)
class CatalogPoint:
    """A point of a catalog space, named by strand and exact parameter."""

    strand: str
    param: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "param", rational(self.param))

    def as_dict(self) -> dict:
        return {"strand": self.strand, "param": rational_str(self.param)}


def _link_key(point) -> tuple:
    # A family's memo key: strand and parameter as integers, which hash
    # without Fraction arithmetic.  A bare rational is an arc parameter.
    p = point if isinstance(point, CatalogPoint) else CatalogPoint("segment", point)
    return p.strand, p.param.numerator, p.param.denominator


@dataclass(frozen=True)
class Strand:
    """One injectively parameterized piece of a space.

    ``lo``/``hi`` bound the parameter domain (``hi=None`` means
    unbounded above); the open flags exclude an endpoint, which models
    strands that only accumulate on the rest of the space.
    """

    name: str
    component: str
    lo: Fraction | None
    hi: Fraction | None
    lo_open: bool = False
    hi_open: bool = False
    position: Callable = field(compare=False, repr=False, default=None)
    polyline: Callable = field(compare=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.polyline is None:
            pos = self.position

            def straight(a: Fraction, b: Fraction) -> list[Point2]:
                return [pos(a)] if a == b else [pos(a), pos(b)]

            object.__setattr__(self, "polyline", straight)

    def contains_param(self, t: Fraction) -> bool:
        if self.lo is not None and (t < self.lo or (self.lo_open and t == self.lo)):
            return False
        if self.hi is not None and (t > self.hi or (self.hi_open and t == self.hi)):
            return False
        return True


@dataclass(frozen=True)
class StrandSpace:
    """A finite strand presentation of a planar continuum."""

    name: str
    strands: tuple[Strand, ...]
    resolver: Callable = field(compare=False, repr=False, default=None)

    def strand(self, name: str) -> Strand:
        for s in self.strands:
            if s.name == name:
                return s
        if self.resolver is not None:
            found = self.resolver(name)
            if found is not None:
                return found
        raise ValueError(f"unknown point: no strand {name!r} in {self.name}")

    def validate(self, point: CatalogPoint) -> Strand:
        s = self.strand(point.strand)
        if not s.contains_param(point.param):
            raise ValueError(
                f"unknown point: parameter {point.param} outside strand "
                f"{point.strand!r} of {self.name}"
            )
        return s

    def position(self, point: CatalogPoint) -> Point2:
        return self.validate(point).position(point.param)

    def components(self) -> tuple[str, ...]:
        seen: list[str] = []
        for s in self.strands:
            if s.component not in seen:
                seen.append(s.component)
        return tuple(seen)


# -- space registry ----------------------------------------------------------


@lru_cache(maxsize=None)
def arc_space() -> StrandSpace:
    segment = Strand(
        "segment", "arc", _ZERO, _ONE, position=lambda t: (t, _ZERO)
    )
    return StrandSpace("arc", (segment,))


def _bar_strand(component: str) -> Strand:
    return Strand(
        "bar", component, Fraction(-1), _ONE, position=lambda y: (_ZERO, y)
    )


def _wave_strand(component: str) -> Strand:
    return Strand(
        "wave",
        component,
        _ZERO,
        None,
        position=_wave_point,
        polyline=_wave_polyline,
    )


@lru_cache(maxsize=None)
def s1_space() -> StrandSpace:
    return StrandSpace("s1", (_wave_strand("sine"), _bar_strand("limit_interval")))


def _ell_point(p: Fraction) -> Point2:
    # Inner wall down, floor left, outer wall up: an arc from (0,1) to (-1,1).
    if p <= 2:
        return (_ZERO, 1 - p)
    if p <= 3:
        return (2 - p, Fraction(-1))
    return (Fraction(-1), p - 4)


def _ell_polyline(pa: Fraction, pb: Fraction) -> list[Point2]:
    params = [pa] + [Fraction(c) for c in (2, 3) if pa < c < pb] + [pb]
    return [_ell_point(t) for t in params]


@lru_cache(maxsize=None)
def s2_space() -> StrandSpace:
    ell = Strand(
        "ell",
        "outer_arc",
        _ZERO,
        Fraction(5),
        position=_ell_point,
        polyline=_ell_polyline,
    )
    return StrandSpace("s2", (_wave_strand("sine"), ell))


# -- S3 geometry: teeth and the gaps between them -----------------------------


def _anchor_abs(kind: str, k: int) -> Fraction:
    # |w| of the k-th zero ("z") or peak ("p") on either flank of a gap.
    if kind == "z":
        return 1 - Fraction(1, 2**k)
    return 1 - Fraction(3, 2 ** (k + 2))


@lru_cache(maxsize=_MEMO)
def _gap_height(i: int, a: int, b: int) -> Pair:
    """The height of gap strand i at w = a/b (b > 0), as an unreduced pair.

    Flank cycle k runs from zero k (height 0) at |w| = 1 - 2^-k up to peak
    k, of height (1 - 2^-(k+1))/c at |w| = 1 - 3*2^-(k+2), and down to zero
    k + 1, each piece 2^-(k+2) long; c is the adjoining tooth's index.
    """
    n = abs(a)
    if n >= b:
        w = Fraction(a, b)
        raise ValueError(f"unknown point: parameter {w} outside strand 'gap_{i}' of s3")
    k = (b // (b - n)).bit_length() - 1
    # r/b runs from 0 at zero k to 1 at the peak and on to 2 at zero k + 1.
    r = 2 ** (k + 2) * (n - b) + 4 * b
    top = 2 ** (k + 1)
    return min(r, 2 * b - r) * (top - 1), b * top * (i if a > 0 else i + 1)


def _gap_point(i: int, w: Fraction) -> Point2:
    """Gap strand i: a zigzag in 1/(i+1) < x < 1/i accumulating on both teeth.

    x runs linearly in w from 1/(i+1) to 1/i.  Flank anchors sit at
    |w| = 1 - 2^-k (zeros) and 1 - 3*2^-(k+2) (peaks); peak heights climb
    toward the adjacent tooth's height, so the closure adds both full
    teeth and nothing else.
    """
    a, b = w.numerator, w.denominator
    y = Fraction(*_gap_height(i, a, b))
    return Fraction((2 * i + 1) * b + a, 2 * i * (i + 1) * b), y


def _flank_cycle(aw: Fraction) -> int:
    """The k with 1 - 2^-k <= |w| < 1 - 2^-(k+1): zero k of a flank and its
    peak lie at or below |w|, and zero k + 1 above."""
    n, d = aw.numerator, aw.denominator
    return (d // (d - n)).bit_length() - 1


def _gap_polyline(i: int, wa: Fraction, wb: Fraction) -> list[Point2]:
    params = [_ZERO] if wa < 0 < wb else []
    for side, lo, hi in ((-1, max(-wb, _ZERO), -wa), (1, max(wa, _ZERO), wb)):
        if lo < hi:
            for k in range(_flank_cycle(lo), _flank_cycle(hi) + 1):
                anchors = (_anchor_abs("z", k), _anchor_abs("p", k))
                params += [side * aw for aw in anchors if lo < aw < hi]
    params.sort()
    pts = [_gap_point(i, wa)] + [_gap_point(i, w) for w in params]
    if wb > wa:
        pts.append(_gap_point(i, wb))
    return pts


def _tooth_strand(i: int) -> Strand:
    x = Fraction(1, i)
    return Strand(
        f"tooth_{i}",
        f"tooth_{i}",
        _ZERO,
        Fraction(1, i),
        position=lambda y, x=x: (x, y),
    )


def _gap_strand(i: int) -> Strand:
    return Strand(
        f"gap_{i}",
        f"gap_{i}",
        Fraction(-1),
        _ONE,
        lo_open=True,
        hi_open=True,
        position=lambda w, i=i: _gap_point(i, w),
        polyline=lambda wa, wb, i=i: _gap_polyline(i, wa, wb),
    )


def _parse_s3_strand(name: str) -> tuple[str, int]:
    """S3's strand names: origin, and tooth_i or gap_i for i >= 1 in plain decimal."""
    if name == "origin":
        return "origin", 0
    kind, _, idx = name.partition("_")
    # One spelling per strand: ASCII digits, no leading zero.
    if kind in ("tooth", "gap") and idx.isascii() and idx.isdigit() and idx[0] != "0":
        return kind, int(idx)
    raise ValueError(f"unknown point: strand {name!r}")


def _s3_resolver(name: str) -> Strand:
    # Declared strands, origin among them, never reach the resolver.
    kind, i = _parse_s3_strand(name)
    return _tooth_strand(i) if kind == "tooth" else _gap_strand(i)


@lru_cache(maxsize=None)
def s3_space() -> StrandSpace:
    strands = [_tooth_strand(i) for i in range(1, 9)]
    strands += [_gap_strand(i) for i in range(1, 9)]
    strands.append(
        Strand("origin", "origin", _ZERO, _ZERO, position=lambda t: (_ZERO, _ZERO))
    )
    return StrandSpace("s3", tuple(strands), resolver=_s3_resolver)


# -- the spiral strand of space T ---------------------------------------------


def _spiral_eps(p: int) -> Fraction:
    return Fraction(1, 2 ** (2 * p + 3))


class _PassData(NamedTuple):
    verts: tuple[Point2, ...]
    tags: tuple[tuple, ...]
    cum: tuple[Fraction, ...]
    total: Fraction
    cut_index: int
    bar_x_max: Fraction
    j_stop: int
    j_top: int


def _wave_wall_x(u_zero: int, y: Fraction) -> Fraction:
    # x of the wave leg pair through anchor u_zero, at height y.  Above the
    # zero level the wall walks toward the peak, below it toward the trough.
    toward = 2 - u_zero % 4
    a0 = _wave_anchor_x(u_zero)
    if y >= 0:
        return a0 + y * (_wave_anchor_x(u_zero + toward) - a0)
    return a0 - y * (_wave_anchor_x(u_zero - toward) - a0)


@lru_cache(maxsize=None)
def _pass_data(p: int) -> _PassData:
    """One full circuit of the spiral at offset e_p = 2^(-2p-3).

    The circuit traces the outline of the e_p-neighborhood of the closed
    sine curve: it dives under every trough whose pocket is still wider
    than 4*e_p, runs up the far side of the limit bar, dips into the top
    pockets the same way, and descends the outer flank to the gate of the
    next, tighter circuit.  One probe serves both journeys: it climbs a
    pocket's near wall to the height where the walls come within 4*e_p
    of each other, crosses, and returns down the far wall.
    """
    if p < 1:
        raise ValueError("passes start at 1")
    e = _spiral_eps(p)
    e4 = 4 * e
    e_next = _spiral_eps(p + 1)
    a = _wave_anchor_x
    pts: list[Point2] = [(a(0) + e, -1 - e)]
    tags: list[tuple] = []
    # Per walk direction d: the height of the extreme a pocket opens at,
    # and the offset that keeps the circuit outside the pocket's walls.
    side = {1: (Fraction(-1), e), -1: (_ONE, -e)}

    def go(pt: Point2, tag: tuple) -> None:
        if pt == pts[-1]:
            raise AssertionError("degenerate spiral segment")
        pts.append(pt)
        tags.append(tag)

    def wtag(u0, u1=None) -> tuple:
        u1 = u0 if u1 is None else u1
        return ("wave", rational(u0), rational(u1))

    def mouth(A: int, d: int) -> bool:
        # Is the pocket between extremes A and A + 4d wider than 4*e_p?
        lo, hi = min(A, A + 4 * d), max(A, A + 4 * d)
        return a(lo) - a(hi) > e4

    def pocket(A: int, d: int) -> None:
        # From beside extreme A to below or above extreme B = A + 4d: d = 1
        # for the troughs under the wave, d = -1 for the peaks over it.
        y0, de = side[d]
        B = A + 4 * d
        lo, hi = min(A, B), max(A, B)
        width = a(lo) - a(hi)
        g0 = a(lo + 1) - a(hi - 1)
        # How far the probe climbs from the extreme; past the zero level
        # when positive.
        if e4 >= g0:
            depth = -1 + (width - e4) / (width - g0)
        else:
            depth = 1 - e4 / g0
        cross = depth > 0
        ystar = depth if d > 0 else -depth
        near, far = A + d, A + 3 * d
        u_near, u_far = near + ystar, far - ystar
        x_near = _wave_wall_x(near, ystar) - de
        x_far = _wave_wall_x(far, ystar) + de
        go((a(A) - de, y0), wtag(A))
        if cross:
            go((a(near) - de, _ZERO), wtag(A, near))
        go((x_near, ystar), wtag(near if cross else A, u_near))
        go(((x_near + x_far) / 2, ystar), wtag(u_near))
        go((x_far, ystar), wtag(u_far))
        if cross:
            go((a(far) + de, _ZERO), wtag(u_far, far))
        go((a(B) + de, y0), wtag(far if cross else u_far, B))
        go((a(B) + de, y0 - de), wtag(B))

    # Bottom journey: pocket j between troughs 4j and 4j+4.
    j = 0
    while mouth(4 * j, 1):
        go((a(4 * j) - e, -1 - e), wtag(4 * j))
        pocket(4 * j, 1)
        j += 1
    j_stop = j
    if j_stop < p:
        raise AssertionError("bottom journey shallower than the pass index")

    go((-e, -1 - e), ("bar",))
    cut_index = len(pts) - 1
    go((-e, 1 + e), ("bar",))

    # Top journey: pocket j between peaks 4j-2 and 4j+2, deepest first.
    j_top = 0
    while mouth(4 * j_top + 6, -1):
        j_top += 1
    if j_top < 1:
        raise AssertionError("no probeable top pocket")
    go((a(4 * j_top + 2) + e, 1 + e), ("bar",))
    for j in range(j_top, 0, -1):
        pocket(4 * j + 2, -1)
        go((a(4 * j - 2) + e, 1 + e), wtag(4 * j - 2))

    # Outer flank down to the next gate.
    go((a(2) + e, _ONE), wtag(2))
    go((a(1) + e, _ZERO), wtag(2, 1))
    go((a(0) + e, Fraction(-1)), wtag(1, 0))
    go((a(0) + e, -1 - e_next), wtag(0))
    go((a(0) + e_next, -1 - e_next), wtag(0))

    cum = [_ZERO]
    for i in range(len(pts) - 1):
        seg = max(abs(pts[i + 1][0] - pts[i][0]), abs(pts[i + 1][1] - pts[i][1]))
        cum.append(cum[-1] + seg)
    bar_x = max(a(4 * j_stop) + e, a(4 * j_top + 2) + e)
    data = _PassData(
        tuple(pts), tuple(tags), tuple(cum), cum[-1], cut_index, bar_x, j_stop, j_top
    )
    if p > 1:
        prev = _pass_data(p - 1)
        prev_e = _spiral_eps(p - 1)
        if data.j_stop <= prev.j_stop or data.j_top < prev.j_top:
            raise AssertionError("circuits must deepen monotonically")
        if a(4 * data.j_stop) + e >= a(4 * prev.j_stop) + prev_e:
            raise AssertionError("bottom glide would cross the previous circuit")
        if a(4 * data.j_top + 2) + e >= a(4 * prev.j_top + 2) + prev_e:
            raise AssertionError("top glide would cross the previous circuit")
    return data


@lru_cache(maxsize=None)
def _prefix_total(p: int) -> Fraction:
    if p == 0:
        return _ZERO
    return _prefix_total(p - 1) + _pass_data(p).total


def spiral_circuit(v: Fraction) -> int:
    """The circuit p of T's spiral that holds parameter v in (2^-p, 2^-(p-1)]."""
    if not 0 < v <= 1:
        raise ValueError(f"spiral parameter outside (0, 1]: {v}")
    return (v.denominator // v.numerator).bit_length()


@lru_cache(maxsize=None)
def _circuit_lengths(p: int) -> tuple[int, ...]:
    """Circuit p's cumulative lengths as integer numerators over one denominator."""
    cum = _pass_data(p).cum
    den = lcm(*(c.denominator for c in cum))
    return tuple(c.numerator * (den // c.denominator) for c in cum)


@lru_cache(maxsize=_MEMO)
def _spiral_arclength(a: int, b: int) -> Pair:
    """The arclength from the free end to v = a/b, as an unreduced pair."""
    p = (b // a).bit_length()
    pre, total = _prefix_total(p - 1), _pass_data(p).total
    # pre + (2 - v*2^p) * total, over the denominators of pre, total and v
    pn, pd, tn, td = pre.numerator, pre.denominator, total.numerator, total.denominator
    return pn * td * b + (2 * b - a * 2**p) * tn * pd, pd * td * b


def _spiral_locate(a: int, b: int) -> tuple[int, int, Fraction]:
    """v = a/b as (circuit p, segment i, fraction t along the segment)."""
    p = (b // a).bit_length()
    cum = _circuit_lengths(p)
    # The circuit's own arclength at v is (2 - v*2^p) times its length; on
    # the integer lengths it is x/b.
    x = (2 * b - a * 2**p) * cum[-1]
    i = min(bisect_right(cum, x // b) - 1, len(cum) - 2)
    return p, i, Fraction(x - b * cum[i], b * (cum[i + 1] - cum[i]))


def _lerp(a: Fraction, b: Fraction, t: Fraction) -> Fraction:
    """a + t*(b - a), built as one Fraction."""
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    tn, td = t.numerator, t.denominator
    return Fraction(an * bd * td + tn * (bn * ad - an * bd), ad * bd * td)


def _spiral_at(p: int, i: int, t: Fraction) -> Point2:
    (ax, ay), (bx, by) = _pass_data(p).verts[i : i + 2]
    return _lerp(ax, bx, t), _lerp(ay, by, t)


def _spiral_point(v: Fraction) -> Point2:
    return _spiral_at(*_spiral_locate(v.numerator, v.denominator))


@lru_cache(maxsize=_MEMO)
def _spiral_host(a: int, b: int) -> CatalogPoint:
    """The point of the bar or the oscillation that the spiral runs along at v = a/b."""
    p, i, t = _spiral_locate(a, b)
    data = _pass_data(p)
    tag = data.tags[i]
    if tag[0] == "bar":
        y = _lerp(data.verts[i][1], data.verts[i + 1][1], t)
        return CatalogPoint("bar", _clamp(y, Fraction(-1), _ONE))
    return CatalogPoint("wave", _lerp(tag[1], tag[2], t))


def _spiral_param_at(sn: int, sd: int) -> Fraction:
    """Inverse of the arclength map at s = sn/sd (sd > 0), for window ends and tail samples."""
    if sn < 0:
        raise ValueError("arclength must be nonnegative")
    p = 1
    while (pre := _prefix_total(p)).numerator * sd <= sn * pre.denominator:
        p += 1
    # v = (2 - (s - pre)/total) / 2^p, with pre the arclength before circuit p
    pre, total = _prefix_total(p - 1), _pass_data(p).total
    pn, pd, tn, td = pre.numerator, pre.denominator, total.numerator, total.denominator
    return Fraction(2 * sd * pd * tn - (sn * pd - pn * sd) * td, 2**p * sd * pd * tn)


def _spiral_polyline(va: Fraction, vb: Fraction) -> list[Point2]:
    # The strand runs from deep (small v) to the free end at v = 1, so
    # the path goes from vb's segment forward through va's.  A circuit's
    # last vertex is the next one's first, and may be listed twice.
    pb, ib, tb = _spiral_locate(*_q(vb))
    pa, ia, ta = _spiral_locate(*_q(va))
    pts = [_spiral_at(pb, ib, tb)]
    for p in range(pb, pa + 1):
        verts = _pass_data(p).verts
        start = ib + 1 if p == pb else 0
        stop = ia + 1 if p == pa else len(verts)
        pts += verts[start:stop]
    pts.append(_spiral_at(pa, ia, ta))
    return pts


@lru_cache(maxsize=None)
def t_space() -> StrandSpace:
    spiral = Strand(
        "spiral",
        "T3",
        _ZERO,
        _ONE,
        lo_open=True,
        position=_spiral_point,
        polyline=_spiral_polyline,
    )
    return StrandSpace("t", (_bar_strand("T1"), _wave_strand("T2"), spiral))


@lru_cache(maxsize=None)
def catalog_spaces() -> dict[str, StrandSpace]:
    return {
        "arc": arc_space(),
        "s1": s1_space(),
        "s2": s2_space(),
        "s3": s3_space(),
        "t": t_space(),
    }


# -- separation data ----------------------------------------------------------


@dataclass(frozen=True)
class MinimalArc:
    """The arc of one strand between two parameters."""

    space: str
    strand: str
    lo: Fraction
    hi: Fraction

    def contains(self, point: CatalogPoint) -> bool:
        return point.strand == self.strand and self.lo <= point.param <= self.hi


def separation_data(
    space: StrandSpace, x: CatalogPoint, y: CatalogPoint, z: CatalogPoint
) -> tuple[MinimalArc, Fraction]:
    """The minimal arc M through x and y, and half its distance to z.

    Any chain level with mesh below the returned threshold must keep z's
    links disjoint from the links meeting M, so z can never sit between
    x and y at such a level.
    """
    sx = space.validate(x)
    space.validate(y)
    space.validate(z)
    if y.strand != x.strand:
        raise ValueError("x and y lie in different arc components")
    lo, hi = min(x.param, y.param), max(x.param, y.param)
    arc = MinimalArc(space.name, x.strand, lo, hi)
    if arc.contains(z):
        raise ValueError("no separating continuum exists: z lies on the minimal arc")
    distance = _polyline_distance(space.position(z), sx.polyline(lo, hi))
    if distance <= 0:
        raise AssertionError("strands must be disjoint away from the arc")
    return arc, distance / 2


# -- link windows -----------------------------------------------------------------

Box = tuple[Fraction, Fraction, Fraction, Fraction]  # x_lo, x_hi, y_lo, y_hi


class Window(NamedTuple):
    """The parameters lo..hi of one strand that lie in link ``link``.

    The interval is open except at an end flagged closed.  A window with
    a ``box`` stands for an absorbed tail: the box encloses every point
    of the tail in the link, not just those of the window.  Without one,
    the strand's polyline over the window bounds the link's points there.
    """

    link: int
    strand: str
    lo: Fraction
    hi: Fraction
    lo_closed: bool = False
    hi_closed: bool = False
    box: Box | None = None

    def contains(self, t: Fraction) -> bool:
        if self.lo < t < self.hi:
            return True
        return (t == self.lo and self.lo_closed) or (t == self.hi and self.hi_closed)


def _grid_windows(
    strand: str,
    grid: _Grid,
    count: int,
    first: int,
    lo: Fraction,
    hi: Fraction,
    along: int,
    shift: Pair,
    param_at: Callable[[int, int], Fraction] = Fraction,
    ends_closed: bool = True,
    sense: int = 1,
) -> list[Window]:
    """Windows 1..count of the plan's ``grid`` over the coordinate stretch lo..hi.

    Window i of the grid is link first + sense*i; the first and last windows
    reach the ends of the stretch, which are closed or open together.
    Coordinate o sits at measure along*(o - shift), and ``param_at(n, d)``
    is the strand parameter at measure n/d; the ends stay integer
    numerators over ``den`` until ``param_at`` keeps them.
    """
    eq, cq, ep = grid.eq, grid.cq, grid.ep
    den = lcm(eq, lo.denominator, hi.denominator)
    ep, cq = ep * (den // eq), cq * (den // eq)
    lo_n, hi_n = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    # Coordinate a/den sits at measure along*(a*cd - cn*den)/(den*cd).
    cn, cd = shift
    off, scale = cn * den, den * cd
    out = []
    for i in range(1, count + 1):
        a, ca = (i - 1) * ep - cq, False
        if i == 1 or a < lo_n:
            a, ca = lo_n, ends_closed
        b, cb = i * ep + cq, False
        if i == count or b > hi_n:
            b, cb = hi_n, ends_closed
        if a > b or (a == b and not (ca and cb)):
            continue
        pa, pb = param_at(along * (a * cd - off), scale), param_at(along * (b * cd - off), scale)
        if pa > pb:
            pa, pb, ca, cb = pb, pa, cb, ca
        out.append(Window(first + sense * i, strand, pa, pb, ca, cb))
    return out


def _pull_back(strand: str, knots: list, host: list[Window], box: Callable) -> list[Window]:
    """Windows on a tail whose point at u lies in the host windows holding f(u).

    f is linear between consecutive knots (u, f(u)), given in increasing
    u, and never constant on a piece.  ``box(lo, hi, host_window)`` gives
    each window's tail box.
    """
    out = []
    for (u0, f0), (u1, f1) in zip(knots, knots[1:]):
        slope = (u1 - u0) / (f1 - f0)
        f_lo, f_hi = min(f0, f1), max(f0, f1)
        for h in host:
            if h.hi < f_lo or h.lo > f_hi:
                continue
            a, b = u0 + (h.lo - f0) * slope, u0 + (h.hi - f0) * slope
            ca, cb = h.lo_closed, h.hi_closed
            if slope < 0:
                a, b, ca, cb = b, a, cb, ca
            if a <= u0:
                a, ca = u0, ca or a < u0
            if b >= u1:
                b, cb = u1, cb or b > u1
            if a < b or (a == b and ca and cb):
                out.append(Window(h.link, strand, a, b, ca, cb, box(a, b, h)))
    return out


# -- walks: segments and host tails -----------------------------------------------


def _by_param(a: int, b: int) -> Pair:
    """The measure of a strand walked by its parameter: the parameter a/b itself."""
    return a, b


class _Segment(NamedTuple):
    """One strand's stretch of a walk: windows 1..grid.hi of ``grid``, window i
    in link first + sense*i, over grid coordinates 0..span.

    A point at parameter a/b has measure ``measure(a, b)``, by default the
    parameter, and sits at grid coordinate along*m + shift for measure m,
    with along = ±1; ``param_at(n, d)`` is the parameter at measure n/d.
    It is settled when m <= end, or always without an end.  On the
    handover stretch from end to ``reach`` it lies in the two links
    ``handover``; beyond, its host places it.
    """

    strand: str
    grid: _Grid
    first: int
    sense: int
    along: int
    shift: Pair
    span: Pair
    end: Pair | None = None
    reach: Pair | None = None
    handover: tuple[int, int] | None = None
    measure: Callable[[int, int], Pair] = _by_param
    param_at: Callable[[int, int], Fraction] = Fraction


def _segment_windows(seg: _Segment) -> list[Window]:
    """A segment's grid windows, then its handover windows in walk order."""
    windows = _grid_windows(
        seg.strand, seg.grid, seg.grid.hi, seg.first, _ZERO, Fraction(*seg.span),
        seg.along, seg.shift, seg.param_at, sense=seg.sense,
    )
    if seg.end is not None:
        lo, hi = sorted((seg.param_at(*seg.end), seg.param_at(*seg.reach)))
        links = seg.handover if seg.sense > 0 else seg.handover[::-1]
        windows += [Window(link, seg.strand, lo, hi) for link in links]
    return windows


class _WalkPlan(NamedTuple):
    """A level of the arc, S1, S2 or T: its segments by strand, in the order
    their windows are listed."""

    walk: dict[str, _Segment]
    size: int
    mesh: Fraction


# -- the shared chain-family protocol -------------------------------------------


@dataclass(frozen=True)
class ChainFamily:
    """A chain sequence on one catalog space, one memoized level per depth.

    A family names its space in ``SPACE`` and its variants in
    ``VARIANTS``.  Level n comes from a plan, which the level keeps:
    ``_build_plan(n)`` returns a record with the link count ``size`` and
    the mesh bound ``mesh``, and ``_index(plan, point)`` places a point
    on that level's links as a plain ``(lo, hi)`` pair, which the level's
    ``index_of`` holds to the chain contract.  ``compare_certificate``
    certifies a pair's relation from the level ``_settling_level`` names
    (by default a scan of the relations in the family's memo, which
    needs ``_pair_settled``) on, with the depth as the record's probe.
    The validator reads ``link_windows(n)``, the inverse of ``_index``,
    and the points of ``sampled_parts(n)``, which stand for what no
    window lists.

    Every family's plan lists its walk as segments, one per strand, in
    the dict ``plan.walk``, and those three views read it alike.
    ``_index`` places a point by its segment's grid, on the handover
    stretch by the handover pair, and beyond it, or on a strand without
    a segment, as its host (``_host``).  ``link_windows`` lists each
    segment's windows, then what ``_tail_windows`` lists after that
    segment: the windows of whatever the walk covers before the next
    segment, such as a tail its host places.  By default
    ``_pair_settled`` asks both points to be settled and, on one strand,
    farther apart than any link of its segment spans, so no later level
    (links only shrink) puts them in one link.  Only S3's gaps and blob
    keep placement and windows of their own.
    """

    SPACE: ClassVar[str]
    VARIANTS: ClassVar[tuple[str, ...]]
    _levels: dict = field(default_factory=dict, compare=False, repr=False, kw_only=True)
    _links: LinkMemo = field(
        default_factory=partial(LinkMemo, _link_key), compare=False, repr=False, kw_only=True
    )

    def __post_init__(self) -> None:
        if self.variant not in self.VARIANTS:
            raise ValueError(f"unknown variant: {self.variant!r}")

    @property
    def space(self) -> StrandSpace:
        return catalog_spaces()[self.SPACE]

    def level(self, n: int) -> ChainLevel:
        if n not in self._levels:
            if n < 1:
                raise ValueError("levels start at 1")
            plan = self._build_plan(n)
            self._levels[n] = ChainLevel(n, plan.size, plan.mesh, partial(self._index, plan), plan)
        return self._levels[n]

    def _plan(self, n: int):
        return self.level(n).plan

    def compare_certificate(self, x, y, depth: int, relation) -> Certificate | None:
        settled = self._settling_level(x, y, depth, relation)
        return settled and settled_from(*settled, probe=depth)

    def _settling_level(self, x, y, depth: int, relation) -> tuple[int, str, dict] | None:
        """Stabilization by direct scan plus a persistence gate.

        The scan finds the earliest level from which the computed relation
        is strict and constant through ``depth``; the relation is only
        certified from a level where both points are in settled zones and,
        on one strand, farther apart than any link there spans, where the
        walk layout pins their relative order at every finer level as well.
        """
        rels = [relation(n) for n in range(1, depth + 1)]
        final = rels[-1]
        if final not in (LE_ONLY, GE_ONLY):
            return None
        first = depth
        while first > 1 and rels[first - 2] == final:
            first -= 1
        for n in range(first, depth + 1):
            if self._pair_settled(x, y, n):
                meta = {"kind": "walk-scan", "first_constant_level": first, "settled_level": n}
                return n, final, meta
        return None

    def _index(self, plan, point: CatalogPoint) -> tuple[int, int]:
        strand, a, b = point.strand, point.param.numerator, point.param.denominator
        while True:
            seg = plan.walk.get(strand)
            if seg is not None:
                mn, md = seg.measure(a, b)
                end = seg.end
                if end is None or mn * end[1] <= end[0] * md:
                    (cn, cd), first = seg.shift, seg.first
                    lo, hi = _window_range(seg.grid, seg.along * mn * cd + cn * md, md * cd)
                    return (first + lo, first + hi) if seg.sense > 0 else (first - hi, first - lo)
                if mn * seg.reach[1] < seg.reach[0] * md:
                    return seg.handover
            strand, a, b = self._host(strand, a, b)

    def _host(self, strand: str, a: int, b: int) -> tuple[str, int, int]:
        """The point, as strand, numerator and denominator, that places
        parameter a/b of ``strand`` beyond its segment."""
        raise ValueError(f"unknown point: {CatalogPoint(strand, Fraction(a, b))}")

    def _pair_settled(self, x: CatalogPoint, y: CatalogPoint, n: int) -> bool:
        walk = self._plan(n).walk
        measures = []
        for p in (x, y):
            seg = walk.get(p.strand)
            if seg is None:
                return False
            m = seg.measure(p.param.numerator, p.param.denominator)
            if seg.end is not None and m[0] * seg.end[1] > seg.end[0] * m[1]:
                return False
            measures.append(m)
        return x.strand != y.strand or _farther(*measures, walk[x.strand].grid)

    def link_windows(self, n: int) -> list[Window]:
        plan = self._plan(n)
        walked = {strand: _segment_windows(seg) for strand, seg in plan.walk.items()}
        tails = {strand: self._tail_windows(plan, strand, walked) for strand in walked}
        return [w for strand, ws in walked.items() for w in ws + tails[strand]]

    def _tail_windows(self, plan, strand: str, walked: dict) -> list[Window]:
        """The windows listed after ``strand``'s segment, given every segment's
        windows: by default none."""
        return []

    def sampled_parts(self, n: int) -> dict[str, list[CatalogPoint]]:
        return {}


# -- the arc ------------------------------------------------------------------


@dataclass(frozen=True)
class ArcChainFamily(ChainFamily):
    """Canonical chains of 2^n links on [0,1], optionally reversely numbered.

    Level n is one walk segment on the strand ``segment``, whose grid's
    windows are the links of ``IntervalChain(2^n)``: window i is link i,
    or link 2^n + 1 - i on the reversed variant.  The generic walk places
    points and lists windows, with no tail windows after the segment;
    ``_index`` only turns a bare rational into the segment point at that
    parameter and refuses one outside [0, 1].  The arc certifies a pair
    by its own interval gap (``_settling_level``).
    """

    SPACE: ClassVar[str] = "arc"
    VARIANTS: ClassVar[tuple[str, ...]] = ("standard", "reversed")
    variant: str

    def _param(self, point) -> Fraction:
        if isinstance(point, CatalogPoint):
            if point.strand != "segment":
                raise ValueError(f"unknown point: {point}")
            t = point.param
        else:
            t = rational(point)
        if not 0 <= t.numerator <= t.denominator:
            raise ValueError(f"point outside [0,1]: {t}")
        return t

    def _build_plan(self, n: int) -> _WalkPlan:
        # IntervalChain(k)'s link i spans ((i-1)/k - 1/(4k), i/k + 1/(4k)).
        k = 2**n
        first, sense = (k + 1, -1) if self.variant == "reversed" else (0, 1)
        segment = _Segment(
            "segment", _grid(Fraction(1, k), Fraction(1, 4 * k), 1, k), first, sense,
            along=1, shift=(0, 1), span=(1, 1),
        )
        return _WalkPlan({"segment": segment}, k, Fraction(3, 2 * k))

    def _index(self, plan: _WalkPlan, point) -> tuple[int, int]:
        return super()._index(plan, CatalogPoint("segment", self._param(point)))

    def _settling_level(self, x, y, depth: int, relation) -> tuple[int, str, dict | None] | None:
        s, t = self._param(x), self._param(y)
        if s == t:
            # A bare rational and the segment point at its parameter.
            return 1, BOTH, None
        lo, hi = min(s, t), max(s, t)
        a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        for n in range(1, depth + 1):
            k = 2**n
            # An integer m with k*lo + 1/4 <= m <= k*hi - 1/4 separates the
            # two link ranges, and doubling the chain maps m to 2m, which
            # satisfies the same bounds: separation persists forever.  With
            # lo = a/b and hi = c/d, m = ceil((4ka + b)/4b) and the upper
            # bound reads 4md <= 4kc - d.
            m = -(-(4 * k * a + b) // (4 * b))
            if 4 * m * d <= 4 * k * c - d:
                forward = LE_ONLY if (s < t) == (self.variant == "standard") else GE_ONLY
                return n, forward, {"kind": "interval-gap", "witness_index": m, "links": k}
        return None


# -- the sine curve: S1, and S2 with its outer arc --------------------------------


def _sine_step(n: int) -> Fraction:
    """The link step on level n's wave and T's spiral; their links overlap by an eighth of it."""
    return Fraction(1, 3 * (n + 3))


def _slab_step(n: int) -> Fraction:
    """The slab width on level n's limit strand of S1, S2 and T."""
    return Fraction(1, 2 * (n + 3))


@dataclass(frozen=True)
class SineChainFamily(ChainFamily):
    """Chains on S1 that walk the oscillation first, then the limit bar.

    Variant D cuts the oscillation at a peak and enters the bar from the
    top; D' cuts at a trough and enters from the bottom; E and E' are
    the reversely numbered copies.

    The walk has two segments.  The wave's windows run from the free end
    to u* just short of the cut; from u* past the cut the last window
    hands over to the first slab, and the limit strand ``LIMIT`` is
    walked in slabs end to end.  Past the handover the wave's host is
    the limit-strand point at its height, so the slabs absorb the tail;
    its windows are the slabs' pulled back over one period.  S2 and the
    bar-and-oscillation block of T reuse this walk.
    """

    SPACE: ClassVar[str] = "s1"
    VARIANTS: ClassVar[tuple[str, ...]] = ("D", "D'", "E", "E'")
    LIMIT: ClassVar[str] = "bar"
    PEAK_CUT: ClassVar[tuple[str, ...]] = ("D", "E")
    REVERSED: ClassVar[tuple[str, ...]] = ("E", "E'")
    # (m, c): the deep oscillation at height y hugs limit-strand parameter m*y + c.
    LIMIT_AT_HEIGHT: ClassVar[Pair] = (1, 0)
    variant: str

    def _mesh(self, h: Fraction, band: Fraction, reach: Fraction) -> Fraction:
        # reach: x of the oscillation where the windows stop; the tail
        # beyond it, which the slabs absorb, stays within that x
        return max(h + h / 4, band + band / 4, reach)

    def _build_plan(self, n: int, offset: int = 0) -> _WalkPlan:
        """Level n, its links moved up by ``offset`` when the walk is a block
        of a larger chain."""
        h = _sine_step(n)
        ov = h / 8
        peak_cut = self.variant in self.PEAK_CUT
        deep = 4 * n + 2 if peak_cut else 4 * n + 4
        windows = deep * h.denominator
        # Slabs of width band cover the whole limit strand.
        limit = self.space.strand(self.LIMIT)
        band = _slab_step(n)
        slabs = 2 * int(limit.hi - limit.lo) * (n + 3)
        size = windows + slabs
        # The walk enters the limit strand where the cut's height meets it.
        m, c = self.LIMIT_AT_HEIGHT
        entry = m * (1 if peak_cut else -1) + c
        along = 1 if entry == limit.lo else -1
        flip = self.variant in self.REVERSED
        sense = -1 if flip else 1

        def link(k: int) -> int:
            # The walk's k-th link, numbered backwards if the walk is reversed.
            return offset + (size + 1 - k if flip else k)

        ustar = deep - ov
        # The last window and the first slab share (u*, deep + ov).
        wave = _Segment(
            "wave", _grid(h, ov, 1, windows), link(0), sense, along=1, shift=(0, 1), span=_q(ustar),
            end=_q(ustar), reach=_q(deep + ov),
            handover=tuple(sorted((link(windows), link(windows + 1)))),
        )
        # Slab coordinate o = along*(t - entry) at limit parameter t.
        limit_seg = _Segment(
            self.LIMIT, _grid(band, band / 8, 1, slabs), link(windows), sense, along=along,
            shift=(-along * entry, 1), span=_q(limit.hi - limit.lo),
        )
        mesh = self._mesh(h, band, _wave_point(ustar)[0])
        plan = _WalkPlan({"wave": wave, self.LIMIT: limit_seg}, size, mesh)
        # The walk enters from the free end: the outermost trough is in
        # the first link, and the limit strand is first met by its entry slab.
        if self._index(plan, CatalogPoint("wave", 0)) != (link(1),) * 2:
            raise AssertionError("free end must open the walk")
        if self._index(plan, CatalogPoint(self.LIMIT, entry)) != (link(windows + 1),) * 2:
            raise AssertionError("limit entry must follow the last window")
        return plan

    def _host(self, strand: str, a: int, b: int) -> tuple[str, int, int]:
        # Past the cut the wave at height y is placed as limit-strand point m*y + c.
        if strand != "wave":
            return super()._host(strand, a, b)
        m, c = self.LIMIT_AT_HEIGHT
        return self.LIMIT, m * _wave_height(a, b) + c * b, b

    def _tail_windows(self, plan: _WalkPlan, strand: str, walked: dict) -> list[Window]:
        """The wave from the cut on, placed by height in the slabs, over one period.

        The height is periodic in u with period 4, so one period meets the
        slabs at every height the tail does; the tail stays within x in
        (0, x(cut)], which each window's box spans at the window's heights.
        """
        if strand != "wave":
            return []
        cut = Fraction(*plan.walk["wave"].reach)
        reach = _wave_point(cut)[0]
        j = _ceil(cut)
        us = [cut] + [Fraction(u) for u in range(j, j + 4)] + [cut + 4]
        m, c = self.LIMIT_AT_HEIGHT
        knots = [(u, m * _wave_point(u)[1] + c) for u in us]

        def box(lo: Fraction, hi: Fraction, slab: Window) -> Box:
            y_lo, y_hi = sorted((_wave_point(lo)[1], _wave_point(hi)[1]))
            return (_ZERO, reach, y_lo, y_hi)

        return _pull_back("wave", knots, walked[self.LIMIT], box)


@dataclass(frozen=True)
class OuterArcChainFamily(SineChainFamily):
    """Chains on S2 walking the oscillation, then the outer arc end to end.

    The oscillation is cut at a peak, so the walk always enters the
    outer arc at its inner top corner; the reversed variant renumbers
    the same cover backwards.
    """

    SPACE: ClassVar[str] = "s2"
    VARIANTS: ClassVar[tuple[str, ...]] = ("standard", "reversed")
    LIMIT: ClassVar[str] = "ell"
    PEAK_CUT: ClassVar[tuple[str, ...]] = VARIANTS
    REVERSED: ClassVar[tuple[str, ...]] = ("reversed",)
    # The tail hugs the inner wall of the outer arc.
    LIMIT_AT_HEIGHT: ClassVar[Pair] = (-1, 1)

    def _mesh(self, h: Fraction, band: Fraction, reach: Fraction) -> Fraction:
        # Slabs turning the floor corners also span the tail's width.
        return max(h + h / 4, band + band / 4 + reach)


# -- S3: the forest of teeth ----------------------------------------------------


class _Leg(NamedTuple):
    """A leg's ``count`` links of step 1/den and overlap 1/(8 den) in w, so
    its grid keeps cq = den and ep = 8 den."""

    count: int
    link_base: int
    grid: _Grid  # over d = w_hi - w; its end windows reach the neighbouring legs' links
    hi: Pair  # w_hi
    lo: Pair  # the w where the leg ends


class _GapShape(NamedTuple):
    """A gap's links with indices counted from 0; a plan adds the gap's base.

    The cuts and the margin links' outer ends are kept as numerator/denominator pairs.
    """

    legs: tuple[_Leg, ...]
    total: int
    widest: _Grid  # the grid of the leg whose links cover the longest stretch of w
    cut_r: Pair
    margin_r: Pair
    kind_l: str
    cut_l: Pair
    margin_l: Pair


class _S3Plan(NamedTuple):
    """Level m of S3: a segment per tooth in ``walk``, and the gaps by index;
    its last link, ``size``, is the blob."""

    m: int
    walk: dict[str, _Segment]
    gap_base: dict
    gaps: dict
    size: int
    mesh: Fraction


def _cut_depth(i: int, kind: str, m: int, tooth: int) -> int:
    """The first cycle k >= 1 whose zero ("z") or peak ("p") on gap i lies
    within 1/(8L) in x of the gap's end at ``tooth`` and, for a peak, falls
    short of the tooth's height 1/tooth by at most 1/(16m).

    1/(4L), with L = max(m, tooth(tooth + 1)), is the least of 1/(4m) and a
    quarter of the widths of the gaps beside the tooth.  The anchor sits
    2^-k/(2i(i+1)) from the end for a zero and 3·2^-k/(8i(i+1)) for a peak,
    and peak k falls short by 2^-(k+1)/tooth.  Each test asks 2^k >= a/b,
    which first holds at k = bit length of (a - 1) // b.
    """
    g, L = i * (i + 1), max(m, tooth * (tooth + 1))
    k = max(1, ((4 * L - 1 if kind == "z" else 3 * L - 1) // g).bit_length())
    if kind == "p":
        k = max(k, ((8 * m - 1) // tooth).bit_length())
    return k


# One shape per (i, m, bit pair): at level m the m - 1 inner gaps have four
# bit pairs each and the last gap two, so levels 1 to L have 2·L² shapes
# between them.  The memo holds all of them up to S3's compare limit of 48:
# prefixes share every shape, and none is evicted to be built again and
# pinned once more by the next prefix's plans.
_GAP_SHAPES = 2 * 48**2


@lru_cache(maxsize=_GAP_SHAPES)
def _gap_shape(i: int, m: int, bit_r: int, bit_l: int | None) -> _GapShape:
    """Gap i at level m, between teeth walked by ``bit_r`` and ``bit_l``.

    ``bit_l`` is bit i + 1 of the prefix, or None for the last gap,
    whose left end dives into the blob.
    """
    kind_r = "z" if bit_r == 1 else "p"
    k_r = _cut_depth(i, kind_r, m, i)
    if bit_l is not None:
        kind_l = "p" if bit_l == 1 else "z"
        k_l = _cut_depth(i, kind_l, m, i + 1)
    else:
        kind_l = "blob"
        k_l = (2 * m - 1).bit_length()
    # Peak cuts leave a height deficit of 2^-(k+1)/tooth at the adjoining
    # tooth; it must fall inside half the entry slab, 1/(2·tooth·slabs).
    for kind, k, tooth in ((kind_r, k_r, i), (kind_l, k_l, i + 1)):
        if kind == "p" and -(-4 * m // tooth) > 2**k:
            raise AssertionError("cut deficit escapes the entry slab")

    def flank(side: int, kind: str, k_cut: int) -> list[tuple[Pair, int]]:
        # A flank's anchors from w = 0 outward, up to its cut, each with the
        # cycle k of the leg that reaches it: peak k at |w| = 1 - 3·2^-(k+2)
        # and zero k + 1 at 1 - 2^-(k+1), odd numerators over powers of two.
        walk = [anchor for k in range(k_cut) for anchor in ((4 << k, 3, k), (2 << k, 1, k))]
        if kind == "p":
            walk.append((4 << k_cut, 3, k_cut))
        return [((side * (d - r), d), k) for d, r, k in walk]

    # From the right cut down through zero 0 to the left cut.
    right, left = flank(1, kind_r, k_r)[::-1], flank(-1, kind_l, k_l)
    anchors = [w for w, _ in right] + [(0, 1)] + [w for w, _ in left]
    cycles = [(i, k) for _, k in right] + [(i + 1, k) for _, k in left]

    legs: list[_Leg] = []
    dens: list[int] = []
    link = 0
    for j, (c, k) in enumerate(cycles):
        # Each leg joins zero and peak of cycle k, 2^-(k+2) apart in w, and
        # climbs the peak's height (2^(k+1) - 1)/(c·2^(k+1)) in links of
        # height at most 1/(4m).
        top = 2 << k
        count = -(-(top - 1) * 4 * m // (c * top))
        den = 2 * top * count
        # Windows 0 and count + 1 are the neighbouring legs' end links.
        reach = count + 1 if j + 1 < len(cycles) else count
        grid = _grid(Fraction(1, den), Fraction(1, 8 * den), 0 if link else 1, reach)
        legs.append(_Leg(count, link, grid, anchors[j], anchors[j + 1]))
        dens.append(den)
        link += count

    return _GapShape(
        legs=tuple(legs),
        total=link,
        # The first leg with the longest step; its links reach ovw into the
        # neighbouring legs.
        widest=legs[dens.index(min(dens))].grid,
        cut_r=anchors[0],
        margin_r=_q(Fraction(*anchors[0]) + Fraction(1, legs[0].grid.ep)),
        kind_l=kind_l,
        cut_l=anchors[-1],
        margin_l=_q(Fraction(*anchors[-1]) - Fraction(1, legs[-1].grid.ep)),
    )


def _gap_part(g: _GapShape, w: Fraction) -> str:
    """Where w lies on a gap: "pure" between the cuts, else in a margin or a tail."""
    a, b = w.numerator, w.denominator
    if a * g.cut_r[1] > g.cut_r[0] * b:
        return "margin_r" if a * g.margin_r[1] < g.margin_r[0] * b else "tail_r"
    if a * g.cut_l[1] < g.cut_l[0] * b:
        return "margin_l" if a * g.margin_l[1] > g.margin_l[0] * b else "tail_l"
    return "pure"


@dataclass(frozen=True)
class ToothForestChainFamily(ChainFamily):
    """Chains on S3 walking tooth 1, gap 1, tooth 2, ... then one deep blob.

    Bit i of the prefix picks the walk direction through tooth i: bit 0
    covers the bottom endpoint in an earlier link than the top, bit 1
    the reverse.  Everything beyond the level's reach is absorbed into
    the single last link.

    Each tooth up to the level is a walk segment, so the generic walk
    places its points and lists its windows.  The gaps and the blob keep
    their own code: ``_index`` places the blob's strands and a gap's legs
    and margins, and leaves a flank's tail to its host, the tooth the
    flank climbs toward, at the tail's height.  ``_tail_windows`` lists
    gap i after tooth i, and the blob after gap m.
    """

    SPACE: ClassVar[str] = "s3"
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits or any(b not in (0, 1) for b in self.bits):
            raise ValueError("the prefix must be a nonempty tuple of 0/1 bits")

    def _build_plan(self, m: int) -> _S3Plan:
        if m > len(self.bits):
            raise ValueError(
                f"prefix too short: level {m} needs {m} bits, got {len(self.bits)}"
            )
        walk: dict[str, _Segment] = {}
        gap_base: dict[int, int] = {}
        gaps: dict[int, _GapShape] = {}
        off = 0
        for i in range(1, m + 1):
            # Tooth i in slabs of 1/q, q = i*slabs, walked from its top
            # (coordinate 1/i - y) when bit i is 1, else from its bottom.
            slabs = -(-4 * m // i)
            q = i * slabs
            along, shift = (-1, (1, i)) if self.bits[i - 1] == 1 else (1, (0, 1))
            name = f"tooth_{i}"
            walk[name] = _Segment(
                name, _grid(Fraction(1, q), Fraction(1, 8 * q), 1, slabs), off, 1, along, shift,
                span=(1, i),
            )
            off += slabs
            gap_base[i] = off
            gaps[i] = _gap_shape(i, m, self.bits[i - 1], self.bits[i] if i < m else None)
            off += gaps[i].total
        mesh = Fraction(4 * m + 1, 4 * m * (m + 1))
        return _S3Plan(m, walk, gap_base, gaps, size=off + 1, mesh=mesh)

    def _gap_index(self, plan: _S3Plan, i: int, w: Fraction) -> tuple[int, int] | None:
        """The links holding w on gap i, or None on a flank's tail, which its host places."""
        g, base = plan.gaps[i], plan.gap_base[i]
        part = _gap_part(g, w)
        a, b = w.numerator, w.denominator
        if part == "pure":
            for leg in g.legs:
                if a * leg.lo[1] >= leg.lo[0] * b:
                    lo, hi = _window_range(leg.grid, leg.hi[0] * b - a * leg.hi[1], leg.hi[1] * b)
                    first = base + leg.link_base
                    return lo + first, hi + first
            raise AssertionError("gap legs must cover the span between the cuts")
        if part == "margin_r":
            return base, base + 1
        if part == "margin_l":
            return base + g.total, base + g.total + 1
        if part == "tail_l" and g.kind_l == "blob":
            return plan.size, plan.size
        return None

    def _index(self, plan: _S3Plan, point: CatalogPoint) -> tuple[int, int]:
        kind, i = _parse_s3_strand(point.strand)
        if kind == "origin" or i > plan.m:
            return plan.size, plan.size
        if kind == "gap":
            links = self._gap_index(plan, i, point.param)
            if links is not None:
                return links
        return super()._index(plan, point)

    def _host(self, strand: str, a: int, b: int) -> tuple[str, int, int]:
        # A flank's tail is placed by height on the tooth it climbs toward.
        kind, i = _parse_s3_strand(strand)
        if kind != "gap":
            return super()._host(strand, a, b)
        return f"tooth_{i if a > 0 else i + 1}", *_gap_height(i, a, b)

    def _classify(self, plan: _S3Plan, p: CatalogPoint) -> str:
        kind, i = _parse_s3_strand(p.strand)
        if kind == "origin" or i > plan.m:
            return "blob"
        if kind == "tooth":
            return "pure"
        part = _gap_part(plan.gaps[i], p.param)
        return "blob-partial" if part == "tail_l" and plan.gaps[i].kind_l == "blob" else part

    def _pair_settled(self, x: CatalogPoint, y: CatalogPoint, n: int) -> bool:
        plan = self._plan(n)
        cx, cy = self._classify(plan, x), self._classify(plan, y)
        if {cx, cy} == {"pure"}:
            if x.strand != y.strand:
                return True
            # Both on one tooth or one gap: farther apart than any of its
            # links spans, which no later level widens.
            kind, i = _parse_s3_strand(x.strand)
            grid = plan.walk[x.strand].grid if kind == "tooth" else plan.gaps[i].widest
            return _farther(_q(x.param), _q(y.param), grid)
        if {cx, cy} == {"pure", "blob"}:
            return True
        if {cx, cy} == {"pure", "blob-partial"}:
            # A point still beyond the deepest covered gap's blob cut will
            # graduate behind every currently covered link except later
            # parameters of its own strand.
            return x.strand != y.strand
        return False

    def _tail_windows(self, plan: _S3Plan, strand: str, walked: dict) -> list[Window]:
        """After tooth i, gap i: its legs and margins, and its flanks' tails
        placed by height on the teeth's windows.  After gap m, the blob.

        The blob holds the left tail of gap m and every strand beyond it:
        teeth and gaps past m, which run in x below 1/(m + 1) and never
        rise above it, and the origin.  It is listed on the declared
        strands past m and on tooth and gap m + 1.
        """
        i, m = _parse_s3_strand(strand)[1], plan.m
        name, g, base = f"gap_{i}", plan.gaps[i], plan.gap_base[i]
        windows: list[Window] = []
        for k, leg in enumerate(g.legs):
            # A leg's end links reach into the neighbouring leg or margin
            # by that one's overlap, 1/ep of its grid.
            ep_prev = g.legs[k - 1].grid.ep if k else leg.grid.ep
            ep_next = g.legs[k + 1].grid.ep if k + 1 < len(g.legs) else leg.grid.ep
            reach = Fraction(leg.count, leg.grid.cq) + Fraction(1, ep_next)
            windows += _grid_windows(
                name, leg.grid, leg.count, base + leg.link_base, Fraction(-1, ep_prev), reach,
                along=-1, shift=leg.hi, ends_closed=False,
            )
        right = Fraction(*g.margin_r)
        windows.append(Window(base, name, Fraction(*g.cut_r), right))
        windows += _flank_tail(i, 1, right, walked[strand])
        left = Fraction(*g.margin_l)
        windows.append(Window(base + g.total + 1, name, left, Fraction(*g.cut_l)))
        if i < m:
            return windows + _flank_tail(i, -1, left, walked[f"tooth_{i + 1}"])
        blob_cut = Fraction(*plan.gaps[m].margin_l)
        blob_box = (_ZERO, _gap_point(m, blob_cut)[0], _ZERO, Fraction(1, m + 1))
        windows.append(Window(plan.size, f"gap_{m}", Fraction(-1), blob_cut, False, True, blob_box))
        for j in range(m + 1, max(m + 1, 8) + 1):
            top = Fraction(1, j)
            windows.append(Window(plan.size, f"tooth_{j}", _ZERO, top, True, True, blob_box))
            windows.append(Window(plan.size, f"gap_{j}", Fraction(-1), _ONE, box=blob_box))
        windows.append(Window(plan.size, "origin", _ZERO, _ZERO, True, True, blob_box))
        return windows


def _flank_tail(i: int, side: int, start: Fraction, host: list[Window]) -> list[Window]:
    """Gap i's flank on ``side`` from ``start`` outward, placed by height on
    the adjoining tooth's windows ``host``.

    Each cycle of the flank runs from a zero (height 0) over a peak and
    back; the peaks climb toward the tooth's top.  Once a peak lies in
    the top link alone, every later cycle meets the same links in the
    same order, so the windows stop one cycle after that.  Their boxes
    span the whole flank's x-range at the host window's heights.
    """
    top = Fraction(1, i) if side > 0 else Fraction(1, i + 1)
    top_links = {h.link for h in host if h.contains(top)}
    x_start, y_start = _gap_point(i, start)
    knots = [(start, y_start)]
    settled, k = 0, 0
    while settled < 2:
        for kind in ("z", "p"):
            w = side * _anchor_abs(kind, k)
            if abs(w) > abs(start):
                y = _gap_point(i, w)[1]
                knots.append((w, y))
                if kind == "p" and {h.link for h in host if h.contains(y)} == top_links:
                    settled += 1
        k += 1
    knots.append((side * _anchor_abs("z", k), _ZERO))
    knots.sort()
    # A tooth stands at x equal to its height.
    x_lo, x_hi = sorted((x_start, top))
    return _pull_back(f"gap_{i}", knots, host, lambda lo, hi, h: (x_lo, x_hi, h.lo, h.hi))


# -- space T ---------------------------------------------------------------------


@dataclass(frozen=True)
class SpiralChainFamily(SineChainFamily):
    """Chains on T ordering the components as spiral, bar, oscillation (D)
    or bar, oscillation, spiral (E).

    Variant D covers the spiral from its free end down to the cut vertex
    of circuit n and hands over to the bar's bottom slab; variant E
    covers the circuits outward from the gate of circuit n, so its
    spiral block trails the oscillation block instead.  The bar and the
    oscillation are walked as in the reversed S1 level of the same
    depth: S1's variant E for D, and E' for E.  Past its handover the
    spiral's host is the point of the bar or the oscillation it runs
    along.  The spiral segment measures a point by its arclength.

    T subclasses S1 for that walk alone: S1's ``_build_plan`` at an
    offset, its ``LIMIT`` bar and ``LIMIT_AT_HEIGHT``, the wave's host
    and its tail windows.  T's own ``_build_plan`` takes no offset, since
    no larger chain holds T's walk as a block.
    """

    SPACE: ClassVar[str] = "t"
    VARIANTS: ClassVar[tuple[str, ...]] = ("D", "E")
    PEAK_CUT: ClassVar[tuple[str, ...]] = ("D",)
    REVERSED: ClassVar[tuple[str, ...]] = VARIANTS

    def _build_plan(self, n: int) -> _WalkPlan:
        is_d = self.variant == "D"
        data = _pass_data(n)
        spiral_len = _prefix_total(n - 1)
        if is_d:
            spiral_len += data.cum[data.cut_index]
        h, band = _sine_step(n), _slab_step(n)
        count = _ceil(spiral_len / h)
        # S1's plan, not its level: T builds no S1 level of its own.
        sine = super()._build_plan(n, count if is_d else 0)
        e = _spiral_eps(n)
        mesh = max(
            h + h / 4 + 6 * e,
            band + band / 4 + 2 * e,
            _wave_point(Fraction(*sine.walk["wave"].end))[0] + 2 * e,
            data.bar_x_max + 2 * e,
        )
        walk = sine.walk
        if count:
            # The grid runs in arclength s from the free end, s = 0 at v = 1.
            # D walks the spiral inward from link 1; E walks it outward after
            # the sine block, whose last link shares the handover.
            first = 0 if is_d else sine.size
            along, shift = (1, (0, 1)) if is_d else (-1, _q(spiral_len))
            spiral = _Segment(
                "spiral", _grid(h, h / 8, 1, count), first, 1, along, shift, span=_q(spiral_len),
                end=_q(spiral_len), reach=_q(spiral_len + h / 8),
                handover=(count, count + 1) if is_d else (first, first + 1),
                measure=_spiral_arclength, param_at=_spiral_param_at,
            )
            walk = {**walk, "spiral": spiral}
        return sine._replace(walk=walk, size=count + sine.size, mesh=mesh)

    def _host(self, strand: str, a: int, b: int) -> tuple[str, int, int]:
        if strand != "spiral":
            return super()._host(strand, a, b)
        host = _spiral_host(a, b)
        return host.strand, host.param.numerator, host.param.denominator

    def sampled_parts(self, n: int) -> dict[str, list[CatalogPoint]]:
        """The spiral beyond its windows, which circles on forever."""
        spiral = self._plan(n).walk.get("spiral")
        end, s = (Fraction(*spiral.end), Fraction(*spiral.reach)) if spiral else (_ZERO, _ZERO)
        pts, step = [], _sine_step(n) / 3
        while s <= end + 2:
            pts.append(CatalogPoint("spiral", _spiral_param_at(*_q(s))))
            s += step
        deep_pass = Fraction(1, 2**n)
        for k in range(1, 17):
            pts.append(CatalogPoint("spiral", deep_pass - deep_pass / 2 * Fraction(k, 17)))
        return {"spiral tail": pts}


# -- family factories -------------------------------------------------------------


@lru_cache(maxsize=None)
def arc_family(variant: str = "standard") -> ArcChainFamily:
    return ArcChainFamily(variant)


@lru_cache(maxsize=None)
def s1_family(variant: str = "D") -> SineChainFamily:
    return SineChainFamily(variant)


@lru_cache(maxsize=None)
def s2_family(variant: str = "standard") -> OuterArcChainFamily:
    return OuterArcChainFamily(variant)


# Keyed by user bit strings, so bounded; gap shapes make a rebuilt plan cheap.
@lru_cache(maxsize=128)
def _s3_family_cached(bits: tuple[int, ...]) -> ToothForestChainFamily:
    return ToothForestChainFamily(bits)


def s3_family(bits) -> ToothForestChainFamily:
    """The S3 family on a binary word, given as "0110" or as 0/1 ints."""
    return _s3_family_cached(parse_word(bits))


@lru_cache(maxsize=None)
def t_family(variant: str = "D") -> SpiralChainFamily:
    return SpiralChainFamily(variant)


# -- witnesses --------------------------------------------------------------------

S1_WITNESSES: dict[str, CatalogPoint] = {
    "limit_top": CatalogPoint("bar", 1),
    "limit_bottom": CatalogPoint("bar", -1),
    "outer_trough": CatalogPoint("wave", 0),
    "second_trough": CatalogPoint("wave", 4),
}

S2_WITNESSES: dict[str, CatalogPoint] = {
    "wall_bottom": CatalogPoint("ell", 3),
    "wall_top": CatalogPoint("ell", 5),
    "outer_trough": CatalogPoint("wave", 0),
    "second_trough": CatalogPoint("wave", 4),
}

T_REPRESENTATIVES: dict[str, tuple[CatalogPoint, ...]] = {
    "T1": (CatalogPoint("bar", 1), CatalogPoint("bar", 0), CatalogPoint("bar", -1)),
    "T2": (CatalogPoint("wave", 0), CatalogPoint("wave", 4), CatalogPoint("wave", 8)),
    "T3": (
        CatalogPoint("spiral", 1),
        CatalogPoint("spiral", Fraction(3, 4)),
        CatalogPoint("spiral", Fraction(1, 2)),
    ),
}


def s3_witness_pair(i: int) -> tuple[CatalogPoint, CatalogPoint]:
    """The endpoints of tooth i, bottom first."""
    return CatalogPoint(f"tooth_{i}", 0), CatalogPoint(f"tooth_{i}", Fraction(1, i))


# -- validator ----------------------------------------------------------------------


def validate_level(family, n: int) -> dict:
    """Check a generated level against the chain axioms from its link windows.

    On every strand the windows must cover the strand, overlap only for
    adjacent links, and agree with ``index_of``: at each window end and
    between consecutive ends, ``index_of`` returns exactly the links
    whose windows hold the point.  Every pair of consecutive links must
    share a point, and every link's bounding box (its windows' polyline
    vertices, the tail boxes, and the family's sampled points) must fit
    in the declared mesh bound.  All of it is exact; only what the
    family lists in ``sampled_parts`` rests on samples.
    """
    level = family.level(n)
    size = level.size
    windows = family.link_windows(n)
    sampled = family.sampled_parts(n)

    def failure(reason: str, **extra) -> dict:
        return {"ok": False, "level": n, "links": size, "reason": reason, **extra}

    by_strand: dict[str, list[Window]] = {}
    for w in windows:
        by_strand.setdefault(w.strand, []).append(w)
    sampled_strands = {p.strand for pts in sampled.values() for p in pts}
    space = family.space
    shared: set[int] = set()
    listed = by_strand.keys() | sampled_strands
    unlisted = [s.name for s in space.strands if s.name not in listed]
    if unlisted:
        return failure("strands without a window", strands=unlisted)
    for name, ws in by_strand.items():
        problem = _check_strand(level, space.strand(name), ws, name in sampled_strands, shared)
        if problem:
            return failure(problem[0], **problem[1])
    # Every link shares a point with its neighbours, so none lacks a window.
    unshared = [i for i in range(1, size) if i not in shared]
    if unshared:
        return failure("adjacent links share no point", links=unshared[:5])

    # Diameters as unreduced numerator/denominator pairs, compared by cross-multiplying.
    mn, md = _q(level.mesh_bound)
    wn, wd = 0, 1
    for link, (x0, x1, y0, y1) in sorted(_link_boxes(family, level, windows, sampled).items()):
        (dn, dd), (en, ed) = _width(x0, x1), _width(y0, y1)
        if en * dd > dn * ed:
            dn, dd = en, ed
        if dn * md > mn * dd:
            return failure(
                "diameter exceeds the mesh bound",
                link=link,
                diameter=rational_str(Fraction(dn, dd)),
                mesh=rational_str(level.mesh_bound),
            )
        if dn * wd > wn * dd:
            wn, wd = dn, dd
    return {
        "ok": True,
        "level": n,
        "links": size,
        "windows": len(windows),
        "max_diameter": rational_str(Fraction(wn, wd)),
        "mesh_bound": rational_str(level.mesh_bound),
        "sampled": sorted(sampled),
    }


def _check_strand(
    level: ChainLevel, strand: Strand, ws: list[Window], sampled: bool, shared: set[int]
):
    """The chain axioms and ``index_of`` on one strand.

    Between consecutive window ends, the windows holding a point and
    ``index_of`` are both constant, so checking each end and one point
    between consecutive ends checks every listed point: some window
    holds it, the windows hold one link or two adjacent ones, and they
    hold exactly the links ``index_of`` returns.  Adjacent links held
    together go into ``shared``.  The windows may stop short of an end
    the strand only approaches (open or unbounded) if a tail box or the
    sampled points take over there.
    """

    def at(reason: str, t: Fraction, **extra):
        return (reason, {"strand": strand.name, "param": rational_str(t), **extra})

    # The ends as integer numerators over the lcm of their denominators.
    den = lcm(*{e.denominator for w in ws for e in (w.lo, w.hi)})
    los = [w.lo.numerator * (den // w.lo.denominator) for w in ws]
    his = [w.hi.numerator * (den // w.hi.denominator) for w in ws]
    first = ws[min(range(len(ws)), key=lambda k: (los[k], not ws[k].lo_closed))]
    last = ws[max(range(len(ws)), key=lambda k: (his[k], ws[k].hi_closed))]
    for w, t, end, closed, end_open in (
        (first, first.lo, strand.lo, first.lo_closed, strand.lo_open),
        (last, last.hi, strand.hi, last.hi_closed, strand.hi is None or strand.hi_open),
    ):
        if t == end:
            covered = closed or end_open
        else:
            covered = end_open and (w.box is not None or sampled)
        if not covered:
            return at("windows do not cover the strand", t)

    ends = sorted({*los, *his})
    # Slot 2k is end k, slot 2k + 1 the stretch between ends k and k + 1.
    slot = {t: 2 * k for k, t in enumerate(ends)}
    held: list[set[int]] = [set() for _ in range(2 * len(ends) - 1)]
    for w, a, b in zip(ws, los, his):
        for k in range(slot[a] + (not w.lo_closed), slot[b] - (not w.hi_closed) + 1):
            held[k].add(w.link)
    for k, links in enumerate(held):
        j = k // 2
        t = Fraction(ends[j], den) if k % 2 == 0 else Fraction(ends[j] + ends[j + 1], 2 * den)
        if not links:
            # The outer ends may lie off the strand or in a tail.
            if k in (0, len(held) - 1):
                continue
            return at("windows do not cover the strand", t)
        if max(links) - min(links) > 1:
            return at("windows of non-adjacent links overlap", t, links=sorted(links))
        if len(links) == 2:
            shared.add(min(links))
        lo, hi = level.index_of(CatalogPoint(strand.name, t))
        got = tuple(range(lo, hi + 1))
        if got != tuple(sorted(links)):
            return at(
                "index_of disagrees with the windows", t, index_of=list(got), windows=sorted(links)
            )
    return None


def _link_boxes(family, level: ChainLevel, windows: list[Window], sampled: dict) -> dict[int, Box]:
    """Each link's bounding box over its windows and sampled points."""
    space = family.space
    xs: dict[int, list] = {}
    ys: dict[int, list] = {}
    for w in windows:
        if w.box is None:
            pts = space.strand(w.strand).polyline(w.lo, w.hi)
        else:
            x0, x1, y0, y1 = w.box
            pts = ((x0, y0), (x1, y1))
        xs.setdefault(w.link, []).extend(q[0] for q in pts)
        ys.setdefault(w.link, []).extend(q[1] for q in pts)
    for pts in sampled.values():
        for p in pts:
            x, y = space.position(p)
            lo, hi = level.index_of(p)
            for link in range(lo, hi + 1):
                xs.setdefault(link, []).append(x)
                ys.setdefault(link, []).append(y)
    return {link: (*_extent(xs[link]), *_extent(ys[link])) for link in xs}


def _extent(values: list[Fraction]) -> tuple[Fraction, Fraction]:
    """The least and the greatest of ``values``, compared by cross-multiplying."""
    lo = hi = values[0]
    ln, ld = hn, hd = lo.numerator, lo.denominator
    for v in values:
        n, d = v.numerator, v.denominator
        if n * ld < ln * d:
            lo, ln, ld = v, n, d
        elif n * hd > hn * d:
            hi, hn, hd = v, n, d
    return lo, hi


def _width(lo: Fraction, hi: Fraction) -> Pair:
    """hi - lo as an unreduced numerator/denominator pair."""
    (a, b), (c, d) = _q(lo), _q(hi)
    return c * b - a * d, b * d
