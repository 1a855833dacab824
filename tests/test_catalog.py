"""Planar strand spaces, their chain families, and the validator."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
from bisect import bisect_right
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainorder import catalog, chains, cli
from chainorder.catalog import (
    ArcChainFamily,
    CatalogPoint,
    OuterArcChainFamily,
    S1_WITNESSES,
    S2_WITNESSES,
    SineChainFamily,
    SpiralChainFamily,
    T_REPRESENTATIVES,
    ToothForestChainFamily,
    Window,
    _gap_shape,
    _grid,
    _pass_data,
    _s3_family_cached,
    _window_range,
    arc_family,
    arc_space,
    catalog_spaces,
    s1_family,
    s1_space,
    s2_family,
    s2_space,
    s3_family,
    s3_space,
    s3_witness_pair,
    separation_data,
    t_family,
    t_space,
    validate_level,
)
from chainorder.chains import (
    BOTH,
    GE_ONLY,
    LE_ONLY,
    LinkMemo,
    chain_order_compare,
    chain_trace,
    equal_or_opposite,
    never_between_after,
)
from chainorder.foundations import EQ, GE, LE, ComparisonVerdict, rational_str


def links_of(level, point) -> tuple[int, ...]:
    """The links ``index_of`` places the point in, in order."""
    lo, hi = level.index_of(point)
    return tuple(range(lo, hi + 1))


def direction(family, x, y, depth=8):
    verdict = chain_order_compare(family, x, y, None, depth)
    assert verdict.kind == "stabilized", (x, y, verdict)
    return verdict.direction


def ranking(family, points, depth=8):
    """Total order realized by the family on the given points."""

    def cmp(a, b):
        if a == b:
            return 0
        return -1 if direction(family, a, b, depth) == "le" else 1

    return tuple(sorted(points, key=cmp_to_key(cmp)))


small_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)


class TestSpaces:
    def test_registry_names(self):
        assert set(catalog_spaces()) == {"arc", "s1", "s2", "s3", "t"}

    def test_components_per_space(self):
        assert arc_space().components() == ("arc",)
        assert s1_space().components() == ("sine", "limit_interval")
        assert s2_space().components() == ("sine", "outer_arc")
        assert t_space().components() == ("T1", "T2", "T3")

    def test_component_of_examples(self):
        assert s1_space().validate(CatalogPoint("bar", 1)).component == "limit_interval"
        assert s1_space().validate(CatalogPoint("wave", 0)).component == "sine"
        for p in T_REPRESENTATIVES["T3"]:
            assert t_space().validate(p).component == "T3"

    def test_unknown_strand(self):
        with pytest.raises(ValueError, match="unknown point"):
            s1_space().strand("nope")

    def test_parameter_outside_strand(self):
        with pytest.raises(ValueError, match="unknown point"):
            arc_space().validate(CatalogPoint("segment", 2))
        with pytest.raises(ValueError, match="unknown point"):
            t_space().validate(CatalogPoint("spiral", 0))  # open lower end

    def test_s3_resolver_reaches_high_indices(self):
        space = s3_space()
        tooth = space.strand("tooth_30")
        assert tooth.component == "tooth_30"
        assert (tooth.lo, tooth.hi) == (0, Fraction(1, 30))
        gap = space.strand("gap_12")
        assert gap.lo_open and gap.hi_open

    @pytest.mark.parametrize("strand", ["tooth_01", "gap_\u0661", "tooth_0", "gap_0"])
    def test_s3_strand_names_have_one_spelling(self, strand):
        with pytest.raises(ValueError, match="unknown point"):
            s3_space().strand(strand)
        with pytest.raises(ValueError, match="unknown point"):
            s3_family((0, 1, 1)).level(2).index_of(CatalogPoint(strand, 0))

    def test_positions_on_known_corners(self):
        s1 = s1_space()
        assert s1.position(CatalogPoint("wave", 0)) == (Fraction(2, 3), -1)
        assert s1.position(CatalogPoint("wave", 2)) == (Fraction(2, 5), 1)
        assert s1.position(CatalogPoint("bar", -1)) == (0, -1)
        s2 = s2_space()
        assert s2.position(CatalogPoint("ell", 0)) == (0, 1)
        assert s2.position(CatalogPoint("ell", 3)) == (-1, -1)
        assert s2.position(CatalogPoint("ell", 5)) == (-1, 1)
        t = t_space()
        assert t.position(CatalogPoint("spiral", 1)) == (Fraction(67, 96), Fraction(-33, 32))

    @pytest.mark.parametrize("w", [1, -1])
    def test_open_gap_ends_are_refused(self, w):
        # The library refuses gap_2's open ends with the CLI's message; at
        # level 2 the right flank's tail, at level 3 the left one's, is
        # placed by its height.
        message = rf"^unknown point: parameter {w} outside strand 'gap_2' of s3$"
        x, y = CatalogPoint("gap_2", Fraction(w)), CatalogPoint("tooth_1", Fraction(1, 2))
        with pytest.raises(ValueError, match=message):
            chain_order_compare(s3_family("0110"), x, y, None, 4)
        with pytest.raises(ValueError, match=message):
            catalog._gap_point(2, Fraction(w))
        with pytest.raises(ValueError, match="outside strand 'gap_2'"):
            catalog._gap_height(2, 3 * w, 2)

    @given(st.fractions(min_value=-63, max_value=63, max_denominator=64).filter(lambda w: abs(w) < 1))
    def test_gap_strand_is_a_graph_over_x(self, w):
        # x strictly increases with the gap parameter, so the strand never
        # doubles back; sampled against the midpoint as a second point.
        space = s3_space()
        a = space.position(CatalogPoint("gap_2", w))
        b = space.position(CatalogPoint("gap_2", 0))
        if w < 0:
            assert a[0] < b[0]
        elif w > 0:
            assert a[0] > b[0]
        assert Fraction(1, 3) < a[0] < Fraction(1, 2)


@given(
    small_fractions,
    small_fractions.filter(lambda f: f > 0),
    st.sampled_from([3, 5, 8]),
    st.integers(min_value=1, max_value=40),
)
def test_window_range_matches_the_fraction_formula(where, step, part, count):
    t, overlap = where * count * step, step / part
    lo = math.floor((t - overlap) / step) + 1
    hi = math.ceil((t + overlap) / step)
    got = _window_range(_grid(step, overlap, 1, count), t.numerator, t.denominator)
    assert got == (max(lo, 1), min(hi, count))


@st.composite
def _grid_cases(draw):
    """A grid and a coordinate on a window end, just off one, or crowding
    toward the grid's ends with denominators near 2^50."""
    step = draw(
        st.one_of(
            st.fractions(min_value=Fraction(1, 10**6), max_value=10, max_denominator=10**6),
            st.builds(lambda k, c: Fraction(1, 2**k * c), st.integers(0, 50), st.integers(1, 9)),
        )
    )
    overlap = step / draw(st.sampled_from([3, 5, 8, 2**20]))
    count = draw(st.integers(1, 40))
    i = draw(st.integers(-2, count + 2))
    end = draw(st.sampled_from([(i - 1) * step - overlap, i * step + overlap]))
    tiny = Fraction(draw(st.integers(1, 2**50 - 1)), 2**50)
    t = draw(
        st.sampled_from(
            [end, end + tiny * step / 2**40, end - tiny * step / 2**40]
            + [s * (1 - tiny) * count * step for s in (1, -1)]
        )
    )
    return step, overlap, count, t


@given(_grid_cases())
def test_window_range_on_window_ends_and_huge_denominators(case):
    # Plain Fractions: the windows of 1..count whose open span holds t.
    step, overlap, count, t = case
    held = [i for i in range(1, count + 1) if (i - 1) * step - overlap < t < i * step + overlap]
    lo, hi = _window_range(_grid(step, overlap, 1, count), t.numerator, t.denominator)
    assert list(range(lo, hi + 1)) == held


@pytest.mark.parametrize(
    "memo, args",
    [
        (catalog._wave_height, lambda k: (k, 10007)),
        (catalog._gap_height, lambda k: (2, k, 10007)),
        (catalog._spiral_arclength, lambda k: (20011 - k, 20011)),
        (catalog._spiral_host, lambda k: (20011 - k, 20011)),
    ],
)
def test_point_memos_stay_within_their_bound(memo, args):
    memo.cache_clear()
    for k in range(1, 10_001):
        memo(*args(k))
    info = memo.cache_info()
    assert info.misses == 10_000
    assert info.currsize == info.maxsize == catalog._MEMO


@given(st.fractions(min_value=0, max_value=200, max_denominator=10**6))
def test_wave_point_matches_anchor_interpolation(u):
    j = math.floor(u)
    s = u - j
    x = (1 - s) * Fraction(2, j + 3) + s * Fraction(2, j + 4)
    y = (1 - s) * catalog._WAVE_Y[j % 4] + s * catalog._WAVE_Y[(j + 1) % 4]
    assert catalog._wave_point(u) == (x, y)


_GAP_ANCHORS = [
    s * catalog._anchor_abs(kind, k) for k in range(10) for kind in "zp" for s in (1, -1)
]
_GAP_PARAMS = st.one_of(
    st.sampled_from(_GAP_ANCHORS),
    st.fractions(min_value=-1, max_value=1, max_denominator=4096).filter(lambda w: abs(w) < 1),
)


@given(st.integers(1, 6), _GAP_PARAMS, _GAP_PARAMS)
def test_gap_polyline_passes_every_anchor_between(i, wa, wb):
    wa, wb = min(wa, wb), max(wa, wb)
    kmax = max(catalog._flank_cycle(abs(w)) for w in (wa, wb)) + 2
    anchors = {
        s * catalog._anchor_abs(kind, k) for k in range(kmax) for kind in "zp" for s in (1, -1)
    }
    params = [wa] + sorted(w for w in anchors if wa < w < wb) + ([wb] if wb > wa else [])
    assert catalog._gap_polyline(i, wa, wb) == [catalog._gap_point(i, w) for w in params]


def full_scan_spiral_polyline(va, vb):
    """The spiral polyline by arclength, scanning every vertex of each
    circuit from vb's on: the walk the located segments replaced, as
    their oracle."""
    s_hi = Fraction(*catalog._spiral_arclength(va.numerator, va.denominator))
    s_lo = Fraction(*catalog._spiral_arclength(vb.numerator, vb.denominator))
    pts = [catalog._spiral_point(vb)]
    p = catalog.spiral_circuit(vb)
    while True:
        data = _pass_data(p)
        base = catalog._prefix_total(p - 1)
        pts += [vert for c, vert in zip(data.cum, data.verts) if s_lo < base + c < s_hi]
        if base + data.total >= s_hi:
            break
        p += 1
    if va < vb:
        pts.append(catalog._spiral_point(va))
    return pts


@functools.lru_cache(maxsize=None)
def _spiral_window_ends():
    return sorted(
        {
            end
            for variant in SpiralChainFamily.VARIANTS
            for n in (1, 2, 3)
            for w in t_family(variant).link_windows(n)
            if w.strand == "spiral"
            for end in (w.lo, w.hi)
        }
    )


# Circuits 1-6: v in (1/64, 1], their starts v = 2^-k, and T's window ends.
_SPIRAL_PARAMS = st.one_of(
    st.fractions(Fraction(1, 64), 1, max_denominator=10**4).filter(lambda v: v > Fraction(1, 64)),
    st.sampled_from([Fraction(1, 2**k) for k in range(6)]),
    st.deferred(lambda: st.sampled_from(_spiral_window_ends())),
)


@given(_SPIRAL_PARAMS, _SPIRAL_PARAMS)
@settings(deadline=None)
def test_spiral_polyline_matches_the_full_scan(va, vb):
    va, vb = min(va, vb), max(va, vb)
    assert set(catalog._spiral_polyline(va, vb)) == set(full_scan_spiral_polyline(va, vb))


# -- the Fraction geometry, kept as an oracle -----------------------------------------
# Gap shapes, gap heights and spiral positions are computed on integers.  These
# are the Fraction formulas they replaced: gap anchors, cut depths and legs,
# anchor interpolation on the gaps, and the spiral's arclength, its inverse
# and its segment search in Fractions.


def _fraction_gap_width(i):
    return Fraction(1, i * (i + 1))


def _fraction_anchor_point(i, side, kind, k):
    width = _fraction_gap_width(i)
    if kind == "z":
        off = width / 2 / 2**k
        y = Fraction(0)
    else:
        off = 3 * width / 8 / 2**k
        y = (1 - Fraction(1, 2 ** (k + 1))) / (i if side > 0 else i + 1)
    x = Fraction(1, i) - off if side > 0 else Fraction(1, i + 1) + off
    return x, y


def _fraction_tooth_wlim(j, m):
    lim = min(Fraction(1, 4 * m), _fraction_gap_width(j) / 4)
    if j >= 2:
        lim = min(lim, _fraction_gap_width(j - 1) / 4)
    return lim


def _fraction_cut_depth(i, side, kind, m, tooth):
    wlim = _fraction_tooth_wlim(tooth, m)
    width = _fraction_gap_width(i)
    k = 1
    while True:
        off = (width / 2 if kind == "z" else 3 * width / 8) / 2**k
        ok = off <= wlim / 2
        if ok and kind == "p":
            height = Fraction(1, i) if side > 0 else Fraction(1, i + 1)
            ok = height / 2 ** (k + 1) <= Fraction(1, 16 * m)
        if ok:
            return k
        k += 1


def _fraction_gap_shape(i, m, bit_r, bit_l):
    kind_r = "z" if bit_r == 1 else "p"
    k_r = _fraction_cut_depth(i, 1, kind_r, m, i)
    if bit_l is not None:
        kind_l = "p" if bit_l == 1 else "z"
        k_l = _fraction_cut_depth(i, -1, kind_l, m, i + 1)
    else:
        kind_l = "blob"
        k_l = (2 * m - 1).bit_length()

    def flank(side, kind, k_cut):
        walk = [pair for k in range(k_cut) for pair in (("p", k), ("z", k + 1))]
        if kind == "p":
            walk.append(("p", k_cut))
        return [
            (side * catalog._anchor_abs(kd, k), _fraction_anchor_point(i, side, kd, k))
            for kd, k in walk
        ]

    anchors = (
        flank(1, kind_r, k_r)[::-1]
        + [(Fraction(0), _fraction_anchor_point(i, 1, "z", 0))]
        + flank(-1, kind_l, k_l)
    )
    eta = Fraction(1, 4 * m)
    legs = []
    link = 0
    for k, ((wa, pa), (wb, pb)) in enumerate(zip(anchors, anchors[1:])):
        dy = abs(pb[1] - pa[1])
        count = max(1, math.ceil(dy / eta))
        step = (wa - wb) / count
        reach = count + 1 if k + 2 < len(anchors) else count
        grid = _grid(step, step / 8, 0 if link else 1, reach)
        legs.append(catalog._Leg(count, link, grid, catalog._q(wa), catalog._q(wb)))
        link += count
    for kind, k, tooth, side in ((kind_r, k_r, i, 1), (kind_l, k_l, i + 1, -1)):
        if kind == "p":
            height = Fraction(1, i) if side > 0 else Fraction(1, i + 1)
            deficit = height / 2 ** (k + 1)
            slab = Fraction(1, tooth) / math.ceil(Fraction(4 * m, tooth))
            assert deficit <= slab / 2, "cut deficit escapes the entry slab"
    return catalog._GapShape(
        legs=tuple(legs),
        total=link,
        # A grid's step is ep/eq and its overlap cq/eq.
        widest=max(legs, key=lambda leg: Fraction(leg.grid.ep + 2 * leg.grid.cq, leg.grid.eq)).grid,
        cut_r=catalog._q(anchors[0][0]),
        margin_r=catalog._q(anchors[0][0] + Fraction(legs[0].grid.cq, legs[0].grid.eq)),
        kind_l=kind_l,
        cut_l=catalog._q(anchors[-1][0]),
        margin_l=catalog._q(anchors[-1][0] - Fraction(legs[-1].grid.cq, legs[-1].grid.eq)),
    )


def _fraction_flank_cycle(aw):
    q = 1 / (1 - aw)
    return (q.numerator // q.denominator).bit_length() - 1


def _fraction_gap_point(i, w):
    if w == 0:
        return _fraction_anchor_point(i, 1, "z", 0)
    side = 1 if w > 0 else -1
    aw = abs(w)
    k = _fraction_flank_cycle(aw)
    za = catalog._anchor_abs("z", k)
    pa = catalog._anchor_abs("p", k)
    if aw <= pa:
        a, b = _fraction_anchor_point(i, side, "z", k), _fraction_anchor_point(i, side, "p", k)
        t = (aw - za) / (pa - za)
    else:
        zb = catalog._anchor_abs("z", k + 1)
        a, b = _fraction_anchor_point(i, side, "p", k), _fraction_anchor_point(i, side, "z", k + 1)
        t = (aw - pa) / (zb - pa)
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def _fraction_spiral_arclength(v):
    p = catalog.spiral_circuit(v)
    frac = (Fraction(1, 2 ** (p - 1)) - v) * 2**p
    return catalog._prefix_total(p - 1) + frac * _pass_data(p).total


def _fraction_spiral_locate(v):
    p = catalog.spiral_circuit(v)
    data = _pass_data(p)
    frac = (Fraction(1, 2 ** (p - 1)) - v) * 2**p
    s_local = frac * data.total
    i = min(bisect_right(data.cum, s_local) - 1, len(data.verts) - 2)
    return p, i, (s_local - data.cum[i]) / (data.cum[i + 1] - data.cum[i])


def _fraction_spiral_at(p, i, t):
    (ax, ay), (bx, by) = _pass_data(p).verts[i : i + 2]
    return (ax + t * (bx - ax), ay + t * (by - ay))


def _fraction_spiral_host(v):
    p, i, t = _fraction_spiral_locate(v)
    tag = _pass_data(p).tags[i]
    if tag[0] == "bar":
        y = _fraction_spiral_at(p, i, t)[1]
        return CatalogPoint("bar", min(max(y, Fraction(-1)), Fraction(1)))
    return CatalogPoint("wave", tag[1] + t * (tag[2] - tag[1]))


def _fraction_spiral_param_at(s):
    p = 1
    while catalog._prefix_total(p) <= s:
        p += 1
    frac = (s - catalog._prefix_total(p - 1)) / _pass_data(p).total
    return Fraction(1, 2 ** (p - 1)) - frac * Fraction(1, 2**p)


# Both flanks: every anchor of cycles 0-11, points just inside the open ends
# +-1 with denominators up to about 2^60, and random w.
_INNER_ENDS = st.builds(
    lambda d, k, s: s * (1 - Fraction(k, d)), st.integers(2, 2**60), st.integers(1, 3), st.sampled_from((1, -1))
).filter(lambda w: abs(w) < 1)
_HEIGHT_PARAMS = st.one_of(
    st.sampled_from([s * catalog._anchor_abs(kind, k) for k in range(12) for kind in "zp" for s in (1, -1)]),
    _INNER_ENDS,
    st.fractions(-1, 1, max_denominator=10**6).filter(lambda w: abs(w) < 1),
)


@given(st.integers(1, 9), _HEIGHT_PARAMS)
@settings(max_examples=300)
def test_gap_height_matches_the_anchor_interpolation(i, w):
    a, b = w.numerator, w.denominator
    x, y = _fraction_gap_point(i, w)
    assert Fraction(*catalog._gap_height(i, a, b)) == y
    assert catalog._gap_point(i, w) == (x, y)


def test_gap_shape_matches_the_fraction_oracle():
    # Every key up to level 16, and 200 seeded keys at levels 17-48, S3's limit.
    keys = [
        (i, m, bit_r, bit_l)
        for m in range(1, 17)
        for i in range(1, m + 1)
        for bit_r in (0, 1)
        for bit_l in ((0, 1) if i < m else (None,))
    ]
    assert len(keys) == 512
    rng = random.Random(1)
    for _ in range(200):
        m = rng.randint(17, 48)
        i = rng.randint(1, m)
        keys.append((i, m, rng.randint(0, 1), rng.randint(0, 1) if i < m else None))
    for key in keys:
        assert repr(_gap_shape.__wrapped__(*key)) == repr(_fraction_gap_shape(*key)), key


# Circuits 1-8: v in (1/256, 1], their starts v = 2^-k, and T's window ends.
_DEEP_SPIRAL_PARAMS = st.one_of(
    st.fractions(Fraction(1, 256), 1, max_denominator=10**6).filter(lambda v: v > Fraction(1, 256)),
    st.sampled_from([Fraction(1, 2**k) for k in range(8)]),
    st.deferred(lambda: st.sampled_from(_spiral_window_ends())),
)


@given(_DEEP_SPIRAL_PARAMS, st.fractions(0, 1, max_denominator=10**6))
@settings(deadline=None)
def test_spiral_geometry_matches_the_fraction_formulas(v, share):
    a, b = v.numerator, v.denominator
    s = _fraction_spiral_arclength(v)
    assert Fraction(*catalog._spiral_arclength(a, b)) == s
    assert catalog._spiral_param_at(s.numerator, s.denominator) == v
    located = catalog._spiral_locate(a, b)
    assert located == _fraction_spiral_locate(v)
    assert catalog._spiral_at(*located) == _fraction_spiral_at(*located)
    assert catalog._spiral_host(a, b) == _fraction_spiral_host(v)
    # Any arclength within circuits 1-8, not only those of drawn points.
    s = share * catalog._prefix_total(8)
    assert catalog._spiral_param_at(s.numerator, s.denominator) == _fraction_spiral_param_at(s)


def test_catalog_geometry_is_pinned():
    # The vertices, tags and legs of T's circuits 1-8 and of every S3 gap
    # shape up to level 10 (200 keys), by digest.  A change to either
    # geometry must record these again on purpose.
    def digest(values):
        return hashlib.sha256(repr(tuple(values)).encode()).hexdigest()[:16]

    keys = [
        (i, m, bit_r, bit_l)
        for m in range(1, 11)
        for i in range(1, m + 1)
        for bit_r in (0, 1)
        for bit_l in ((0, 1) if i < m else (None,))
    ]
    assert len(keys) == 200
    assert digest(_pass_data(p) for p in range(1, 9)) == "59636ff370aad925"
    assert digest(_gap_shape(*key) for key in keys) == "0450ee6f14cfadc0"


class TestSeparationData:
    def test_linear_arc_example(self):
        arc, threshold = separation_data(
            arc_space(),
            CatalogPoint("segment", 0),
            CatalogPoint("segment", Fraction(1, 2)),
            CatalogPoint("segment", Fraction(3, 4)),
        )
        assert (arc.lo, arc.hi) == (0, Fraction(1, 2))
        assert threshold == Fraction(1, 8)

    def test_sine_strand_triple(self):
        _, threshold = separation_data(
            s1_space(),
            CatalogPoint("wave", 0),
            CatalogPoint("wave", 2),
            CatalogPoint("wave", 6),
        )
        assert threshold > 0

    def test_wave_triple_in_t(self):
        arc, threshold = separation_data(
            t_space(),
            CatalogPoint("wave", 0),
            CatalogPoint("wave", 4),
            CatalogPoint("wave", 8),
        )
        assert (arc.lo, arc.hi) == (0, 4)
        assert threshold == Fraction(4, 77)

    def test_z_between_is_an_error(self):
        with pytest.raises(ValueError, match="no separating continuum"):
            separation_data(
                arc_space(),
                CatalogPoint("segment", 0),
                CatalogPoint("segment", Fraction(1, 2)),
                CatalogPoint("segment", Fraction(1, 4)),
            )

    def test_cross_component_pair_is_an_error(self):
        with pytest.raises(ValueError, match="different arc components"):
            separation_data(
                t_space(),
                CatalogPoint("bar", 0),
                CatalogPoint("wave", 4),
                CatalogPoint("bar", 1),
            )


def fraction_arc_certify(family, x, y, depth):
    """The arc's interval-gap certificate as it was, in Fractions, as its oracle."""
    s, t = family._param(x), family._param(y)
    if s == t:
        return ComparisonVerdict.stabilized(EQ, 1, depth)
    lo, hi = min(s, t), max(s, t)
    for n in range(1, depth + 1):
        k = 2**n
        m = math.ceil(k * lo + Fraction(1, 4))
        if m <= k * hi - Fraction(1, 4):
            forward = LE if s < t else GE
            if family.variant == "reversed":
                forward = GE if forward == LE else LE
            certificate = {"kind": "interval-gap", "witness_index": m, "links": k}
            return ComparisonVerdict.stabilized(forward, n, depth, certificate=certificate)
    return ComparisonVerdict.unknown(depth)


class TestArcFamily:
    def test_certify_matches_the_fraction_oracle(self):
        grid = sorted(
            {Fraction(k, 16) for k in range(17)}
            | {Fraction(1, 3), Fraction(2, 7), Fraction(5, 9), Fraction(1, 10**6)}
            | {Fraction(50001, 10**5)}
        )
        for variant in ("standard", "reversed"):
            family = arc_family(variant)
            for x, y in itertools.product(grid, repeat=2):
                for depth in range(1, 25):
                    got = chain_order_compare(family, x, y, None, depth)
                    assert got == fraction_arc_certify(family, x, y, depth)
                    if got.certificate:
                        assert type(got.certificate["witness_index"]) is int


    def test_frozen_endpoint_indices(self):
        assert arc_family("standard").level(3).index_of(0) == (1, 1)
        assert arc_family("standard").level(3).index_of(1) == (8, 8)
        assert arc_family("reversed").level(3).index_of(0) == (8, 8)
        assert arc_family("standard").level(3).index_of(Fraction(1, 2)) == (4, 5)

    def test_certificate_is_an_interval_gap(self):
        verdict = chain_order_compare(arc_family("standard"), 0, Fraction(1, 2), None, 10)
        assert verdict.certificate["kind"] == "interval-gap"

    def test_two_distinct_orders_on_a_grid(self):
        grid = [Fraction(k, 8) for k in range(9)]
        orders = {
            ranking(arc_family(variant), grid, depth=12)
            for variant in ("standard", "reversed")
        }
        assert len(orders) == 2
        assert tuple(grid) in orders
        assert tuple(reversed(grid)) in orders

    def test_orders_are_opposite(self):
        grid = [Fraction(k, 7) for k in range(8)]
        assert (
            equal_or_opposite(
                ranking(arc_family("standard"), grid, depth=12),
                ranking(arc_family("reversed"), grid, depth=12),
            )
            == "opposite"
        )

    @given(small_fractions, small_fractions)
    @settings(max_examples=60)
    def test_stabilization_beats_the_distance_threshold(self, x, y):
        # Once the mesh drops below half the pair distance no link can
        # hold both points, so the comparison must already be settled.
        if x == y:
            return
        family = arc_family("standard")
        verdict = chain_order_compare(family, x, y, None, 24)
        assert verdict.kind == "stabilized"
        gap = abs(x - y)
        first = next(n for n in range(1, 25) if family.level(n).mesh_bound < gap / 2)
        assert verdict.threshold <= first

    @given(small_fractions, small_fractions)
    @settings(max_examples=40)
    def test_variants_disagree_exactly_on_strict_pairs(self, x, y):
        if x == y:
            return
        d_std = direction(arc_family("standard"), x, y, depth=24)
        d_rev = direction(arc_family("reversed"), x, y, depth=24)
        assert {d_std, d_rev} == {"le", "ge"}


S1_EXPECTED = {
    # (limit_top vs limit_bottom, second_trough vs outer_trough)
    "D": ("le", "ge"),
    "D'": ("ge", "ge"),
    "E": ("ge", "le"),
    "E'": ("le", "le"),
}

S1_RANKINGS = {
    "D": ("outer_trough", "second_trough", "limit_top", "limit_bottom"),
    "D'": ("outer_trough", "second_trough", "limit_bottom", "limit_top"),
    "E": ("limit_bottom", "limit_top", "second_trough", "outer_trough"),
    "E'": ("limit_top", "limit_bottom", "second_trough", "outer_trough"),
}


class TestSineFamilies:
    def test_level_sizes_frozen(self):
        assert s1_family("D").level(1).size == 88
        assert s1_family("D'").level(1).size == 112
        assert s1_family("E").level(1).size == 88
        assert s1_family("E'").level(1).size == 112

    @pytest.mark.parametrize("variant", ["D", "D'", "E", "E'"])
    def test_displayed_inequalities(self, variant):
        family = s1_family(variant)
        top_bottom = direction(family, S1_WITNESSES["limit_top"], S1_WITNESSES["limit_bottom"])
        troughs = direction(family, S1_WITNESSES["second_trough"], S1_WITNESSES["outer_trough"])
        assert (top_bottom, troughs) == S1_EXPECTED[variant]

    @pytest.mark.parametrize("variant", ["D", "D'", "E", "E'"])
    def test_witness_quadruple_ranking(self, variant):
        family = s1_family(variant)
        names = list(S1_WITNESSES)
        order = ranking(family, [S1_WITNESSES[n] for n in names])
        by_name = tuple(next(n for n in names if S1_WITNESSES[n] == p) for p in order)
        assert by_name == S1_RANKINGS[variant]

    def test_four_orders_pairwise_distinct(self):
        assert len(set(S1_RANKINGS.values())) == 4

    def test_inequalities_hold_at_every_level(self):
        family = s1_family("D")
        x, y = S1_WITNESSES["limit_top"], S1_WITNESSES["limit_bottom"]
        for n in range(1, 21):
            assert family.level(n).relation(x, y) == LE_ONLY

    @given(
        st.fractions(min_value=0, max_value=9, max_denominator=48),
        st.fractions(min_value=0, max_value=9, max_denominator=48),
    )
    @settings(max_examples=60)
    def test_wave_windows_are_monotone(self, u1, u2):
        level = s1_family("D").level(2)
        if u1 > u2:
            u1, u2 = u2, u1
        lo1, hi1 = level.index_of(CatalogPoint("wave", u1))
        lo2, hi2 = level.index_of(CatalogPoint("wave", u2))
        assert lo1 <= lo2 and hi1 <= hi2


S2_EXPECTED = {
    # (wall_bottom vs wall_top, outer_trough vs second_trough)
    "standard": ("le", "le"),
    "reversed": ("ge", "ge"),
}


class TestOuterArcFamilies:
    @pytest.mark.parametrize("variant", ["standard", "reversed"])
    def test_witness_pair_directions(self, variant):
        family = s2_family(variant)
        walls = direction(family, S2_WITNESSES["wall_bottom"], S2_WITNESSES["wall_top"])
        troughs = direction(family, S2_WITNESSES["outer_trough"], S2_WITNESSES["second_trough"])
        assert (walls, troughs) == S2_EXPECTED[variant]

    @pytest.mark.parametrize("variant", ["standard", "reversed"])
    def test_mixed_patterns_never_appear(self, variant):
        # The two witness pairs always move together: flipping the chain
        # reverses both inequalities at once, at every depth.
        family = s2_family(variant)
        wall_rel = LE_ONLY if variant == "standard" else GE_ONLY
        for n in range(1, 21):
            level = family.level(n)
            assert level.relation(S2_WITNESSES["wall_bottom"], S2_WITNESSES["wall_top"]) == wall_rel
            assert (
                level.relation(S2_WITNESSES["outer_trough"], S2_WITNESSES["second_trough"])
                == wall_rel
            )

    def test_variants_are_opposite_on_the_witnesses(self):
        points = list(S2_WITNESSES.values())
        assert (
            equal_or_opposite(
                ranking(s2_family("standard"), points),
                ranking(s2_family("reversed"), points),
            )
            == "opposite"
        )


class TestToothForestFamilies:
    def test_level_shape_frozen(self):
        family = s3_family((0, 1, 1))
        assert family.level(1).size == 29
        assert family.level(1).mesh_bound == Fraction(5, 8)
        assert family.level(2).size == 119
        assert family.level(3).mesh_bound == Fraction(13, 48)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_mesh_beats_one_over_m(self, m):
        family = s3_family((0,) * m)
        assert family.level(m).mesh_bound < Fraction(1, m)

    def test_witness_pair_shape(self):
        low, high = s3_witness_pair(4)
        assert low == CatalogPoint("tooth_4", 0)
        assert high == CatalogPoint("tooth_4", Fraction(1, 4))

    def test_bit_sets_the_direction_and_threshold(self):
        bits = (0, 1, 1, 0, 1, 0)
        family = s3_family(bits)
        for i, bit in enumerate(bits, start=1):
            low, high = s3_witness_pair(i)
            verdict = chain_order_compare(family, low, high, None, len(bits))
            assert verdict.kind == "stabilized"
            assert verdict.direction == ("le" if bit == 0 else "ge")
            assert verdict.threshold == i

    def test_prefixes_differing_at_i_disagree_from_level_i_on(self):
        one = s3_family((0, 1, 1, 0, 0, 1))
        other = s3_family((0, 0, 1, 0, 0, 1))
        low, high = s3_witness_pair(2)
        for m in range(2, 7):
            assert one.level(m).relation(low, high) != other.level(m).relation(low, high)

    def test_short_prefix_rejected(self):
        with pytest.raises(ValueError, match="prefix too short"):
            s3_family((0, 1)).level(3)

    def test_origin_joins_the_blob(self):
        # Everything beyond the covered teeth shares the terminal link.
        family = s3_family((0, 1))
        level = family.level(2)
        last = level.size
        assert level.index_of(CatalogPoint("origin", 0)) == (last, last)
        assert level.index_of(CatalogPoint("tooth_9", Fraction(1, 18))) == (last, last)

    def test_gap_shapes_are_shared_by_prefixes(self):
        # A gap's shape depends on its index, the level and the two bits
        # around it: 4 shapes per inner gap and 2 for the last, 72 in all.
        _gap_shape.cache_clear()
        for bits in itertools.product((0, 1), repeat=6):
            family = ToothForestChainFamily(bits)
            for m in range(1, 7):
                family.level(m)
        info = _gap_shape.cache_info()
        assert (info.currsize, info.misses) == (72, 72)

    def test_gap_shape_memo_holds_every_shape_up_to_the_s3_limit(self):
        # Levels 1..L hold 4 shapes per inner gap and 2 for the last: 2·L².
        limit = cli._DEPTHS[("compare", "s3")][1]
        assert catalog._GAP_SHAPES == 2 * limit**2

    def test_gap_shape_memo_is_bounded(self):
        # Four prefixes give every bit pair at every gap: levels 1-49 make
        # 4,802 distinct shapes, more than the bound holds.
        _gap_shape.cache_clear()
        depth = 49
        for bits in ("0" * depth, "1" * depth, "01" * depth, "10" * depth):
            family = ToothForestChainFamily(tuple(map(int, bits[:depth])))
            for m in range(1, depth + 1):
                family._plan(m)
        info = _gap_shape.cache_info()
        assert info.misses > info.maxsize == catalog._GAP_SHAPES
        assert info.currsize == catalog._GAP_SHAPES
        _gap_shape.cache_clear()

    def test_gap_index_shifts_with_the_gap_base(self):
        rng = random.Random(3)
        for _ in range(12):
            m = rng.randint(2, 6)
            i = rng.randint(1, m - 1)
            one = [rng.randrange(2) for _ in range(m)]
            other = [rng.randrange(2) for _ in range(m)]
            other[i - 1 : i + 1] = one[i - 1 : i + 1]
            families = s3_family(one), s3_family(other)
            shift = families[1]._plan(m).gap_base[i] - families[0]._plan(m).gap_base[i]
            on_gap = [
                CatalogPoint(w.strand, t)
                for w in families[0].link_windows(m)
                if w.strand == f"gap_{i}"
                for t in (w.lo, (w.lo + w.hi) / 2, w.hi)
                if w.contains(t)
            ]
            assert on_gap
            for p in on_gap:
                lo, hi = families[0].level(m).index_of(p)
                assert families[1].level(m).index_of(p) == (lo + shift, hi + shift)

    def test_a_tooth_settles_against_a_tail_still_in_the_blob(self):
        # A pure point and one on the last gap's blob tail settle at once
        # when they lie on different strands: the tail graduates behind the tooth.
        x, y = CatalogPoint("tooth_2", Fraction(1, 4)), CatalogPoint("gap_2", Fraction(-99, 100))
        family = s3_family("01")
        plan = family._plan(2)
        assert (family._classify(plan, x), family._classify(plan, y)) == ("pure", "blob-partial")
        assert family._pair_settled(x, y, 2)
        verdict = chain_order_compare(family, x, y, None, 2)
        assert (verdict.kind, verdict.direction, verdict.threshold) == ("stabilized", LE, 2)
        assert verdict.certificate == {
            "kind": "walk-scan", "first_constant_level": 2, "settled_level": 2
        }
        assert chain_order_compare(family, y, x, None, 2).direction == GE
        for bits in ("011010", "100101", "00000000", "11111111"):
            trace = chain_trace(s3_family(bits), x, y, len(bits))
            assert [row["relation"] for row in trace] == [BOTH] + [LE_ONLY] * (len(bits) - 1)

    @pytest.mark.parametrize("bits", [(0.5, 1.9, 1), "0x1", "012", (0, 2), ("0", 1.0)])
    def test_s3_family_refuses_what_is_not_a_binary_word(self, bits):
        # int() would have turned (0.5, 1.9, 1) into the prefix (0, 1, 1).
        with pytest.raises(ValueError, match="^not a binary word"):
            s3_family(bits)

    def test_s3_family_keys_on_int_bits(self):
        family = s3_family("011")
        assert family.bits == (0, 1, 1)
        assert all(type(b) is int for b in family.bits)
        assert s3_family((False, True, True)) is family
        assert s3_family([0, 1, 1]) is family

    def test_family_cache_is_bounded(self):
        for k in range(1, 10_001):
            s3_family(format(k, "b"))
        info = _s3_family_cached.cache_info()
        assert info.currsize == info.maxsize >= 64


T_EXPECTED = {"D": ("T3", "T1", "T2"), "E": ("T1", "T2", "T3")}


class TestSpiralFamilies:
    def test_level_sizes_frozen(self):
        assert t_family("D").level(1).size == 125
        assert t_family("D").level(2).size == 423
        assert t_family("E").level(1).size == 112
        assert t_family("E").level(2).size == 332

    @pytest.mark.parametrize(
        "variant,diameters",
        [
            ("D", ["877/3456", "12113/74880", "9373/78336", "432413/4515840"]),
            ("E", ["378502259/1994331200", "1681/12600", "2593/24624", "5/56"]),
        ],
    )
    def test_max_diameters_frozen(self, variant, diameters):
        family = t_family(variant)
        assert [validate_level(family, n)["max_diameter"] for n in range(1, 5)] == diameters

    @pytest.mark.parametrize("variant", ["D", "E"])
    def test_only_absorbed_tails_carry_a_box(self, variant):
        # The spiral's windows are boxed from its polyline, like any strand.
        for n in (1, 2, 3):
            spiral = [w for w in t_family(variant).link_windows(n) if w.strand == "spiral"]
            assert spiral or (variant, n) == ("E", 1)
            assert all(w.box is None for w in spiral)

    @pytest.mark.parametrize("variant", ["D", "E"])
    def test_component_order_on_representatives(self, variant):
        family = t_family(variant)
        first, second, third = T_EXPECTED[variant]
        reps = T_REPRESENTATIVES
        for a in reps[first]:
            for b in reps[second]:
                assert direction(family, a, b, depth=6) == "le"
        for b in reps[second]:
            for c in reps[third]:
                assert direction(family, b, c, depth=6) == "le"
        for a in reps[first]:
            for c in reps[third]:
                assert direction(family, a, c, depth=6) == "le"

    def test_the_two_variants_differ(self):
        reps = T_REPRESENTATIVES
        assert direction(t_family("D"), reps["T3"][0], reps["T2"][0], 6) == "le"
        assert direction(t_family("E"), reps["T3"][0], reps["T2"][0], 6) == "ge"

    @pytest.mark.parametrize("variant", ["D", "E"])
    def test_components_never_mix(self, variant):
        # Pairs with an outside z kept away from the minimal arc; the
        # spiral hugs the sine curve, so spiral witnesses use the short
        # outermost sub-arc where the separation stays macroscopic.
        family = t_family(variant)
        triples = [
            (CatalogPoint("bar", -1), CatalogPoint("bar", 1), CatalogPoint("wave", 4)),
            (CatalogPoint("bar", -1), CatalogPoint("bar", 1), CatalogPoint("spiral", 1)),
            (CatalogPoint("wave", 0), CatalogPoint("wave", 2), CatalogPoint("bar", 0)),
            (
                CatalogPoint("wave", 0),
                CatalogPoint("wave", 2),
                CatalogPoint("spiral", Fraction(3, 4)),
            ),
            (
                CatalogPoint("spiral", 1),
                CatalogPoint("spiral", Fraction(15, 16)),
                CatalogPoint("bar", 0),
            ),
            (
                CatalogPoint("spiral", 1),
                CatalogPoint("spiral", Fraction(15, 16)),
                CatalogPoint("wave", 4),
            ),
        ]
        for x, y, z in triples:
            _, threshold = separation_data(t_space(), x, y, z)
            report = never_between_after(family, x, y, z, threshold, 4)
            assert report.ok, report
            assert report.levels_checked, (x, y, z, threshold)


def _window_samples(windows, per_window=8):
    """Evenly spaced parameters of each window that the window holds, with
    the windows of its strand that meet it: only those can hold them."""
    on_strand = _by_strand(windows)
    for w in windows:
        near = [v for v in on_strand[w.strand] if v.lo <= w.hi and v.hi >= w.lo]
        for k in range(per_window + 1):
            t = w.lo + (w.hi - w.lo) * Fraction(k, per_window)
            if w.contains(t):
                yield w, t, near


def _holders(windows, t):
    return tuple(sorted({w.link for w in windows if w.contains(t)}))


def _by_strand(windows):
    grouped: dict[str, list] = {}
    for w in windows:
        grouped.setdefault(w.strand, []).append(w)
    return grouped


def _spread(points):
    xs = [q[0] for q in points]
    ys = [q[1] for q in points]
    return max(max(xs) - min(xs), max(ys) - min(ys))


class _ShrunkMesh(SineChainFamily):
    """S1 with a declared mesh a tenth below what its links span."""

    def _mesh(self, h, band, reach):
        return super()._mesh(h, band, reach) * Fraction(9, 10)


class _GappedArc(ArcChainFamily):
    """Arc windows with link 2 cut short of link 3."""

    def link_windows(self, n):
        windows = super().link_windows(n)
        windows[1] = windows[1]._replace(hi=Fraction(5, 16))
        return windows


class _StretchedArc(ArcChainFamily):
    """Arc windows with link 1 also over the overlap of links 2 and 3."""

    def link_windows(self, n):
        return super().link_windows(n) + [Window(1, "segment", Fraction(7, 16), Fraction(9, 16))]


class _OpenEndArc(ArcChainFamily):
    """Arc windows that leave the closed end 0 out of link 1."""

    def link_windows(self, n):
        windows = super().link_windows(n)
        windows[0] = windows[0]._replace(lo_closed=False)
        return windows


class _BarlessSine(SineChainFamily):
    """S1 windows with the limit bar left out."""

    def link_windows(self, n):
        return [w for w in super().link_windows(n) if w.strand != "bar"]


class _MislabelledArc(ArcChainFamily):
    """Reversely numbered links described by the standard windows."""

    def link_windows(self, n):
        return arc_family("standard").link_windows(n)


class TestValidator:
    @pytest.mark.parametrize(
        "family,levels",
        [
            (arc_family("standard"), (1, 3, 6)),
            (arc_family("reversed"), (3,)),
            (s1_family("D"), (1, 2)),
            (s1_family("D'"), (1, 2)),
            (s1_family("E"), (1,)),
            (s1_family("E'"), (1, 2)),
            (s2_family("standard"), (1, 2)),
            (s2_family("reversed"), (1, 2)),
            (s3_family((0, 1, 1, 0)), (1, 2, 3, 4)),
            (s3_family((1, 0, 0, 1)), (2, 4)),
            (t_family("D"), (1, 2)),
            (t_family("E"), (1, 2)),
        ],
        ids=lambda v: getattr(v, "variant", None) or str(v),
    )
    def test_levels_pass_the_sampled_checks(self, family, levels):
        """The exact check passes, and a dense sample of every window agrees
        with it: index_of holds exactly the windows' links, and no link's
        samples spread wider than the exact maximum diameter."""
        for n in levels:
            report = validate_level(family, n)
            assert report["ok"], report
            level, windows = family.level(n), family.link_windows(n)
            by_link: dict[int, list] = {}
            for w, t, near in _window_samples(windows):
                p = CatalogPoint(w.strand, t)
                assert links_of(level, p) == _holders(near, t), p
                by_link.setdefault(w.link, []).append(family.space.position(p))
            assert len(by_link) == report["links"]
            sampled = max(_spread(pts) for pts in by_link.values())
            assert sampled <= Fraction(report["max_diameter"]) <= level.mesh_bound

    def test_random_s3_prefixes_pass(self):
        prefixes = random.Random(5).sample(list(itertools.product((0, 1), repeat=4)), 3)
        for bits in prefixes:
            for n in range(1, 5):
                assert validate_level(s3_family(bits), n)["ok"], (bits, n)

    def test_tight_s1_maxima(self):
        # The handover link spans x from the bar out to the cut exactly.
        for n, bound in ((1, "769/3456"), (2, "1441/9360")):
            report = validate_level(s1_family("D"), n)
            assert report["max_diameter"] == report["mesh_bound"] == bound

    def test_only_the_spiral_tail_is_sampled(self):
        assert validate_level(t_family("D"), 1)["sampled"] == ["spiral tail"]
        assert validate_level(s3_family((0, 1)), 2)["sampled"] == []

    def test_mesh_failure_is_reported(self):
        report = validate_level(_ShrunkMesh("D"), 1)
        assert not report["ok"]
        assert report["reason"] == "diameter exceeds the mesh bound"
        assert (report["link"], report["diameter"]) == (73, "769/3456")
        assert Fraction(report["diameter"]) > Fraction(report["mesh"])

    @pytest.mark.parametrize(
        "family,reason",
        [
            (_GappedArc("standard"), "windows do not cover the strand"),
            (_OpenEndArc("standard"), "windows do not cover the strand"),
            (_BarlessSine("D"), "strands without a window"),
            (_StretchedArc("standard"), "windows of non-adjacent links overlap"),
            (_MislabelledArc("reversed"), "index_of disagrees with the windows"),
        ],
        ids=["gap", "open-end", "strand", "overlap", "mislabelled"],
    )
    def test_axiom_failures_are_reported(self, family, reason):
        report = validate_level(family, 2)
        assert not report["ok"]
        assert report["reason"] == reason, report


# -- the Fraction validator, kept as an oracle ----------------------------------------
# The validator computes on integer numerators.  These are its parts as they
# were in Fractions: window ends sorted, hashed and min/max-ed as Fractions,
# link boxes grown pairwise with min and max, diameters subtracted.


def _fraction_grid_windows(
    strand, step, overlap, count, first, lo, hi, param=lambda o: o, ends_closed=True
):
    out = []
    for i in range(1, count + 1):
        a, ca = (i - 1) * step - overlap, False
        if i == 1 or a < lo:
            a, ca = lo, ends_closed
        b, cb = i * step + overlap, False
        if i == count or b > hi:
            b, cb = hi, ends_closed
        if a > b or (a == b and not (ca and cb)):
            continue
        pa, pb = param(a), param(b)
        if pa > pb:
            pa, pb, ca, cb = pb, pa, cb, ca
        out.append(Window(first + i, strand, pa, pb, ca, cb))
    return out


def _fraction_grid_windows_of(strand, grid, *rest, **kwargs):
    """The oracle on the step and overlap of the plan's integer grid."""
    step, overlap = Fraction(grid.ep, grid.eq), Fraction(grid.cq, grid.eq)
    return _fraction_grid_windows(strand, step, overlap, *rest, **kwargs)


def _fraction_validate_level(family, n):
    level = family.level(n)
    size = level.size
    windows = family.link_windows(n)
    sampled = family.sampled_parts(n)

    def failure(reason, **extra):
        return {"ok": False, "level": n, "links": size, "reason": reason, **extra}

    by_strand = _by_strand(windows)
    sampled_strands = {p.strand for pts in sampled.values() for p in pts}
    space = family.space
    shared = set()
    listed = by_strand.keys() | sampled_strands
    unlisted = [s.name for s in space.strands if s.name not in listed]
    if unlisted:
        return failure("strands without a window", strands=unlisted)
    for name, ws in by_strand.items():
        problem = _fraction_check_strand(
            level, space.strand(name), ws, name in sampled_strands, shared
        )
        if problem:
            return failure(problem[0], **problem[1])
    unshared = [i for i in range(1, size) if i not in shared]
    if unshared:
        return failure("adjacent links share no point", links=unshared[:5])
    worst = Fraction(0)
    for link, (x0, x1, y0, y1) in sorted(
        _fraction_link_boxes(family, level, windows, sampled).items()
    ):
        diam = max(x1 - x0, y1 - y0)
        if diam > level.mesh_bound:
            return failure(
                "diameter exceeds the mesh bound",
                link=link,
                diameter=rational_str(diam),
                mesh=rational_str(level.mesh_bound),
            )
        worst = max(worst, diam)
    return {
        "ok": True,
        "level": n,
        "links": size,
        "windows": len(windows),
        "max_diameter": rational_str(worst),
        "mesh_bound": rational_str(level.mesh_bound),
        "sampled": sorted(sampled),
    }


def _fraction_check_strand(level, strand, ws, sampled, shared):
    def at(reason, t, **extra):
        return (reason, {"strand": strand.name, "param": rational_str(t), **extra})

    first = min(ws, key=lambda w: (w.lo, not w.lo_closed))
    last = max(ws, key=lambda w: (w.hi, w.hi_closed))
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

    ends = sorted({w.lo for w in ws} | {w.hi for w in ws})
    slot = {t: 2 * k for k, t in enumerate(ends)}
    held = [set() for _ in range(2 * len(ends) - 1)]
    for w in ws:
        for k in range(slot[w.lo] + (not w.lo_closed), slot[w.hi] - (not w.hi_closed) + 1):
            held[k].add(w.link)
    for k, links in enumerate(held):
        t = ends[k // 2] if k % 2 == 0 else (ends[k // 2] + ends[k // 2 + 1]) / 2
        if not links:
            if k in (0, len(held) - 1):
                continue
            return at("windows do not cover the strand", t)
        if max(links) - min(links) > 1:
            return at("windows of non-adjacent links overlap", t, links=sorted(links))
        if len(links) == 2:
            shared.add(min(links))
        got = links_of(level, CatalogPoint(strand.name, t))
        if got != tuple(sorted(links)):
            return at(
                "index_of disagrees with the windows", t, index_of=list(got), windows=sorted(links)
            )
    return None


def _fraction_link_boxes(family, level, windows, sampled):
    space = family.space
    boxes = {}

    def grow(link, box):
        old = boxes.get(link)
        if old is not None:
            box = tuple(f(a, b) for f, a, b in zip((min, max, min, max), old, box))
        boxes[link] = box

    for w in windows:
        box = w.box
        if box is None:
            pts = space.strand(w.strand).polyline(w.lo, w.hi)
            xs = [q[0] for q in pts]
            ys = [q[1] for q in pts]
            box = (min(xs), max(xs), min(ys), max(ys))
        grow(w.link, box)
    for pts in sampled.values():
        for p in pts:
            x, y = space.position(p)
            for link in links_of(level, p):
                grow(link, (x, x, y, y))
    return boxes


# The families CI validates exactly.
_CI_FAMILIES = [
    *[arc_family(v) for v in ArcChainFamily.VARIANTS],
    *[s1_family(v) for v in SineChainFamily.VARIANTS],
    *[s2_family(v) for v in OuterArcChainFamily.VARIANTS],
    s3_family((0, 1, 1, 0, 1, 0)),
    s3_family((1, 0, 0, 1, 0, 1)),
    *[t_family(v) for v in SpiralChainFamily.VARIANTS],
]


@pytest.mark.parametrize("family", _CI_FAMILIES, ids=repr)
def test_validator_matches_the_fraction_oracle(family, monkeypatch):
    """Windows, link boxes and reports equal the Fraction code's, exactly."""
    for n in range(1, 5):
        windows, report = family.link_windows(n), validate_level(family, n)
        level, sampled = family.level(n), family.sampled_parts(n)
        boxes = catalog._link_boxes(family, level, windows, sampled)
        assert boxes == _fraction_link_boxes(family, level, windows, sampled)
        with monkeypatch.context() as m:
            m.setattr(catalog, "_grid_windows", _fraction_grid_windows_of)
            assert repr(windows) == repr(family.link_windows(n))
            assert report == _fraction_validate_level(family, n)


def test_link_windows_are_pinned():
    """Every window, level size and mesh bound of the CI families at levels 1-6
    (T at 1-5), and the validator's sampled points, by digest.  The Fraction
    oracle above checks the windows of the grid it is handed, so it cannot
    catch a plan that hands the validator the wrong grid; this can."""
    digest = hashlib.sha256()
    for family in _CI_FAMILIES:
        for n in range(1, (5 if family.SPACE == "t" else 6) + 1):
            level, key = family.level(n), getattr(family, "variant", None) or family.bits
            digest.update(repr((family.SPACE, key, n, level.size, level.mesh_bound,
                                family.link_windows(n), family.sampled_parts(n))).encode())
    assert digest.hexdigest()[:16] == "4ac839b60ad95e65"


@given(
    step=st.fractions(Fraction(1, 40), 2, max_denominator=60),
    ov_share=st.fractions(0, Fraction(19, 40), max_denominator=40),
    count=st.integers(1, 12),
    lo=st.fractions(-1, 2, max_denominator=40),
    length=st.fractions(0, 8, max_denominator=40),
    decreasing=st.booleans(),
    ends_closed=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_grid_windows_match_the_fraction_oracle(
    step, ov_share, count, lo, length, decreasing, ends_closed
):
    """Stretches that clamp windows anywhere in the grid, or drop them."""
    param = (lambda o: 3 - o) if decreasing else (lambda o: o)
    args = (count, 5, lo, lo + length, param, ends_closed)
    grid = catalog._grid(step, step * ov_share, 1, count)
    got = catalog._grid_windows("wave", grid, *args)
    assert repr(got) == repr(_fraction_grid_windows("wave", step, step * ov_share, *args))

class _NudgedSine(SineChainFamily):
    """S1 windows with one end of a wave window moved by 1/den, den its denominator."""

    def link_windows(self, n):
        windows = super().link_windows(n)
        w = windows[5]
        windows[5] = w._replace(hi=w.hi - Fraction(1, w.hi.denominator))
        return windows


class _DroppedWindowSpiral(SpiralChainFamily):
    """T windows with one spiral window left out."""

    def link_windows(self, n):
        windows = super().link_windows(n)
        spiral = [k for k, w in enumerate(windows) if w.strand == "spiral"]
        del windows[spiral[len(spiral) // 2]]
        return windows


@pytest.mark.parametrize(
    "family",
    [
        _GappedArc("standard"),
        _OpenEndArc("standard"),
        _BarlessSine("D"),
        _StretchedArc("standard"),
        _MislabelledArc("reversed"),
        _ShrunkMesh("D"),
        _NudgedSine("D"),
        _DroppedWindowSpiral("D"),
    ],
    ids=["gap", "open-end", "strand", "overlap", "mislabelled", "mesh", "nudged", "dropped"],
)
def test_failures_match_the_fraction_oracle(family):
    """Broken families fail with the oracle's whole report: reason, strand,
    parameter and links."""
    report = validate_level(family, 2)
    assert not report["ok"]
    assert report == _fraction_validate_level(family, 2)


_ARC_ENDS = sorted({Fraction(k, d) for d in (3, 7, 10, 12, 64) for k in range(d + 1)})


@st.composite
def _arc_window_lists(draw, base):
    """The arc's windows with ends moved to nearby ends of mixed denominators,
    flags flipped, windows dropped, and extra windows, some of zero length."""
    ends = sorted(set(_ARC_ENDS) | {e for w in base for e in (w.lo, w.hi)})
    near = lambda t: ends[min(max(ends.index(t) + draw(st.integers(-2, 2)), 0), len(ends) - 1)]
    flag = st.booleans()
    ws = []
    for w in base:
        action = draw(st.sampled_from(("keep",) * 6 + ("move", "flags", "drop")))
        if action == "move":
            lo, hi = sorted((near(w.lo), near(w.hi)))
            w = w._replace(lo=lo, hi=hi)
        if action in ("move", "flags"):
            w = w._replace(lo_closed=draw(flag), hi_closed=draw(flag))
        if action != "drop":
            ws.append(w)
    for _ in range(draw(st.integers(0 if ws else 1, 3))):
        lo = draw(st.sampled_from(ends))
        hi = lo if draw(flag) else max(lo, draw(st.sampled_from(ends)))
        extra = Window(draw(st.integers(1, len(base))), "segment", lo, hi, draw(flag), draw(flag))
        ws.insert(draw(st.integers(0, len(ws))), extra)
    return ws


@given(
    family=st.sampled_from([arc_family(v) for v in ArcChainFamily.VARIANTS]),
    n=st.integers(1, 4),
    sampled=st.booleans(),
    data=st.data(),
)
@settings(max_examples=400, deadline=None)
def test_check_strand_matches_the_fraction_oracle(family, n, sampled, data):
    ws = data.draw(_arc_window_lists(family.link_windows(n)))
    level, strand = family.level(n), arc_space().strand("segment")
    shared, fraction_shared = set(), set()
    got = catalog._check_strand(level, strand, ws, sampled, shared)
    assert got == _fraction_check_strand(level, strand, ws, sampled, fraction_shared)
    assert shared == fraction_shared


_WINDOWED = [
    *[arc_family(v) for v in ArcChainFamily.VARIANTS],
    *[s1_family(v) for v in SineChainFamily.VARIANTS],
    *[s2_family(v) for v in OuterArcChainFamily.VARIANTS],
    s3_family((0, 1, 1)),
    s3_family((1, 0, 0)),
    *[t_family(v) for v in SpiralChainFamily.VARIANTS],
]
_WINDOW_CACHE: dict = {}


def _windows_and_boxes(family, n):
    key = (family, n)
    if key not in _WINDOW_CACHE:
        level, windows = family.level(n), family.link_windows(n)
        boxes = catalog._link_boxes(family, level, windows, family.sampled_parts(n))
        _WINDOW_CACHE[key] = windows, _by_strand(windows), boxes
    return _WINDOW_CACHE[key]


@given(
    family=st.sampled_from(_WINDOWED),
    n=st.integers(1, 3),
    pick=st.integers(0, 10**6),
    frac=st.fractions(0, 1, max_denominator=1000),
    periods=st.integers(0, 50),
)
@settings(max_examples=300, deadline=None)
def test_windows_invert_index_of(family, n, pick, frac, periods):
    """A point of any window sits in exactly the links whose windows hold
    it, and inside each of their boxes.  On the periodic wave tail a
    point some periods further out behaves the same."""
    windows, on_strand, boxes = _windows_and_boxes(family, n)
    w = windows[pick % len(windows)]
    t = w.lo + (w.hi - w.lo) * frac
    assume(w.contains(t))
    level = family.level(n)
    links = _holders(on_strand[w.strand], t)
    points = [CatalogPoint(w.strand, t)]
    if w.strand == "wave" and w.box is not None:
        points.append(CatalogPoint("wave", t + 4 * periods))
    for p in points:
        assert links_of(level, p) == links, p
        x, y = family.space.position(p)
        for link in links:
            x0, x1, y0, y1 = boxes[link]
            assert x0 <= x <= x1 and y0 <= y <= y1, (p, link)


def _far_points(family, n):
    """Points anywhere on the family's space, tails and strands past the
    listed ones included; T's spiral only where its windows reach, since
    beyond them it is sampled."""
    unit = st.fractions(0, 1, max_denominator=10**4)
    # Gap flanks crowd toward w = 1 on every scale.
    near_one = st.tuples(st.integers(0, 30), st.integers(1, 2**20 - 1)).map(
        lambda a: 1 - Fraction(a[1], 2 ** (a[0] + 20))
    )
    if family.SPACE == "s3":
        i = st.integers(1, n + 2)
        gap = st.tuples(i, near_one, st.sampled_from((1, -1))).map(
            lambda a: CatalogPoint(f"gap_{a[0]}", a[1] * a[2])
        )
        tooth = st.tuples(i, unit).map(lambda a: CatalogPoint(f"tooth_{a[0]}", a[1] / a[0]))
        return st.one_of(gap, tooth, st.just(CatalogPoint("origin", 0)))
    # The wave runs on without end: near the cut and far beyond it.
    wave = st.one_of(
        st.fractions(0, 64, max_denominator=10**4), st.fractions(0, 10**4, max_denominator=10)
    ).map(lambda u: CatalogPoint("wave", u))
    bounded = [s for s in family.space.strands if s.hi is not None and s.name != "spiral"]
    points = [wave] if family.SPACE != "arc" else []
    points += [
        unit.map(lambda f, s=s: CatalogPoint(s.name, s.lo + f * (s.hi - s.lo))) for s in bounded
    ]
    spiral = [w for w in _windows_and_boxes(family, n)[0] if w.strand == "spiral"]
    if spiral:
        reach = min(w.lo for w in spiral)
        points.append(unit.filter(bool).map(lambda f: CatalogPoint("spiral", 1 - f * (1 - reach))))
    return st.one_of(points)


@given(family=st.sampled_from(_WINDOWED), n=st.integers(1, 3), data=st.data())
@settings(max_examples=500, deadline=None)
def test_boxes_hold_every_point_of_their_links(family, n, data):
    """The boxes bound each link everywhere, not just on listed windows:
    far out on the wave and gap tails, on strands past the listed ones,
    and on the limit strands."""
    p = data.draw(_far_points(family, n))
    boxes = _windows_and_boxes(family, n)[2]
    x, y = family.space.position(p)
    for link in links_of(family.level(n), p):
        x0, x1, y0, y1 = boxes[link]
        assert x0 <= x <= x1 and y0 <= y <= y1, (p, link)


# -- checked persistence ----------------------------------------------------------


def _points_on(strand, lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=24).map(
        lambda t: CatalogPoint(strand, t)
    )


_SINE_WAVE = _points_on("wave", 0, 40)


@st.composite
def _s3_points(draw):
    i = draw(st.integers(min_value=1, max_value=10))
    kind = draw(st.sampled_from(["tooth", "gap", "origin"]))
    if kind == "origin":
        return CatalogPoint("origin", 0)
    if kind == "tooth":
        return draw(_points_on(f"tooth_{i}", 0, Fraction(1, i)))
    return draw(_points_on(f"gap_{i}", -1, 1).filter(lambda p: abs(p.param) < 1))


def _fixed(factory, variant):
    return lambda depth: st.just(factory(variant))


def _s3_prefixes(depth):
    # At least 8 bits longer than the depth, so levels up to d + 8 exist.
    bits = st.lists(st.integers(0, 1), min_size=depth + 8, max_size=depth + 10)
    return bits.map(s3_family)


# case -> (families for a depth, points)
_PERSISTENCE_CASES = {
    **{f"arc-{v}": (_fixed(arc_family, v), small_fractions) for v in ("standard", "reversed")},
    **{
        f"s1-{v}": (_fixed(s1_family, v), st.one_of(_SINE_WAVE, _points_on("bar", -1, 1)))
        for v in ("D", "D'", "E", "E'")
    },
    **{
        f"s2-{v}": (_fixed(s2_family, v), st.one_of(_SINE_WAVE, _points_on("ell", 0, 5)))
        for v in ("standard", "reversed")
    },
    "s3": (_s3_prefixes, _s3_points()),
}


def _near(data, family, x, depth):
    """A point of x's strand a few link spans from x, on scales from the
    depth's mesh down to 1/64 of it."""
    scale = family.level(depth).mesh_bound / 2 ** data.draw(st.integers(0, 6))
    offset = scale * Fraction(data.draw(st.integers(1, 16)), 4)
    offset *= data.draw(st.sampled_from((1, -1)))
    if isinstance(x, CatalogPoint):
        y = CatalogPoint(x.strand, x.param + offset)
        assume(family.space.strand(x.strand).contains_param(y.param))
    else:
        y = x + offset
        assume(0 <= y <= 1)
    return y


@pytest.mark.parametrize("case", sorted(_PERSISTENCE_CASES))
@given(data=st.data(), depth=st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_stabilized_verdicts_persist(case, data, depth):
    """A stabilized verdict at depth d keeps its strict relation through level d + 8."""
    families, points = _PERSISTENCE_CASES[case]
    family = data.draw(families(depth))
    x = data.draw(points)
    if data.draw(st.booleans()):
        y = _near(data, family, x, depth)
    else:
        y = data.draw(points.filter(lambda p: p != x))
    verdict = chain_order_compare(family, x, y, None, depth)
    if verdict.kind != "stabilized" or verdict.direction not in ("le", "ge"):
        return
    strict = LE_ONLY if verdict.direction == "le" else GE_ONLY
    for n in range(depth + 1, depth + 9):
        assert family.level(n).relation(x, y) == strict, (x, y, depth, n, verdict)


# Close pairs on one strand whose relation is strict at the given depth
# while a finer level still puts both points in one link.  (family, strand,
# x, y, depth, a depth whose links on that strand are shorter than the
# distance between x and y)
_CLOSE_PAIRS = {
    "s1-E-wave": (lambda: s1_family("E"), "wave", "11/15", "10/13", 1, 9),
    "s2-standard-wave": (lambda: s2_family("standard"), "wave", "11/15", "10/13", 4, 9),
    "s1-E-bar": (lambda: s1_family("E"), "bar", "207/520", "91443/202280", 4, 9),
    "s3-gap": (
        lambda: s3_family([int(b) for b in "0110101101001101"]),
        "gap_1", "-23/210", "-7267/81690", 5, 16,
    ),
    "t-D-wave": (lambda: t_family("D"), "wave", "5/2", "1981/778", 2, 7),
}


@pytest.mark.parametrize("case", sorted(_CLOSE_PAIRS))
def test_close_pairs_on_one_strand(case):
    """Their verdict persists through 8 more levels, and stabilizes once
    the strand's links are shorter than the distance between them."""
    factory, strand, a, b, depth, later = _CLOSE_PAIRS[case]
    family = factory()
    x, y = CatalogPoint(strand, Fraction(a)), CatalogPoint(strand, Fraction(b))
    verdict = chain_order_compare(family, x, y, None, depth)
    if verdict.kind == "stabilized":
        strict = LE_ONLY if verdict.direction == "le" else GE_ONLY
        for n in range(verdict.threshold, depth + 9):
            assert family.level(n).relation(x, y) == strict, (n, verdict)
    late = chain_order_compare(family, x, y, None, later)
    assert late.kind == "stabilized", late
    strict = LE_ONLY if late.direction == "le" else GE_ONLY
    assert family.level(later).relation(x, y) == strict


# -- the level scan against relations read from index_of by definition -----------


def reference_relation(px, py):
    """The relation of two points placed at link pairs px and py, by its
    definition: x may come first when some link of x is at or before some
    link of y, and y first in the mirror case."""
    links_x, links_y = range(px[0], px[1] + 1), range(py[0], py[1] + 1)
    le = any(i <= j for i in links_x for j in links_y)
    ge = any(j <= i for i in links_x for j in links_y)
    return BOTH if le and ge else LE_ONLY if le else GE_ONLY


def reference_trace_entry(level, x, y):
    px, py = level.index_of(x), level.index_of(y)
    return {
        "level": level.level,
        "k": level.size,
        "mesh": rational_str(level.mesh_bound),
        "idx_x": list(px),
        "idx_y": list(py),
        "relation": reference_relation(px, py),
    }


def placing_reader(memo, seq, point):
    """A memo reader that keeps nothing: every read places the point afresh."""
    return lambda n: seq.level(n).index_of(point)


def _reference_reports(family, queries, monkeypatch):
    """Verdicts scanned with every pair placed afresh and related by its
    definition, and traces built level by level from ``index_of``."""
    with monkeypatch.context() as m:
        m.setattr(chains, "_relation", reference_relation)
        m.setattr(LinkMemo, "reader", placing_reader)
        verdicts = [chain_order_compare(family, x, y, None, d).as_dict() for x, y, d in queries]
    traces = [
        [reference_trace_entry(family.level(n), x, y) for n in range(1, d + 1)]
        for x, y, d in queries
    ]
    return list(zip(verdicts, traces))


def _copy(point):
    """A new object equal to ``point``."""
    if isinstance(point, CatalogPoint):
        return CatalogPoint(point.strand, point.param)
    return Fraction(point.numerator, point.denominator)


def _settled_points(family):
    """Points in the part of each strand the walks have settled by level 8."""
    F = Fraction
    if family.SPACE == "arc":
        return [F(k, 64) for k in range(65)]
    wave = [CatalogPoint("wave", F(k, 2)) for k in range(67)]
    if family.SPACE == "s1":
        return wave + [CatalogPoint("bar", F(k, 8)) for k in range(-8, 9)]
    if family.SPACE == "s2":
        return wave + [CatalogPoint("ell", F(k, 4)) for k in range(21)]
    if family.SPACE == "s3":
        teeth = [CatalogPoint(f"tooth_{i}", F(j, 2 * i)) for i in range(1, 9) for j in range(3)]
        gaps = [CatalogPoint(f"gap_{i}", F(j, 4)) for i in range(1, 9) for j in (-1, 0, 1)]
        return teeth + gaps
    spiral = [CatalogPoint("spiral", F(c, 2 ** (p + 1))) for p in range(1, 7) for c in (2, 3)]
    return spiral + [CatalogPoint("bar", F(k, 4)) for k in range(-4, 5)] + wave


_SCAN_FAMILIES = [
    *[arc_family(v) for v in ArcChainFamily.VARIANTS],
    *[s1_family(v) for v in SineChainFamily.VARIANTS],
    *[s2_family(v) for v in OuterArcChainFamily.VARIANTS],
    s3_family((0, 1, 1, 0, 1, 0, 0, 1)),
    *[t_family(v) for v in SpiralChainFamily.VARIANTS],
]


def _scan_reports(family, queries):
    return [
        (chain_order_compare(family, x, y, None, depth).as_dict(), chain_trace(family, x, y, depth))
        for x, y, depth in queries
    ]


# SHA-256 of the JSON of every family's verdicts and traces below, and of
# its validate_level reports at levels 1-4, recorded when levels still
# placed points as validated range objects rather than plain pairs.
SCAN_DIGESTS = {
    "ArcChainFamily(variant='standard')": "f9aea9ece22539db4c25a0a4991c51977e48666a105261f3f78217fa633a211a",
    "ArcChainFamily(variant='reversed')": "4901269d8b638bf2722d57379a4201375011d6060b3685d8fd7bf6e696edd28d",
    "SineChainFamily(variant='D')": "afc4528cc75c6cfe8258006a154555f65623fba4cabed08dfe20c6347c12a8a5",
    'SineChainFamily(variant="D\'")': "35b6947130a0fa964868ca7daffa1abaf6b8e6d8b954e2c1f688493408a4c8d1",
    "SineChainFamily(variant='E')": "7098c166f22f4a09fc99606d29b3a6b7a768b71dcbb0ae9fb99b3d2257cfbeee",
    'SineChainFamily(variant="E\'")': "34636fce3a0aed032e2e8e3abe1abcf26c7b0ac5576d7eb310f434f5f5343e48",
    "OuterArcChainFamily(variant='standard')": "b41b8009fc78ceb76a56159d713c092d878fbcccd128ead7a059919b2e77b844",
    "OuterArcChainFamily(variant='reversed')": "b23c29e7895eec653066bd039d25bcdda03d1203fc2e0a1c5e9c12554a558f59",
    'ToothForestChainFamily(bits=(0, 1, 1, 0, 1, 0, 0, 1))': "19d6f22d54240fb3751c580ca5f0dff7852aef747ec6328d1dc4fb1c1cf0b8bf",
    "SpiralChainFamily(variant='D')": "706716bd78bad2e1084c13d1474935ee35b5d1fa483c5963524b6bc49c3820b5",
    "SpiralChainFamily(variant='E')": "d8684c0b8652b7707ffd771de06305da2824ee2fc350dbc354424ea6368f59c8",
}


@pytest.mark.parametrize("family", _SCAN_FAMILIES, ids=repr)
def test_level_scan_matches_the_index_range_reference(family, monkeypatch):
    """The shared family answers as the reference does on a freshly built
    family, and so do small memos that meet each query forward, mirrored,
    repeated, and again after more than their bound of other points
    pushed it out, always on new, equal points."""
    rng = random.Random(17)
    points = _settled_points(family)
    queries = [(*rng.sample(points, 2), rng.randint(1, 8)) for _ in range(16)]
    got = _scan_reports(family, queries)
    fresh = dataclasses.replace(family, _levels={}, _links=LinkMemo(catalog._link_key))
    assert got == _reference_reports(fresh, queries, monkeypatch)
    mirrored = _reference_reports(fresh, [(y, x, d) for x, y, d in queries], monkeypatch)
    # Below and above the 16 pairs one comparison at depth 8 reads.
    for bound in (12, 40):
        monkeypatch.setattr(chains, "_LINK_PAIRS", bound)
        memo = LinkMemo(catalog._link_key)
        warm = dataclasses.replace(family, _links=memo)
        for (x, y, depth), forward, backward in zip(queries, got, mirrored):
            for a, b, expected in [(x, y, forward), (y, x, backward), (x, y, forward)]:
                assert _scan_reports(warm, [(_copy(a), _copy(b), depth)]) == [expected]
            for p in [p for p in points if p not in (x, y)][: bound + 1]:
                memo.reader(warm, _copy(p))(1)
            assert memo.key(_copy(x)) not in memo._rows and memo.key(_copy(y)) not in memo._rows
            assert _scan_reports(warm, [(_copy(x), _copy(y), depth)]) == [forward]
            assert memo.size == sum(len(row) + 1 for row in memo._rows.values()) <= bound
    assert sum(verdict["kind"] == "stabilized" for verdict, _ in got) >= 6
    validated = [validate_level(family, n) for n in range(1, 5)]
    text = json.dumps([got, validated], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SCAN_DIGESTS[repr(family)]
