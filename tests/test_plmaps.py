"""Exact evaluation, preimages, and composition of PL interval maps."""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from chainorder.plmaps import Lap, PLMap, PreimageError, tent

F = Fraction


def brute_preimages(f: PLMap, y: Fraction, denom: int = 2048) -> list[Fraction]:
    """Oracle: scan a fine grid for sign changes of f - y and refine exactly.

    Works for maps whose breakpoints have denominators dividing `denom`,
    because then each grid cell lies inside one linear piece.
    """
    hits = set()
    prev_t = F(0)
    prev_v = f(prev_t) - y
    for k in range(1, denom + 1):
        t = F(k, denom)
        v = f(t) - y
        if prev_v == 0:
            hits.add(prev_t)
        if v == 0:
            hits.add(t)
        if prev_v * v < 0:
            hits.add(prev_t - prev_v * (t - prev_t) / (v - prev_v))
        prev_t, prev_v = t, v
    return sorted(hits)


class TestValidation:
    def test_rejects_wrong_domain(self):
        with pytest.raises(ValueError):
            PLMap((F(0), F(1, 2)), (F(0), F(1)))

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ValueError):
            PLMap((F(0), F(3, 4), F(1, 2), F(1)), (F(0), F(1), F(0), F(1)))

    def test_rejects_values_outside_unit_interval(self):
        with pytest.raises(ValueError):
            PLMap((F(0), F(1)), (F(0), F(2)))

    def test_rejects_evaluation_outside_domain(self):
        with pytest.raises(ValueError):
            tent()(F(3, 2))


class TestTentValues:
    @pytest.mark.parametrize(
        "t, expected",
        [
            (F(0), F(0)),
            (F(1, 4), F(1, 2)),
            (F(1, 2), F(1)),
            (F(3, 4), F(1, 2)),
            (F(1), F(0)),
            (F(1, 3), F(2, 3)),
            (F(2, 3), F(2, 3)),
        ],
    )
    def test_eval(self, t, expected):
        assert tent()(t) == expected

    @pytest.mark.parametrize(
        "y, expected",
        [
            (F(1, 2), (F(1, 4), F(3, 4))),
            (F(1), (F(1, 2),)),
            (F(0), (F(0), F(1))),
            (F(2, 3), (F(1, 3), F(2, 3))),
        ],
    )
    def test_preimages(self, y, expected):
        assert tent()(expected[0]) == y
        assert tent().preimages(y) == expected

    def test_preimages_match_grid_oracle(self):
        for num in range(0, 17):
            y = F(num, 16)
            assert list(tent().preimages(y)) == brute_preimages(tent(), y)


def iterated_preimages(f, seed, i):
    frontier = {seed}
    for _ in range(i):
        frontier = {p for y in frontier for p in f.preimages(y)}
    return tuple(sorted(frontier))


class TestIteratedPreimages:
    def test_first_levels(self):
        assert iterated_preimages(tent(), F(1, 2), 1) == (F(1, 4), F(3, 4))
        assert iterated_preimages(tent(), F(1, 2), 2) == (
            F(1, 8),
            F(3, 8),
            F(5, 8),
            F(7, 8),
        )

    def test_counts_and_denominators(self):
        for i in range(0, 11):
            level = iterated_preimages(tent(), F(1, 2), i)
            assert len(level) == 2**i
            assert all(p.denominator == 2 ** (i + 1) and p.numerator % 2 == 1 for p in level)


ZIGZAG = PLMap((F(0), F(1, 3), F(2, 3), F(1)), (F(0), F(1), F(0), F(1)))


class TestPreimagePairs:
    def test_zigzag_matches_grid_oracle(self):
        # A grid of 384 cells puts the breakpoints 1/3 and 2/3 on cell ends.
        for y in [F(n, 24) for n in range(25)] + [F(2, 5), F(1, 7), F(6, 7)]:
            pairs = ZIGZAG.preimage_pairs(y.numerator, y.denominator)
            assert [F(p, q) for p, q in pairs] == brute_preimages(ZIGZAG, y, 384)
            assert all(type(p) is int and q > 0 and gcd(p, q) == 1 for p, q in pairs)
            assert ZIGZAG.preimages(y) == tuple(F(p, q) for p, q in pairs)

    def test_unreduced_values_give_the_same_pairs(self):
        assert ZIGZAG.preimage_pairs(2, 4) == ZIGZAG.preimage_pairs(1, 2) == (
            (1, 6),
            (1, 2),
            (5, 6),
        )
        assert tent().preimage_pairs(0, 5) == ((0, 1), (1, 1))
        assert tent().preimage_pairs(3, 3) == ((1, 2),)


class TestFlatSegments:
    def setup_method(self):
        self.plateau = PLMap(
            (F(0), F(1, 4), F(3, 4), F(1)),
            (F(0), F(1, 2), F(1, 2), F(1)),
        )

    def test_preimage_at_plateau_value_rejected(self):
        with pytest.raises(PreimageError):
            self.plateau.preimages(F(1, 2))
        with pytest.raises(PreimageError, match=r"^level set of 1/2 contains \[1/4, 3/4\]$"):
            self.plateau.preimage_pairs(1, 2)

    def test_preimage_away_from_plateau_fine(self):
        assert self.plateau.preimages(F(1, 4)) == (F(1, 8),)
        assert self.plateau.preimage_pairs(1, 4) == ((1, 8),)

    def test_laps_rejected(self):
        with pytest.raises(ValueError):
            self.plateau.laps()

    def test_not_full_lap(self):
        assert not self.plateau.is_full_lap()


class TestLaps:
    def test_tent_laps(self):
        laps = tent().laps()
        assert laps == (Lap(0, 1, True), Lap(1, 2, False))
        assert tent().is_full_lap()

    def test_three_lap_map(self):
        zigzag = PLMap(
            (F(0), F(1, 3), F(2, 3), F(1)),
            (F(0), F(1), F(0), F(1)),
        )
        assert len(zigzag.laps()) == 3
        assert zigzag.is_full_lap()
        assert zigzag.lipschitz() == 3

    def test_lipschitz_tent(self):
        assert tent().lipschitz() == 2


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=12)


@st.composite
def pl_maps(draw, values=unit_fractions):
    interior = draw(
        st.lists(
            st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12),
            max_size=4,
        )
    )
    bps = sorted({F(0), F(1), *interior})
    vals = [draw(values) for _ in bps]
    return PLMap(tuple(bps), tuple(vals))


class TestCompose:
    @given(pl_maps(), unit_fractions)
    def test_preimage_points_evaluate_back(self, f, y):
        try:
            pts = f.preimages(y)
        except PreimageError:
            return
        assert list(pts) == sorted(pts)
        for p in pts:
            assert f(p) == y


def formula_preimages(f: PLMap, y) -> tuple[Fraction, ...]:
    """Oracle: every segment solved in Fraction arithmetic, then a set
    sorted (the formula the compiled inverse replaced)."""
    y = Fraction(y)
    if not 0 <= y <= 1:
        raise ValueError(f"value outside [0,1]: {y}")
    hits = set()
    for b0, b1, v0, v1 in f.segments():
        if v0 == v1:
            if v0 == y:
                raise PreimageError(f"level set of {y} contains [{b0}, {b1}]")
            continue
        lo, hi = (v0, v1) if v0 < v1 else (v1, v0)
        if lo <= y <= hi:
            hits.add(b0 + (y - v0) * (b1 - b0) / (v1 - v0))
    return tuple(sorted(hits))


def formula_value(f: PLMap, t) -> Fraction:
    """Oracle: Fraction interpolation on the segment bisect finds."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"argument outside [0,1]: {t}")
    i = bisect_right(f.breakpoints, t) - 1
    if i == len(f.breakpoints) - 1:
        i -= 1
    b0, b1 = f.breakpoints[i], f.breakpoints[i + 1]
    v0, v1 = f.values[i], f.values[i + 1]
    return v0 + (v1 - v0) * (t - b0) / (b1 - b0)


def outcome(fn, *args):
    """A result, or the type and message of the ValueError raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# Values from a coarse grid make flat segments and full laps common.
any_pl_maps = st.one_of(pl_maps(), pl_maps(st.sampled_from([F(0), F(1, 2), F(1)])))


class TestCompiledAgainstFormulas:
    @given(any_pl_maps, st.data())
    def test_preimages(self, f, data):
        y = data.draw(
            st.one_of(
                unit_fractions,
                st.sampled_from(f.values),  # the value at a breakpoint
                st.sampled_from([0, 1, F(0), F(1)]),
                st.fractions(min_value=-1, max_value=2, max_denominator=6),
            )
        )
        got = outcome(f.preimages, y)
        assert got == outcome(formula_preimages, f, y)
        pairs = outcome(f.preimage_pairs, *Fraction(y).as_integer_ratio())
        if got and isinstance(got[0], type):  # the error both raise
            assert pairs == got
        else:
            assert all(type(t) is Fraction for t in got)
            assert pairs == tuple(t.as_integer_ratio() for t in got)

    @given(any_pl_maps, st.data())
    def test_values(self, f, data):
        t = data.draw(
            st.one_of(
                unit_fractions,
                st.sampled_from(f.breakpoints),
                st.sampled_from([0, 1]),
                st.fractions(min_value=-1, max_value=2, max_denominator=6),
            )
        )
        got = outcome(f, t)
        assert got == outcome(formula_value, f, t)
        if not isinstance(got, tuple):
            assert type(got) is Fraction

    @given(any_pl_maps, st.data())
    def test_sends(self, f, data):
        t = data.draw(
            st.one_of(
                unit_fractions,
                st.sampled_from(f.breakpoints),
                st.fractions(min_value=-1, max_value=2, max_denominator=6),
            )
        )
        v = data.draw(st.one_of(unit_fractions, st.sampled_from(f.values)))
        if 0 <= t <= 1 and data.draw(st.booleans()):
            v = formula_value(f, t)  # the true value, often unreduced in the table
        assert outcome(f.sends, t, v) == outcome(lambda: formula_value(f, t) == v)

    @given(any_pl_maps)
    def test_lap_data_is_computed_once(self, f):
        for name in ("laps", "is_full_lap", "lipschitz"):
            method = getattr(f, name)
            uncached = outcome(getattr(PLMap, name).__wrapped__, f)
            try:
                first = method()
            except ValueError as exc:
                assert (type(exc), str(exc)) == uncached
                continue
            assert first == uncached
            assert method() is first

    def test_lap_geometry_is_kept_on_the_map(self):
        zigzag = PLMap((F(0), F(1, 3), F(2, 3), F(1)), (F(0), F(1), F(0), F(1)))
        geometry = zigzag.lap_geometry()
        assert zigzag.lap_geometry() is geometry
        # Preimages of 0 sit at 0 and 2/3, of 1 at 1/3 and 1; interior
        # values have one preimage inside each of the three laps.
        assert geometry.steps == (((0, 0), (2, 4)), ((2, 2), (1, 6)), ((2, 1), (2, 3), (2, 5)))
        with pytest.raises(ValueError, match="exceeds the 3 laps"):
            geometry.step_point(2, 3)
        with pytest.raises(ValueError, match="exceeds 2 boundary preimages"):
            geometry.step_point(0, 2)
        with pytest.raises(ValueError, match="full-lap"):
            PLMap((F(0), F(1)), (F(0), F(1, 2))).lap_geometry()
