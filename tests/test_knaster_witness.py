"""Witness pair construction and its ultrafilter-dependent order."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainorder.foundations import (
    GE,
    LE,
    STABILIZED,
    ULTRAFILTER_DEPENDENT,
    EventuallyPeriodicSet,
)
from chainorder.inverse_limit import (
    PeriodicTail,
    ThreadPoint,
    compare_level,
    inverse_limit_order,
    tent_system,
)
from chainorder.plmaps import tent
from chainorder.knaster_witness import (
    _LETTER_TABLE,
    WitnessPair,
    build_witness,
    demonstrate_distinct_orders,
    exhaustive_branch_oracle,
)
from chainorder.ultrafilter import SimulatedUltrafilter

F = Fraction
EVENS = EventuallyPeriodicSet.evens()
U0 = SimulatedUltrafilter.parse("r2=0")
U1 = SimulatedUltrafilter.parse("r2=1")


class TestConstruction:
    def test_singleton_one(self):
        pair = build_witness(EventuallyPeriodicSet((False, True), (False,)), 1)
        assert pair.x.coordinate(1) == F(3, 4)
        assert pair.y.coordinate(1) == F(1, 4)

    def test_evens_first_levels(self):
        pair = build_witness(EVENS, 2)
        assert pair.x.coordinate(1) == F(1, 4)
        assert pair.y.coordinate(1) == F(3, 4)
        assert pair.x.coordinate(2) == F(7, 8)
        assert pair.y.coordinate(2) == F(3, 8)

    def test_signs_track_the_set(self):
        pair = build_witness(EVENS, 16)
        assert pair.signs == tuple(range(2, 17, 2))
        assert pair.mixed_on_window

    def test_signs_for_sampled_sets(self):
        rng = random.Random(411)
        for _ in range(60):
            s = EventuallyPeriodicSet(
                tuple(rng.choice((False, True)) for _ in range(rng.randrange(0, 4))),
                tuple(rng.choice((False, True)) for _ in range(rng.randrange(1, 6))),
            )
            pair = build_witness(s, 20)
            for i in range(1, 21):
                assert (pair.x.coordinate(i) > pair.y.coordinate(i)) == (i in s)

    def test_periodic_tails_continue_the_rule(self):
        # The tails must keep reproducing the set's bits beyond the stem.
        pair = build_witness(EVENS, 4)
        for i in range(1, 40):
            assert (compare_level(pair.x, pair.y, i) == "GT") == (i % 2 == 0)

    def test_finite_set_not_mixed_beyond_its_span(self):
        pair = build_witness(EventuallyPeriodicSet((False, True), (False,)), 12)
        assert pair.signs == (1,)
        assert pair.mixed_on_window

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            build_witness(EVENS, 0)


def fraction_witness(level_set: EventuallyPeriodicSet, depth: int) -> WitnessPair:
    """Oracle: the witness built in Fractions, one membership test per level."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    half = F(1, 2)
    stem_len = max(depth, len(level_set.prefix) + 1)
    xs, ys = [half], [half]
    for i in range(1, stem_len + 1):
        if i == 1:
            xs.append(F(3, 4) if 1 in level_set else F(1, 4))
            ys.append(F(1, 4) if 1 in level_set else F(3, 4))
            continue
        s, t = xs[-1], ys[-1]
        if s < t:
            ys.append(t / 2)
            xs.append(1 - s / 2 if i in level_set else s / 2)
        else:
            xs.append(s / 2)
            ys.append(t / 2 if i in level_set else 1 - t / 2)
    x_cycle, y_cycle = [], []
    for j in range(stem_len + 1, stem_len + 1 + len(level_set.pattern)):
        lx, ly = _LETTER_TABLE[(j - 1 in level_set, j in level_set)]
        x_cycle.append(lx)
        y_cycle.append(ly)
    x = ThreadPoint(tent_system(), tuple(xs), PeriodicTail((), tuple(x_cycle)))
    y = ThreadPoint(tent_system(), tuple(ys), PeriodicTail((), tuple(y_cycle)))
    signs = tuple(i for i in range(1, depth + 1) if xs[i] > ys[i])
    if signs != tuple(i for i in range(1, depth + 1) if i in level_set):
        raise AssertionError("witness construction broke its sign invariant")
    window = [i in level_set for i in range(1, depth + 1)]
    return WitnessPair(level_set, depth, x, y, signs, any(window) and not all(window))


def outcome(fn, *args):
    """A report, or the type and message of the error raised."""
    try:
        return fn(*args).as_dict()
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


class TestAgainstFractionOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.booleans(), max_size=5),
        st.lists(st.booleans(), min_size=1, max_size=7),
        st.integers(min_value=1, max_value=40),
    )
    def test_reports_match(self, prefix, pattern, depth):
        level_set = EventuallyPeriodicSet(tuple(prefix), tuple(pattern))
        expected = outcome(fraction_witness, level_set, depth)
        assert outcome(build_witness, level_set, depth) == expected

    def test_stem_coordinates_are_reduced_dyadics(self):
        pair = build_witness(EventuallyPeriodicSet((True, False, False), (False, True)), 30)
        for point in (pair.x, pair.y):
            for i, v in enumerate(point.stem):
                assert type(v) is Fraction
                assert v.denominator == 2 ** (i + 1) and v.numerator % 2 == 1


class TestOrders:
    def test_evens_split_by_residue_towers(self):
        report = demonstrate_distinct_orders(EVENS, 16, U0, U1)
        assert report["distinct"]
        assert report["verdict_u1"]["kind"] == ULTRAFILTER_DEPENDENT
        assert report["verdict_u1"]["direction"] == GE
        assert report["verdict_u2"]["direction"] == LE

    def test_odds_split_the_other_way(self):
        report = demonstrate_distinct_orders(EventuallyPeriodicSet.odds(), 16, U1, U0)
        assert report["distinct"]
        assert report["verdict_u1"]["direction"] == GE
        assert report["verdict_u2"]["direction"] == LE

    def test_precondition_enforced(self):
        with pytest.raises(ValueError, match="u1"):
            demonstrate_distinct_orders(EVENS, 8, U1, U0)
        with pytest.raises(ValueError, match="u2"):
            demonstrate_distinct_orders(EVENS, 8, U0, U0)

    def test_cofinite_set_fails_precondition(self):
        cofinite = EventuallyPeriodicSet.cofinite_from(3)
        with pytest.raises(ValueError, match="u2"):
            demonstrate_distinct_orders(cofinite, 8, U0, U1)

    def test_finite_set_stabilizes_le(self):
        pair = build_witness(EventuallyPeriodicSet((False, True), (False,)), 10)
        verdict = inverse_limit_order(pair.x, pair.y, U0, 10)
        assert verdict.kind == STABILIZED
        assert verdict.direction == LE
        assert verdict.threshold == 2

    def test_mod_three_set_needs_extension(self):
        threes = EventuallyPeriodicSet.residue_class(0, 3)
        u_yes = SimulatedUltrafilter.parse("r6=3")
        u_no = SimulatedUltrafilter.parse("r6=1")
        report = demonstrate_distinct_orders(threes, 12, u_yes, u_no)
        assert report["distinct"]


def fraction_branch_oracle(depth):
    """exhaustive_branch_oracle as it was, comparing Fractions, as its oracle."""
    f = tent()
    words = [[(w >> k) & 1 for k in range(depth)] for w in range(2**depth)]
    values = []
    for w in words:
        coords = [F(1, 2)]
        for letter in w:
            coords.append(f.preimages(coords[-1])[letter])
        values.append(coords)
    checked = 0
    for wa, va in zip(words, values):
        for wb, vb in zip(words, values):
            sign = "EQ"
            for step in range(depth):
                la, lb = wa[step], wb[step]
                if la == lb:
                    if sign != "EQ" and la == 1:
                        sign = "LT" if sign == "GT" else "GT"
                else:
                    sign = "LT" if la < lb else "GT"
                a, b = va[step + 1], vb[step + 1]
                if ("EQ" if a == b else "LT" if a < b else "GT") != sign:
                    return {
                        "pass": False,
                        "pairs_checked": checked,
                        "counterexample": {"a": wa, "b": wb, "step": step},
                    }
                checked += 1
    return {"pass": True, "pairs_checked": checked, "words": len(words)}


class TestBranchOracle:
    @pytest.mark.parametrize("depth", range(1, 7))
    def test_matches_the_fraction_oracle(self, depth):
        assert exhaustive_branch_oracle(depth) == fraction_branch_oracle(depth)

    def test_depth_four_exhaustive(self):
        result = exhaustive_branch_oracle(4)
        assert result["pass"]
        assert result["words"] == 16
        assert result["pairs_checked"] == 16 * 16 * 4

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            exhaustive_branch_oracle(0)
