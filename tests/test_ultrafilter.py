"""Residue towers: decisions, minimal extension, and the ultrafilter laws."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chainorder.foundations import EventuallyPeriodicSet
from chainorder.ultrafilter import Decision, SimulatedUltrafilter, filter_axiom_report

EVENS = EventuallyPeriodicSet.evens()
ODDS = EventuallyPeriodicSet.odds()


class TestConstruction:
    def test_binary_tower_digits(self):
        u = SimulatedUltrafilter.binary_tower((1, 0, 1))
        assert u.moduli == (1, 2, 4, 8)
        assert u.residues == (0, 1, 1, 5)

    def test_factorial_tower(self):
        u = SimulatedUltrafilter.factorial_tower((1, 2, 3))
        assert u.moduli == (1, 2, 6, 24)
        assert u.residues == (0, 1, 5, 23)

    def test_parse_round_trip(self):
        u = SimulatedUltrafilter.parse("r2=0,r4=2")
        assert u.moduli == (1, 2, 4)
        assert u.residues == (0, 0, 2)
        assert u.label() == "r2=0,r4=2"

    @pytest.mark.parametrize(
        "moduli, residues",
        [
            ((1, 3, 6), (0, 1, 2)),  # 2 not compatible with 1 mod 3
            ((2, 3), (0, 0)),  # 2 does not divide 3
            ((1, 2), (0, 2)),  # residue not reduced
            ((4, 4), (1, 1)),  # not strictly increasing
            ((), ()),
        ],
    )
    def test_rejects_bad_towers(self, moduli, residues):
        with pytest.raises(ValueError):
            SimulatedUltrafilter(moduli, residues)

    def test_rejects_bad_parse(self):
        with pytest.raises(ValueError):
            SimulatedUltrafilter.parse("mod2=1")

    @pytest.mark.parametrize(
        "moduli, residues",
        [
            ((1, 2.7), (0, 1.9)),  # once truncated to the tower r2=1
            ((1, 2.0), (0, 1)),
            ((1, 2), (0, "1")),
            ((1, 2), (0, None)),
        ],
    )
    def test_non_integers_refused(self, moduli, residues):
        with pytest.raises(ValueError) as err:
            SimulatedUltrafilter(moduli, residues)
        assert str(err.value) == "moduli and residues must be integers"

    @pytest.mark.parametrize("bit", [1.0, 0.0, "1", None, Fraction(1)])
    def test_binary_tower_refuses_non_integer_bits(self, bit):
        with pytest.raises(ValueError) as err:
            SimulatedUltrafilter.binary_tower((0, bit))
        assert str(err.value) == "binary tower digits must be 0 or 1"

    @pytest.mark.parametrize("digit", [1.5, 1.0, "1", None, Fraction(1)])
    def test_factorial_tower_refuses_non_integer_digits(self, digit):
        with pytest.raises(ValueError) as err:
            SimulatedUltrafilter.factorial_tower((1, digit))
        assert str(err.value) == "factorial digit 1 must lie in [0, 3)"

    def test_int_and_bool_accepted(self):
        u = SimulatedUltrafilter((True, 2), (False, True))
        assert (u.moduli, u.residues) == ((1, 2), (0, 1))
        assert all(type(v) is int for v in u.moduli + u.residues)
        assert u == SimulatedUltrafilter.parse("r2=1")
        # The tower constructors still build towers of ints.
        assert SimulatedUltrafilter.binary_tower((True, 0)).residues == (0, 1, 1)
        assert SimulatedUltrafilter.binary_tower((True,)).label() == "r2=1"
        assert SimulatedUltrafilter.factorial_tower((1, 2)).residues == (0, 1, 5)


class TestDecide:
    def test_evens_by_residue(self):
        assert SimulatedUltrafilter.parse("r2=0").decides(EVENS)
        assert not SimulatedUltrafilter.parse("r2=1").decides(EVENS)
        assert SimulatedUltrafilter.parse("r2=1").decides(ODDS)

    def test_prefix_is_ignored(self):
        # Same tail as the evens, garbled on the first four naturals.
        garbled = EventuallyPeriodicSet((False, True, True, True), (True, False))
        assert 0 not in garbled and 4 in garbled and 5 not in garbled
        assert SimulatedUltrafilter.parse("r2=0").decides(garbled)

    def test_mod_four_classes(self):
        u = SimulatedUltrafilter.parse("r4=3")
        for residue in range(4):
            expected = residue == 3
            assert u.decides(EventuallyPeriodicSet.residue_class(residue, 4)) == expected

    def test_cofinite_and_finite(self):
        u = SimulatedUltrafilter.binary_tower((0, 1, 1))
        assert u.decides(EventuallyPeriodicSet.cofinite_from(40))
        finite = EventuallyPeriodicSet(tuple(n in (0, 7, 13) for n in range(14)), (False,))
        assert not u.decides(finite)
        assert u.decides(EventuallyPeriodicSet.full())
        assert not u.decides(EventuallyPeriodicSet.empty())

    def test_smallest_fitting_modulus_wins(self):
        u = SimulatedUltrafilter((1, 2, 4), (0, 1, 3))
        decision = u.decide(EVENS)
        # Moduli 2 and 4 both fit, and their compatible residues agree: odd.
        assert (decision.value, decision.extended) == (False, False)


class TestExtension:
    def test_period_three_extends_binary_tower(self):
        u = SimulatedUltrafilter.parse("r2=1")
        threes = EventuallyPeriodicSet.residue_class(0, 3)
        decision = u.decide(threes)
        assert (decision.value, decision.extended) == (False, True)
        tower = u.ensure_period(3)
        assert tower.moduli == (1, 2, 6)
        # Minimal compatible refinement keeps the old residue: 1 mod 6.
        assert tower.residues == (0, 1, 1)

    def test_extension_is_idempotent(self):
        u = SimulatedUltrafilter.parse("r2=1").ensure_period(3)
        assert u.ensure_period(3) is u
        assert u.ensure_period(6) is u

    def test_no_extension_when_period_fits(self):
        u = SimulatedUltrafilter.parse("r4=2")
        assert not u.decide(EVENS).extended


class TestAxioms:
    def test_report_shape(self):
        u = SimulatedUltrafilter.parse("r2=0")
        report = filter_axiom_report(u, EVENS, EventuallyPeriodicSet.residue_class(0, 3))
        assert report["pass"]
        assert report["extended"]
        assert set(report["decisions"]) == {"s", "t", "s_and_t", "s_or_t"}

    def test_towers_disagree_on_evens(self):
        u0 = SimulatedUltrafilter.parse("r2=0")
        u1 = SimulatedUltrafilter.parse("r2=1")
        assert u0.decides(EVENS) != u1.decides(EVENS)

    def test_seeded_sweep(self):
        rng = random.Random(20260815)
        for _ in range(300):
            tower = SimulatedUltrafilter.binary_tower(
                tuple(rng.randrange(2) for _ in range(rng.randrange(1, 6)))
            )
            s = EventuallyPeriodicSet(
                tuple(rng.choice((False, True)) for _ in range(rng.randrange(0, 4))),
                tuple(rng.choice((False, True)) for _ in range(rng.randrange(1, 7))),
            )
            t = EventuallyPeriodicSet(
                tuple(rng.choice((False, True)) for _ in range(rng.randrange(0, 4))),
                tuple(rng.choice((False, True)) for _ in range(rng.randrange(1, 7))),
            )
            assert filter_axiom_report(tower, s, t)["pass"]


bits = st.lists(st.booleans(), max_size=4).map(tuple)
patterns = st.lists(st.booleans(), min_size=1, max_size=6).map(tuple)
epsets = st.builds(EventuallyPeriodicSet, bits, patterns)
towers = st.lists(st.integers(0, 1), max_size=5).map(
    lambda digits: SimulatedUltrafilter.binary_tower(tuple(digits))
)


class TestAxiomProperties:
    @given(towers, epsets, epsets)
    def test_boolean_morphism(self, u, s, t):
        common = u.ensure_period(len(s.pattern) * len(t.pattern))
        assert common.decides(s & t) == (common.decides(s) and common.decides(t))
        assert common.decides(s | t) == (common.decides(s) or common.decides(t))
        assert common.decides(~s) == (not common.decides(s))

    @given(towers, epsets, epsets)
    def test_report_always_passes(self, u, s, t):
        assert filter_axiom_report(u, s, t)["pass"]


factorial_towers = st.lists(st.integers(0, 100), max_size=4).map(
    lambda ds: SimulatedUltrafilter.factorial_tower(tuple(d % (k + 2) for k, d in enumerate(ds)))
)
any_towers = st.one_of(towers, factorial_towers)


def ensure_then_scan(u, s):
    """The decide that always called ensure_period first, as an oracle."""
    period = len(s.pattern)
    tower = u.ensure_period(period)
    for m, r in zip(tower.moduli, tower.residues):
        if m % period == 0:
            value = bool(s.pattern[(r - len(s.prefix)) % period])
            return Decision(value, tower is not u)
    raise AssertionError("ensure_period left no usable modulus")


def report_via_decide(tower, s, t):
    """filter_axiom_report as it was, one oracle decision per verdict."""
    common = tower.ensure_period(math.lcm(len(s.pattern), len(t.pattern)))

    def verdict(a):
        decision = ensure_then_scan(common, a)
        assert not decision.extended
        return decision.value

    ds, dt = verdict(s), verdict(t)
    d_and, d_or = verdict(s & t), verdict(s | t)
    horizon = max(len(s.prefix), len(t.prefix)) + 2
    checks = {
        "complement_dichotomy": verdict(~s) == (not ds) and verdict(~t) == (not dt),
        "intersection": d_and == (ds and dt),
        "union": d_or == (ds or dt),
        "upward_closure": (not ds or d_or) and (not dt or d_or),
        "full_set": verdict(EventuallyPeriodicSet.full()),
        "empty_set": not verdict(EventuallyPeriodicSet.empty()),
        "cofinite_sets": verdict(EventuallyPeriodicSet.cofinite_from(horizon)),
    }
    return {
        "tower": common.as_dict(),
        "extended": common is not tower,
        "decisions": {"s": ds, "t": dt, "s_and_t": d_and, "s_or_t": d_or},
        "checks": checks,
        "pass": all(checks.values()),
    }


class TestAgainstEnsureThenScan:
    @given(any_towers, epsets)
    def test_decide(self, u, s):
        got, want = u.decide(s), ensure_then_scan(u, s)
        assert (got.value, got.extended) == (want.value, want.extended)

    @given(any_towers, st.integers(min_value=1, max_value=60))
    def test_extension_passes_the_full_constructor(self, u, period):
        # ensure_period builds its tower without __post_init__'s checks.
        got = u.ensure_period(period)
        rebuilt = SimulatedUltrafilter(got.moduli, got.residues)
        assert (got.moduli, got.residues) == (rebuilt.moduli, rebuilt.residues)
        if got is not u:
            top = math.lcm(u.moduli[-1], period)
            assert got == SimulatedUltrafilter(u.moduli + (top,), u.residues + (u.residues[-1],))
        assert got.moduli[-1] % period == 0

    def test_filter_axiom_reports_on_seeded_sets(self):
        rng = random.Random(7120)

        def random_set():
            return EventuallyPeriodicSet(
                tuple(rng.random() < 0.5 for _ in range(rng.randrange(0, 6))),
                tuple(rng.random() < 0.5 for _ in range(rng.randrange(1, 7))),
            )

        base = (
            SimulatedUltrafilter.binary_tower((0,)),
            SimulatedUltrafilter.binary_tower((1, 0, 1)),
            SimulatedUltrafilter.factorial_tower((1, 2)),
            SimulatedUltrafilter.parse("r5=3"),
        )
        for tower in base:
            for _ in range(150):
                s, t = random_set(), random_set()
                assert filter_axiom_report(tower, s, t) == report_via_decide(tower, s, t)
