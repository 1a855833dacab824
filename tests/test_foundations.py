"""Tests for exact primitives: link index ranges, periodic sets, verdicts."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import and_, or_

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainorder import foundations
from chainorder.chains import ChainLevel
from chainorder.foundations import (
    EQ,
    GE,
    LE,
    STABILIZED,
    ULTRAFILTER_DEPENDENT,
    UNKNOWN,
    ComparisonVerdict,
    EventuallyPeriodicSet,
    rational,
)

# -- oracle: decide membership straight from an unnormalized (prefix, pattern)


def raw_member(prefix: tuple[bool, ...], pattern: tuple[bool, ...], n: int) -> bool:
    if n < len(prefix):
        return prefix[n]
    return pattern[(n - len(prefix)) % len(pattern)]


bits = st.lists(st.booleans(), min_size=0, max_size=6).map(tuple)
patterns = st.lists(st.booleans(), min_size=1, max_size=6).map(tuple)
epsets = st.builds(EventuallyPeriodicSet, bits, patterns)


def test_rational_coercions():
    assert rational("3/4") == Fraction(3, 4)
    assert rational(2) == Fraction(2)
    assert rational(Fraction(1, 3)) == Fraction(1, 3)


def test_rational_decimals_and_exponents():
    assert rational("2.5e3") == 2500
    assert rational("1e-3") == Fraction(1, 1000)
    assert rational("-1.5E+2") == -150
    assert rational("1e-3999") == Fraction(1, 10**3999)
    assert rational("0." + "1" * 3999) == Fraction(int("1" * 3999), 10**3999)


@pytest.mark.parametrize(
    "text", ["1e-5000", "1e4001", "1.5e3999", "1e-10000000", "0." + "1" * 4001]
)
def test_rational_refuses_decimals_past_the_digit_limit(text):
    with pytest.raises(ValueError, match="^decimal .* is too long: .* more than 4000 digits$"):
        rational(text)


def test_rational_refuses_an_exponent_too_long_to_read():
    # int() refuses to read it, in rational's check and again in Fraction.
    with pytest.raises(ValueError, match="4300 digits"):
        rational("1e" + "9" * 5000)


@pytest.mark.parametrize("text", ["1e", "e5", "1e5/2", "1.2.3e4"])
def test_rational_leaves_malformed_exponents_to_fraction(text):
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        rational(text)


def placed_at(lo: int, hi: int) -> ChainLevel:
    """A level that places every point at links lo..hi."""
    return ChainLevel(1, 8, Fraction(1), lambda point: (lo, hi))


class TestIndexRange:
    """Link index ranges, which chain levels hand out from ``index_of``
    as plain (lo, hi) pairs: one link or two consecutive ones."""

    def test_contains_and_indices(self):
        lo, hi = placed_at(5, 6).index_of("p")
        assert lo <= 5 <= hi and lo <= 6 <= hi
        assert not lo <= 4 <= hi and not lo <= 7 <= hi
        assert tuple(range(lo, hi + 1)) == (5, 6)

    @pytest.mark.parametrize("lo,hi", [(0, 0), (0, 1), (2, 1), (1, 3)])
    def test_rejects_bad_ranges(self, lo, hi):
        with pytest.raises(ValueError):
            placed_at(lo, hi).index_of("p")


class TestNormalization:
    def test_period_is_minimized(self):
        s = EventuallyPeriodicSet((), (True, False, True, False))
        assert s.pattern == (True, False)

    def test_prefix_absorbs_into_rotated_pattern(self):
        # T | (F T)^inf is just the even numbers.
        s = EventuallyPeriodicSet((True,), (False, True))
        assert s == EventuallyPeriodicSet.evens()
        assert s.prefix == ()

    def test_constant_tail_collapses(self):
        s = EventuallyPeriodicSet((True, True), (True,))
        assert s == EventuallyPeriodicSet.full()

    def test_unabsorbable_prefix_stays(self):
        s = EventuallyPeriodicSet((True, True), (True, False))
        assert s.prefix == (True, True)

    @given(epsets, st.integers(min_value=0, max_value=8))
    def test_canonical_across_representations(self, s, shift):
        # Re-cut the same bit sequence at a later split point; the value
        # must normalize back to the same set.
        cut = len(s.prefix) + shift
        prefix = s.bits(cut)
        pattern = tuple((cut + i) in s for i in range(len(s.pattern)))
        assert EventuallyPeriodicSet(prefix, pattern) == s

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            EventuallyPeriodicSet((), ())


class TestMembership:
    def test_constructors(self):
        T, F = True, False
        assert EventuallyPeriodicSet.evens().bits(7) == (T, F, T, F, T, F, T)
        assert EventuallyPeriodicSet.odds().bits(6) == (F, T, F, T, F, T)
        assert EventuallyPeriodicSet((F, T, F, F, T), (F,)).bits(7) == (F, T, F, F, T, F, F)
        assert EventuallyPeriodicSet.cofinite_from(3).bits(6) == (F, F, F, T, T, T)
        assert EventuallyPeriodicSet.residue_class(2, 5).bits(8) == (F, F, T, F, F, F, F, T)
        assert EventuallyPeriodicSet.residue_class(7, 5) == EventuallyPeriodicSet.residue_class(2, 5)
        assert EventuallyPeriodicSet((F, F, F), (F,)) == EventuallyPeriodicSet.empty()
        assert EventuallyPeriodicSet.cofinite_from(0) == EventuallyPeriodicSet.full()

    def test_negative_membership_rejected(self):
        with pytest.raises(ValueError):
            -1 in EventuallyPeriodicSet.full()

    @given(bits, patterns, st.integers(min_value=0, max_value=40))
    def test_membership_matches_raw_oracle(self, prefix, pattern, n):
        s = EventuallyPeriodicSet(prefix, pattern)
        assert (n in s) == raw_member(prefix, pattern, n)


class TestAlgebra:
    @given(epsets, epsets, st.integers(min_value=0, max_value=60))
    def test_ops_are_pointwise(self, a, b, n):
        assert (n in a.union(b)) == ((n in a) or (n in b))
        assert (n in a.intersection(b)) == ((n in a) and (n in b))
        assert (n in a.complement()) == (n not in a)

    @given(epsets)
    def test_complement_involutes(self, a):
        assert a.complement().complement() == a

    @given(epsets, epsets)
    def test_de_morgan(self, a, b):
        assert (a | b).complement() == a.complement() & b.complement()
        assert (a & b).complement() == a.complement() | b.complement()

    @given(epsets, epsets, epsets)
    def test_distributivity(self, a, b, c):
        assert a & (b | c) == (a & b) | (a & c)

    def test_operator_sugar(self):
        ev, od = EventuallyPeriodicSet.evens(), EventuallyPeriodicSet.odds()
        assert ev | od == EventuallyPeriodicSet.full()
        assert ev & od == EventuallyPeriodicSet.empty()
        assert ~ev == od


def pointwise_combine(a, b, op):
    """The bit-by-bit _combine the sliced version replaced, as its oracle."""
    start = max(len(a.prefix), len(b.prefix))
    period = lcm(len(a.pattern), len(b.pattern))
    prefix = tuple(op(n in a, n in b) for n in range(start))
    pattern = tuple(op(n in a, n in b) for n in range(start, start + period))
    return EventuallyPeriodicSet(prefix, pattern)


class TestSlicedAgainstMembership:
    @given(bits, patterns, st.integers(min_value=-3, max_value=40))
    def test_bits(self, prefix, pattern, count):
        s = EventuallyPeriodicSet(prefix, pattern)
        want = tuple(raw_member(prefix, pattern, n) for n in range(count))
        assert s.bits(count) == want
        assert all(type(b) is bool for b in s.bits(count))

    @given(epsets, epsets)
    def test_combine(self, a, b):
        # The operators the methods now pass, each beside the lambda it replaced.
        cases = (
            (a.union, or_, lambda x, y: x or y),
            (a.intersection, and_, lambda x, y: x and y),
        )
        for method, op, old in cases:
            got = method(b)
            assert got == a._combine(b, op) == pointwise_combine(a, b, old)
            assert all(type(bit) is bool for bit in got.prefix + got.pattern)
        assert a._combine(b, lambda x, y: x != y) == pointwise_combine(a, b, lambda x, y: x != y)

    @given(bits, patterns)
    def test_complement(self, prefix, pattern):
        s = EventuallyPeriodicSet(prefix, pattern)
        got = s.complement()
        built = EventuallyPeriodicSet(
            tuple(not b for b in prefix), tuple(not b for b in pattern)
        )
        # Field by field: the complement skips the normalizing constructor.
        assert (got.prefix, got.pattern) == (built.prefix, built.pattern)
        assert all(type(b) is bool for b in got.prefix + got.pattern)
        assert got.bits(20) == tuple(not raw_member(prefix, pattern, n) for n in range(20))


def loop_normal(prefix, pattern):
    """The constructor's normalization before its one-step cut, as its oracle."""
    pattern = tuple(map(bool, pattern))
    for d in range(1, len(pattern) + 1):
        if len(pattern) % d == 0 and pattern == pattern[:d] * (len(pattern) // d):
            pattern = pattern[:d]
            break
    prefix = tuple(map(bool, prefix))
    while prefix and prefix[-1] == pattern[-1]:
        prefix = prefix[:-1]
        pattern = pattern[-1:] + pattern[:-1]
    return prefix, pattern


def words_up_to(size, least=0):
    return [w for k in range(least, size + 1) for w in itertools.product((False, True), repeat=k)]


def fields(s):
    return s.prefix, s.pattern


def rebuilt(s):
    """``s`` run again through the full, normalizing constructor."""
    return fields(EventuallyPeriodicSet(s.prefix, s.pattern))


class TestShortcutsAgainstFullConstructor:
    """Results built without the constructor are already in its normal form."""

    raw = [(p, q) for p in words_up_to(6) for q in words_up_to(6, least=1)]

    def test_normalization_matches_the_loop(self):
        for prefix, pattern in self.raw:
            want = loop_normal(prefix, pattern)
            assert foundations._normalized(prefix, pattern) == want
            assert fields(EventuallyPeriodicSet(prefix, pattern)) == want

    def test_combine(self):
        # Every set with prefix and pattern up to length 6, against a
        # panel of partners with other periods and prefixes.
        sets = {EventuallyPeriodicSet(p, q) for p, q in self.raw}
        panel = (
            EventuallyPeriodicSet.evens(),
            EventuallyPeriodicSet.residue_class(1, 3),
            EventuallyPeriodicSet((True, False, False, True), (False, True, True, True, False)),
            EventuallyPeriodicSet.cofinite_from(4),
        )
        for a in sets:
            for b in panel:
                for got in (a | b, a & b, a & ~b, b & ~a):
                    assert fields(got) == rebuilt(got)

    def test_cofinite_from(self):
        for start in range(40):
            got = EventuallyPeriodicSet.cofinite_from(start)
            assert fields(got) == rebuilt(got) == ((False,) * start, (True,))

    def test_complement(self):
        for prefix, pattern in self.raw:
            got = ~EventuallyPeriodicSet(prefix, pattern)
            assert fields(got) == rebuilt(got)


class TestComparisonVerdict:
    def test_stabilized(self):
        v = ComparisonVerdict.stabilized(LE, threshold=3, depth=10)
        assert v.kind == STABILIZED and v.direction == LE
        assert v.as_dict() == {"kind": "stabilized", "depth": 10, "direction": "le", "threshold": 3}

    def test_stabilized_needs_threshold_within_depth(self):
        with pytest.raises(ValueError):
            ComparisonVerdict.stabilized(GE, threshold=11, depth=10)
        with pytest.raises(ValueError):
            ComparisonVerdict(kind=STABILIZED, depth=5, direction=EQ)

    def test_ultrafilter_dependent_carries_le_set(self):
        le = EventuallyPeriodicSet.odds()
        v = ComparisonVerdict.ultrafilter_dependent(le, depth=8, direction=GE, tower_extended=True)
        assert v.kind == ULTRAFILTER_DEPENDENT
        d = v.as_dict()
        assert d["le_set"] == {"prefix": [], "period": 2, "pattern": [0, 1]}
        assert d["tower_extended"] is True
        with pytest.raises(ValueError):
            ComparisonVerdict(kind=ULTRAFILTER_DEPENDENT, depth=8)

    def test_unknown(self):
        v = ComparisonVerdict.unknown(depth=4)
        assert v.kind == UNKNOWN and v.as_dict() == {"kind": "unknown", "depth": 4}

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            ComparisonVerdict(kind="maybe", depth=1)
