"""Threads, coordinatewise comparison, and the sign recurrence machine."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from chainorder.foundations import EQ, GE, LE, STABILIZED, ULTRAFILTER_DEPENDENT, UNKNOWN
from chainorder.foundations import EventuallyPeriodicSet
from chainorder.inverse_limit import (
    DepthExceededError,
    InverseSystem,
    PeriodicTail,
    ThreadPoint,
    WordTail,
    compare_level,
    epsilon_map_modulus,
    fiber_diameter_bound,
    inverse_limit_order,
    sign_certificate,
    tent_system,
    thread_from_letters,
    word_letters,
)
from chainorder.ultrafilter import SimulatedUltrafilter

F = Fraction
SYS = tent_system()


def zero_thread(system: InverseSystem) -> ThreadPoint:
    """The thread 0, 0, 0, ... of a system whose leftmost preimage of 0 is 0."""
    return ThreadPoint(system, (Fraction(0),), PeriodicTail((), (0,)))


def distance_bounds(x: ThreadPoint, y: ThreadPoint, depth: int) -> tuple[Fraction, Fraction]:
    """Exact lower and upper bounds on d(x,y) from the first depth+1 levels."""
    if depth < 0:
        raise ValueError("depth must be a natural")
    head = sum(
        (Fraction(1, 2**i) * abs(x.coordinate(i) - y.coordinate(i)) for i in range(depth + 1)),
        Fraction(0),
    )
    return head, head + Fraction(1, 2**depth)


def tent_steps(n: int, v: Fraction) -> tuple[Fraction, ...]:
    """The tent's branches v/2 and 1 - v/2, merged and sorted, at any level."""
    return tuple(sorted({v / 2, 1 - v / 2}))


def stepped_coordinates(preimages_at, x0, prefix, cycle, count) -> list[Fraction]:
    """Oracle: coordinates 0..count-1 of the thread from x0, stepped by the
    bonding maps' own preimage formulas; ``preimages_at(n, v)`` lists the
    preimages of v under bonding map n in ascending order."""
    coords = [Fraction(x0)]
    for j in range(count - 1):
        letter = prefix[j] if j < len(prefix) else cycle[(j - len(prefix)) % len(cycle)]
        coords.append(preimages_at(j, coords[-1])[letter])
    return coords


def sign(a: Fraction, b: Fraction) -> str:
    return "EQ" if a == b else ("LT" if a < b else "GT")


def check_coordinates(make_thread, expected: list[Fraction]) -> None:
    """Fresh threads read deepest level first and level by level must both
    give the oracle's coordinates, each pair reduced over a positive
    denominator."""
    for order in (range(len(expected) - 1, -1, -1), range(len(expected))):
        thread = make_thread()
        for n in order:
            p, q = thread.coordinate_pair(n)
            assert type(p) is int and type(q) is int
            assert q > 0 and gcd(p, q) == 1
            assert Fraction(p, q) == expected[n], n
            assert thread.coordinate(n) == expected[n], n


def random_word(rng: random.Random, preimages_at, x0, length: int) -> tuple[int, ...]:
    """A branch word whose every letter names one of the preimages there."""
    word, v = [], Fraction(x0)
    for j in range(length):
        options = preimages_at(j, v)
        word.append(rng.randrange(len(options)))
        v = options[word[-1]]
    return tuple(word)


U0 = SimulatedUltrafilter.parse("r2=0")
U1 = SimulatedUltrafilter.parse("r2=1")


def alternating_pair():
    """Threads whose coordinates compare EQ, LT, GT, LT, GT, ... by level."""
    x = ThreadPoint(SYS, (F(1, 2), F(1, 4), F(7, 8)), PeriodicTail((), (0, 1)))
    y = ThreadPoint(SYS, (F(1, 2), F(3, 4), F(3, 8)), PeriodicTail((), (1, 0)))
    return x, y


class TestThreadValidation:
    def test_stem_consistency_enforced(self):
        with pytest.raises(ValueError, match="thread condition"):
            ThreadPoint(SYS, (F(1, 2), F(1, 2)), PeriodicTail((), (0,)))

    def test_empty_stem_rejected(self):
        with pytest.raises(ValueError):
            ThreadPoint(SYS, (), PeriodicTail((), (0,)))

    @pytest.mark.parametrize(
        "stem,message",
        [
            ((), "a thread needs at least coordinate zero"),
            ((F(3, 2),), "coordinates must lie in [0,1]"),
            ((F(1, 2), F(-1, 4)), "coordinates must lie in [0,1]"),
            ((F(1, 2), F(1, 3)), "stem breaks the thread condition at level 0: f_0(1/3) != 1/2"),
            (("1/2", "3/4", "1/4"), "stem breaks the thread condition at level 1: f_1(1/4) != 3/4"),
            ((0, 1, 1), "stem breaks the thread condition at level 1: f_1(1) != 1"),
        ],
    )
    def test_stem_errors_keep_their_messages(self, stem, message):
        with pytest.raises(ValueError) as err:
            ThreadPoint(SYS, stem, PeriodicTail((), (0,)))
        assert str(err.value) == message

    def test_letter_out_of_range_detected(self):
        p = thread_from_letters(SYS, 1, (1,))
        with pytest.raises(ValueError, match="preimages"):
            p.coordinate(1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PeriodicTail((1.7,), (0,)),
            lambda: PeriodicTail((), (0.2,)),
            lambda: PeriodicTail((0,), (1.0,)),
            lambda: PeriodicTail((0,), (-1,)),
            lambda: WordTail(("1",)),
            lambda: WordTail((F(1),)),
            lambda: WordTail((None,)),
        ],
    )
    def test_non_natural_letters_refused(self, make):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == "branch letters are naturals"

    def test_int_and_bool_letters_accepted(self):
        word = WordTail((True, 0, 2))
        assert word.letters == (1, 0, 2)
        tail = PeriodicTail((False,), (True, 1))
        assert tail.as_dict() == {"kind": "periodic", "prefix": [0], "cycle": [1, 1]}
        assert all(type(l) is int for l in word.letters + tail.prefix + tail.cycle)
        with pytest.raises(ValueError, match="nonempty cycle"):
            PeriodicTail((-1,), ())

    def test_word_letters_parse(self):
        assert word_letters("LRL") == (0, 1, 0)
        with pytest.raises(ValueError):
            word_letters("LX")


class TestCoordinates:
    def test_zero_thread(self):
        z = zero_thread(SYS)
        assert z.coordinate(0) == 0
        assert z.coordinate(7) == 0

    def test_branch_word_from_half(self):
        p = thread_from_letters(SYS, F(1, 2), "LR")
        assert p.coordinate(0) == F(1, 2)
        assert p.coordinate(1) == F(1, 4)
        assert p.coordinate(2) == F(7, 8)

    def test_word_tail_depth_limit(self):
        p = thread_from_letters(SYS, F(1, 2), "LR")
        assert p.max_level == 2
        with pytest.raises(DepthExceededError):
            p.coordinate(3)

    def test_word_and_periodic_tails_share_one_view(self):
        """A word tail reads as its letters with an empty cycle, so one
        code path steps both kinds of tail and ends the word on time."""
        word, periodic = WordTail((0, 1)), PeriodicTail((0, 1), (1,))
        assert (word.prefix, word.cycle) == ((0, 1), ())
        assert (periodic.prefix, periodic.cycle) == ((0, 1), (1,))
        x, y = ThreadPoint(SYS, (F(1, 2),), word), ThreadPoint(SYS, (F(1, 2),), periodic)
        assert (x.max_level, y.max_level) == (2, None)
        assert [x.letter_for_step(j) for j in (1, 2)] == [y.letter_for_step(j) for j in (1, 2)]
        assert [x.coordinate(n) for n in range(3)] == [y.coordinate(n) for n in range(3)]
        assert y.letter_for_step(3) == 1
        for call in (lambda: x.letter_for_step(3), lambda: x.coordinate(3)):
            with pytest.raises(DepthExceededError) as err:
                call()
            assert str(err.value) == "coordinate 3 exceeds the branch word (max level 2)"
        with pytest.raises(ValueError, match="^step lies inside the stem$"):
            x.letter_for_step(0)
        # The view is no field: equality, hashing and both renderings stay.
        assert word == WordTail([0, 1]) and hash(word) == hash(WordTail((0, 1)))
        assert repr(word) == "WordTail(letters=(0, 1), kind='word')"
        assert word.as_dict() == {"kind": "word", "letters": [0, 1]}
        assert x.as_dict() == {"stem": ["1/2"], "tail": {"kind": "word", "letters": [0, 1]}}
        bad = thread_from_letters(SYS, 1, (1,))
        with pytest.raises(ValueError) as err:
            bad.coordinate(1)
        assert str(err.value) == "letter 1 invalid at level 1: 1 has 1 preimages"

    def test_periodic_tail_unbounded(self):
        p = thread_from_letters(SYS, F(1, 2), cycle="L")
        assert p.max_level is None
        assert p.coordinate(3) == F(1, 16)
        assert p.coordinate(10) == F(1, 2**11)

    def test_thread_condition_along_tail(self):
        p = thread_from_letters(SYS, F(2, 3), cycle="RL")
        for n in range(8):
            assert SYS.bonding(n)(p.coordinate(n + 1)) == p.coordinate(n)

    def test_serialization(self):
        p = thread_from_letters(SYS, F(1, 2), "L", cycle="RL")
        assert p.as_dict() == {
            "stem": ["1/2"],
            "tail": {"kind": "periodic", "prefix": [0], "cycle": [1, 0]},
        }


class TestCoordinatesAgainstStepping:
    """Tent coordinates against v/2 and 1 - v/2 stepped by hand, levels 0-60."""

    LEVELS = 61

    @pytest.mark.parametrize(
        "x0, prefix, cycle",
        [
            (0, (), (0,)),
            (0, (1,), (0,)),
            (1, (), (0, 1)),
            (F(1, 2), (), (1,)),
            (F(1, 3), (0, 1), (1, 1, 0)),
            (F(2, 5), (), (0, 1)),
            (F(63, 64), (1, 0, 0), (0, 0, 1, 1)),
        ],
    )
    def test_periodic_tails(self, x0, prefix, cycle):
        expected = stepped_coordinates(tent_steps, x0, prefix, cycle, self.LEVELS)
        check_coordinates(lambda: thread_from_letters(SYS, x0, prefix, cycle), expected)

    def test_word_tails(self):
        rng = random.Random(6061)
        for x0 in (0, 1, F(1, 2), F(1, 3), F(5, 7), F(rng.randrange(1, 64), 64)):
            word = random_word(rng, tent_steps, x0, self.LEVELS - 1)
            expected = stepped_coordinates(tent_steps, x0, word, (), self.LEVELS)
            check_coordinates(lambda: thread_from_letters(SYS, x0, word), expected)

    def test_stem_levels_come_from_the_stem(self):
        x = ThreadPoint(SYS, (F(1, 2), F(3, 4), F(3, 8)), PeriodicTail((), (1,)))
        expected = [F(1, 2), F(3, 4), F(3, 8)]
        expected += stepped_coordinates(tent_steps, F(3, 8), (), (1,), self.LEVELS - 2)[1:]
        check_coordinates(lambda: x, expected)


class TestLevelComparison:
    def test_compare_level(self):
        x, y = alternating_pair()
        assert compare_level(x, y, 0) == "EQ"
        assert compare_level(x, y, 1) == "LT"
        assert compare_level(x, y, 2) == "GT"

    def test_trace(self):
        x, y = alternating_pair()
        trace = tuple(compare_level(x, y, n) for n in range(6))
        assert trace == ("EQ", "LT", "GT", "LT", "GT", "LT")


class TestSignCertificate:
    def test_matches_exact_coordinates_on_alternating_pair(self):
        x, y = alternating_pair()
        cert = sign_certificate(x, y)
        for n in range(30):
            assert cert.rel(n) == compare_level(x, y, n)

    def test_zero_versus_interior(self):
        z = zero_thread(SYS)
        p = thread_from_letters(SYS, F(1, 2), cycle="L")
        cert = sign_certificate(z, p)
        assert set(cert.cycle) == {"LT"}
        for n in range(20):
            assert cert.rel(n) == "LT"

    def test_equal_threads_with_different_stems(self):
        x = thread_from_letters(SYS, F(1, 2), cycle="L")
        y = ThreadPoint(SYS, (F(1, 2), F(1, 4)), PeriodicTail((), (0,)))
        cert = sign_certificate(x, y)
        assert set(cert.cycle) == {"EQ"}
        assert set(cert.history) == {"EQ"}

    def test_threads_through_a_shared_knot(self):
        """Threads from 0 whose cycles both open with letters 1, 0 step
        0 -> 1 -> 1/2 together: the machine's first step lands both on
        the same boundary knot, where the signs stay equal."""
        for cyc_x, cyc_y in [((1, 0, 1), (1, 0, 0)), ((1, 0), (1, 0, 0, 1))]:
            x = thread_from_letters(SYS, 0, (), cyc_x)
            y = thread_from_letters(SYS, 0, (), cyc_y)
            cert = sign_certificate(x, y)
            for n in range(30):
                assert cert.rel(n) == compare_level(x, y, n), (cyc_x, cyc_y, n)
        x = thread_from_letters(SYS, 0, (), (1, 0, 1))
        y = thread_from_letters(SYS, 0, (), (1, 0, 0))
        verdict = inverse_limit_order(x, y, None, 20)
        assert verdict.kind == ULTRAFILTER_DEPENDENT
        assert verdict.le_set == EventuallyPeriodicSet((True,), (True, True, False))

    def test_seeded_sweep_against_exact_coordinates(self):
        """Certificates and compare_level against signs of coordinates
        stepped by the tent's own formulas."""
        rng = random.Random(1712)
        for trial in range(120):
            def rand_spec():
                if rng.random() < 0.15:
                    return 0, (), (0,)
                x0 = F(rng.randrange(1, 16), 16)
                prefix = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 4)))
                cycle = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 5)))
                return x0, prefix, cycle

            specs = rand_spec(), rand_spec()
            x, y = (thread_from_letters(SYS, *spec) for spec in specs)
            cx, cy = (stepped_coordinates(tent_steps, *spec, 30) for spec in specs)
            signs = [sign(a, b) for a, b in zip(cx, cy)]
            cert = sign_certificate(x, y)
            for n in range(30):
                assert cert.rel(n) == signs[n], (trial, n)
                assert compare_level(x, y, n) == signs[n], (trial, n)

    def test_rejects_finite_word_tails(self):
        x = thread_from_letters(SYS, F(1, 2), "LR")
        y = zero_thread(SYS)
        assert sign_certificate(x, y) is None


class TestInverseLimitOrder:
    def test_identical_points_eq(self):
        p = thread_from_letters(SYS, F(1, 2), cycle="L")
        verdict = inverse_limit_order(p, p, U0, 10)
        assert verdict.kind == STABILIZED
        assert verdict.direction == EQ
        assert verdict.threshold == 0

    def test_extensionally_equal_points_eq(self):
        x = thread_from_letters(SYS, F(1, 2), cycle="L")
        y = ThreadPoint(SYS, (F(1, 2), F(1, 4)), PeriodicTail((), (0,)))
        verdict = inverse_limit_order(x, y, U0, 10)
        assert verdict.direction == EQ

    def test_zero_below_positive_thread(self):
        z = zero_thread(SYS)
        p = thread_from_letters(SYS, F(1, 2), cycle="L")
        verdict = inverse_limit_order(z, p, U0, 10)
        assert verdict.kind == STABILIZED
        assert (verdict.direction, verdict.threshold) == (LE, 0)
        reverse = inverse_limit_order(p, z, U0, 10)
        assert (reverse.direction, reverse.threshold) == (GE, 0)

    def test_threshold_reflects_divergence_level(self):
        x = ThreadPoint(SYS, (F(1, 2), F(1, 4), F(1, 8)), PeriodicTail((), (0,)))
        y = ThreadPoint(SYS, (F(1, 2), F(1, 4), F(7, 8)), PeriodicTail((), (0,)))
        verdict = inverse_limit_order(x, y, U0, 10)
        assert verdict.kind == STABILIZED
        assert (verdict.direction, verdict.threshold) == (LE, 2)

    def test_shallow_depth_yields_unknown(self):
        x = ThreadPoint(SYS, (F(1, 2), F(1, 4), F(1, 8)), PeriodicTail((), (0,)))
        y = ThreadPoint(SYS, (F(1, 2), F(1, 4), F(7, 8)), PeriodicTail((), (0,)))
        verdict = inverse_limit_order(x, y, U0, 1)
        assert verdict.kind == UNKNOWN
        assert verdict.depth == 1

    def test_alternating_pair_is_ultrafilter_dependent(self):
        x, y = alternating_pair()
        verdict = inverse_limit_order(x, y, U0, 16)
        assert verdict.kind == ULTRAFILTER_DEPENDENT
        assert verdict.le_set == EventuallyPeriodicSet((True,), (True, False))
        assert verdict.direction == GE
        opposite = inverse_limit_order(x, y, U1, 16)
        assert opposite.direction == LE
        assert not verdict.tower_extended

    def test_word_tails_stay_unknown(self):
        x = thread_from_letters(SYS, F(1, 2), "LRLR")
        y = thread_from_letters(SYS, F(1, 3), "RLRL")
        verdict = inverse_limit_order(x, y, U0, 4)
        assert verdict.kind == UNKNOWN

    def test_depth_beyond_word_errors(self):
        x = thread_from_letters(SYS, F(1, 2), "LR")
        y = zero_thread(SYS)
        with pytest.raises(DepthExceededError):
            inverse_limit_order(x, y, U0, 5)


class TestMetricBounds:
    def test_fiber_diameter_bound_values(self):
        assert fiber_diameter_bound(SYS, 0) == 1
        assert fiber_diameter_bound(SYS, 3) == F(1, 8)

    def test_fiber_bound_holds_for_sampled_fiber_pairs(self):
        # Points sharing coordinate n: distance head+tail stays under 2^-n.
        for n in (1, 3, 5):
            x = thread_from_letters(SYS, F(1, 2), cycle="L")
            stem = tuple(x.coordinate(i) for i in range(n + 1))
            y = ThreadPoint(SYS, stem, PeriodicTail((), (1,)))
            lo, hi = distance_bounds(x, y, n + 20)
            assert x.coordinate(n) == y.coordinate(n)
            assert hi <= fiber_diameter_bound(SYS, n) + F(1, 2 ** (n + 20))

    def test_modulus_trivial_case(self):
        assert epsilon_map_modulus(SYS, 0, 2) == 1

    def test_modulus_rejects_small_eps(self):
        with pytest.raises(ValueError, match="fiber diameter"):
            epsilon_map_modulus(SYS, 3, F(1, 8))

    def test_modulus_exact_value_depth_three(self):
        # Weighted Lipschitz sum for tent at n=3: 8 + 2 + 1/2 + 1/8 = 85/8.
        assert epsilon_map_modulus(SYS, 3, F(1, 4)) == F(1, 85)

    def test_modulus_contract_on_sampled_pairs(self):
        rng = random.Random(90125)
        sys = SYS
        f = sys.bonding(0)
        for _ in range(200):
            n = rng.randrange(0, 7)
            eps = F(1, 2**n) + F(rng.randrange(1, 40), 64)
            delta = epsilon_map_modulus(sys, n, eps)
            u = F(rng.randrange(0, 257), 256)
            span = delta * F(rng.randrange(1, 100), 101)  # strictly below delta
            v = u + span if u + span <= 1 else u - span
            def descend(top):
                stem = [top]
                for _ in range(n):
                    stem.append(f(stem[-1]))
                return ThreadPoint(sys, tuple(reversed(stem)), WordTail(()))
            x, y = descend(u), descend(v)
            assert abs(x.coordinate(n) - y.coordinate(n)) < delta
            _, upper = distance_bounds(x, y, n)
            assert upper < eps
