"""Chain levels, the canonical interval chain, and pullback comparisons."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainorder import chains
from chainorder.catalog import CatalogPoint, ChainFamily, SineChainFamily, arc_family
from chainorder.chains import (
    BOTH,
    GE_ONLY,
    LE_ONLY,
    ChainLevel,
    IntervalChain,
    NeverBetweenReport,
    PullbackSequence,
    chain_order_compare,
    chain_trace,
    equal_or_opposite,
    never_between_after,
)
from chainorder.foundations import (
    EQ,
    GE,
    LE,
    STABILIZED,
    ULTRAFILTER_DEPENDENT,
    UNKNOWN,
    EventuallyPeriodicSet,
)
from chainorder.inverse_limit import (
    InverseSystem,
    PeriodicTail,
    ThreadPoint,
    epsilon_map_modulus,
    inverse_limit_order,
    inverse_limit_orders,
    sign_certificate,
    tent_system,
    thread_from_letters,
)
from chainorder.plmaps import PLMap, tent
from chainorder.ultrafilter import SimulatedUltrafilter
from test_inverse_limit import (
    check_coordinates,
    random_word,
    stepped_coordinates,
    tent_steps,
    zero_thread,
)


def u_mod2(residue: int) -> SimulatedUltrafilter:
    return SimulatedUltrafilter((1, 2), (0, residue))


def raw_link(chain: IntervalChain, i: int) -> tuple[Fraction, Fraction]:
    """Link i of ``chain`` as the open interval ((i-1)/k - 1/(4k), i/k + 1/(4k))."""
    return Fraction(4 * i - 5, 4 * chain.k), Fraction(4 * i + 1, 4 * chain.k)


def cut_link(chain: IntervalChain, i: int) -> tuple[Fraction, Fraction]:
    """Link i of ``chain`` cut to [0,1]."""
    lo, hi = raw_link(chain, i)
    return max(lo, Fraction(0)), min(hi, Fraction(1))


def contains(chain: IntervalChain, i: int, t) -> bool:
    """Definitional oracle for ``bounds``: t lies in the open raw link i."""
    lo, hi = raw_link(chain, i)
    return lo < Fraction(t) < hi


def chain_index(chain: IntervalChain, t) -> tuple[int, int]:
    """The links holding t as (lo, hi), placed by ``bounds`` and read
    through a level's ``index_of``, which holds the pair to the contract."""
    level = ChainLevel(1, chain.k, chain.mesh, lambda s: chain.bounds(s.numerator, s.denominator))
    return level.index_of(Fraction(t))


def links(pair: tuple[int, int]) -> set[int]:
    lo, hi = pair
    return set(range(lo, hi + 1))


def pair_relation(pair_x: tuple[int, int], pair_y: tuple[int, int]) -> str:
    """The relation a level computes for two points it places at these pairs."""
    placed = {"x": pair_x, "y": pair_y}
    level = ChainLevel(1, max(pair_x[1], pair_y[1]), Fraction(1), placed.__getitem__)
    return level.relation("x", "y")


class TestCanonicalChain:
    def test_links_frozen_for_k4(self):
        # IntervalChain(4)'s links are the arc's windows at level 2.
        windows = {w.link: (w.lo, w.hi) for w in arc_family("standard").link_windows(2)}
        assert windows[2] == (Fraction(3, 16), Fraction(9, 16))
        assert windows[1] == (Fraction(0), Fraction(5, 16))
        assert windows[4] == (Fraction(11, 16), Fraction(1))
        assert IntervalChain(4).mesh == Fraction(3, 8)

    def test_midpoint_lands_in_two_links(self):
        chain = IntervalChain(4)
        assert chain_index(chain, Fraction(1, 2)) == (2, 3)

    def test_endpoints_land_in_one_link(self):
        chain = IntervalChain(4)
        assert chain_index(chain, 0) == (1, 1)
        assert chain_index(chain, 1) == (4, 4)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            IntervalChain(0)
        with pytest.raises(ValueError):
            chain_index(IntervalChain(3), Fraction(3, 2))

    @pytest.mark.parametrize("k", list(range(1, 65)))
    def test_is_a_chain(self, k):
        chain = IntervalChain(k)
        links = [cut_link(chain, i) for i in range(1, k + 1)]
        for i in range(k):
            lo, hi = links[i]
            assert lo < hi
            assert hi - lo <= chain.mesh
            if i + 1 < k:
                # Consecutive links overlap on an open interval.
                assert links[i][1] > links[i + 1][0]
            for j in range(i + 2, k):
                assert links[i][1] <= links[j][0]

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_index_matches_membership_on_grid(self, k):
        chain = IntervalChain(k)
        for num in range(8 * k + 1):
            t = Fraction(num, 8 * k)
            direct = {i for i in range(1, k + 1) if contains(chain, i, t)}
            assert direct == links(chain_index(chain, t))

    @given(
        k=st.integers(min_value=1, max_value=40),
        num=st.integers(min_value=0, max_value=10**6),
        den=st.integers(min_value=1, max_value=10**6),
    )
    def test_index_matches_membership_random(self, k, num, den):
        t = Fraction(min(num, den), den)
        chain = IntervalChain(k)
        direct = {i for i in range(1, k + 1) if contains(chain, i, t)}
        assert direct == links(chain_index(chain, t))

    @pytest.mark.parametrize("variant", ["standard", "reversed"])
    def test_arc_levels_walk_the_canonical_chain(self, variant):
        """Level n of the arc is IntervalChain(2^n), the pullback's base
        chain, renumbered k + 1 - i on the reversed arc: at every j/(8k) its
        index_of is ``bounds``, and its windows are the links cut to [0,1]."""
        family = arc_family(variant)
        for n in range(1, 13):
            chain, level = IntervalChain(2**n), family.level(n)
            k = chain.k
            for j in range(8 * k + 1):
                lo, hi = chain.bounds(j, 8 * k)
                expected = (k + 1 - hi, k + 1 - lo) if variant == "reversed" else (lo, hi)
                assert level.index_of(Fraction(j, 8 * k)) == expected, (n, j)
            windows = [
                (k + 1 - i if variant == "reversed" else i, lo, hi, lo == 0, hi == 1)
                for i in range(1, k + 1)
                for lo, hi in [cut_link(chain, i)]
            ]
            listed = family.link_windows(n)
            assert [(w.link, w.lo, w.hi, w.lo_closed, w.hi_closed) for w in listed] == windows
        for outside in (Fraction(3, 2), Fraction(-1, 100)):
            for point in (outside, CatalogPoint("segment", outside)):
                with pytest.raises(ValueError, match=r"^point outside \[0,1\]"):
                    family.level(3).index_of(point)


def fraction_index_of(chain: IntervalChain, t) -> tuple[int, int]:
    """The Fraction formula the integer bounds replaced, as its oracle."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"point outside [0,1]: {t}")
    a = (4 * chain.k * t - 1) / 4
    b = (4 * chain.k * t + 5) / 4
    lo = a.numerator // a.denominator + 1
    hi = -((-b.numerator) // b.denominator) - 1
    return max(lo, 1), min(hi, chain.k)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestIntegerIndexAgainstFractions:
    @given(st.integers(min_value=1, max_value=64), st.data())
    def test_index_of(self, k, data):
        chain = IntervalChain(k)
        ends = [end for i in range(1, k + 1) for end in raw_link(chain, i)]
        t = data.draw(
            st.one_of(
                st.sampled_from([0, 1, Fraction(0), Fraction(1)] + ends),
                st.fractions(min_value=0, max_value=1),
                st.fractions(min_value=-1, max_value=2, max_denominator=8 * k),
            )
        )
        assert outcome(chain_index, chain, t) == outcome(fraction_index_of, chain, t)

    @pytest.mark.parametrize("k", [1, 2, 3, 24, 1000])
    def test_every_link_end(self, k):
        chain = IntervalChain(k)
        for i in range(1, k + 1):
            for end in raw_link(chain, i) + cut_link(chain, i):
                assert outcome(chain_index, chain, end) == outcome(
                    fraction_index_of, chain, end
                )


class TestLevelPreorder:
    def test_disjoint_ranges_are_strict(self):
        assert pair_relation((1, 2), (3, 3)) == LE_ONLY
        assert pair_relation((5, 5), (2, 3)) == GE_ONLY

    def test_overlap_allows_both(self):
        assert pair_relation((2, 3), (3, 4)) == BOTH
        assert pair_relation((4, 4), (4, 4)) == BOTH

    def test_reversal_flips_strict_relations(self):
        flip = {LE_ONLY: GE_ONLY, GE_ONLY: LE_ONLY, BOTH: BOTH}
        chain = IntervalChain(6)
        grid = [Fraction(n, 24) for n in range(25)]
        for t, s in itertools.product(grid, repeat=2):
            rx, ry = chain_index(chain, t), chain_index(chain, s)
            rel = pair_relation(rx, ry)
            # Links lo..hi of the reverse chain d'_i = d_{7-i}.
            reversed_rel = pair_relation((7 - rx[1], 7 - rx[0]), (7 - ry[1], 7 - ry[0]))
            assert reversed_rel == flip[rel]

    def test_points_are_placed_once_per_level_read(self, monkeypatch):
        """A comparison plus its trace places each point at most once per
        level it reads.  The family's memo keys catalog points by value, so
        the mirrored query on new, equal points places nothing.  A pullback
        sequence keeps no memo across calls, but places each thread at most
        once per level within a comparison or trace."""
        placed = []
        index = ChainFamily._index

        def counting(family, plan, point):
            placed.append((point.strand, point.param, plan.size))
            return index(family, plan, point)

        monkeypatch.setattr(ChainFamily, "_index", counting)
        family = SineChainFamily("D")
        for n in range(1, 21):
            family.level(n)
        placed.clear()  # building a plan places two points of its own
        x, y = ("wave", Fraction(9, 2)), ("bar", Fraction(1, 2))
        verdict = chain_order_compare(family, CatalogPoint(*x), CatalogPoint(*y), None, 20)
        chain_trace(family, CatalogPoint(*x), CatalogPoint(*y), 8)
        assert verdict.kind == STABILIZED
        sizes = [family.level(n).plan.size for n in range(1, 21)]
        assert sorted(placed) == sorted({(*p, size) for p in (x, y) for size in sizes})
        placed.clear()
        mirror = chain_order_compare(family, CatalogPoint(*y), CatalogPoint(*x), None, 20)
        chain_trace(family, CatalogPoint(*y), CatalogPoint(*x), 8)
        assert placed == []
        assert {verdict.direction, mirror.direction} == {LE, GE}

        sys = tent_system()
        seq = PullbackSequence(sys)
        threads = zero_thread(sys), thread_from_letters(sys, Fraction(1, 2), cycle="L")
        threaded = []
        index_of = ChainLevel.index_of

        def counting_threads(level, point):
            threaded.append((threads.index(point), level.level))
            return index_of(level, point)

        monkeypatch.setattr(ChainLevel, "index_of", counting_threads)
        chain_order_compare(seq, *threads, None, 12)
        assert threaded and len(threaded) == len(set(threaded))
        threaded.clear()
        chain_trace(seq, *threads, 8)
        assert sorted(threaded) == [(i, n) for i in (0, 1) for n in range(1, 9)]

    def test_rows_that_place_nothing_still_count(self):
        """A comparison refused at its first placement leaves the other
        point's row empty; rows count toward the bound, so they cannot
        pile up in a long-lived process."""
        family = SineChainFamily("D")
        for k in range(3000):
            with pytest.raises(ValueError, match="unknown point"):
                chain_order_compare(family, CatalogPoint("bar", 0), CatalogPoint("nope", k), None, 4)
        memo = family._links
        assert len(memo._rows) < memo.size <= chains._LINK_PAIRS


class TestLinkPairs:
    """Levels place points as plain (lo, hi) pairs, and every relation
    and trace reads them through ``index_of``, which holds them to the
    chain contract: one link or two consecutive ones."""

    def test_level_preorder_follows_its_definition(self):
        # x may come before y when some link of x is at or before some link of y.
        pairs = [(lo, hi) for lo in range(1, 6) for hi in (lo, lo + 1)]
        for rx, ry in itertools.product(pairs, repeat=2):
            le = any(i <= j for i in links(rx) for j in links(ry))
            ge = any(j <= i for i in links(rx) for j in links(ry))
            assert le or ge
            assert pair_relation(rx, ry) == (BOTH if le and ge else LE_ONLY if le else GE_ONLY)

    @pytest.mark.parametrize("bad", [(3, 5), (0, 1), (2, 1), (2, 4)])
    def test_broken_pairs_raise_the_index_range_error(self, bad):
        message = f"not one or two consecutive links: [{bad[0]}, {bad[1]}]"
        good, broken = Fraction(1, 2), Fraction(1, 3)
        level = ChainLevel(1, 8, Fraction(1), lambda t: bad if t == broken else (2, 3))

        class OneLevel:
            def level(self, n):
                return level

        calls = [
            lambda: level.relation(broken, good),
            lambda: level.relation(good, broken),
            lambda: chain_trace(OneLevel(), broken, good, 1),
            lambda: chain_trace(OneLevel(), good, broken, 1),
            lambda: level.index_of(broken),
            lambda: never_between_after(OneLevel(), good, Fraction(1, 4), broken, 2, 1),
            lambda: never_between_after(OneLevel(), broken, good, Fraction(1, 4), 2, 1),
        ]
        # Twice over: a refused pair is never kept in a memo.
        for call in calls * 2:
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message
        assert level.index_of(good) == (2, 3) and type(level.index_of(good)) is tuple


class TestPullbackChain:
    def test_mesh_budget_enforced(self):
        """Each level pulls back the coarsest canonical chain whose mesh
        fits under the continuity modulus for the level's budget."""
        sys = tent_system()
        seq = PullbackSequence(sys)
        for n in range(1, 10):
            lvl = seq.level(n)
            delta = epsilon_map_modulus(sys, n, lvl.mesh_bound)
            assert IntervalChain(lvl.size).mesh < delta <= IntervalChain(lvl.size - 1).mesh
        assert seq.level(1).mesh_bound == Fraction(3, 2)
        assert IntervalChain(seq.level(1).size).mesh == Fraction(3, 8)

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError, match="start at 1"):
            PullbackSequence(tent_system()).level(0)

    def test_sequence_levels_frozen(self):
        seq = PullbackSequence(tent_system())
        lvl1 = seq.level(1)
        assert (lvl1.size, lvl1.mesh_bound) == (4, Fraction(3, 2))
        lvl2 = seq.level(2)
        assert (lvl2.size, lvl2.mesh_bound) == (16, Fraction(3, 4))
        # The approximation budget at level n is fiber bound + 1/n.
        for n in range(1, 10):
            lvl = seq.level(n)
            assert lvl.mesh_bound == Fraction(1, 2**n) + Fraction(1, n)
            assert IntervalChain(lvl.size).mesh == Fraction(3, 2 * lvl.size)

    def test_index_of_uses_coordinates(self):
        seq = PullbackSequence(tent_system())
        half = thread_from_letters(tent_system(), Fraction(1, 2), cycle="L")
        level = seq.level(1)
        assert level.index_fn(half) == (1, 2)
        assert level.index_of(half) == chain_index(IntervalChain(level.size), half.coordinate(1))
        assert seq.level(1).index_of(zero_thread(tent_system())) == (1, 1)


def alternating_pair():
    """Coordinates 1/2, 1/4, 7/8, 7/16, ... against 1/2, 3/4, 3/8, 13/16, ...
    so the sign alternates: x trails at odd levels, leads at even ones."""
    sys = tent_system()
    x = thread_from_letters(sys, Fraction(1, 2), (0, 1), cycle=(0, 1))
    y = thread_from_letters(sys, Fraction(1, 2), (1, 0), cycle=(1, 0))
    return x, y


class TestChainOrderCompare:
    def test_equal_points(self):
        seq = PullbackSequence(tent_system())
        z = zero_thread(tent_system())
        verdict = chain_order_compare(seq, z, z, u_mod2(0), 10)
        assert verdict.kind == STABILIZED
        assert verdict.direction == EQ

    def test_zero_below_half_thread(self):
        sys = tent_system()
        seq = PullbackSequence(sys)
        z = zero_thread(sys)
        half = thread_from_letters(sys, Fraction(1, 2), cycle="L")
        verdict = chain_order_compare(seq, z, half, u_mod2(0), 10)
        assert verdict.kind == STABILIZED
        assert verdict.direction == LE
        assert verdict.threshold == 2
        assert seq.level(1).relation(z, half) == BOTH
        assert seq.level(2).relation(z, half) == LE_ONLY
        reverse = chain_order_compare(seq, half, z, u_mod2(0), 10)
        assert (reverse.kind, reverse.direction, reverse.threshold) == (
            STABILIZED,
            GE,
            2,
        )

    def test_threshold_beyond_depth_is_unknown(self):
        sys = tent_system()
        seq = PullbackSequence(sys)
        z = zero_thread(sys)
        half = thread_from_letters(sys, Fraction(1, 2), cycle="L")
        verdict = chain_order_compare(seq, z, half, u_mod2(0), 1)
        assert verdict.kind == UNKNOWN

    def test_alternating_pair_depends_on_ultrafilter(self):
        seq = PullbackSequence(tent_system())
        x, y = alternating_pair()
        low = chain_order_compare(seq, x, y, u_mod2(0), 12)
        high = chain_order_compare(seq, x, y, u_mod2(1), 12)
        assert low.kind == high.kind == ULTRAFILTER_DEPENDENT
        assert (low.direction, high.direction) == (GE, LE)
        # x leads at odd chain levels, trails at even ones.
        bits = low.le_set.bits(6)
        assert bits == (False, True, False, True, False, True)

    def test_word_tails_stay_unknown(self):
        sys = tent_system()
        seq = PullbackSequence(sys)
        a = thread_from_letters(sys, Fraction(1, 2), "LRL")
        b = thread_from_letters(sys, Fraction(1, 2), "RLL")
        verdict = chain_order_compare(seq, a, b, u_mod2(0), 3)
        assert verdict.kind == UNKNOWN

    def test_agrees_with_coordinate_sign_route(self):
        """Seeded pairs: the chain pullback and the direct coordinate
        comparison must reach the same verdict and direction."""
        sys = tent_system()
        seq = PullbackSequence(sys)
        rng = random.Random(20260815)
        pool = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 3)]
        for _ in range(40):
            x0 = rng.choice(pool)
            y0 = rng.choice(pool)
            x = thread_from_letters(
                sys,
                x0,
                tuple(rng.randrange(2) for _ in range(rng.randrange(3))),
                cycle=tuple(rng.randrange(2) for _ in range(rng.randrange(1, 3))),
            )
            y = thread_from_letters(
                sys,
                y0,
                tuple(rng.randrange(2) for _ in range(rng.randrange(3))),
                cycle=tuple(rng.randrange(2) for _ in range(rng.randrange(1, 3))),
            )
            u = u_mod2(rng.randrange(2))
            via_chain = chain_order_compare(seq, x, y, u, 30)
            direct = inverse_limit_order(x, y, u, 30)
            assert via_chain.kind == direct.kind
            assert via_chain.direction == direct.direction
            if via_chain.kind == STABILIZED:
                # The threshold is the first level of the final run.
                target = {LE: LE_ONLY, GE: GE_ONLY, EQ: BOTH}[via_chain.direction]
                t = via_chain.threshold
                for n in range(t, t + 9):
                    assert seq.level(n).relation(x, y) == target
                if t > 1:
                    assert seq.level(t - 1).relation(x, y) != target

    def test_late_flip_threshold(self):
        """Signs that settle on GT after an LT run: the threshold is the
        first level of the GT run, not the gap-dominance level."""
        sys = tent_system()
        seq = PullbackSequence(sys)
        x = thread_from_letters(sys, Fraction(1, 4), (0, 0, 0), cycle=(1,))
        y = thread_from_letters(sys, Fraction(13, 16), (1, 1, 1, 1), cycle=(0,))
        assert [seq.level(n).relation(x, y) for n in (1, 2, 3, 4)] == [LE_ONLY] * 3 + [GE_ONLY]
        verdict = chain_order_compare(seq, x, y, u_mod2(0), 20)
        assert (verdict.kind, verdict.direction, verdict.threshold) == (STABILIZED, GE, 4)

    def test_mixed_cycle_without_ultrafilter(self):
        """Both routes report the exact le_set and no direction."""
        sys = tent_system()
        x = thread_from_letters(sys, Fraction(1, 4), cycle=(1,))
        y = thread_from_letters(sys, Fraction(3, 4), cycle=(1,))
        via_chain = chain_order_compare(PullbackSequence(sys), x, y, None, 20)
        direct = inverse_limit_order(x, y, None, 20)
        assert via_chain.kind == direct.kind == ULTRAFILTER_DEPENDENT
        assert via_chain.direction is direct.direction is None
        assert not via_chain.tower_extended and not direct.tower_extended
        # Coordinates compare LT at even levels; chain levels start at 1.
        assert direct.le_set == EventuallyPeriodicSet.evens()
        assert via_chain.le_set == EventuallyPeriodicSet((False,), (False, True))

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_spot_check_catches_a_moved_threshold(self, monkeypatch, shift):
        """A stabilized threshold one level early or late contradicts the
        levels computed around it, and the comparison refuses it.  Catalog
        records count levels only from their threshold on, so there only
        a threshold one level late is caught: the walk scan of S1 and the
        arc's interval gap both settle at level 1."""
        sys = tent_system()
        x = thread_from_letters(sys, Fraction(1, 4), (0, 0, 0), cycle=(1,))
        y = thread_from_letters(sys, Fraction(13, 16), (1, 1, 1, 1), cycle=(0,))
        honest = chains.sign_verdict

        def moved(*args, **kwargs):
            verdict = honest(*args, **kwargs)
            return dataclasses.replace(verdict, threshold=verdict.threshold + shift)

        monkeypatch.setattr(chains, "sign_verdict", moved)
        with pytest.raises(AssertionError, match="certificate claims ge from"):
            chain_order_compare(PullbackSequence(sys), x, y, u_mod2(0), 20)
        if shift == 1:
            wave, bar = CatalogPoint("wave", 4), CatalogPoint("bar", Fraction(1, 2))
            catalog_pairs = [
                (SineChainFamily("D"), wave, bar),
                (arc_family("standard"), Fraction(1, 4), Fraction(3, 4)),
            ]
            for family, p, q in catalog_pairs:
                with pytest.raises(
                    AssertionError, match="claims le from 2, but level 1 computes le_only"
                ):
                    chain_order_compare(family, p, q, None, 20)

    def test_spot_check_probes_stay_shallow(self):
        """Seeded tent pairs compared at depth 4096: every verdict passes
        its spot check, and no level past one period beyond the certified
        settling level is ever built."""
        sys = tent_system()
        rng = random.Random(61)

        def spec():
            bits = rng.randint(1, 6)
            x0 = Fraction(rng.randrange(1, 2**bits), 2**bits)
            prefix = tuple(rng.randrange(2) for _ in range(rng.randint(0, 5)))
            cycle = tuple(rng.randrange(2) for _ in range(rng.randint(1, 4)))
            return ThreadPoint(sys, (x0,), PeriodicTail(prefix, cycle))

        stabilized = 0
        for _ in range(400):
            seq = PullbackSequence(sys)
            x, y = spec(), spec()
            verdict = chain_order_compare(seq, x, y, u_mod2(rng.randrange(2)), 4096)
            if verdict.kind != STABILIZED:
                continue
            stabilized += 1
            meta = verdict.certificate or {}
            sign = meta.get("sign", meta)
            settled = max(meta.get("gap_dominance_level", 1), sign.get("cycle_start", 1))
            bound = max(verdict.threshold + 3, settled + len(sign.get("cycle", ())))
            assert max(seq._levels) <= bound < 64
        assert stabilized > 150

    def test_both_inverse_limit_routes_are_pinned(self):
        """The coordinate route and the pullback route under three towers,
        with their certificates, on 200 seeded tent pairs plus an
        equal-tails pair and a pair that steps through a shared knot."""
        tent, rng = tent_system(), random.Random(2024)
        half = Fraction(1, 2)
        pairs = [(random_tent_thread(rng), random_tent_thread(rng)) for _ in range(200)] + [
            (
                thread_from_letters(tent, half, cycle="L"),
                ThreadPoint(tent, (half, half / 2), PeriodicTail((), (0,))),
            ),
            (
                thread_from_letters(tent, 0, (), (1, 0, 1)),
                thread_from_letters(tent, 0, (), (1, 0, 0)),
            ),
        ]
        towers = (
            SimulatedUltrafilter.binary_tower((0,)),
            SimulatedUltrafilter.binary_tower((1,)),
            None,
        )
        records = [
            [
                [v.as_dict() for v in inverse_limit_orders(x, y, towers, 64)],
                [
                    chain_order_compare(PullbackSequence(tent), x, y, u, 64).as_dict()
                    for u in towers
                ],
            ]
            for x, y in pairs
        ]
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16] == "61dd0baa1a23a580"

    def test_trace_reports_relations(self):
        sys = tent_system()
        seq = PullbackSequence(sys)
        z = zero_thread(sys)
        half = thread_from_letters(sys, Fraction(1, 2), cycle="L")
        trace = chain_trace(seq, z, half, 3)
        assert [entry["level"] for entry in trace] == [1, 2, 3]
        assert trace[0]["relation"] == BOTH
        assert trace[1]["relation"] == LE_ONLY
        assert trace[0]["k"] == 4
        assert set(trace[0]) == {"level", "k", "mesh", "idx_x", "idx_y", "relation"}


ZIGZAG = PLMap(
    (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)),
    (Fraction(0), Fraction(1), Fraction(0), Fraction(1)),
)


# Its second lap covers only [1/2, 1].
HALF_LAP = PLMap(
    (Fraction(0), Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(1), Fraction(1, 2))
)

# Flat at 1/2 on [1/4, 3/4]: no full laps, and that level set is a segment.
PLATEAU = PLMap(
    (Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)),
    (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1)),
)


def zigzag_preimages(v: Fraction) -> tuple[Fraction, ...]:
    """The zigzag's branches v/3, (2-v)/3 and (2+v)/3, merged and sorted."""
    return tuple(sorted({v / 3, (2 - v) / 3, (2 + v) / 3}))


def zigzag_coordinates(x0, prefix, cycle, count) -> list[Fraction]:
    coords = [Fraction(x0)]
    for j in range(count - 1):
        letter = prefix[j] if j < len(prefix) else cycle[(j - len(prefix)) % len(cycle)]
        coords.append(zigzag_preimages(coords[-1])[letter])
    return coords


def expected_verdict(signs: list[str], first: int, depth: int):
    """(kind, direction, threshold, le bits) read off a window of signs
    that ends well inside their periodic part."""
    tail = set(signs[len(signs) // 2 :])
    if tail == {"EQ"}:
        return STABILIZED, EQ, first, None
    if tail in ({"LT"}, {"GT"}):
        (target,) = tail
        t = len(signs)
        while t > first and signs[t - 1] == target:
            t -= 1
        if t > depth:
            return UNKNOWN, None, None, None
        return STABILIZED, LE if target == "LT" else GE, t, None
    bits = tuple(n >= first and s != "GT" for n, s in enumerate(signs))
    return ULTRAFILTER_DEPENDENT, None, None, bits


def random_tent_thread(rng: random.Random) -> ThreadPoint:
    """A thread drawn like the benchmark's tent pairs: a dyadic start of at
    most six bits, a prefix of 0-5 letters and a cycle of 1-4."""
    bits = rng.randint(1, 6)
    x0 = Fraction(rng.randrange(1, 2**bits), 2**bits)
    prefix = tuple(rng.randrange(2) for _ in range(rng.randint(0, 5)))
    cycle = tuple(rng.randrange(2) for _ in range(rng.randint(1, 4)))
    return ThreadPoint(tent_system(), (x0,), PeriodicTail(prefix, cycle))


def fraction_gap_dominance_level(system, x, y, history) -> int:
    """Oracle: the gap-dominance search with lam and the gap as Fractions."""
    T = max([1] + [n + 1 for n, rel in enumerate(history) if rel == "EQ"])
    lam = Fraction(1)
    for j in range(T):
        lam *= system.bonding(j).lipschitz()
    while abs(x.coordinate(T) - y.coordinate(T)) * lam < Fraction(1, T):
        lam *= system.bonding(T).lipschitz()
        T += 1
    return T


TOWERS = (
    SimulatedUltrafilter.parse("r2=1,r4=3"),
    SimulatedUltrafilter.binary_tower((0, 1, 1)),
    SimulatedUltrafilter.factorial_tower((1, 2)),
)


@pytest.fixture(scope="module")
def tent_pair_verdicts():
    """(x, y, inverse-limit verdict, pullback verdict) for 2,000 seeded
    pairs at depth 128, each compared without and with a tower."""
    rng = random.Random(14)
    seq = PullbackSequence(tent_system())
    records = []
    for k in range(2000):
        x, y = random_tent_thread(rng), random_tent_thread(rng)
        for u in (None, TOWERS[k % len(TOWERS)]):
            records.append(
                (
                    x,
                    y,
                    inverse_limit_order(x, y, u, 128).as_dict(),
                    chain_order_compare(seq, x, y, u, 128).as_dict(),
                )
            )
    return records


# SHA-256 of the JSON of every verdict in `tent_pair_verdicts`, recorded
# from the implementation that computed thread checks, band tests and
# gap dominance on Fraction objects.
TENT_PAIR_DIGEST = "a476ab776a039599b30c2ebbd9ca95e6fdb33221e4eb8fa4bc509553b0df0919"


class TestIntegerArithmeticAgainstFractions:
    def test_gap_dominance_level_matches_the_fraction_search(self, tent_pair_verdicts):
        checked = 0
        for x, y, _, verdict in tent_pair_verdicts:
            certificate = verdict.get("certificate") or {}
            if "gap_dominance_level" in certificate:
                history = certificate["sign"]["history"]
                expected = fraction_gap_dominance_level(tent_system(), x, y, history)
                assert certificate["gap_dominance_level"] == expected
                checked += 1
        assert checked > 3000

    def test_verdicts_and_certificates_on_both_routes_are_unchanged(self, tent_pair_verdicts):
        verdicts = [[il, pb] for _, _, il, pb in tent_pair_verdicts]
        kinds = {v["kind"] for pair in verdicts for v in pair}
        assert kinds == {STABILIZED, ULTRAFILTER_DEPENDENT}
        text = json.dumps(verdicts, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == TENT_PAIR_DIGEST


class TestNonTentSystem:
    """The three-lap zigzag as a constant system: both comparison routes
    must match coordinate signs expanded from the zigzag's own formulas,
    so nothing in the sign machine or gap dominance may assume the tent."""

    WINDOW = 90
    DEPTH = 40

    def spec(self, rng):
        if rng.random() < 0.25:
            # Starts at 0 or 1 walk through the boundary preimages.
            return rng.choice([(0, (), (0,)), (0, (), (1,)), (1, (), (1,)), (1, (0,), (2,))])
        x0 = Fraction(rng.choice(["1/2", "1/4", "3/4", "1/3", "2/5"]))
        prefix = tuple(rng.randrange(3) for _ in range(rng.randrange(4)))
        return x0, prefix, tuple(rng.randrange(3) for _ in range(rng.randrange(1, 4)))

    def test_both_routes_follow_expanded_signs(self):
        system = InverseSystem("zigzag", True, lambda n: ZIGZAG)
        seq = PullbackSequence(system)
        towers = [None, u_mod2(0), u_mod2(1), SimulatedUltrafilter.parse("r3=1")]
        rng = random.Random(20261018)
        kinds = set()
        for _ in range(60):
            specs = [self.spec(rng), self.spec(rng)]
            x, y = (thread_from_letters(system, *spec) for spec in specs)
            cx, cy = (zigzag_coordinates(*spec, self.WINDOW) for spec in specs)
            assert [x.coordinate(n) for n in range(self.WINDOW)] == cx
            signs = ["EQ" if a == b else ("LT" if a < b else "GT") for a, b in zip(cx, cy)]
            # Chain relations at pullback levels, placed from the expanded
            # coordinates; level 0 is no chain level and never counts.
            chain_signs = ["GT"]
            for n in range(1, self.WINDOW):
                chain = IntervalChain(seq.level(n).size)
                relation = pair_relation(chain_index(chain, cx[n]), chain_index(chain, cy[n]))
                chain_signs.append({LE_ONLY: "LT", GE_ONLY: "GT", BOTH: "EQ"}[relation])
            u = rng.choice(towers)
            for verdict, route_signs, first in (
                (inverse_limit_order(x, y, u, self.DEPTH), signs, 0),
                (chain_order_compare(seq, x, y, u, self.DEPTH), chain_signs, 1),
            ):
                kind, direction, threshold, bits = expected_verdict(route_signs, first, self.DEPTH)
                kinds.add(kind)
                assert verdict.kind == kind
                if kind == ULTRAFILTER_DEPENDENT:
                    assert verdict.le_set.bits(self.WINDOW) == bits
                    if u is None:
                        assert verdict.direction is None
                    else:
                        assert verdict.direction == (LE if u.decides(verdict.le_set) else GE)
                else:
                    assert (verdict.direction, verdict.threshold) == (direction, threshold)
        assert kinds == {STABILIZED, ULTRAFILTER_DEPENDENT}

    def test_coordinates_follow_the_bonding_formulas(self):
        """Zigzag and tent/zigzag threads against their maps' own preimage
        formulas at levels 0-60, for periodic and word tails."""
        levels = 61
        zigzag = InverseSystem("zigzag", True, lambda n: ZIGZAG)
        rng = random.Random(6160)
        for _ in range(10):
            spec = self.spec(rng)
            expected = zigzag_coordinates(*spec, levels)
            check_coordinates(lambda: thread_from_letters(zigzag, *spec), expected)
        for x0 in (0, 1, Fraction(1, 2), Fraction(2, 5)):
            word = random_word(rng, lambda n, v: zigzag_preimages(v), x0, levels - 1)
            expected = zigzag_coordinates(x0, word, (0,), levels)
            check_coordinates(lambda: thread_from_letters(zigzag, x0, word), expected)

        mixed = InverseSystem("tent-zigzag", False, lambda n: ZIGZAG if n % 2 else tent())

        def steps(n, v):
            return zigzag_preimages(v) if n % 2 else tent_steps(n, v)

        # Interior values keep two tent and three zigzag preimages.
        for x0, prefix, cycle in [
            (Fraction(1, 2), (), (0, 2)),
            (Fraction(1, 3), (1, 1), (1, 0, 0, 2)),
            (Fraction(5, 7), (0,), (1,)),
        ]:
            expected = stepped_coordinates(steps, x0, prefix, cycle, levels)
            check_coordinates(lambda: thread_from_letters(mixed, x0, prefix, cycle), expected)
        for x0 in (0, 1, Fraction(3, 4)):
            word = random_word(rng, steps, x0, levels - 1)
            expected = stepped_coordinates(steps, x0, word, (), levels)
            check_coordinates(lambda: thread_from_letters(mixed, x0, word), expected)

    @pytest.mark.parametrize(
        "system,x_letters,y_letters",
        [
            pytest.param(
                InverseSystem("tent-zigzag", False, lambda n: ZIGZAG if n % 2 else tent()),
                ((), (0,)),
                ((1,), (0,)),
                id="non-constant",
            ),
            pytest.param(
                InverseSystem("half-lap", True, lambda n: HALF_LAP),
                ((), (0,)),
                ((1,), (0,)),
                id="not-full-lap",
            ),
            pytest.param(
                InverseSystem("plateau", True, lambda n: PLATEAU),
                ((), (0,)),
                ((0,), (0,)),
                id="plateau",
            ),
            pytest.param(tent_system(), ((0,) * 12,), ((0,), (0,)), id="word-tail"),
        ],
    )
    def test_uncertifiable_systems_are_unknown_on_both_routes(self, system, x_letters, y_letters):
        """Where the sign machine cannot certify, it answers None, and both
        routes answer Unknown rather than one of them raising."""
        x = thread_from_letters(system, Fraction(1, 4), *x_letters)
        y = thread_from_letters(system, Fraction(3, 4), *y_letters)
        assert sign_certificate(x, y) is None and sign_certificate(y, x) is None
        for u in (None, u_mod2(0)):
            assert inverse_limit_order(x, y, u, 10).kind == UNKNOWN
            assert chain_order_compare(PullbackSequence(system), x, y, u, 10).kind == UNKNOWN

    def test_a_system_is_not_its_name(self):
        """A zigzag system named "tent" is no tent system: threads on the
        two are refused rather than compared with the first one's map."""
        fake = InverseSystem("tent", True, lambda n: ZIGZAG)
        assert fake != tent_system()
        x = thread_from_letters(fake, Fraction(1, 2), (), (2,))
        y = thread_from_letters(tent_system(), Fraction(1, 2), (), (0,))
        with pytest.raises(ValueError, match="points live on different systems"):
            inverse_limit_order(x, y, None, 20)
        # The pullback refuses a foreign thread before it answers equality.
        seq = PullbackSequence(tent_system())
        for pair in ((x, y), (x, x)):
            with pytest.raises(ValueError, match="points do not live on this sequence's system"):
                chain_order_compare(seq, *pair, None, 20)


class TestNeverBetween:
    def setup_method(self):
        self.sys = tent_system()
        self.seq = PullbackSequence(self.sys)
        self.x = zero_thread(self.sys)
        self.y = thread_from_letters(self.sys, Fraction(1, 2), cycle="L")
        self.outside = thread_from_letters(self.sys, Fraction(3, 4), cycle="L")
        self.middle = thread_from_letters(self.sys, Fraction(1, 4), cycle="L")

    def test_point_beyond_the_pair_is_never_between(self):
        report = never_between_after(
            self.seq, self.x, self.y, self.outside, Fraction(1, 2), 8
        )
        assert isinstance(report, NeverBetweenReport)
        assert report.ok
        assert report.first_failure is None
        assert report.levels_checked[0] == 3
        assert report.levels_checked[-1] == 8

    def test_point_between_is_flagged_with_witness(self):
        report = never_between_after(
            self.seq, self.x, self.y, self.middle, Fraction(1, 2), 8
        )
        assert not report.ok
        assert report.first_failure["level"] == 3
        assert report.as_dict()["ok"] is False

    def test_endpoint_rejected(self):
        with pytest.raises(ValueError):
            never_between_after(self.seq, self.x, self.y, self.x, Fraction(1, 2), 8)

    def test_coarse_threshold_checks_nothing(self):
        report = never_between_after(
            self.seq, self.x, self.y, self.middle, Fraction(10), 0
        )
        assert report.ok
        assert report.levels_checked == ()


def orders_never_mix(a, b) -> bool:
    """True when betweenness transfers: every middle element of a triple
    in the first order stays in the middle in the second."""
    pos = {v: i for i, v in enumerate(b)}
    for i, j, k in itertools.combinations(range(len(a)), 3):
        p, q, r = pos[a[i]], pos[a[j]], pos[a[k]]
        if not (p < q < r or p > q > r):
            return False
    return True


class TestOrderComparison:
    def test_equal_opposite_neither(self):
        assert equal_or_opposite("abc", "abc") == "equal"
        assert equal_or_opposite("abc", "cba") == "opposite"
        assert equal_or_opposite("abc", "bac") == "neither"
        assert equal_or_opposite(["p"], ["p"]) == "equal"

    def test_validation(self):
        with pytest.raises(ValueError):
            equal_or_opposite("aab", "aba")
        with pytest.raises(ValueError):
            equal_or_opposite("abc", "abd")
        with pytest.raises(ValueError):
            equal_or_opposite("", "")

    def test_never_mix_matches_classification_exhaustively(self):
        """Betweenness transfers for every triple exactly when the two
        orders are equal or opposite."""
        for n in range(1, 5):
            base = tuple(range(n))
            for a in itertools.permutations(base):
                for b in itertools.permutations(base):
                    mix_free = orders_never_mix(a, b)
                    classification = equal_or_opposite(a, b)
                    assert mix_free == (classification != "neither")
