"""Desk-scale acceptance experiments shared by the test suite and the CLI.

Each criterion function runs one self-contained experiment and returns a
report dict: criterion number, name, pass flag, elapsed seconds, wall
limit, and a detail payload.  Randomized experiments take an explicit
seed with a fixed default so reports are reproducible.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from functools import cmp_to_key

from .catalog import (
    CatalogPoint,
    S1_WITNESSES,
    S2_WITNESSES,
    T_REPRESENTATIVES,
    arc_family,
    s1_family,
    s2_family,
    s3_family,
    s3_witness_pair,
    separation_data,
    t_family,
    t_space,
)
from .chains import (
    BOTH,
    GE_ONLY,
    LE_ONLY,
    PullbackSequence,
    chain_order_compare,
    chain_trace,
    equal_or_opposite,
    never_between_after,
)
from .foundations import EQ, GE, LE, STABILIZED, EventuallyPeriodicSet
from .inverse_limit import (
    compare_level,
    fiber_diameter_bound,
    tent_system,
    thread_from_letters,
)
from .knaster_witness import (
    build_witness,
    demonstrate_distinct_orders,
    exhaustive_branch_oracle,
)
from .orientation import (
    EVEN,
    ODD,
    apply_composition,
    composition_parity,
    decompose_on_cylinder,
    flip,
    reach_with_parity,
)
from .ultrafilter import SimulatedUltrafilter, filter_axiom_report

DEFAULT_SEED = 7120


def _report(number: int, name: str, limit_s: float, started: float, passed: bool, **detail):
    return {
        "criterion": number,
        "name": name,
        "pass": bool(passed),
        "elapsed_s": round(time.perf_counter() - started, 4),
        "limit_s": limit_s,
        "detail": detail,
    }


def _direction(family, x, y, depth):
    verdict = chain_order_compare(family, x, y, None, depth)
    if verdict.kind != STABILIZED:
        return None
    return verdict.direction


def _ranking(family, points, depth):
    """The points in the family's stabilized order.

    Pairs without a strict stabilized direction compare as ties, and the
    points are first put in a canonical arrangement, so the ranking does
    not depend on the order of ``points``.
    """

    def cmp(a, b):
        direction = _direction(family, a, b, depth) if a != b else EQ
        return -1 if direction == LE else 1 if direction == GE else 0

    return tuple(sorted(sorted(points, key=repr), key=cmp_to_key(cmp)))


# -- 1. arc ----------------------------------------------------------------


def arc_order_count(depth: int = 20) -> dict:
    """Two chain families on the arc give exactly two orders, and every
    pair settles no later than the first level whose mesh drops below
    half the pair distance."""
    started = time.perf_counter()
    grid = [Fraction(k, 24) for k in range(25)]
    families = {v: arc_family(v) for v in ("standard", "reversed")}

    late = []
    unsettled = set()
    for v, fam in families.items():
        for x, y in itertools.combinations(grid, 2):
            verdict = chain_order_compare(fam, x, y, None, depth)
            if verdict.kind != STABILIZED:
                late.append((str(x), str(y), "unstabilized"))
                unsettled.add(v)
                continue
            # The first level fine enough to separate the pair may lie
            # beyond depth; a threshold within depth is then early enough.
            gap = abs(x - y)
            first = next(n for n in itertools.count(1) if fam.level(n).mesh_bound < gap / 2)
            if verdict.threshold > first:
                late.append((str(x), str(y), verdict.threshold, first))
    # A family with undecided grid pairs ranks ties, not a stabilized order.
    orders = {_ranking(fam, grid, depth) for v, fam in families.items() if v not in unsettled}
    distinct = len(orders)

    passed = distinct == 2 and not late
    return _report(
        1,
        "arc-order-count",
        2.0,
        started,
        passed,
        grid_points=len(grid),
        depth=depth,
        distinct_orders=distinct,
        pairs_checked=2 * len(grid) * (len(grid) - 1) // 2,
        violations=late[:5],
    )


# -- 2. S1 -----------------------------------------------------------------


def s1_order_count(depth: int = 8) -> dict:
    """The four sine-with-limit-bar families realize four pairwise
    distinct orders on the witness quadruple, with all eight displayed
    inequalities."""
    started = time.perf_counter()
    expected = {
        "D": (LE, GE),
        "D'": (GE, GE),
        "E": (GE, LE),
        "E'": (LE, LE),
    }
    top, bottom = S1_WITNESSES["limit_top"], S1_WITNESSES["limit_bottom"]
    second, outer = S1_WITNESSES["second_trough"], S1_WITNESSES["outer_trough"]
    inequalities = {}
    rankings = {}
    for variant, want in expected.items():
        family = s1_family(variant)
        got = (
            _direction(family, top, bottom, depth),
            _direction(family, second, outer, depth),
        )
        inequalities[variant] = {"expected": want, "got": got, "ok": got == want}
        rankings[variant] = _ranking(family, list(S1_WITNESSES.values()), depth)

    distinct = len(set(rankings.values()))
    passed = distinct == 4 and all(v["ok"] for v in inequalities.values())
    return _report(
        2,
        "s1-order-count",
        2.0,
        started,
        passed,
        distinct_orders=distinct,
        inequalities={k: v["ok"] for k, v in inequalities.items()},
    )


# -- 3. S2 -----------------------------------------------------------------


def s2_pattern_exclusion(depth: int = 20) -> dict:
    """Across all depths the outer-arc variants hit only the two
    all-one-way patterns on the witness pairs; the mixed patterns never
    appear."""
    started = time.perf_counter()
    pairs = (
        (S2_WITNESSES["wall_bottom"], S2_WITNESSES["wall_top"]),
        (S2_WITNESSES["outer_trough"], S2_WITNESSES["second_trough"]),
    )

    def pattern(rels):
        key = tuple("le" if r == LE_ONLY else "ge" if r == GE_ONLY else "?" for r in rels)
        return {("le", "le"): 1, ("le", "ge"): 2, ("ge", "le"): 3, ("ge", "ge"): 4}.get(key)

    realized: dict[str, set] = {}
    for variant in ("standard", "reversed"):
        family = s2_family(variant)
        seen = set()
        for n in range(1, depth + 1):
            level = family.level(n)
            seen.add(pattern(tuple(level.relation(x, y) for x, y in pairs)))
        realized[variant] = seen

    passed = realized["standard"] == {1} and realized["reversed"] == {4}
    return _report(
        3,
        "s2-pattern-exclusion",
        2.0,
        started,
        passed,
        depth=depth,
        realized={k: sorted(v) for k, v in realized.items()},
    )


# -- 4. S3 -----------------------------------------------------------------


def s3_prefix_distinctness(length: int = 6) -> dict:
    """All 2^length prefixes yield pairwise distinct orders on the tooth
    endpoint pairs, and prefixes differing at position i disagree at
    that pair on every level from i on."""
    started = time.perf_counter()
    pairs = [s3_witness_pair(i) for i in range(1, length + 1)]

    directions = {}
    relations = {}
    for bits in itertools.product((0, 1), repeat=length):
        family = s3_family(bits)
        vec = []
        rels = []
        for i, (low, high) in enumerate(pairs, start=1):
            verdict = chain_order_compare(family, low, high, None, length)
            ok = verdict.kind == STABILIZED and verdict.threshold == i
            vec.append(verdict.direction if ok else None)
            # The comparison's scan left these relations in the family's memo.
            trace = chain_trace(family, low, high, length)[i - 1:]
            rels.append(tuple(entry["relation"] for entry in trace))
        directions[bits] = tuple(vec)
        relations[bits] = rels

    all_stabilized = all(None not in vec for vec in directions.values())
    distinct = len(set(directions.values()))

    disagreements_ok = True
    for one, other in itertools.combinations(directions, 2):
        for i in range(length):
            if one[i] != other[i] and relations[one][i] == relations[other][i]:
                disagreements_ok = False

    passed = all_stabilized and distinct == 2**length and disagreements_ok
    return _report(
        4,
        "s3-prefix-distinctness",
        5.0,
        started,
        passed,
        prefixes=2**length,
        distinct_orders=distinct,
        thresholds_exact=all_stabilized,
        levelwise_disagreement=disagreements_ok,
    )


# -- 5. T ------------------------------------------------------------------

_T_NON_MIXING_TRIPLES = (
    (CatalogPoint("bar", -1), CatalogPoint("bar", 1), CatalogPoint("wave", 4)),
    (CatalogPoint("bar", -1), CatalogPoint("bar", 1), CatalogPoint("spiral", 1)),
    (CatalogPoint("wave", 0), CatalogPoint("wave", 2), CatalogPoint("bar", 0)),
    (CatalogPoint("wave", 0), CatalogPoint("wave", 2), CatalogPoint("spiral", Fraction(3, 4))),
    (CatalogPoint("spiral", 1), CatalogPoint("spiral", Fraction(15, 16)), CatalogPoint("bar", 0)),
    (CatalogPoint("spiral", 1), CatalogPoint("spiral", Fraction(15, 16)), CatalogPoint("wave", 4)),
)


def t_component_orders(depth: int = 6) -> dict:
    """Variant D orders the components spiral, bar, wave; variant E
    orders them bar, wave, spiral; and points of one component are never
    caught between two points of another."""
    started = time.perf_counter()
    expected = {"D": ("T3", "T1", "T2"), "E": ("T1", "T2", "T3")}
    reps = T_REPRESENTATIVES

    component_ok = {}
    for variant, (first, second, third) in expected.items():
        family = t_family(variant)
        ok = True
        for a, b in ((first, second), (second, third), (first, third)):
            for x in reps[a]:
                for y in reps[b]:
                    ok = ok and _direction(family, x, y, depth) == LE
        component_ok[variant] = ok

    mixing_ok = True
    checked = 0
    for variant in ("D", "E"):
        family = t_family(variant)
        for x, y, z in _T_NON_MIXING_TRIPLES:
            _, threshold = separation_data(t_space(), x, y, z)
            rep = never_between_after(family, x, y, z, threshold, 4)
            mixing_ok = mixing_ok and rep.ok and bool(rep.levels_checked)
            checked += len(rep.levels_checked)

    passed = all(component_ok.values()) and mixing_ok
    return _report(
        5,
        "t-component-orders",
        2.0,
        started,
        passed,
        component_orders=component_ok,
        non_mixing_levels_checked=checked,
    )


# -- 6. Knaster ------------------------------------------------------------


def knaster_witness_check() -> dict:
    """The evens witness pair flips sign exactly on the even levels, the
    two residue towers order it oppositely, and the depth-6 brute-force
    oracle confirms the branch sign rules."""
    started = time.perf_counter()
    depth = 16
    evens = EventuallyPeriodicSet.evens()
    pair = build_witness(evens, depth)

    system = pair.x.system
    consistent = all(
        system.bonding(i)(pair.x.coordinate(i + 1)) == pair.x.coordinate(i)
        and system.bonding(i)(pair.y.coordinate(i + 1)) == pair.y.coordinate(i)
        for i in range(depth)
    )
    signs_ok = pair.signs == tuple(i for i in range(1, depth + 1) if i % 2 == 0)

    u_in = SimulatedUltrafilter.binary_tower((0,))
    u_out = SimulatedUltrafilter.binary_tower((1,))
    demo = demonstrate_distinct_orders(evens, depth, u_in, u_out)
    opposite = (
        demo["distinct"]
        and {demo["verdict_u1"]["direction"], demo["verdict_u2"]["direction"]} == {LE, GE}
    )

    oracle = exhaustive_branch_oracle(6)

    passed = consistent and signs_ok and opposite and oracle["pass"]
    return _report(
        6,
        "knaster-witness",
        1.0,
        started,
        passed,
        thread_consistent=consistent,
        signs_match_evens=signs_ok,
        towers_opposite=opposite,
        oracle_pairs=oracle["pairs_checked"],
    )


# -- 7. bridge -------------------------------------------------------------


def _random_thread(rng: random.Random, system):
    # Interior start keeps every level two-branched, so any letter word
    # is a valid branch choice.
    x0 = Fraction(rng.randrange(1, 16), 16)
    if rng.random() < 0.5:
        word = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 5)))
        cycle = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
        return thread_from_letters(system, x0, word, cycle)
    word = tuple(rng.randrange(2) for _ in range(rng.randrange(12, 16)))
    return thread_from_letters(system, x0, word)


def definition_bridge(seed: int = DEFAULT_SEED) -> dict:
    """Pulled-back interval chains and raw coordinate comparison agree
    at every level where the coordinate gap clears the chain's mesh, and
    the pullback mesh is the fiber bound plus 1/n."""
    started = time.perf_counter()
    pairs, depth = 100, 10
    system = tent_system()
    seq = PullbackSequence(system)

    mesh_ok = True
    for n in range(1, 13):
        fiber = fiber_diameter_bound(system, n)
        level = seq.level(n)
        mesh_ok = mesh_ok and level.mesh_bound == fiber + Fraction(1, n)
        mesh_ok = mesh_ok and fiber <= Fraction(1, 2**n)

    rng = random.Random(seed)
    agreements = 0
    mismatches = []
    for _ in range(pairs):
        x = _random_thread(rng, system)
        y = _random_thread(rng, system)
        for n in range(1, depth + 1):
            level = seq.level(n)
            gap = abs(x.coordinate(n) - y.coordinate(n))
            if gap <= level.mesh_bound:
                continue
            rel = level.relation(x, y)
            sign = compare_level(x, y, n)
            expected = LE_ONLY if sign == "LT" else GE_ONLY
            if rel == expected:
                agreements += 1
            else:
                mismatches.append({"level": n, "rel": rel, "sign": sign})

    passed = mesh_ok and not mismatches and agreements > 0
    return _report(
        7,
        "definition-bridge",
        5.0,
        started,
        passed,
        pairs=pairs,
        depth=depth,
        seed=seed,
        mesh_shape_ok=mesh_ok,
        level_agreements=agreements,
        mismatches=mismatches[:5],
    )


# -- 8. filter axioms --------------------------------------------------------


def _random_epset(rng: random.Random) -> EventuallyPeriodicSet:
    prefix = tuple(rng.randrange(2) == 1 for _ in range(rng.randrange(0, 6)))
    pattern = tuple(rng.randrange(2) == 1 for _ in range(rng.randrange(1, 5)))
    return EventuallyPeriodicSet(prefix, pattern)


def filter_axioms(seed: int = DEFAULT_SEED) -> dict:
    """Residue towers behave like ultrafilters on the eventually
    periodic algebra: dichotomy, intersection, upward closure, and all
    cofinite sets in."""
    started = time.perf_counter()
    pairs_per_tower = 1000
    towers = (
        SimulatedUltrafilter.binary_tower((0,)),
        SimulatedUltrafilter.binary_tower((1, 0)),
        SimulatedUltrafilter.factorial_tower((1, 2)),
    )
    rng = random.Random(seed)
    failures = []
    checked = 0
    for tower in towers:
        for _ in range(pairs_per_tower):
            s, t = _random_epset(rng), _random_epset(rng)
            report = filter_axiom_report(tower, s, t)
            checked += 1
            bad = [k for k, v in report["checks"].items() if not v]
            if bad:
                failures.append({"tower": tower.label(), "failed": bad})

    passed = not failures and checked == len(towers) * pairs_per_tower
    return _report(
        8,
        "filter-axioms",
        2.0,
        started,
        passed,
        towers=[t.label() for t in towers],
        pairs_per_tower=pairs_per_tower,
        seed=seed,
        reports_checked=checked,
        failures=failures[:5],
    )


# -- 9. order axioms ---------------------------------------------------------


def _space_samples():
    return {
        "arc": (
            arc_family("standard"),
            16,
            [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1)],
        ),
        "s1": (
            s1_family("D"),
            12,
            list(S1_WITNESSES.values()) + [CatalogPoint("wave", 1), CatalogPoint("bar", 0)],
        ),
        "s2": (
            s2_family("standard"),
            12,
            list(S2_WITNESSES.values()) + [CatalogPoint("ell", 1), CatalogPoint("wave", 8)],
        ),
        "s3": (
            s3_family((1, 0, 1, 0, 1, 0)),
            6,
            [p for i in (1, 2, 3) for p in s3_witness_pair(i)]
            + [CatalogPoint("gap_1", 0), CatalogPoint("origin", 0)],
        ),
        "t": (
            t_family("E"),
            6,
            [p for triple in T_REPRESENTATIVES.values() for p in triple],
        ),
    }


def order_axioms() -> dict:
    """Decided verdicts on sampled points form a total preorder on every
    catalog space: mirrored pairs, no one-way equalities, transitive
    strict chains."""
    started = time.perf_counter()
    per_space = {}
    passed = True
    for name, (family, depth, points) in _space_samples().items():
        decided: dict[tuple[int, int], str] = {}
        undecided = 0
        for i, j in itertools.permutations(range(len(points)), 2):
            verdict = chain_order_compare(family, points[i], points[j], None, depth)
            if verdict.kind == STABILIZED:
                decided[(i, j)] = verdict.direction
            else:
                undecided += 1

        total_ok = all(d in (LE, GE, EQ) for d in decided.values())
        antisym_ok = True
        for (i, j), d in decided.items():
            mirror = decided.get((j, i))
            if mirror is None:
                antisym_ok = False
            elif d == EQ:
                antisym_ok = antisym_ok and mirror == EQ and points[i] == points[j]
            else:
                antisym_ok = antisym_ok and mirror == (GE if d == LE else LE)
        trans_ok = True
        for i, j, k in itertools.permutations(range(len(points)), 3):
            if decided.get((i, j)) == LE and decided.get((j, k)) == LE:
                trans_ok = trans_ok and decided.get((i, k)) == LE

        ok = total_ok and antisym_ok and trans_ok and decided
        per_space[name] = {
            "decided_pairs": len(decided),
            "undecided_pairs": undecided,
            "ok": bool(ok),
        }
        passed = passed and ok

    return _report(9, "order-axioms", 5.0, started, passed, spaces=per_space)


# -- 10. orientation ---------------------------------------------------------


def orientation_combinatorics() -> dict:
    """Odd decompositions act like the tail flip on every cylinder, and
    parity-steered reach lands bit-exactly on every short target."""
    started = time.perf_counter()
    word_depth = 10

    decompose_ok = True
    words_checked = 0
    for n in range(5):
        for s in itertools.product((0, 1), repeat=n):
            comp = decompose_on_cylinder(n, s)
            if len(comp) % 2 != 1 or (comp and max(comp) > n):
                decompose_ok = False
            for tail in itertools.product((0, 1), repeat=word_depth - n):
                w = s + tail
                words_checked += 1
                if apply_composition(comp, w) != flip(n, w):
                    decompose_ok = False

    reach_depth = 8
    reach_ok = True
    reaches = 0
    prefixes = [p for k in range(4) for p in itertools.product((0, 1), repeat=k)]
    for src in prefixes:
        for tgt in prefixes:
            for parity in (EVEN, ODD):
                result = reach_with_parity(src, tgt, parity, reach_depth)
                reaches += 1
                if composition_parity(result.composition) != parity:
                    reach_ok = False
                if result.source[: len(src)] != src or result.image[: len(tgt)] != tgt:
                    reach_ok = False
                if not result.verify(reach_depth):
                    reach_ok = False

    passed = decompose_ok and reach_ok
    return _report(
        10,
        "orientation-combinatorics",
        10.0,
        started,
        passed,
        word_depth=word_depth,
        words_checked=words_checked,
        reaches=reaches,
    )


# -- 11. order classifier ------------------------------------------------------


def order_classifier_oracle() -> dict:
    """The equal-or-opposite classifier agrees with brute force on every
    pair of total orders on up to five elements."""
    started = time.perf_counter()
    max_size = 5

    def brute(a, b):
        if list(a) == list(b):
            return "equal"
        if list(a) == list(reversed(b)):
            return "opposite"
        return "neither"

    mismatches = 0
    checked = 0
    for size in range(1, max_size + 1):
        elements = list(range(size))
        for a in itertools.permutations(elements):
            for b in itertools.permutations(elements):
                checked += 1
                if equal_or_opposite(a, b) != brute(a, b):
                    mismatches += 1

    passed = mismatches == 0
    return _report(
        11,
        "order-classifier-oracle",
        1.0,
        started,
        passed,
        pairs_checked=checked,
        mismatches=mismatches,
    )


ALL_CRITERIA = (
    arc_order_count,
    s1_order_count,
    s2_pattern_exclusion,
    s3_prefix_distinctness,
    t_component_orders,
    knaster_witness_check,
    definition_bridge,
    filter_axioms,
    order_axioms,
    orientation_combinatorics,
    order_classifier_oracle,
)


def run_all(seed: int = DEFAULT_SEED) -> list[dict]:
    reports = []
    for fn in ALL_CRITERIA:
        if fn in (definition_bridge, filter_axioms):
            reports.append(fn(seed=seed))
        else:
            reports.append(fn())
    return reports
