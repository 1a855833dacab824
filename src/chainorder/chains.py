"""Chain covers, their level preorders, and orders pulled back to threads.

A chain level assigns every point the one or two consecutive links that
contain it.  Comparing two points at one level keeps whichever of
x-before-y / y-before-x the link indices allow; a genuine chain always
allows at least one.  Sequences of levels with shrinking mesh then give
limit orders, decided levelwise and voted on by an ultrafilter when the
levelwise answers keep alternating.  Every sequence, a catalog family or
a pullback sequence on an inverse limit, certifies a pair's relations in
an ``inverse_limit.Certificate``, the record the sign machine returns and
``sign_verdict`` reads; ``chain_order_compare`` alone issues the verdict
and spot-checks it against directly computed levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

from .foundations import EQ, GE, LE, STABILIZED, ComparisonVerdict, rational_str
from .inverse_limit import (
    Certificate,
    InverseSystem,
    epsilon_map_modulus,
    fiber_diameter_bound,
    sign_certificate,
    sign_verdict,
)
from .ultrafilter import SimulatedUltrafilter

LE_ONLY = "le_only"
GE_ONLY = "ge_only"
BOTH = "both"

# The coordinate sign a level relation stands for in a sign sequence.
_SIGN_OF = {LE_ONLY: "LT", GE_ONLY: "GT", BOTH: "EQ"}


def settled_from(n: int, relation: str, meta: dict | None, probe: int) -> Certificate:
    """The record for the level relation ``relation`` at every level from n on."""
    sign = _SIGN_OF[relation]
    return Certificate((sign,) * n, (sign,), n, meta, probe)


def _relation(px: tuple[int, int], py: tuple[int, int]) -> str:
    """The level relation of two points placed at link pairs px and py."""
    # x may come first when some link of x is at or before some link of y;
    # each pair has lo <= hi, so one direction always is allowed.
    if px[0] > py[1]:
        return GE_ONLY
    return LE_ONLY if py[0] > px[1] else BOTH


@dataclass(frozen=True)
class ChainLevel:
    """One cover in a chain sequence, with exact point-to-links assignment.

    ``index_fn`` places a point as a ``(lo, hi)`` pair of link indices;
    ``index_of`` holds that pair to the chain contract.  Every placement
    goes through ``index_of``: comparisons, spot checks and traces read
    their pairs through readers that fill themselves by it, from their
    sequence's ``LinkMemo`` if it keeps one, and ``relation`` places both
    points afresh.  A catalog level keeps the ``plan`` it was built from.
    """

    level: int
    size: int
    mesh_bound: Fraction
    index_fn: Callable = field(compare=False, repr=False)
    plan: object = field(default=None, compare=False, repr=False)

    def index_of(self, point) -> tuple[int, int]:
        """The links holding ``point`` as ``(lo, hi)``.  Adjacent links
        overlap, so a point lies in one link or in two consecutive ones;
        any other pair means the cover is broken."""
        lo, hi = self.index_fn(point)
        if not 1 <= lo <= hi <= lo + 1:
            raise ValueError(f"not one or two consecutive links: [{lo}, {hi}]")
        return lo, hi

    def relation(self, x, y) -> str:
        return _relation(self.index_of(x), self.index_of(y))


# Link pairs a sequence's memo keeps: some fifty points at depth 20.
_LINK_PAIRS = 1024


class LinkMemo:
    """The ``(lo, hi)`` pairs ``ChainLevel.index_of`` gave recently read points.

    A row holds one point's pairs, only for the levels some reader asked
    for, under ``key(point)``, in order of last use.  ``size`` counts the
    pairs and each row as one more; past ``_LINK_PAIRS`` the least
    recently used rows go.
    """

    def __init__(self, key: Callable) -> None:
        self.key, self.size = key, 0
        self._rows: dict = {}

    def reader(self, seq, point) -> Callable[[int], tuple[int, int]]:
        """The links of ``point`` at level n of ``seq``, placed on the first read."""
        key = self.key(point)
        rows = self._rows
        row = rows.pop(key, None)
        if row is None:
            row = {}
            self._count()
        rows[key] = row

        def links(n: int) -> tuple[int, int]:
            pair = row.get(n)
            if pair is None:
                pair = row[n] = seq.level(n).index_of(point)
                # An evicted row still serves its readers but no longer counts.
                if rows.get(key) is row:
                    self._count()
            return pair

        return links

    def _count(self) -> None:
        """Count one more row or pair; past the bound, drop the least recently used rows."""
        self.size += 1
        while self.size > _LINK_PAIRS:
            self.size -= len(self._rows.pop(next(iter(self._rows)))) + 1


def _readers(seq, *points) -> list[Callable[[int], tuple[int, int]]]:
    """One memo reader per point.  A sequence with no memo of its own, such
    as a pullback sequence, whose threads recur in no later call, gets a
    memo for this call only, keyed by identity: the caller holds every
    point until the call returns."""
    memo = getattr(seq, "_links", None)
    if memo is None:
        memo = LinkMemo(id)
    return [memo.reader(seq, p) for p in points]


@dataclass(frozen=True)
class IntervalChain:
    """The canonical k-link chain on [0,1].

    Link i is the open interval ((i-1)/k - 1/(4k), i/k + 1/(4k)) cut to
    [0,1]: consecutive links overlap on a quarter-link, others are
    disjoint, and every mesh is 3/(2k).
    """

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("a chain needs at least one link")

    @property
    def mesh(self) -> Fraction:
        return Fraction(3, 2 * self.k)

    def bounds(self, a: int, b: int) -> tuple[int, int]:
        """The links i whose open interval ((i-1)/k - 1/(4k), i/k + 1/(4k))
        holds the point a/b (b > 0), as (lo, hi)."""
        if not 0 <= a <= b:
            raise ValueError(f"point outside [0,1]: {Fraction(a, b)}")
        # i ranges over integers with (4kt-1)/4 < i < (4kt+5)/4; with
        # t = a/b those bounds are (4ka - b)/4b and (4ka + 5b)/4b.
        scaled, den = 4 * self.k * a, 4 * b
        lo = (scaled - b) // den + 1
        hi = -(-(scaled + 5 * b) // den) - 1
        return max(lo, 1), min(hi, self.k)


@dataclass(frozen=True)
class PullbackSequence:
    """Chain levels on an inverse limit, one pullback per depth.

    Level n pulls the smallest canonical chain whose mesh fits under the
    continuity modulus for eps_n = (fiber diameter bound) + 1/n back
    through the level-n projection, so its links are thread sets of
    diameter below eps_n.
    """

    system: InverseSystem
    _levels: dict = field(default_factory=dict, compare=False, repr=False)

    def level(self, n: int) -> ChainLevel:
        if n not in self._levels:
            if n < 1:
                raise ValueError("pullback levels start at 1")
            eps_n = fiber_diameter_bound(self.system, n) + Fraction(1, n)
            delta = epsilon_map_modulus(self.system, n, eps_n)
            base = IntervalChain(3 * delta.denominator // (2 * delta.numerator) + 1)
            assert base.mesh < delta, "base chain too coarse for the modulus"
            self._levels[n] = ChainLevel(
                level=n, size=base.k, mesh_bound=eps_n, index_fn=partial(self._place, base, n)
            )
        return self._levels[n]

    def _place(self, base: IntervalChain, n: int, point) -> tuple[int, int]:
        if point.system != self.system:
            raise ValueError("points do not live on this sequence's system")
        return base.bounds(*point.coordinate_pair(n))

    def compare_certificate(self, x, y, depth: int, relation) -> Certificate | None:
        """The pair's record from the coordinate sign certificate plus gap
        dominance, or ``None`` where the sign machine cannot certify it.

        The record's probe is one period past the level from which the
        chain relations repeat, never deeper: a deep probe would cost
        more than the comparison.
        """
        cert = sign_certificate(x, y)
        if cert is None:
            return None
        if set(cert.cycle) == {"EQ"}:
            # Equal tails leave no gap to dominate the mesh.
            return cert._replace(history=(), first=1)

        # From the first level where the coordinate signs are strict forever,
        # coordinate gaps can shrink at most by the bonding Lipschitz factor
        # per level, while the base mesh at level n sits below 1/(n * lam_n),
        # lam_n the product of the first n Lipschitz constants.  So once
        # gap_T * lam_T >= 1/T, the gap dominates every later mesh and the
        # chain relation equals the coordinate sign from T on.  lam_T is
        # kept as lam_n/lam_d, and the test cross-multiplied.
        T = max([1] + [n + 1 for n, rel in enumerate(cert.history) if rel == "EQ"])
        lam_n = lam_d = 1
        for j in range(T):
            lip = self.system.bonding(j).lipschitz()
            lam_n, lam_d = lam_n * lip.numerator, lam_d * lip.denominator
        while True:
            (a, b), (c, d) = x.coordinate_pair(T), y.coordinate_pair(T)
            if abs(a * d - c * b) * lam_n * T >= b * d * lam_d:
                break
            lip = self.system.bonding(T).lipschitz()
            lam_n, lam_d = lam_n * lip.numerator, lam_d * lip.denominator
            T += 1
            if T > 100_000:
                raise AssertionError("gap dominance search failed to terminate")

        # Level 0 is not a chain level; its placeholder never counts.  Below
        # T the chain relations are computed outright, from T on they follow
        # the certified coordinate signs.
        start = max(T, len(cert.history))
        history = ["GT"]
        history += [_SIGN_OF[relation(n)] for n in range(1, T)]
        history += [cert.rel(n) for n in range(T, start)]
        cycle = tuple(cert.rel(start + j) for j in range(len(cert.cycle)))
        meta = {"sign": cert.meta, "gap_dominance_level": T}
        return Certificate(tuple(history), cycle, 1, meta, start + len(cycle))


def chain_trace(seq, x, y, depth: int) -> list[dict]:
    """Per-level relation records for reporting, read through ``_readers``."""
    links_x, links_y = _readers(seq, x, y)
    trace = []
    for n in range(1, depth + 1):
        level, px, py = seq.level(n), links_x(n), links_y(n)
        trace.append({
            "level": level.level,
            "k": level.size,
            "mesh": rational_str(level.mesh_bound),
            "idx_x": list(px),
            "idx_y": list(py),
            "relation": _relation(px, py),
        })
    return trace


_RELATION_OF = {EQ: BOTH, LE: LE_ONLY, GE: GE_ONLY}


def _spot_check(relation, verdict: ComparisonVerdict, probes) -> None:
    """Verify a stabilized verdict against directly computed levels.

    ``relation(n)`` is the pair's relation at level n.  A probe at or past
    the threshold must show the claimed relation, one below it must not.
    Probes are capped at the verdict's depth.
    """
    t, claimed = verdict.threshold, _RELATION_OF[verdict.direction]
    for n in sorted({min(n, verdict.depth) for n in probes}):
        rel = relation(n)
        if (rel == claimed) != (n >= t):
            raise AssertionError(
                f"certificate claims {verdict.direction} from {t}, "
                f"but level {n} computes {rel}"
            )


def chain_order_compare(
    seq, x, y, ultrafilter: SimulatedUltrafilter | None, depth: int
) -> ComparisonVerdict:
    """Compare two points in the order induced by a chain sequence.

    Each point gets one reader from ``_readers``, and ``relation(n)``
    reads their level-n relation through them.  Placing both points at
    level 1 runs the sequence's checks on them.  Equal points are equal
    from level 1; any other pair gets its record from the sequence's
    ``compare_certificate``.  A stabilized verdict from t is spot-checked
    at t-1 if the record counts it, at t, t+1, t+3 and at ``probe``.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    links_x, links_y = _readers(seq, x, y)

    def relation(n: int) -> str:
        return _relation(links_x(n), links_y(n))

    relation(1)
    if x == y:
        record = settled_from(1, BOTH, None, 1)
    else:
        record = seq.compare_certificate(x, y, depth, relation)
        if record is None:
            return ComparisonVerdict.unknown(depth)
    verdict = sign_verdict(record, depth, ultrafilter)
    if verdict.kind == STABILIZED:
        t = verdict.threshold
        below = t - 1 if t > record.first else t
        _spot_check(relation, verdict, (below, t, t + 1, t + 3, record.probe))
    return verdict


@dataclass(frozen=True)
class NeverBetweenReport:
    ok: bool
    levels_checked: tuple[int, ...]
    first_failure: dict | None

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "levels_checked": list(self.levels_checked),
            "first_failure": self.first_failure,
        }


def never_between_after(seq, x, y, z, threshold_mesh: Fraction, depth: int) -> NeverBetweenReport:
    """Check that z never sits between x and y once the mesh is fine enough.

    Levels whose mesh bound is below the threshold are examined; at each,
    betweenness means the link pairs allow x <= z <= y or y <= z <= x.
    """
    if z == x or z == y:
        raise ValueError("z must differ from both endpoints")
    checked = []
    links_x, links_y, links_z = _readers(seq, x, y, z)
    for n in range(1, depth + 1):
        if seq.level(n).mesh_bound >= threshold_mesh:
            continue
        checked.append(n)
        px, py, pz = links_x(n), links_y(n), links_z(n)
        xz, zy = _relation(px, pz), _relation(pz, py)
        # x <= z <= y is allowed unless either relation is GE_ONLY, and
        # y <= z <= x unless either is LE_ONLY.
        if GE_ONLY not in (xz, zy) or LE_ONLY not in (xz, zy):
            return NeverBetweenReport(
                False,
                tuple(checked),
                {"level": n, "idx_x": list(px), "idx_y": list(py), "idx_z": list(pz)},
            )
    return NeverBetweenReport(True, tuple(checked), None)


def _validate_order(order) -> list:
    items = list(order)
    if not items:
        raise ValueError("an order needs at least one element")
    if len(set(items)) != len(items):
        raise ValueError("order contains repeated elements")
    return items


def equal_or_opposite(first, second) -> str:
    """Classify two total orders on the same elements."""
    a = _validate_order(first)
    b = _validate_order(second)
    if set(a) != set(b):
        raise ValueError("orders rank different element sets")
    if a == b:
        return "equal"
    if a == b[::-1]:
        return "opposite"
    return "neither"
