"""Threads of an inverse limit of PL interval maps, with exact coordinates.

A point is a finite stem of coordinates plus a tail rule saying how the
remaining coordinates are produced: a finite branch word or an
eventually periodic branch word.  Branch letters index the sorted
preimage list of the previous coordinate, so letter 0 is always the
leftmost preimage.

For constant systems whose bonding map has full laps, coordinatewise
comparisons eventually follow a finite state machine over (letter cycle
position, letter cycle position, boundary class, boundary class, sign).
Detecting a recurrence in that machine certifies the sign pattern at
every level at once; that certificate backs the Stabilized and
UltrafilterDependent verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .foundations import (
    EQ,
    GE,
    LE,
    ComparisonVerdict,
    EventuallyPeriodicSet,
    rational,
    rational_str,
)
from .plmaps import PLMap, band_of, tent
from .ultrafilter import SimulatedUltrafilter

LT = "LT"
EQL = "EQ"
GT = "GT"


class DepthExceededError(ValueError):
    """A coordinate beyond the reach of a finite branch word was requested."""


@dataclass(frozen=True)
class InverseSystem:
    """Bonding maps f_n : I -> I, where f_n carries coordinate n+1 to n.

    Systems are equal only when they share the rule itself, so a system
    with other maps never passes for another by its name.
    """

    name: str
    constant: bool
    _rule: Callable[[int], PLMap] = field(repr=False)

    def bonding(self, n: int) -> PLMap:
        if n < 0:
            raise ValueError("bonding index must be a natural")
        return self._rule(n)


_TENT_SYSTEM = None


def tent_system() -> InverseSystem:
    """The constant system with the full tent map at every level."""
    global _TENT_SYSTEM
    if _TENT_SYSTEM is None:
        t = tent()
        _TENT_SYSTEM = InverseSystem("tent", True, lambda n: t)
    return _TENT_SYSTEM


def _branch_letters(letters) -> tuple[int, ...]:
    """Letters as a tuple of ints; anything but a natural int is refused."""
    letters = tuple(letters)
    if not all(isinstance(l, int) and l >= 0 for l in letters):
        raise ValueError("branch letters are naturals")
    return tuple(int(l) for l in letters)


@dataclass(frozen=True)
class WordTail:
    """A finite branch word: as a ``(prefix, cycle)`` view, the letters
    with an empty cycle, so coordinates end where the word does."""

    letters: tuple[int, ...]
    kind: str = field(default="word", init=False)
    cycle = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", _branch_letters(self.letters))

    @property
    def prefix(self) -> tuple[int, ...]:
        return self.letters

    def as_dict(self) -> dict:
        return {"kind": "word", "letters": list(self.letters)}


@dataclass(frozen=True)
class PeriodicTail:
    prefix: tuple[int, ...]
    cycle: tuple[int, ...]
    kind: str = field(default="periodic", init=False)

    def __post_init__(self) -> None:
        cycle = _branch_letters(self.cycle)
        if not cycle:
            raise ValueError("periodic tail needs a nonempty cycle")
        object.__setattr__(self, "prefix", _branch_letters(self.prefix))
        object.__setattr__(self, "cycle", cycle)

    def as_dict(self) -> dict:
        return {"kind": "periodic", "prefix": list(self.prefix), "cycle": list(self.cycle)}


Tail = WordTail | PeriodicTail

_LETTER_CODES = {"L": 0, "R": 1}


def word_letters(word: str) -> tuple[int, ...]:
    """Translate an 'LRL' style branch word to letter indices."""
    try:
        return tuple(_LETTER_CODES[c] for c in word)
    except KeyError as exc:
        raise ValueError(f"unknown branch letter {exc.args[0]!r}") from None


@dataclass(frozen=True)
class ThreadPoint:
    system: InverseSystem
    stem: tuple[Fraction, ...]
    tail: Tail
    # Coordinates 0..len-1 known so far as reduced (numerator, denominator)
    # pairs: the stem, then each tail coordinate as it is first computed.
    _coords: list = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        stem = tuple(rational(v) for v in self.stem)
        if not stem:
            raise ValueError("a thread needs at least coordinate zero")
        if any(not 0 <= v.numerator <= v.denominator for v in stem):
            raise ValueError("coordinates must lie in [0,1]")
        for i in range(len(stem) - 1):
            if not self.system.bonding(i).sends(stem[i + 1], stem[i]):
                raise ValueError(
                    f"stem breaks the thread condition at level {i}: "
                    f"f_{i}({stem[i + 1]}) != {stem[i]}"
                )
        object.__setattr__(self, "stem", stem)
        object.__setattr__(self, "_coords", [(v.numerator, v.denominator) for v in stem])

    @property
    def max_level(self) -> int | None:
        """Deepest computable coordinate, or None when unbounded."""
        if self.tail.cycle:
            return None
        return len(self.stem) - 1 + len(self.tail.prefix)

    def letter_for_step(self, j: int) -> int:
        """The branch letter producing coordinate j from coordinate j-1."""
        offset = j - len(self.stem)
        if offset < 0:
            raise ValueError("step lies inside the stem")
        prefix, cycle = self.tail.prefix, self.tail.cycle
        if offset < len(prefix):
            return prefix[offset]
        if not cycle:
            raise DepthExceededError(
                f"coordinate {j} exceeds the branch word (max level {self.max_level})"
            )
        return cycle[(offset - len(prefix)) % len(cycle)]

    def coordinate(self, n: int) -> Fraction:
        return Fraction(*self.coordinate_pair(n))

    def coordinate_pair(self, n: int) -> tuple[int, int]:
        """Coordinate n as a reduced (numerator, denominator) pair."""
        if n < 0:
            raise ValueError("levels are naturals")
        coords = self._coords
        if n < len(coords):
            return coords[n]
        max_level = self.max_level
        if max_level is not None and n > max_level:
            raise DepthExceededError(
                f"coordinate {n} exceeds the branch word (max level {max_level})"
            )
        for j in range(len(coords), n + 1):
            letter = self.letter_for_step(j)
            p, q = coords[-1]
            preimages = self.system.bonding(j - 1).preimage_pairs(p, q)
            if letter >= len(preimages):
                raise ValueError(
                    f"letter {letter} invalid at level {j}: "
                    f"{Fraction(p, q)} has {len(preimages)} preimages"
                )
            coords.append(preimages[letter])
        return coords[n]

    def as_dict(self) -> dict:
        return {
            "stem": [rational_str(v) for v in self.stem],
            "tail": self.tail.as_dict(),
        }


def thread_from_letters(
    system: InverseSystem,
    x0: int | str | Fraction,
    letters: str | tuple[int, ...] = (),
    cycle: str | tuple[int, ...] | None = None,
) -> ThreadPoint:
    """Build a thread from coordinate zero plus branch letters.

    With ``cycle`` the letters form the preperiod of an eventually
    periodic word; without it they are a finite word (depth-limited).
    """
    prefix = word_letters(letters) if isinstance(letters, str) else tuple(letters)
    if cycle is None:
        tail: Tail = WordTail(prefix)
    else:
        cyc = word_letters(cycle) if isinstance(cycle, str) else tuple(cycle)
        tail = PeriodicTail(prefix, cyc)
    return ThreadPoint(system, (rational(x0),), tail)


def compare_level(x: ThreadPoint, y: ThreadPoint, n: int) -> str:
    (a, b), (c, d) = x.coordinate_pair(n), y.coordinate_pair(n)
    lhs, rhs = a * d, c * b
    if lhs < rhs:
        return LT
    if lhs > rhs:
        return GT
    return EQL


class Certificate(NamedTuple):
    """A pair's certified signs, counted from level ``first`` on: ``history[n]``
    below ``len(history)``, then ``cycle`` repeating forever.  ``meta`` is
    the certificate the verdict reports, and ``probe`` one more level a spot
    check reads."""

    history: tuple[str, ...]
    cycle: tuple[str, ...]
    first: int
    meta: dict | None
    probe: int

    def rel(self, n: int) -> str:
        if n < len(self.history):
            return self.history[n]
        return self.cycle[(n - len(self.history)) % len(self.cycle)]


def sign_certificate(x: ThreadPoint, y: ThreadPoint) -> Certificate | None:
    """Certify the full coordinatewise sign pattern of (x, y).

    The sign machine needs a shared constant full-lap system and letter
    cycles on both tails; for any other pair it returns None, and the
    pair compares as Unknown, whichever route asks.  Exact coordinates
    drive the preperiod; after both letter streams are cyclic, transitions
    no longer depend on the exact values, so a state recurrence pins the
    pattern forever.
    """
    if x.system != y.system:
        raise ValueError("points live on different systems")
    cyc_x, cyc_y = x.tail.cycle, y.tail.cycle
    if not (x.system.constant and cyc_x and cyc_y and x.system.bonding(0).is_full_lap()):
        return None
    geo = x.system.bonding(0).lap_geometry()

    # The first levels from which each point's letters are purely cyclic.
    start_x = len(x.stem) + len(x.tail.prefix)
    start_y = len(y.stem) + len(y.tail.prefix)
    start = max(start_x, start_y)
    history = [compare_level(x, y, n) for n in range(start + 1)]

    band_x = band_of(*x.coordinate_pair(start))
    band_y = band_of(*y.coordinate_pair(start))
    rel = history[start]
    # Positions of the letters that will produce coordinate start+1.
    pos_x = (start + 1 - start_x) % len(cyc_x)
    pos_y = (start + 1 - start_y) % len(cyc_y)

    seen: dict[tuple, int] = {}
    state = (pos_x, pos_y, band_x, band_y, rel)
    level = start
    bound = 27 * len(cyc_x) * len(cyc_y) + len(history) + 8
    while state not in seen:
        seen[state] = level
        pos_x, pos_y, band_x, band_y, rel = state
        lx, ly = cyc_x[pos_x], cyc_y[pos_y]
        new_band_x, scale_x = geo.step_point(band_x, lx)
        new_band_y, scale_y = geo.step_point(band_y, ly)
        if scale_x < scale_y:
            new_rel = LT
        elif scale_x > scale_y:
            new_rel = GT
        elif scale_x % 2 == 0:
            new_rel = EQL  # same boundary knot
        else:
            # Same lap interior, hence the same letter applied to both
            # base values: a strictly monotone branch keeps or flips the
            # strict sign and preserves equality.
            if rel == EQL:
                new_rel = EQL
            elif geo.laps[(scale_x - 1) // 2].increasing:
                new_rel = rel
            else:
                new_rel = LT if rel == GT else GT
        level += 1
        state = (
            (pos_x + 1) % len(cyc_x),
            (pos_y + 1) % len(cyc_y),
            new_band_x,
            new_band_y,
            new_rel,
        )
        history.append(new_rel)
        if level - start > bound:
            raise AssertionError("sign machine failed to recur within its bound")

    # The state seen at level c - 1 reproduces at `level`, so the rels at
    # levels c..level repeat forever.  The record's history stops at c, its
    # meta keeps the signs through `level`, and its probe is one period on.
    c = seen[state] + 1
    cycle = tuple(history[c:])
    meta = {"history": history, "cycle_start": c, "cycle": list(cycle)}
    cert = Certificate(tuple(history[:c]), cycle, 0, meta, c + len(cycle))

    for probe in range(start + 1, min(start + 4, level + 1)):
        if compare_level(x, y, probe) != cert.rel(probe):
            raise AssertionError("sign machine disagrees with exact coordinates")
    if EQL in cert.cycle and set(cert.cycle) != {EQL}:
        raise AssertionError("equality cannot recur alongside strict signs")
    return cert


def sign_verdict(
    record: Certificate, depth: int, ultrafilter: SimulatedUltrafilter | None
) -> ComparisonVerdict:
    """Turn a certified relation sequence into a verdict.

    Only levels from ``record.first`` on count.  An all-EQ cycle is
    equality from ``first``.  A one-sign cycle stabilizes from the start of
    its final run, found by walking back over the history.  A mixed cycle
    gives the exact level set where x <= y, voted on when an ultrafilter
    is given.
    """
    history, cycle, first, certificate, _ = record
    kinds = set(cycle)
    if kinds == {EQL}:
        return ComparisonVerdict.stabilized(EQ, first, depth, certificate=certificate)
    if kinds in ({LT}, {GT}):
        target = kinds.pop()
        threshold = len(history)
        while threshold > first and history[threshold - 1] == target:
            threshold -= 1
        if threshold > depth:
            return ComparisonVerdict.unknown(depth)
        direction = LE if target == LT else GE
        return ComparisonVerdict.stabilized(direction, threshold, depth, certificate=certificate)

    le_set = EventuallyPeriodicSet(
        tuple(r != GT for r in history), tuple(r != GT for r in cycle)
    )
    direction, extended = None, False
    if ultrafilter is not None:
        decision = ultrafilter.decide(le_set)
        direction, extended = (LE if decision.value else GE), decision.extended
    return ComparisonVerdict.ultrafilter_dependent(
        le_set, depth, direction=direction, tower_extended=extended, certificate=certificate
    )


def inverse_limit_order(
    x: ThreadPoint,
    y: ThreadPoint,
    ultrafilter: SimulatedUltrafilter | None,
    depth: int,
) -> ComparisonVerdict:
    """Compare two threads in the chain-induced order voted by the ultrafilter.

    Stabilized verdicts need the sign trace constant from a threshold at
    most `depth` and a recurrence certificate; genuinely alternating
    patterns are returned UltrafilterDependent together with the exact
    eventually periodic set of levels where x <= y holds, and, when an
    ultrafilter is given, its verdict on that set.  Anything weaker is
    Unknown.
    """
    return inverse_limit_orders(x, y, (ultrafilter,), depth)[0]


def inverse_limit_orders(
    x: ThreadPoint,
    y: ThreadPoint,
    ultrafilters: tuple[SimulatedUltrafilter | None, ...],
    depth: int,
) -> list[ComparisonVerdict]:
    """`inverse_limit_order` under each ultrafilter, from one certificate."""
    if depth < 0:
        raise ValueError("depth must be a natural")
    if x.system != y.system:
        raise ValueError("points live on different systems")
    for p in (x, y):
        if p.max_level is not None and p.max_level < depth:
            raise DepthExceededError(
                f"point only reaches level {p.max_level}, below depth {depth}"
            )
    if x == y:
        return [ComparisonVerdict.stabilized(EQ, 0, depth) for _ in ultrafilters]

    cert = sign_certificate(x, y)
    if cert is None:
        return [ComparisonVerdict.unknown(depth) for _ in ultrafilters]
    if set(cert.cycle) == {EQL} and set(cert.history) != {EQL}:
        raise AssertionError("equal tails must be equal at every level")
    return [sign_verdict(cert, depth, u) for u in ultrafilters]


def fiber_diameter_bound(system: InverseSystem, n: int) -> Fraction:
    """Diameter bound for a fiber of the level-n projection.

    Points sharing coordinate n share all coordinates up to n, so only
    the tail mass sum_{i>n} 2^-i remains.
    """
    if n < 0:
        raise ValueError("levels are naturals")
    return Fraction(1, 2**n)


def epsilon_map_modulus(system: InverseSystem, n: int, eps: int | Fraction) -> Fraction:
    """A delta such that level-n sets of diameter < delta pull back to
    thread sets of diameter < eps.

    Coordinates below n are Lipschitz images of coordinate n, giving
    d(x, y) <= S_n * |x_n - y_n| + 2^-n with S_n the weighted Lipschitz
    sum; delta = (eps - 2^-n) / S_n (capped at 1) makes that < eps.
    """
    if n < 0:
        raise ValueError("levels are naturals")
    eps = rational(eps)
    gamma = Fraction(1, 2**n)
    if eps <= gamma:
        raise ValueError(f"eps must exceed the fiber diameter bound {gamma}")
    weighted = Fraction(0)
    lip_product = Fraction(1)
    for i in range(n, -1, -1):
        weighted += Fraction(1, 2**i) * lip_product
        if i > 0:
            lip_product *= system.bonding(i - 1).lipschitz()
    delta = (eps - gamma) / weighted
    return min(Fraction(1), delta)
