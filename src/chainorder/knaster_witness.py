"""Witness threads whose order flips with the choice of ultrafilter.

Both threads start at 1/2.  At step one they split to 3/4 and 1/4 (or the
reverse); afterwards the thread that must come out on top at level i takes
the outer preimage while the other takes an inner one.  The result is a
pair whose coordinate signs reproduce a prescribed set A exactly:
x_i > y_i precisely when i lies in A.  When A and its complement are both
infinite, no verdict stabilizes and the comparison genuinely depends on
which levels the ultrafilter favors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .foundations import EventuallyPeriodicSet
from .inverse_limit import (
    PeriodicTail,
    ThreadPoint,
    inverse_limit_orders,
    tent_system,
)
from .plmaps import tent
from .ultrafilter import SimulatedUltrafilter

# Branch letters at step i as a function of (i-1 in A, i in A); letter 0 is
# the smaller preimage.  The point with the smaller previous coordinate has
# a free choice and takes letter 0; the other point's letter is forced.
_LETTER_TABLE: dict[tuple[bool, bool], tuple[int, int]] = {
    (False, True): (1, 0),
    (False, False): (0, 0),
    (True, True): (0, 0),
    (True, False): (0, 1),
}


@dataclass(frozen=True)
class WitnessPair:
    level_set: EventuallyPeriodicSet
    depth: int
    x: ThreadPoint
    y: ThreadPoint
    signs: tuple[int, ...]
    mixed_on_window: bool

    def as_dict(self) -> dict:
        return {
            "level_set": self.level_set.as_dict(),
            "depth": self.depth,
            "x": self.x.as_dict(),
            "y": self.y.as_dict(),
            "signs": list(self.signs),
            "mixed_on_window": self.mixed_on_window,
        }


def build_witness(level_set: EventuallyPeriodicSet, depth: int) -> WitnessPair:
    """Threads with x_i > y_i exactly at the levels in the given set."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    period = len(level_set.pattern)
    stem_len = max(depth, len(level_set.prefix) + 1)
    member = level_set.bits(stem_len + period + 1)
    # Level i's coordinates are odd numerators over 2^(i+1): the inner
    # preimage s/2 keeps s's numerator, the outer one 1 - s/2 takes it
    # from the new denominator.
    xs, ys = [1, 3 if member[1] else 1], [1, 1 if member[1] else 3]
    for i in range(2, stem_len + 1):
        s, t = xs[-1], ys[-1]
        if s < t:
            ys.append(t)
            xs.append((2 << i) - s if member[i] else s)
        else:
            xs.append(s)
            ys.append(t if member[i] else (2 << i) - t)

    steps = range(stem_len + 1, stem_len + 1 + period)
    x_cycle, y_cycle = zip(*(_LETTER_TABLE[member[j - 1], member[j]] for j in steps))
    system = tent_system()
    x = ThreadPoint(system, _dyadic(xs), PeriodicTail((), x_cycle))
    y = ThreadPoint(system, _dyadic(ys), PeriodicTail((), y_cycle))

    signs = tuple(i for i in range(1, depth + 1) if xs[i] > ys[i])
    window = member[1 : depth + 1]
    if signs != tuple(i for i, bit in enumerate(window, 1) if bit):
        raise AssertionError("witness construction broke its sign invariant")
    mixed = any(window) and not all(window)
    return WitnessPair(level_set, depth, x, y, signs, mixed)


def _dyadic(numerators: list[int]) -> tuple[Fraction, ...]:
    """Level i's numerator over 2^(i+1), as exact rationals."""
    return tuple(Fraction(n, 2 << i) for i, n in enumerate(numerators))


def demonstrate_distinct_orders(
    level_set: EventuallyPeriodicSet,
    depth: int,
    u1: SimulatedUltrafilter,
    u2: SimulatedUltrafilter,
) -> dict:
    """Compare the witness pair under two ultrafilters that split on the set.

    Precondition: u1 decides the set in, u2 decides it out.  The two
    verdicts then come out opposite: the levels favoring y form (up to a
    finite difference) the complement of the set.
    """
    if not u1.decides(level_set):
        raise ValueError("u1 must decide the level set in")
    if u2.decides(level_set):
        raise ValueError("u2 must decide the level set out")
    pair = build_witness(level_set, depth)
    v1, v2 = inverse_limit_orders(pair.x, pair.y, (u1, u2), depth)
    return {
        "witness": pair.as_dict(),
        "u1": u1.as_dict(),
        "u2": u2.as_dict(),
        "verdict_u1": v1.as_dict(),
        "verdict_u2": v2.as_dict(),
        "distinct": v1.direction != v2.direction,
    }


def exhaustive_branch_oracle(depth: int) -> dict:
    """Brute-force check of the sign transition rules on all word pairs.

    Every pair of depth-step branch words from 1/2 is expanded exactly;
    the observed sign sequence must match the prediction driven only by
    the letters: equal letters preserve or flip the sign with the branch
    direction, unequal letters order the pair by letter.
    """
    if not 1 <= depth <= 12:
        raise ValueError("oracle depth must be small enough to enumerate")
    f = tent()
    # Step k's coordinates are dyadic over 2^(k+1), so all of them are
    # compared as integer numerators over the deepest denominator.
    scale = 2 << depth

    words = [[(w >> k) & 1 for k in range(depth)] for w in range(2**depth)]
    values: list[list[int]] = []
    for w in words:
        coords = [(1, 2)]
        for letter in w:
            coords.append(f.preimage_pairs(*coords[-1])[letter])
        # Reduced pairs: a denominator that does not divide the scale is off the grid.
        stray = [Fraction(n, d) for n, d in coords if scale % d]
        if stray:
            raise AssertionError(f"{stray[0]} is not a multiple of 1/{scale}")
        values.append([n * (scale // d) for n, d in coords])

    checked = 0
    for a_idx, wa in enumerate(words):
        va = values[a_idx]
        for b_idx, wb in enumerate(words):
            vb = values[b_idx]
            sign = "EQ"
            for step in range(depth):
                la, lb = wa[step], wb[step]
                if la == lb:
                    if sign != "EQ" and la == 1:
                        sign = "LT" if sign == "GT" else "GT"
                else:
                    sign = "LT" if la < lb else "GT"
                exact_a, exact_b = va[step + 1], vb[step + 1]
                observed = "EQ" if exact_a == exact_b else ("LT" if exact_a < exact_b else "GT")
                if observed != sign:
                    return {
                        "pass": False,
                        "pairs_checked": checked,
                        "counterexample": {"a": wa, "b": wb, "step": step},
                    }
                checked += 1
    return {"pass": True, "pairs_checked": checked, "words": len(words)}
