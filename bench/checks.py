"""Checkers that recompute what the program claims, without the program.

Nothing here imports chainorder.  Each checker works from plain data:
the strand parameters a query was built from, the JSON a report
printed, or the branch words a thread was generated from.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

LT, EQ, GT = "LT", "EQ", "GT"


# -- tent-map threads -----------------------------------------------------------


def expand_thread(stem, prefix, cycle, upto: int) -> list[Fraction]:
    """Coordinates 0..upto of a tent-map thread.

    The tent map's preimages of v are v/2 and 1 - v/2; letter 0 picks
    the smaller one.  Coordinates past the stem come from the branch
    word `prefix` followed by `cycle` repeated forever.
    """
    coords = [Fraction(v) for v in stem[: upto + 1]]
    while len(coords) <= upto:
        step = len(coords) - len(stem)
        if step < len(prefix):
            letter = prefix[step]
        else:
            letter = cycle[(step - len(prefix)) % len(cycle)]
        v = coords[-1]
        if letter == 0:
            coords.append(v / 2)
        elif letter == 1 and v != 1:
            coords.append(1 - v / 2)
        else:
            raise ValueError(f"letter {letter} names no preimage of {v}")
    return coords


def signs(xs, ys) -> list[str]:
    """Coordinatewise comparison, level by level."""
    return [LT if a < b else GT if a > b else EQ for a, b in zip(xs, ys)]


def periodic_from(cyclic_levels, cycle_lengths) -> tuple[int, int]:
    """(level, period bound) from which the sign sequence of two
    interior tent threads repeats.

    `cyclic_levels` are the levels from which each thread's branch
    letters are purely cyclic.  After both are, the next sign depends
    only on the two cycle positions and the current sign, so the signs
    repeat with a period dividing twice the lcm of the cycle lengths, at
    the latest one such period after both words turned cyclic.
    """
    period = 2 * lcm(*cycle_lengths)
    return max(cyclic_levels) + period, period


# -- residue votes on eventually periodic sets ----------------------------------------


def eventual_period(bits, start: int) -> int:
    """Smallest d with bits[n] == bits[n + d] for every n >= start seen."""
    tail = list(bits[start:])
    for d in range(1, len(tail) // 2 + 1):
        if all(tail[i] == tail[i + d] for i in range(len(tail) - d)):
            return d
    raise ValueError("tail too short to show a period")


def residue_vote(bits, start: int, moduli, residues) -> tuple[bool, int, bool]:
    """How a residue tower votes on the set {n : bits[n]}.

    The tower votes with the first modulus that the set's eventual
    period divides; without one it appends lcm(last modulus, period)
    with the last residue.  The vote is the common membership of the
    tail levels n = residue (mod modulus), which must all agree.
    Returns (vote, modulus used, whether the tower was extended).
    """
    period = eventual_period(bits, start)
    for m, r in zip(moduli, residues):
        if m % period == 0:
            modulus, residue, extended = m, r, False
            break
    else:
        modulus, residue, extended = lcm(moduli[-1], period), residues[-1], True
    votes = {bits[n] for n in range(start, len(bits)) if n % modulus == residue % modulus}
    if len(votes) != 1:
        raise ValueError(f"residue class {residue} mod {modulus} has no single vote")
    return votes.pop(), modulus, extended


def epset_bits(prefix, pattern, count: int) -> list[bool]:
    """Membership of 0..count-1 in the eventually periodic set."""
    return [
        bool(prefix[n]) if n < len(prefix) else bool(pattern[(n - len(prefix)) % len(pattern)])
        for n in range(count)
    ]


# -- chain levels ------------------------------------------------------------------


def link_relation(idx_x, idx_y) -> str:
    """The level relation two link ranges allow.

    x may precede y when x's first link starts no later than y's last,
    and symmetrically; a pair of ranges allowing neither is impossible.
    """
    le = idx_x[0] <= idx_y[1]
    ge = idx_y[0] <= idx_x[1]
    if le and ge:
        return "both"
    if le:
        return "le_only"
    if ge:
        return "ge_only"
    raise ValueError(f"ranges {idx_x} and {idx_y} allow neither direction")


def walk_key(space: str, variant: str, strand: str, param: Fraction) -> tuple:
    """Position of a settled point along a catalog family's walk.

    Keys compare like the walk order: a point with the smaller key lies
    in earlier links.  For S3, `variant` is the bit prefix.
    """
    if space == "arc":
        return (-param,) if variant == "reversed" else (param,)
    if space in ("s1", "s2"):
        if strand == "wave":
            key = (0, param)
        elif space == "s1" and strand == "bar":
            # D and E enter the limit bar from the top, D' and E' from the bottom.
            key = (1, 1 - param) if variant in ("D", "E") else (1, param + 1)
        elif space == "s2" and strand == "ell":
            key = (1, param)
        else:
            raise ValueError(f"no strand {strand!r} in {space}")
        flipped = variant in ("E", "E'", "reversed")
        return (-key[0], -key[1]) if flipped else key
    if space == "s3":
        kind, _, index = strand.partition("_")
        i = int(index)
        if kind == "tooth":
            # Bit 0 walks tooth i bottom first, bit 1 top first.
            return (2 * i, param if variant[i - 1] == "0" else -param)
        if kind == "gap":
            # A gap is walked from the tooth-i flank (w > 0) to tooth i+1.
            return (2 * i + 1, -param)
        raise ValueError(f"no strand {strand!r} in s3")
    if space == "t":
        # D: spiral from its free end inward, bar bottom to top, wave from
        # the deep cut out to its free end.  E: bar top to bottom, the same
        # wave walk, then the spiral from the deep cut out to its free end.
        if variant == "D":
            keys = {"spiral": (0, -param), "bar": (1, param), "wave": (2, -param)}
        else:
            keys = {"bar": (0, -param), "wave": (1, -param), "spiral": (2, param)}
        return keys[strand]
    raise ValueError(f"unknown space {space!r}")


def expected_direction(key_x: tuple, key_y: tuple) -> str:
    if key_x == key_y:
        return "eq"
    return "le" if key_x < key_y else "ge"
