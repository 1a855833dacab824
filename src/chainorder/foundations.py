"""Shared exact primitives.

Everything in this module is small, pure, and hashable: exact rationals,
eventually periodic subsets of the naturals, and the verdict record that
order comparisons return.  No floating point anywhere; geometry stays in
``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import and_, not_, or_
from typing import Callable


# A decimal string's exact value has about as many digits as the string
# has digits plus the size of its exponent.  10**exponent is built before
# anything could look at it, in about 13 s for 1e-10000000, and Python
# refuses to print an int of more than 4300 digits, so digits and exponent
# together stay below that.
DECIMAL_DIGIT_LIMIT = 4000


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a 'p/q' or decimal string, or a Fraction to an exact rational."""
    # The exact-type test first: isinstance on Fraction is an ABC check.
    if type(value) is Fraction or isinstance(value, Fraction):
        return value
    if isinstance(value, str) and ("." in value or "e" in value or "E" in value):
        mantissa, _, exponent = value.lower().partition("e")
        try:
            size = abs(int(exponent or 0))
        except ValueError:  # malformed, or too long to read: Fraction refuses it
            size = 0
        size += sum(c.isdigit() for c in mantissa)
        if size > DECIMAL_DIGIT_LIMIT:
            raise ValueError(
                f"decimal {value!r} is too long: its exact value needs more than "
                f"{DECIMAL_DIGIT_LIMIT} digits"
            )
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def rational_str(value: Fraction) -> str:
    """Serialize a rational as 'p/q', or plain 'p' for integers."""
    if type(value) is not Fraction:
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _minimal_period(pattern: tuple[bool, ...]) -> tuple[bool, ...]:
    # A divisor d of the length is a period when shifting by d changes nothing.
    size = len(pattern)
    for d in range(1, size):
        if size % d == 0 and pattern[d:] == pattern[:-d]:
            return pattern[:d]
    return pattern


def _normalized(
    prefix: tuple[bool, ...], pattern: tuple[bool, ...]
) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """These bool tuples in normal form: minimal period, shortest prefix.

    Absorbing a prefix bit into the tail rotates the pattern right; the
    bits that go are counted first, then cut and rotated in one step.
    Rotation preserves the minimal period, so no second reduction.
    """
    pattern = _minimal_period(pattern)
    period, cut = len(pattern), 0
    while cut < len(prefix) and prefix[-1 - cut] == pattern[-1 - cut % period]:
        cut += 1
    if cut:
        prefix = prefix[:-cut]
        turn = cut % period
        pattern = pattern[-turn:] + pattern[:-turn] if turn else pattern
    return prefix, pattern


def _in_normal_form(prefix: tuple[bool, ...], pattern: tuple[bool, ...]) -> EventuallyPeriodicSet:
    """The set with these bool tuples, which are already in normal form."""
    out = object.__new__(EventuallyPeriodicSet)
    object.__setattr__(out, "prefix", prefix)
    object.__setattr__(out, "pattern", pattern)
    return out


@dataclass(frozen=True)
class EventuallyPeriodicSet:
    """A subset of the naturals with a finite prefix and a repeating tail.

    ``n`` is a member iff ``prefix[n]`` when ``n < len(prefix)``, else
    ``pattern[(n - len(prefix)) % len(pattern)]``.  Construction
    normalizes to the minimal period and the shortest prefix, so equal
    sets compare equal as values.
    """

    prefix: tuple[bool, ...]
    pattern: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("pattern must be nonempty")
        prefix = tuple(map(bool, self.prefix))
        prefix, pattern = _normalized(prefix, tuple(map(bool, self.pattern)))
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "pattern", pattern)

    # -- constructors ---------------------------------------------------

    @classmethod
    def full(cls) -> EventuallyPeriodicSet:
        return cls((), (True,))

    @classmethod
    def empty(cls) -> EventuallyPeriodicSet:
        return cls((), (False,))

    @classmethod
    def evens(cls) -> EventuallyPeriodicSet:
        return cls((), (True, False))

    @classmethod
    def odds(cls) -> EventuallyPeriodicSet:
        return cls((), (False, True))

    @classmethod
    def cofinite_from(cls, start: int) -> EventuallyPeriodicSet:
        """All naturals >= start."""
        if start < 0:
            raise ValueError("start must be a natural")
        # A last prefix bit unlike the one-bit pattern: already normal.
        return _in_normal_form((False,) * start, (True,))

    @classmethod
    def residue_class(cls, residue: int, modulus: int) -> EventuallyPeriodicSet:
        """All naturals congruent to residue mod modulus."""
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        return cls((), tuple(i == residue % modulus for i in range(modulus)))

    # -- queries ---------------------------------------------------------

    def __contains__(self, n: int) -> bool:
        if n < 0:
            raise ValueError("membership is defined on naturals only")
        if n < len(self.prefix):
            return self.prefix[n]
        return self.pattern[(n - len(self.prefix)) % len(self.pattern)]

    def bits(self, count: int) -> tuple[bool, ...]:
        """Membership bits for 0..count-1."""
        repeats = -(-max(count - len(self.prefix), 0) // len(self.pattern))
        return (self.prefix + self.pattern * repeats)[: max(count, 0)]

    # -- algebra ----------------------------------------------------------

    def _combine(
        self, other: EventuallyPeriodicSet, op: Callable[[bool, bool], bool]
    ) -> EventuallyPeriodicSet:
        start = max(len(self.prefix), len(other.prefix))
        count = start + lcm(len(self.pattern), len(other.pattern))
        # The operators map bools to bools, so only the normal form is left.
        bits = tuple(map(op, self.bits(count), other.bits(count)))
        return _in_normal_form(*_normalized(bits[:start], bits[start:]))

    def union(self, other: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
        return self._combine(other, or_)

    def intersection(self, other: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
        return self._combine(other, and_)

    def complement(self) -> EventuallyPeriodicSet:
        # Complementing keeps the period minimal and the last prefix bit
        # unlike the last pattern bit, so the result is already normal.
        return _in_normal_form(tuple(map(not_, self.prefix)), tuple(map(not_, self.pattern)))

    __or__ = union
    __and__ = intersection
    __invert__ = complement

    def as_dict(self) -> dict:
        return {
            "prefix": [int(b) for b in self.prefix],
            "period": len(self.pattern),
            "pattern": [int(b) for b in self.pattern],
        }


# Verdict kinds.
STABILIZED = "stabilized"
ULTRAFILTER_DEPENDENT = "ultrafilter_dependent"
UNKNOWN = "unknown"

# Directions.
LE = "le"
GE = "ge"
EQ = "eq"


@dataclass(frozen=True)
class ComparisonVerdict:
    """What a depth-bounded comparison of two points established.

    ``stabilized`` means the level relation is constant from ``threshold``
    on, with proof, and ``threshold <= depth``.  ``ultrafilter_dependent``
    means both strict directions recur forever; ``le_set`` is the exact
    set of levels where the first point lies at or below the second, so
    any ultrafilter decides the comparison by voting on that set.
    ``unknown`` reports only that ``depth`` levels were inspected.
    """

    kind: str
    depth: int
    direction: str | None = None
    threshold: int | None = None
    le_set: EventuallyPeriodicSet | None = None
    tower_extended: bool = False
    certificate: dict | None = None

    def __post_init__(self) -> None:
        if self.kind not in (STABILIZED, ULTRAFILTER_DEPENDENT, UNKNOWN):
            raise ValueError(f"unknown verdict kind: {self.kind!r}")
        if self.kind == STABILIZED:
            if self.direction not in (LE, GE, EQ):
                raise ValueError("stabilized verdict needs a direction")
            if self.threshold is None or self.threshold > self.depth:
                raise ValueError("stabilized verdict needs threshold <= depth")
        if self.kind == ULTRAFILTER_DEPENDENT and self.le_set is None:
            raise ValueError("ultrafilter-dependent verdict needs its le_set")

    @classmethod
    def stabilized(
        cls,
        direction: str,
        threshold: int,
        depth: int,
        certificate: dict | None = None,
    ) -> ComparisonVerdict:
        return cls(
            kind=STABILIZED,
            depth=depth,
            direction=direction,
            threshold=threshold,
            certificate=certificate,
        )

    @classmethod
    def ultrafilter_dependent(
        cls,
        le_set: EventuallyPeriodicSet,
        depth: int,
        direction: str | None = None,
        tower_extended: bool = False,
        certificate: dict | None = None,
    ) -> ComparisonVerdict:
        return cls(
            kind=ULTRAFILTER_DEPENDENT,
            depth=depth,
            direction=direction,
            le_set=le_set,
            tower_extended=tower_extended,
            certificate=certificate,
        )

    @classmethod
    def unknown(cls, depth: int) -> ComparisonVerdict:
        return cls(kind=UNKNOWN, depth=depth)

    def as_dict(self) -> dict:
        out: dict = {"kind": self.kind, "depth": self.depth}
        if self.direction is not None:
            out["direction"] = self.direction
        if self.threshold is not None:
            out["threshold"] = self.threshold
        if self.le_set is not None:
            out["le_set"] = self.le_set.as_dict()
        if self.kind == ULTRAFILTER_DEPENDENT:
            out["tower_extended"] = self.tower_extended
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out
