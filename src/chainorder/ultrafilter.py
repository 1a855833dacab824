"""Finitely represented stand-ins for nonprincipal ultrafilters on the naturals.

A tower holds a chain of moduli, each dividing the next, with one residue
per modulus, compatible downward.  The residue classes generate a filter
whose nonprincipal extensions all agree on every eventually periodic set
whose period divides some modulus in the tower; that shared verdict is
what ``decide`` returns.  When no modulus fits, the tower is extended in
the minimal compatible way and the result is flagged.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .foundations import EventuallyPeriodicSet


@dataclass(frozen=True)
class Decision:
    """Outcome of deciding one set: the verdict, and whether the tower grew for it."""

    value: bool
    extended: bool


@dataclass(frozen=True)
class SimulatedUltrafilter:
    moduli: tuple[int, ...]
    residues: tuple[int, ...]

    def __post_init__(self) -> None:
        moduli, residues = tuple(self.moduli), tuple(self.residues)
        # Exact ints only (bools included), so 2.7 is never truncated to 2.
        if not all(isinstance(v, int) for v in moduli + residues):
            raise ValueError("moduli and residues must be integers")
        moduli, residues = tuple(map(int, moduli)), tuple(map(int, residues))
        if not moduli or len(moduli) != len(residues):
            raise ValueError("need one residue per modulus, at least one modulus")
        if any(m < 1 for m in moduli):
            raise ValueError("moduli must be positive")
        if any(n % m != 0 for m, n in zip(moduli, moduli[1:])):
            raise ValueError("each modulus must divide the next")
        if any(m >= n for m, n in zip(moduli, moduli[1:])):
            raise ValueError("moduli must increase strictly")
        if any(not 0 <= r < m for m, r in zip(moduli, residues)):
            raise ValueError("residues must be reduced mod their modulus")
        if any(rn % m != rm for (m, rm), rn in zip(zip(moduli, residues), residues[1:])):
            raise ValueError("residues must be compatible down the tower")
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "residues", residues)

    @classmethod
    def binary_tower(cls, bits: tuple[int, ...] | list[int]) -> "SimulatedUltrafilter":
        """Tower 1 | 2 | 4 | ... with the residue's binary digits given low-first."""
        moduli = [1]
        residues = [0]
        for k, bit in enumerate(bits):
            if not isinstance(bit, int) or bit not in (0, 1):
                raise ValueError("binary tower digits must be 0 or 1")
            moduli.append(2 ** (k + 1))
            residues.append(residues[-1] + bit * 2**k)
        return cls(tuple(moduli), tuple(residues))

    @classmethod
    def factorial_tower(cls, digits: tuple[int, ...] | list[int]) -> "SimulatedUltrafilter":
        """Tower 1! | 2! | 3! | ... ; digit k picks the residue refinement mod (k+2)!."""
        moduli = [1]
        residues = [0]
        for k, digit in enumerate(digits):
            base = moduli[-1]
            if not isinstance(digit, int) or not 0 <= digit < k + 2:
                raise ValueError(f"factorial digit {k} must lie in [0, {k + 2})")
            moduli.append(base * (k + 2))
            residues.append(residues[-1] + digit * base)
        return cls(tuple(moduli), tuple(residues))

    @classmethod
    def parse(cls, text: str) -> "SimulatedUltrafilter":
        """Parse 'r2=0,r6=4' style residue lists, ascending by modulus."""
        entries = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            m = re.fullmatch(r"r(\d+)=(\d+)", token)
            if m is None:
                raise ValueError(f"bad residue token: {token!r}")
            entries.append((int(m.group(1)), int(m.group(2))))
        entries.sort()
        moduli = tuple(m for m, _ in entries)
        residues = tuple(r for _, r in entries)
        if not moduli or moduli[0] != 1:
            moduli = (1,) + moduli
            residues = (0,) + residues
        return cls(moduli, residues)

    def as_dict(self) -> dict:
        return {"moduli": list(self.moduli), "residues": list(self.residues)}

    def label(self) -> str:
        return ",".join(f"r{m}={r}" for m, r in zip(self.moduli, self.residues) if m > 1) or "r1=0"

    def ensure_period(self, period: int) -> "SimulatedUltrafilter":
        """Extend minimally (fresh digits zero) until some modulus absorbs the period."""
        if period < 1:
            raise ValueError("period must be positive")
        if self.moduli[-1] % period == 0:  # each modulus divides the top one
            return self
        # The new modulus is a strict multiple of the top one, and the top
        # residue is reduced below it and compatible with it, so the tower
        # is valid as built and skips the checks of ``__post_init__``.
        out = object.__new__(SimulatedUltrafilter)
        object.__setattr__(out, "moduli", self.moduli + (math.lcm(self.moduli[-1], period),))
        object.__setattr__(out, "residues", self.residues + (self.residues[-1],))
        return out

    def decide(self, s: EventuallyPeriodicSet) -> Decision:
        """The verdict 'is s in the ultrafilter', from the residue class alone.

        Every member of the class n = r (mod m) beyond the prefix has the
        same membership bit in s once the period divides m, so all
        nonprincipal ultrafilters containing the class agree.  The first
        such modulus decides; only when none fits is the tower extended.
        """
        period = len(s.pattern)
        tower = self.ensure_period(period)
        r = next(r for m, r in zip(tower.moduli, tower.residues) if m % period == 0)
        return Decision(bool(s.pattern[(r - len(s.prefix)) % period]), tower is not self)

    def decides(self, s: EventuallyPeriodicSet) -> bool:
        return self.decide(s).value


# Immutable, so one of each serves every report.
_FULL = EventuallyPeriodicSet.full()
_EMPTY = EventuallyPeriodicSet.empty()


def filter_axiom_report(
    tower: SimulatedUltrafilter,
    s: EventuallyPeriodicSet,
    t: EventuallyPeriodicSet,
) -> dict:
    """Check the ultrafilter laws on the Boolean algebra generated by s and t.

    All verdicts are taken on one common tower so no decision triggers a
    further extension mid-report.
    """
    period = math.lcm(len(s.pattern), len(t.pattern))
    common = tower.ensure_period(period)
    extended = common is not tower
    # The top modulus is a multiple of every period below, and residues
    # agree down the tower, so each verdict equals ``common.decide``'s.
    modulus, residue = common.moduli[-1], common.residues[-1]

    def verdict(a: EventuallyPeriodicSet) -> bool:
        assert modulus % len(a.pattern) == 0, "a verdict would extend the tower"
        return bool(a.pattern[(residue - len(a.prefix)) % len(a.pattern)])

    ds, dt = verdict(s), verdict(t)
    d_and, d_or = verdict(s & t), verdict(s | t)
    horizon = max(len(s.prefix), len(t.prefix)) + 2
    checks = {
        "complement_dichotomy": verdict(~s) == (not ds) and verdict(~t) == (not dt),
        "intersection": d_and == (ds and dt),
        "union": d_or == (ds or dt),
        "upward_closure": (not ds or d_or) and (not dt or d_or),
        "full_set": verdict(_FULL),
        "empty_set": not verdict(_EMPTY),
        "cofinite_sets": verdict(EventuallyPeriodicSet.cofinite_from(horizon)),
    }
    return {
        "tower": common.as_dict(),
        "extended": extended,
        "decisions": {"s": ds, "t": dt, "s_and_t": d_and, "s_or_t": d_or},
        "checks": checks,
        "pass": all(checks.values()),
    }
