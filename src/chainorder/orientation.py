"""Tail-flip combinatorics on finite binary words.

The maps ``s_n`` complement every coordinate from position ``n`` on.
Truncated to words of a fixed length they are commuting involutions, so
any composition is determined by the set of indices used mod 2; the
interest is in which compositions are reachable under structural side
conditions: odd length, restriction to a marked set, or a prescribed
parity while steering one cylinder onto another.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from operator import xor
from typing import Iterable, Sequence

Word = tuple[int, ...]

EVEN = "even"
ODD = "odd"


class SearchBoundExceeded(ValueError):
    """No composition within the declared search bound (indicates a bug)."""


# The characters "0"/"1" and the integers 0/1 (bools included) are the
# bits; keying on the type keeps out 1.0 and other digits int() accepts.
_BITS = {(str, "0"): 0, (str, "1"): 1, (int, 0): 0, (int, 1): 1, (bool, False): 0, (bool, True): 1}
_INT = {int}
_BIT_VALUES = {0, 1}


def parse_word(text: str | Iterable[int]) -> Word:
    """Normalize ``"0110"`` or any iterable of 0/1 to a tuple of ints."""
    # A tuple of exact ints 0/1 is already normal: return it as it is.
    if type(text) is tuple and _INT.issuperset(map(type, text)) and _BIT_VALUES.issuperset(text):
        return text
    items = tuple(text)
    try:
        return tuple(map(_BITS.__getitem__, zip(map(type, items), items)))
    except (KeyError, TypeError):  # TypeError: an unhashable item
        raise ValueError(f"not a binary word: {text!r}") from None


def flip(n: int, w: Sequence[int]) -> Word:
    """Complement every coordinate of ``w`` from position ``n`` on."""
    return apply_composition((n,), w)


def in_A_n(n: int, w: Sequence[int]) -> bool:
    """Membership in A_n: zeros through position n-2, then a one.

    A_0 is everything.
    """
    word = parse_word(w)
    if len(word) < n:
        raise ValueError(f"word of length {len(word)} too short for A_{n}")
    if n == 0:
        return True
    return all(b == 0 for b in word[: n - 1]) and word[n - 1] == 1


def apply_composition(composition: Sequence[int], w: Sequence[int]) -> Word:
    """Apply the flips as repeated ``flip`` calls would, in one pass.

    The flips commute, so position j ends complemented exactly when an
    odd number of the indices are <= j.  Indices are checked in order,
    so a bad one raises the error its ``flip`` would.
    """
    word = parse_word(w)
    length = len(word)
    toggles = [0] * length
    for i in composition:
        if not 0 <= i < length:
            raise ValueError(f"flip index {i} outside word of length {length}")
        toggles[i] ^= 1
    return tuple(map(xor, word, accumulate(toggles, xor)))


def composition_parity(composition: Sequence[int]) -> str:
    return ODD if len(composition) % 2 else EVEN


def decompose_on_cylinder(n: int, s: Sequence[int]) -> Word:
    """Odd-length flip composition agreeing with ``flip(n, .)`` on B_s.

    Conjugates the restricted map ``s_n | A_n`` by a mover that carries
    the cylinder into A_n; the mover uses only indices below n, so the
    whole composition stays within indices <= n.
    """
    prefix = parse_word(s)
    if len(prefix) != n:
        raise ValueError(f"cylinder prefix must have length {n}, got {len(prefix)}")
    if n == 0:
        return (0,)
    target = (0,) * (n - 1) + (1,)
    mover: list[int] = []
    cur = prefix
    for i in range(n):
        if cur[i] != target[i]:
            mover.append(i)
            cur = flip(i, cur)
    assert in_A_n(n, cur), "mover failed to land in A_n"
    return tuple(mover) + (n,) + tuple(reversed(mover))


@dataclass(frozen=True)
class ReachResult:
    """A parity-constrained steering of one cylinder onto another.

    ``composition`` applied to the words extending ``source`` yields
    exactly the words extending ``image``; ``image`` extends the
    requested target prefix and ``source`` extends the requested source
    prefix.
    """

    composition: Word
    source: Word
    image: Word

    @property
    def parity(self) -> str:
        return composition_parity(self.composition)

    def as_dict(self) -> dict:
        return {
            "composition": list(self.composition),
            "parity": self.parity,
            "source": list(self.source),
            "image": list(self.image),
        }

    def verify(self, depth: int) -> bool:
        """Check, word by word at length ``depth``, that the composition
        maps the words extending ``source`` exactly onto those extending
        ``image``.

        The flips commute and each complements a tail, so the
        composition xors every word with one mask, its image of the zero
        word.  Words are compared as the binary numerals they spell.
        """
        free = depth - len(self.source)
        if free < 0:
            raise ValueError(f"depth {depth} is shorter than the source {self.source}")
        start = _numeral(parse_word(self.source)) << free
        mask = _numeral(apply_composition(self.composition, (0,) * depth))
        got = {word ^ mask for word in range(start, start + (1 << free))}
        rest = depth - len(self.image)
        if rest < 0:
            raise ValueError(f"depth {depth} is shorter than the image {self.image}")
        try:
            image = _numeral(parse_word(self.image))
        except ValueError:
            return False
        return got == set(range(image << rest, (image + 1) << rest))


def _numeral(word: Word) -> int:
    """The word read as a binary numeral, position 0 most significant."""
    value = 0
    for bit in word:
        value = value << 1 | bit
    return value


def _word(value: int, length: int) -> Word:
    """The word of the given length that spells ``value``."""
    return tuple(value >> k & 1 for k in range(length - 1, -1, -1))


def reach_with_parity(
    s: Sequence[int], target: Sequence[int], parity: str, depth: int
) -> ReachResult:
    """Steer a sub-cylinder of B_s onto the target cylinder.

    Breadth-first search over (prefix, parity) states; moves are the
    prefix flips plus one fresh index that fixes every cylinder setwise
    and toggles the parity.  Exploration order is fixed (sources in
    ascending binary order, flip indices ascending), so the returned
    composition is deterministic.
    """
    src = parse_word(s)
    tgt = parse_word(target)
    if parity not in (EVEN, ODD):
        raise ValueError(f"parity must be {EVEN!r} or {ODD!r}")
    length = max(len(src), len(tgt))
    if depth < length + 2:
        raise ValueError(f"depth {depth} too shallow: need at least {length + 2}")
    bound = 2 * (len(tgt) + 2)
    want_odd = parity == ODD
    # A prefix is the numeral it spells, so the flip at i xors its last
    # length - i bits; the fresh index flips nothing in the prefix.
    masks = [(1 << (length - i)) - 1 for i in range(length)] + [0]
    goal, shift = _numeral(tgt), length - len(tgt)

    def is_goal(prefix: int, odd: bool) -> bool:
        return odd == want_odd and prefix >> shift == goal

    # Every extension of the source to the working length starts a path,
    # in ascending binary order.
    first = _numeral(src) << (length - len(src))
    starts = range(first, first + (1 << (length - len(src))))
    seen: dict[tuple[int, bool], tuple] = {(w, False): (None, None, w) for w in starts}
    queue: deque[tuple[int, bool]] = deque(seen)

    def unwind(state: tuple[int, bool]) -> ReachResult:
        path: list[int] = []
        prefix, odd = state
        image = prefix
        while True:
            parent, move, origin = seen[(prefix, odd)]
            if parent is None:
                return ReachResult(tuple(path), _word(origin, length), _word(image, length))
            path.insert(0, move)
            prefix, odd = parent

    for state in list(queue):
        if is_goal(*state):
            return unwind(state)
    steps = 0
    while queue and steps < bound:
        steps += 1
        for _ in range(len(queue)):
            prefix, odd = queue.popleft()
            for i, mask in enumerate(masks):
                nxt = (prefix ^ mask, not odd)
                if nxt in seen:
                    continue
                seen[nxt] = ((prefix, odd), i, seen[(prefix, odd)][2])
                if is_goal(*nxt):
                    return unwind(nxt)
                queue.append(nxt)
    raise SearchBoundExceeded(
        f"no composition of length <= {bound} reaches {tgt} with {parity} parity"
    )
