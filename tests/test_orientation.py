"""Tail-flip words: involutions, odd decompositions, parity-steered reach."""

from __future__ import annotations

import itertools
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainorder.orientation import (
    EVEN,
    ODD,
    ReachResult,
    SearchBoundExceeded,
    apply_composition,
    composition_parity,
    decompose_on_cylinder,
    flip,
    in_A_n,
    parse_word,
    reach_with_parity,
)

words = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12).map(tuple)


def loop_flip(n, w):
    """The flip the one-pass kernels replaced, kept as their oracle."""
    word = parse_word(w)
    if not 0 <= n < len(word):
        raise ValueError(f"flip index {n} outside word of length {len(word)}")
    return word[:n] + tuple(1 - b for b in word[n:])


def flip_by_flip(composition, w):
    """The apply_composition loop the one-pass version replaced."""
    word = parse_word(w)
    for i in composition:
        word = loop_flip(i, word)
    return word


_TABLE = {
    (str, "0"): 0, (str, "1"): 1, (int, 0): 0, (int, 1): 1, (bool, False): 0, (bool, True): 1
}


def general_parse_word(text):
    """parse_word without its fast path for tuples of ints, as its oracle."""
    items = tuple(text)
    try:
        return tuple(map(_TABLE.__getitem__, zip(map(type, items), items)))
    except (KeyError, TypeError):
        raise ValueError(f"not a binary word: {text!r}") from None


def word_by_word_verify(result, depth):
    """ReachResult.verify as it was, one apply_composition per word, as its oracle."""
    got = {
        apply_composition(result.composition, result.source + tail)
        for tail in itertools.product((0, 1), repeat=depth - len(result.source))
    }
    want = itertools.product((0, 1), repeat=depth - len(result.image))
    return got == {result.image + tail for tail in want}


def tuple_reach(s, target, parity, depth):
    """reach_with_parity as it was, searching over tuples, as its oracle."""
    src, tgt = parse_word(s), parse_word(target)
    length = max(len(src), len(tgt))
    bound = 2 * (len(tgt) + 2)

    def prefix_flip(i, prefix):
        return prefix if i >= len(prefix) else prefix[:i] + tuple(1 - b for b in prefix[i:])

    def is_goal(prefix, odd):
        return odd == (parity == ODD) and prefix[: len(tgt)] == tgt

    starts = [src + tail for tail in itertools.product((0, 1), repeat=length - len(src))]
    seen = {(w, False): (None, None, w) for w in starts}
    queue = deque(seen)

    def unwind(state):
        path = []
        prefix, odd = state
        image = prefix
        while True:
            parent, move, origin = seen[(prefix, odd)]
            if parent is None:
                return ReachResult(tuple(path), origin, image)
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
            for i in range(length + 1):
                nxt = (prefix_flip(i, prefix), not odd)
                if nxt in seen:
                    continue
                seen[nxt] = ((prefix, odd), i, seen[(prefix, odd)][2])
                if is_goal(*nxt):
                    return unwind(nxt)
                queue.append(nxt)
    raise SearchBoundExceeded(f"no composition of length <= {bound}")


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def extensions(prefix, depth):
    for tail in itertools.product((0, 1), repeat=depth - len(prefix)):
        yield prefix + tail


class TestFlip:
    def test_examples(self):
        assert flip(0, "0110") == (1, 0, 0, 1)
        assert flip(2, "0110") == (0, 1, 0, 1)

    @given(words, st.data())
    def test_involution(self, w, data):
        n = data.draw(st.integers(min_value=0, max_value=len(w) - 1))
        assert flip(n, flip(n, w)) == w

    @given(words, st.data())
    def test_prefix_untouched_tail_complemented(self, w, data):
        n = data.draw(st.integers(min_value=0, max_value=len(w) - 1))
        out = flip(n, w)
        assert out[:n] == w[:n]
        assert all(a != b for a, b in zip(out[n:], w[n:]))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="outside word"):
            flip(4, "0110")

    def test_flips_commute(self):
        for w in itertools.product((0, 1), repeat=6):
            assert flip(1, flip(4, w)) == flip(4, flip(1, w))


class TestMembership:
    def test_a_zero_is_everything(self):
        assert in_A_n(0, ())
        assert in_A_n(0, "0110")

    def test_examples(self):
        assert in_A_n(2, "0110")
        assert not in_A_n(2, "1010")

    def test_word_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            in_A_n(3, "01")

    def test_definition_at_depth_six(self):
        for n in range(1, 7):
            for w in itertools.product((0, 1), repeat=6):
                expected = all(b == 0 for b in w[: n - 1]) and w[n - 1] == 1
                assert in_A_n(n, w) == expected


class TestDecompose:
    def test_examples(self):
        assert decompose_on_cylinder(0, ()) == (0,)
        assert decompose_on_cylinder(1, (1,)) == (1,)
        assert decompose_on_cylinder(1, (0,)) == (0, 1, 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_pointwise_equal_to_the_tail_flip(self, n):
        depth = 8
        for s in itertools.product((0, 1), repeat=n):
            comp = decompose_on_cylinder(n, s)
            assert len(comp) % 2 == 1
            assert composition_parity(comp) == ODD
            assert max(comp) <= n
            for w in extensions(s, depth):
                assert apply_composition(comp, w) == flip(n, w)

    def test_mover_is_a_palindrome_conjugation(self):
        comp = decompose_on_cylinder(3, (1, 0, 1))
        assert comp == (0, 1, 3, 1, 0)
        assert comp == tuple(reversed(comp))

    def test_wrong_prefix_length(self):
        with pytest.raises(ValueError, match="length"):
            decompose_on_cylinder(2, (0, 1, 1))


class TestOnePassAgainstLoop:
    any_words = st.one_of(
        st.lists(st.integers(min_value=0, max_value=1), max_size=12).map(tuple),
        st.lists(st.sampled_from("01"), max_size=12).map("".join),
        st.lists(st.booleans(), max_size=12),
    )

    # Indices run past both ends of the word, so bad ones are common.
    @given(any_words, st.lists(st.integers(min_value=-2, max_value=13), max_size=9))
    def test_apply_composition(self, w, composition):
        got = outcome(apply_composition, composition, w)
        assert got == outcome(flip_by_flip, composition, w)
        assert all(type(b) is int for b in got) or isinstance(got[0], type)

    @given(any_words, st.integers(min_value=-2, max_value=13))
    def test_flip(self, w, n):
        assert outcome(flip, n, w) == outcome(loop_flip, n, w)

    def test_first_bad_index_names_the_error(self):
        with pytest.raises(ValueError, match="^flip index 7 outside word of length 4$"):
            apply_composition((1, 7, -1), "0110")


class TestParity:
    def test_empty_is_even(self):
        assert composition_parity(()) == EVEN

    def test_examples(self):
        assert composition_parity((0, 1, 0)) == ODD
        assert composition_parity((2, 2)) == EVEN


def exact_image(result: ReachResult, depth: int) -> bool:
    got = {apply_composition(result.composition, w) for w in extensions(result.source, depth)}
    return got == set(extensions(result.image, depth))


class TestReach:
    def test_odd_example(self):
        result = reach_with_parity((0,), (1, 1), ODD, 6)
        assert result.composition == (0,)
        assert result.source == (0, 0)
        assert result.image == (1, 1)

    def test_even_example_appends_a_fresh_flip(self):
        result = reach_with_parity((0,), (1, 1), EVEN, 6)
        assert result.composition == (0, 2)
        assert result.image == (1, 1)
        assert exact_image(result, 6)

    def test_identity_case(self):
        result = reach_with_parity((0, 1), (0, 1), EVEN, 6)
        assert result.composition == ()
        assert result.source == (0, 1)

    def test_all_short_prefixes_both_parities(self):
        prefixes = [p for k in range(4) for p in itertools.product((0, 1), repeat=k)]
        for src in prefixes:
            for tgt in prefixes:
                for parity in (EVEN, ODD):
                    result = reach_with_parity(src, tgt, parity, 8)
                    assert result.parity == parity
                    assert result.source[: len(src)] == src
                    assert result.image[: len(tgt)] == tgt
                    assert exact_image(result, 8)

    def test_images_cover_all_targets(self):
        # Steering from one source reaches every length-2 cylinder, the
        # finite covering device behind the category argument.
        covered = set()
        for tgt in itertools.product((0, 1), repeat=2):
            result = reach_with_parity((0,), tgt, EVEN, 6)
            covered.update(extensions(result.image, 2))
        assert covered == set(itertools.product((0, 1), repeat=2))

    def test_depth_too_shallow(self):
        with pytest.raises(ValueError, match="too shallow"):
            reach_with_parity((0, 1), (1, 1, 0), ODD, 4)

    def test_bad_parity(self):
        with pytest.raises(ValueError, match="parity"):
            reach_with_parity((0,), (1,), "both", 6)

    def test_bound_error_is_a_value_error(self):
        assert issubclass(SearchBoundExceeded, ValueError)


class TestVerifyAgainstWordByWord:
    prefixes = [p for k in range(4) for p in itertools.product((0, 1), repeat=k)]

    def test_reach_results(self):
        for src in self.prefixes:
            for tgt in self.prefixes:
                for parity in (EVEN, ODD):
                    result = reach_with_parity(src, tgt, parity, 7)
                    for depth in (5, 7, 9):
                        assert result.verify(depth) is word_by_word_verify(result, depth) is True

    @given(
        st.lists(st.integers(min_value=0, max_value=5), max_size=6).map(tuple),
        st.lists(st.integers(min_value=0, max_value=1), max_size=4).map(tuple),
        st.lists(st.integers(min_value=0, max_value=1), max_size=4).map(tuple),
        st.integers(min_value=4, max_value=7),
    )
    def test_any_triple(self, composition, source, image, depth):
        result = ReachResult(composition, source, image)
        assert outcome(result.verify, depth) == outcome(word_by_word_verify, result, depth)

    def test_tampering_is_caught(self):
        result = reach_with_parity((0, 1), (1, 1, 0), ODD, 8)
        assert result.verify(8)
        comp, source, image = result.composition, result.source, result.image
        tampered = (
            ReachResult(comp + (2,), source, image),
            ReachResult(comp[1:], source, image),
            ReachResult(comp, (1 - source[0],) + source[1:], image),
            ReachResult(comp, source, image[:-1] + (1 - image[-1],)),
            ReachResult(comp, source, image + (0,)),
        )
        for bad in tampered:
            assert bad.verify(8) is False
            assert word_by_word_verify(bad, 8) is False

    def test_bad_index_keeps_its_error(self):
        result = ReachResult((1, 8), (0,), (1,))
        with pytest.raises(ValueError, match="^flip index 8 outside word of length 8$"):
            result.verify(8)
        with pytest.raises(ValueError, match="^flip index 8 outside word of length 8$"):
            word_by_word_verify(result, 8)

    def test_depth_below_the_source_is_refused(self):
        result = ReachResult((), (0, 1, 1), (0, 1, 1))
        with pytest.raises(ValueError, match="shorter than the source"):
            result.verify(2)
        with pytest.raises(ValueError):
            word_by_word_verify(result, 2)


class TestReachAgainstTupleSearch:
    def test_all_short_prefixes(self):
        prefixes = [p for k in range(5) for p in itertools.product((0, 1), repeat=k)]
        for src in prefixes:
            for tgt in prefixes:
                for parity in (EVEN, ODD):
                    depth = max(len(src), len(tgt)) + 2
                    got = reach_with_parity(src, tgt, parity, depth)
                    assert got == tuple_reach(src, tgt, parity, depth)
                    assert all(type(b) is int for b in got.source + got.image)

    @given(
        st.lists(st.integers(min_value=0, max_value=1), max_size=9),
        st.lists(st.integers(min_value=0, max_value=1), max_size=9),
        st.sampled_from((EVEN, ODD)),
    )
    def test_longer_prefixes(self, src, tgt, parity):
        depth = max(len(src), len(tgt)) + 2
        assert reach_with_parity(src, tgt, parity, depth) == tuple_reach(src, tgt, parity, depth)


class TestParseWord:
    def test_string_and_iterable_agree(self):
        assert parse_word("0110") == parse_word([0, 1, 1, 0]) == (0, 1, 1, 0)

    def test_rejects_other_symbols(self):
        with pytest.raises(ValueError, match="binary"):
            parse_word("012")

    def test_bools_become_ints(self):
        word = parse_word([True, False, 1, "0"])
        assert word == (1, 0, 1, 0)
        assert all(type(b) is int for b in word)

    # int() turned each of these into a bit: a float, Arabic-Indic digits,
    # and a digit string with a stray letter (which int() refused with
    # its own message).
    @pytest.mark.parametrize("text", [[1.5], [1.0], "\u0661\u0660", "0a1", ["10"], [[1]]])
    def test_rejects_what_is_not_a_bit(self, text):
        with pytest.raises(ValueError, match="^not a binary word: "):
            parse_word(text)

    bits_and_lookalikes = st.sampled_from([0, 1, True, False, 1.0, 0.0, 2, -1, "1", "0"])

    @given(st.lists(bits_and_lookalikes, max_size=8))
    def test_fast_path_agrees_with_the_general_path(self, items):
        for text in (tuple(items), items):
            assert outcome(parse_word, text) == outcome(general_parse_word, text)
        word = tuple(items)
        if all(type(b) is int and b in (0, 1) for b in word):
            assert parse_word(word) is word

    @pytest.mark.parametrize(
        "item,bit", [(True, 1), (False, 0), (1.0, None), (2, None), ("1", 1)]
    )
    def test_lookalikes_take_the_general_path(self, item, bit):
        word = (0, item, 1)
        got = outcome(parse_word, word)
        assert got == outcome(general_parse_word, word)
        if bit is None:
            assert got == (ValueError, f"not a binary word: {word!r}")
        else:
            assert got == (0, bit, 1) and all(type(b) is int for b in got)
