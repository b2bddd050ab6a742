import pytest
from hypothesis import given, strategies as st

import oracles
from pochette.words import (
    IDENTITY,
    Generator,
    MalformedFactor,
    MissingImage,
    UnknownGenerator,
    Word,
    ZeroExponent,
    concat,
    cyclically_reduce,
    exponent_sum,
    invert,
    parse_word,
    substitute,
    word_to_text,
)
from pochette.errors import InputError

X = Generator("x")
Y = Generator("y")
ALPHABET = [X, Y]


def w(text):
    return parse_word(text, ALPHABET)


letters = st.tuples(st.sampled_from(ALPHABET), st.sampled_from([1, -1]))
words = st.lists(letters, max_size=12).map(lambda ls: Word(tuple(ls)))


def _conjugate(word: Word, letter, k: int) -> Word:
    g, s = letter
    return Word(((g, s),) * k + word.letters + ((g, -s),) * k)


# g^k w g^-k: cancelling ends, the case the reduction loop strips k times
conjugated_words = st.one_of(
    words, st.builds(_conjugate, words, letters, st.integers(0, 30))
)


class TestParse:
    def test_spun_trefoil_relator(self):
        word = w("y x^-1 y x y^-1 x")
        assert len(word) == 6
        assert word.letters == ((Y, 1), (X, -1), (Y, 1), (X, 1), (Y, -1), (X, 1))

    def test_free_reduction(self):
        assert parse_word("x x^-1", [X]) == IDENTITY

    def test_exponents_collapse(self):
        assert parse_word("x^2 * x^-3", [X]) == parse_word("x^-1", [X])

    def test_identity_spellings(self):
        assert w("1") == IDENTITY
        assert w("") == IDENTITY
        assert w("   ") == IDENTITY

    def test_star_and_space_separators(self):
        assert w("x*y") == w("x y") == w("x * y")

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator) as exc:
            w("x z")
        assert exc.value.name == "z"

    def test_malformed_factor_position(self):
        with pytest.raises(MalformedFactor) as exc:
            w("x ^2")
        assert exc.value.position == 2

    def test_zero_exponent(self):
        with pytest.raises(ZeroExponent):
            w("x^0")

    def test_leading_zero_exponent_rejected(self):
        with pytest.raises(MalformedFactor):
            w("x^01")

    def test_no_capital_inverse_shorthand(self):
        with pytest.raises(UnknownGenerator):
            w("X")

    def test_bad_generator_name(self):
        with pytest.raises(InputError):
            Generator("2x")
        with pytest.raises(InputError):
            Generator("")

    @given(words)
    def test_round_trip(self, word):
        assert parse_word(word_to_text(word), ALPHABET) == word


class TestAlgebra:
    def test_concat_cancels(self):
        assert concat(w("x"), w("x^-1")) == IDENTITY
        assert concat(w("x y"), w("y^-1 x")) == w("x^2")
        assert concat(IDENTITY, w("x y")) == w("x y")

    def test_invert_examples(self):
        assert invert(w("x y^-1")) == w("y x^-1")
        assert invert(IDENTITY) == IDENTITY
        assert invert(w("x y x")) == w("x^-1 y^-1 x^-1")

    def test_cyclic_reduce_examples(self):
        assert cyclically_reduce(w("x y x^-1")) == w("y")
        assert cyclically_reduce(IDENTITY) == IDENTITY
        # end letters x^-1 / y do not cancel
        assert cyclically_reduce(w("x^-1 y x y")) == w("x^-1 y x y")

    def test_exponent_sum_examples(self):
        assert exponent_sum(w("y x^-1 y x y^-1 x"), Y) == 1
        assert exponent_sum(IDENTITY, X) == 0

    def test_substitute_examples(self):
        m, l = Generator("m"), Generator("l")
        c12 = parse_word("l^2 m", [m, l])
        assert substitute(c12, {m: w("x"), l: w("y")}) == w("y^2 x")
        assert substitute(IDENTITY, {}) == IDENTITY
        mlm = parse_word("m l m", [m, l])
        assert substitute(mlm, {m: w("x"), l: w("x^-1")}) == w("x")

    def test_missing_image(self):
        with pytest.raises(MissingImage):
            substitute(w("x y"), {X: w("x")})

    @given(words)
    def test_invert_involution(self, word):
        assert invert(invert(word)) == word
        assert concat(word, invert(word)) == IDENTITY

    @given(words, words)
    def test_concat_associates_with_reduction(self, a, b):
        assert concat(a, b).letters == (a * b).letters

    @given(words)
    def test_cyclic_reduce_idempotent_and_shorter(self, word):
        once = cyclically_reduce(word)
        assert len(once) <= len(word)
        assert cyclically_reduce(once) == once

    @given(conjugated_words)
    def test_cyclic_reduce_against_oracle(self, word):
        expected = oracles.cyclically_reduce_oracle(word.letters)
        assert cyclically_reduce(word).letters == expected

    @given(words, words, st.sampled_from(ALPHABET))
    def test_exponent_sum_homomorphism(self, a, b, g):
        assert exponent_sum(concat(a, b), g) == exponent_sum(a, g) + exponent_sum(b, g)

    @given(words, words)
    def test_substitute_commutes_with_concat_and_invert(self, a, b):
        images = {X: w("y x"), Y: w("x^-1")}
        assert substitute(concat(a, b), images) == concat(
            substitute(a, images), substitute(b, images)
        )
        assert substitute(invert(a), images) == invert(substitute(a, images))

    @given(words)
    def test_structural_equality_is_canonical(self, word):
        rebuilt = Word(word.letters)
        assert rebuilt == word and hash(rebuilt) == hash(word)
