import copy
import pickle
from operator import attrgetter

import pytest
from hypothesis import given, strategies as st

import oracles
from pochette.words import (
    IDENTITY,
    Generator,
    Word,
    cyclically_reduce,
    exponent_sum,
    invert,
    parse_word,
    substitute,
    word_to_text,
)
from pochette.budgets import Budgets
from pochette.cli import _sweep_worker
from pochette.errors import InputError
from pochette.ribbon import spun_trefoil_embedding

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
        with pytest.raises(InputError) as exc:
            w("x z")
        assert str(exc.value) == "unknown generator 'z'"

    def test_malformed_factor_position(self):
        with pytest.raises(InputError) as exc:
            w("x ^2")
        assert str(exc.value) == "malformed factor '^2' at position 2"

    def test_zero_exponent(self):
        with pytest.raises(InputError) as exc:
            w("x^0")
        assert str(exc.value) == "zero exponent at position 0"

    def test_leading_zero_exponent_rejected(self):
        with pytest.raises(InputError) as exc:
            w("x^01")
        assert str(exc.value) == "malformed factor 'x^01' at position 0"

    def test_no_capital_inverse_shorthand(self):
        with pytest.raises(InputError) as exc:
            w("X")
        assert str(exc.value) == "unknown generator 'X'"

    def test_bad_generator_name(self):
        with pytest.raises(InputError):
            Generator("2x")
        with pytest.raises(InputError):
            Generator("")

    def test_generators_are_interned(self):
        assert Generator("x") is X
        assert Generator(name="y") is Y
        assert repr(X) == "Generator(name='x')"
        # equality and hash are object identity through C slots, and there is
        # no order: code that needs one sorts by name
        assert type(X).__eq__ is object.__eq__ and type(X).__hash__ is object.__hash__
        with pytest.raises(TypeError):
            X < Y
        names = [Generator("b"), Generator("a2"), Generator("a")]
        assert sorted(names, key=attrgetter("name")) == [
            Generator("a"), Generator("a2"), Generator("b")
        ]
        with pytest.raises(AttributeError):
            X.name = "z"
        with pytest.raises(AttributeError):
            X.other = 1
        with pytest.raises(AttributeError):
            del X.name
        assert X.name == "x"

    def test_generator_copies_are_the_interned_object(self):
        pickled = [pickle.dumps(X, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copied in (
            *map(pickle.loads, pickled),
            copy.copy(X),
            copy.deepcopy(X),
            copy.deepcopy([X, (X, 1)])[1][0],
        ):
            assert copied is X

    def test_sweep_job_survives_pickle(self):
        # --jobs sends each (data, p, q, epsilon, budgets) tuple to a worker
        # process, pickled under the spawn and forkserver start methods
        job = (spun_trefoil_embedding(), 5, 6, 1, Budgets(max_cosets=1000))
        copied = pickle.loads(pickle.dumps(job))
        assert copied == job
        assert copied[0].knot_group.alphabet[0] is job[0].knot_group.alphabet[0]
        assert _sweep_worker(copied) == _sweep_worker(job)

    @given(words)
    def test_round_trip(self, word):
        assert parse_word(word_to_text(word), ALPHABET) == word


class TestAlgebra:
    def test_concat_cancels(self):
        assert w("x") * w("x^-1") == IDENTITY
        assert w("x y") * w("y^-1 x") == w("x^2")
        assert IDENTITY * w("x y") == w("x y")

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

    def test_str(self):
        assert str(X) == "x"
        assert str(w("x^2 y^-1")) == "x^2 y^-1"
        assert str(IDENTITY) == "1"

    def test_letter_sign_must_be_unit(self):
        with pytest.raises(ValueError) as exc:
            Word(((X, 1), (Y, 2)))
        assert str(exc.value) == "letter sign must be +-1, got 2"

    def test_missing_image(self):
        with pytest.raises(InputError) as exc:
            substitute(w("x y"), {X: w("x")})
        assert str(exc.value) == "no image given for generator 'y'"

    @given(words)
    def test_invert_involution(self, word):
        assert invert(invert(word)) == word
        assert word * invert(word) == IDENTITY

    @given(words)
    def test_cyclic_reduce_idempotent_and_shorter(self, word):
        once = cyclically_reduce(word)
        assert len(once) <= len(word)
        assert cyclically_reduce(once) is once

    @given(conjugated_words)
    def test_cyclic_reduce_against_oracle(self, word):
        expected = oracles.cyclically_reduce_oracle(word.letters)
        assert cyclically_reduce(word).letters == expected

    @given(words, words, st.sampled_from(ALPHABET))
    def test_exponent_sum_homomorphism(self, a, b, g):
        assert exponent_sum(a * b, g) == exponent_sum(a, g) + exponent_sum(b, g)

    @given(words, words)
    def test_substitute_commutes_with_concat_and_invert(self, a, b):
        images = {X: w("y x"), Y: w("x^-1")}
        assert substitute(a * b, images) == substitute(a, images) * substitute(b, images)
        assert substitute(invert(a), images) == invert(substitute(a, images))

    @given(words, st.dictionaries(st.sampled_from(ALPHABET), words))
    def test_substitute_against_oracle(self, word, images):
        try:
            expected = oracles.substitute_oracle(word, images)
        except InputError as missing:
            with pytest.raises(InputError) as raised:
                substitute(word, images)
            assert str(raised.value) == str(missing)
        else:
            assert substitute(word, images) == expected

    @given(words)
    def test_structural_equality_is_canonical(self, word):
        rebuilt = Word(word.letters)
        assert rebuilt == word and hash(rebuilt) == hash(word)
