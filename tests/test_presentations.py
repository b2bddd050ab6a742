import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pochette.abelian import abelian_invariants
from pochette.coset_enum import certify_trivial, enumerate_cosets
from pochette.errors import InputError
from pochette.presentations import (
    FinitePresentation,
    PermutationAssignment,
    _relator_key,
    add_relator,
    assignment_satisfies,
    format_presentation,
    parse_presentation,
    relators_equivalent,
    tietze_simplify,
)
from pochette.ribbon import n_fusion_presentation, random_fusion_data
from pochette.words import Generator, Word, invert, parse_word

X = Generator("x")
Y = Generator("y")


def w(text, alphabet=(X, Y)):
    return parse_word(text, alphabet)


# multi-character names whose string order differs from a naive one
# ("x1" < "x10" < "x2", "a" < "ab")
ALPHABETS = st.lists(
    st.sampled_from(("a", "ab", "x1", "x10", "x2")), min_size=1, max_size=3, unique=True
).map(lambda names: tuple(Generator(n) for n in names))


def _named(word: Word) -> tuple:
    return tuple((g.name, s) for g, s in word.letters)


def _conjugate(word: Word, letter, k: int) -> Word:
    g, s = letter
    return Word(((g, s),) * k + word.letters + ((g, -s),) * k)


def _words_over(alphabet):
    """Plain words, periodic words u^k, and conjugates with cancelling ends."""
    letter = st.tuples(st.sampled_from(alphabet), st.sampled_from([1, -1]))
    plain = st.lists(letter, max_size=10).map(lambda ls: Word(tuple(ls)))
    periodic = st.builds(lambda u, k: u**k, plain, st.integers(2, 5))
    conjugated = st.builds(_conjugate, plain, letter, st.integers(1, 4))
    return st.one_of(plain, periodic, conjugated)


def _rotate(word: Word, k: int) -> Word:
    k %= max(1, len(word))
    return Word(word.letters[k:] + word.letters[:k])


def _flip(word: Word, k: int) -> Word:
    """Same length (unless it now cancels), usually not equivalent."""
    if not word:
        return word
    k %= len(word)
    g, s = word.letters[k]
    return Word(word.letters[:k] + ((g, -s),) + word.letters[k + 1 :])


_TRANSFORMS = (lambda word, k: word, _rotate, lambda word, k: invert(word), _flip)


class TestParse:
    def test_surgery_presentation(self):
        P = parse_presentation("gens: x,y\nrels: y x^-1 y x y^-1 x ; y^2 x")
        assert P.alphabet == (X, Y)
        assert P.relators == (w("y x^-1 y x y^-1 x"), w("y^2 x"))

    def test_free_group(self):
        P = parse_presentation("gens: x\nrels:")
        assert P.alphabet == (Generator("x"),)
        assert P.relators == ()

    def test_s3_order_via_enumeration(self):
        P = parse_presentation("gens: a,b\nrels: a^2; b^2; a b a b a b")
        result = enumerate_cosets(P)
        assert result.kind == "Completed" and result.index == 6

    def test_comments_and_blank_lines(self):
        text = "# spun trefoil\n\ngens: x, y  # generators\n\nrels: y x^-1 y x y^-1 x\n"
        P = parse_presentation(text)
        assert len(P.relators) == 1

    def test_missing_sections(self):
        with pytest.raises(InputError) as exc:
            parse_presentation("rels: x")
        assert str(exc.value) == "presentation text is missing a 'gens:' line"
        with pytest.raises(InputError) as exc:
            parse_presentation("gens: x")
        assert str(exc.value) == "presentation text is missing a 'rels:' line"

    def test_word_errors_carry_line(self):
        with pytest.raises(InputError) as exc:
            parse_presentation("gens: x\nrels: x ; z")
        assert str(exc.value) == "line 2: column 10: unknown generator 'z'"

    @pytest.mark.parametrize(
        "rels",
        [
            # the bad relator's text also occurs inside the first relator
            "rels: y x^-1 ; x^-",
            # an empty piece between two separators still counts
            "rels: x ;; y ; x^0",
            # columns count from the start of the line as written
            "     rels: x ; x^-",
        ],
    )
    def test_word_error_column_is_where_the_relator_starts(self, rels):
        with pytest.raises(InputError) as exc:
            parse_presentation(f"gens: x, y\n{rels}")
        assert str(exc.value).startswith("line 2: column 15: ")

    def test_unrecognized_line(self):
        with pytest.raises(InputError) as exc:
            parse_presentation("gens: x\nstuff\nrels:")
        assert str(exc.value) == "line 2: unrecognized line 'stuff'"

    def test_duplicate_generators_rejected(self):
        with pytest.raises(InputError) as exc:
            parse_presentation("gens: x, x\nrels:")
        assert str(exc.value) == "line 1: duplicate generator names in ['x', 'x']"

    def test_round_trip(self):
        for text in (
            "gens: x, y\nrels: y x^-1 y x y^-1 x ; y^2 x",
            "gens: x\nrels: ",
            "gens: \nrels: ",
            "gens: a, b, c\nrels: a b^-2 c ; c^3",
        ):
            P = parse_presentation(text)
            assert parse_presentation(format_presentation(P)) == P


class TestConstruction:
    def test_relators_stored_cyclically_reduced(self):
        P = FinitePresentation((X, Y), (w("x y x^-1"),))
        assert P.relators == (w("y"),)

    def test_identity_relator_dropped(self):
        P = FinitePresentation((X,), (Word(),))
        assert P.relators == ()

    def test_duplicates_up_to_rotation_and_inversion_dropped(self):
        P = FinitePresentation((X, Y), (w("x y"), w("y x"), w("y^-1 x^-1")))
        assert len(P.relators) == 1

    def test_alphabet_mismatch(self):
        with pytest.raises(InputError) as exc:
            FinitePresentation((X,), (w("x y"),))
        assert str(exc.value) == (
            "relator 'x y' uses generators outside the alphabet: ['y']"
        )

    def test_same_length_inequivalent_relators_kept(self):
        P = FinitePresentation((X, Y), (w("x y"), w("x y^-1"), w("y x"), w("y x^-1")))
        assert P.relators == (w("x y"), w("x y^-1"))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_dedup_against_oracle(self, data):
        alphabet = data.draw(ALPHABETS)
        bases = data.draw(st.lists(_words_over(alphabet), min_size=1, max_size=4))
        picks = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(bases),
                    st.sampled_from(_TRANSFORMS),
                    st.integers(0, 40),
                ),
                max_size=8,
            )
        )
        relators = tuple(transform(word, k) for word, transform, k in picks)
        P = FinitePresentation(alphabet, relators)
        expected = oracles.dedup_relators_oracle([_named(r) for r in relators])
        assert [_named(r) for r in P.relators] == expected



class TestAddRelator:
    def test_appends(self):
        P = parse_presentation("gens: x,y\nrels: y x^-1 y x y^-1 x")
        Q = add_relator(P, w("y^2 x"))
        assert Q.relators == P.relators + (w("y^2 x"),)

    def test_identity_unchanged(self):
        P = parse_presentation("gens: x,y\nrels: x y")
        assert add_relator(P, Word()) == P

    def test_idempotent(self):
        P = parse_presentation("gens: x,y\nrels: x y")
        once = add_relator(P, w("y^2 x"))
        assert add_relator(once, w("y^2 x")) == once


@st.composite
def permutation_actions(draw):
    """(P, images): 2 or 3 generators, relators of up to 8 letters, degree 1 to 6."""
    alphabet = (X, Y, Generator("z"))[: draw(st.sampled_from((2, 3)))]
    letter = st.tuples(st.sampled_from(alphabet), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letter, min_size=1, max_size=8), max_size=3))
    P = FinitePresentation(alphabet, tuple(Word(tuple(r)) for r in relators))
    degree = draw(st.integers(1, 6))
    images = tuple(tuple(draw(st.permutations(range(degree)))) for _ in alphabet)
    return P, images


class TestAssignmentSatisfies:
    @given(permutation_actions())
    @settings(max_examples=400, deadline=None)
    def test_against_letter_by_letter_oracle(self, case):
        P, images = case
        a = PermutationAssignment(len(images[0]), P.alphabet, images)
        assert assignment_satisfies(P, a) == oracles.assignment_satisfies_oracle(P, a)

    @given(permutation_actions(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_non_permutation_image_fails(self, case, data):
        P, images = case
        degree = len(images[0])
        k = data.draw(st.integers(0, len(images) - 1))
        image = list(images[k])
        i = data.draw(st.integers(0, degree - 1))
        how = data.draw(st.sampled_from(("short", "long", "past", "negative", "repeat")))
        if how == "short":
            del image[i]
        elif how == "long":
            image.append(i)
        elif how == "past":
            image[i] = degree
        elif how == "negative":
            image[i] = -1
        else:
            image[i] = image[i - 1] if degree > 1 else degree
        broken = images[:k] + (tuple(image),) + images[k + 1 :]
        a = PermutationAssignment(degree, P.alphabet, broken)
        assert not assignment_satisfies(P, a)
        assert not oracles.assignment_satisfies_oracle(P, a)

    def test_images_follow_the_alphabet(self):
        # a transposition satisfies x^2 but not y^3; another alphabet order
        # would read y's image as x's
        P = parse_presentation("gens: x,y\nrels: x^2 ; y^3")
        images = ((1, 0, 2), (1, 2, 0))
        assert assignment_satisfies(P, PermutationAssignment(3, P.alphabet, images))
        assert not assignment_satisfies(P, PermutationAssignment(3, (Y, X), images))
        assert not assignment_satisfies(P, PermutationAssignment(3, P.alphabet, images[:1]))


class TestRelatorsEquivalent:
    def test_lemma_family_anchor(self):
        # (yx)^(p-1) y^2 x vs y (xy)^p at p = 2
        assert relators_equivalent(w("y x y^2 x"), w("y x y x y"))

    def test_reflexive(self):
        word = w("x y^-1 x")
        assert relators_equivalent(word, word)

    def test_distinct_generators(self):
        assert not relators_equivalent(w("x"), w("y"))

    @given(st.lists(st.tuples(st.sampled_from([X, Y]), st.sampled_from([1, -1])), max_size=8))
    def test_rotations_and_inverses_equivalent(self, letters):
        word = Word(tuple(letters))
        for k in range(max(1, len(word))):
            rotated = Word(word.letters[k:] + word.letters[:k])
            assert relators_equivalent(word, rotated)
        assert relators_equivalent(word, Word(tuple((g, -s) for g, s in reversed(word.letters))))

    @given(ALPHABETS.flatmap(_words_over))
    @settings(max_examples=300, deadline=None)
    def test_key_against_all_rotations_oracle(self, word):
        assert _relator_key(word) == oracles.relator_key_oracle(_named(word))


def random_presentations():
    gens = st.sampled_from([(X,), (X, Y)])
    return gens.flatmap(
        lambda alphabet: st.lists(
            st.lists(
                st.tuples(st.sampled_from(alphabet), st.sampled_from([1, -1])),
                max_size=6,
            ).map(lambda ls: Word(tuple(ls))),
            max_size=3,
        ).map(lambda rels: FinitePresentation(alphabet, tuple(rels)))
    )


def fusion_presentations():
    """n-fusion knot groups for n <= 10, from seeded random fusion data."""
    return st.builds(
        lambda seed, n: n_fusion_presentation(random_fusion_data(random.Random(seed), n)),
        st.integers(0, 2**32),
        st.integers(1, 10),
    )


def long_presentations():
    """Up to three generators and four relators of up to 14 letters."""
    gens = st.sampled_from([(X, Y), (X, Y, Generator("z"))])
    return gens.flatmap(
        lambda alphabet: st.lists(
            st.lists(
                st.tuples(st.sampled_from(alphabet), st.sampled_from([1, -1])),
                min_size=1,
                max_size=14,
            ).map(lambda ls: Word(tuple(ls))),
            max_size=4,
        ).map(lambda rels: FinitePresentation(alphabet, tuple(rels)))
    )


TIETZE_BUDGETS = st.sampled_from([1, 2, 3, 10_000])


class TestTietzeAgainstOracle:
    """The move loop matches the earlier two-block Tietze program exactly."""

    @staticmethod
    def check(P, budget):
        assert tietze_simplify(P, budget) == oracles.tietze_simplify_oracle(P, budget)

    @given(random_presentations(), TIETZE_BUDGETS)
    @settings(max_examples=200, deadline=None)
    def test_random_presentations(self, P, budget):
        self.check(P, budget)

    @given(long_presentations(), TIETZE_BUDGETS)
    @settings(max_examples=150, deadline=None)
    def test_long_presentations(self, P, budget):
        self.check(P, budget)

    @given(fusion_presentations(), TIETZE_BUDGETS)
    @settings(max_examples=40, deadline=None)
    def test_fusion_presentations(self, P, budget):
        self.check(P, budget)

    @pytest.mark.parametrize("second", ["x y^-1", "x y"], ids=["no-move", "rewrite"])
    def test_two_long_relators(self, second):
        # (x y)^40 x^2 shares no long substring with (x y^-1)^40 y^3, so no
        # move applies; it shares (x y)^40 with (x y)^40 y^3, rewritten to x^-2 y^3
        first = " ".join(["x y"] * 40)
        second = " ".join([second] * 40)
        P = parse_presentation(f"gens: x, y\nrels: {first} x^2 ; {second} y^3")
        self.check(P, 10)


class TestTietze:
    def test_eliminates_to_empty(self):
        P = parse_presentation("gens: x, y\nrels: y^2 x ; y")
        result = tietze_simplify(P, 100)
        assert result.presentation == FinitePresentation((), ())
        assert not result.budget_exhausted

    def test_nothing_to_do(self):
        P = parse_presentation("gens: x\nrels:")
        result = tietze_simplify(P, 10)
        assert result.presentation == P and result.steps == 0

    def test_surgered_spun_trefoil_simplifies_to_trivial_group(self):
        P = parse_presentation("gens: x,y\nrels: y x^-1 y x y^-1 x ; y^2 x")
        result = tietze_simplify(P, 1000)
        assert certify_trivial(result.presentation, 10_000).kind == "Trivial"
        assert abelian_invariants(result.presentation).is_trivial()

    def test_budget_exhaustion_flag(self):
        P = parse_presentation("gens: x,y\nrels: y x^-1 y x y^-1 x ; y^2 x")
        result = tietze_simplify(P, 1)
        assert result.steps == 1 and result.budget_exhausted

    def test_bad_budget(self):
        with pytest.raises(InputError):
            tietze_simplify(parse_presentation("gens: x\nrels:"), 0)

    @given(random_presentations())
    @settings(max_examples=60, deadline=None)
    def test_preserves_abelian_invariants(self, P):
        result = tietze_simplify(P, 500)
        assert abelian_invariants(result.presentation) == abelian_invariants(P)

    @given(random_presentations())
    @settings(max_examples=60, deadline=None)
    def test_never_grows(self, P):
        result = tietze_simplify(P, 500)
        assert result.presentation.total_relator_length() <= P.total_relator_length()

    def test_preserves_enumeration_verdicts(self):
        for text in (
            "gens: x,y\nrels: y x^-1 y x y^-1 x ; y^2 x",
            "gens: a,b\nrels: a^2; b^2; a b a b a b",
            "gens: x\nrels: x^5",
            "gens: x,y\nrels: y^2; x y x y; x^4",
        ):
            P = parse_presentation(text)
            before = enumerate_cosets(P, max_cosets=50_000)
            after = enumerate_cosets(
                tietze_simplify(P, 1000).presentation, max_cosets=50_000
            )
            assert before.kind == "Completed" and after.kind == "Completed"
            assert before.index == after.index
