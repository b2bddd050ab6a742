import random
import time
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pochette import quotient_search
from pochette.errors import CertificateError
from pochette.presentations import parse_presentation
from pochette.quotient_search import (
    PermutationAssignment,
    assignment_satisfies,
    find_noncyclic_quotient,
    image_is_cyclic,
)
from pochette.ribbon import (
    n_fusion_presentation,
    one_fusion_presentation,
    random_fusion_data,
    spun_trefoil,
)
from pochette.words import Generator, Word

CORPUS = Path(__file__).parent / "corpus"


def exhaustive_search_oracle(P, degree):
    """All relator-satisfying assignments at one degree, lexicographic order."""
    perms = list(permutations(range(degree)))
    out = []
    for images in product(perms, repeat=len(P.alphabet)):
        a = PermutationAssignment(degree, P.alphabet, images)
        if assignment_satisfies(P, a) and not image_is_cyclic(a):
            out.append(a)
    return out


class TestFindNoncyclicQuotient:
    def test_spun_trefoil_at_degree_three(self):
        P = spun_trefoil()
        found = find_noncyclic_quotient(P, 3)
        assert found is not None and found.degree == 3
        assert assignment_satisfies(P, found)
        assert not image_is_cyclic(found)
        # exhaustive oracle: nothing at degree 2, and the search returns
        # the lexicographically first hit at degree 3
        assert exhaustive_search_oracle(P, 2) == []
        oracle_hits = exhaustive_search_oracle(P, 3)
        assert oracle_hits and found == oracle_hits[0]

    def test_infinite_cyclic_inconclusive(self):
        P = parse_presentation("gens: x\nrels:")
        assert find_noncyclic_quotient(P, 5) is None

    def test_finite_cyclic_inconclusive(self):
        P = parse_presentation("gens: x\nrels: x^6")
        assert find_noncyclic_quotient(P, 4) is None

    def test_free_rank_two_at_degree_three(self):
        P = parse_presentation("gens: x,y\nrels:")
        found = find_noncyclic_quotient(P, 3)
        assert found is not None and found.degree == 3
        assert found == exhaustive_search_oracle(P, 3)[0]

    def test_exhaustive_up_to_degree(self):
        # the quaternion-like presentation has no noncyclic image below degree 4:
        # its smallest noncyclic quotient embeds no smaller
        P = parse_presentation("gens: x,y\nrels: x^4 ; x^2 y^-2 ; y^-1 x y x")
        for degree in (2, 3):
            assert (find_noncyclic_quotient(P, degree) is None) == (
                exhaustive_search_oracle(P, degree) == []
            )

    def test_empty_alphabet(self):
        assert find_noncyclic_quotient(parse_presentation("gens: \nrels:"), 4) is None

    def test_failed_witness_recheck_raises(self, monkeypatch):
        monkeypatch.setattr(quotient_search, "assignment_satisfies", lambda P, found: False)
        with pytest.raises(CertificateError):
            find_noncyclic_quotient(spun_trefoil(), 3)


def one_fusion_groups():
    """< x, y | w x w^-1 y^sign > for random band words w of up to 6 letters."""
    return st.builds(
        lambda letters, sign: one_fusion_presentation(Word(tuple(letters)), sign),
        st.lists(
            st.tuples(
                st.sampled_from([Generator("x"), Generator("y")]), st.sampled_from([1, -1])
            ),
            max_size=6,
        ),
        st.sampled_from([1, -1]),
    )


def fusion_groups():
    """2- and 3-fusion knot groups from seeded random fusion data."""
    return st.builds(
        lambda seed, n: n_fusion_presentation(random_fusion_data(random.Random(seed), n)),
        st.integers(0, 2**32),
        st.integers(2, 3),
    )


def abelian_groups():
    """Z/a x Z/b as < x, y | x^a ; y^b ; [x, y] >, with no x^a when a = 0 (Z x Z/b).

    Each comes with the degree to search: 6 when a = 3, where Z/3 x Z/3 and
    Z/3 x Z/6 first have a non-cyclic image, as a union of two orbits of
    size 3, and 5 elsewhere, which keeps the exhaustive oracle cheap.
    """
    return st.builds(
        lambda a, b: (
            parse_presentation(
                f"gens: x, y\nrels: {f'x^{a} ;' if a else ''} y^{b} ; x y x^-1 y^-1"
            ),
            6 if a == 3 else 5,
        ),
        st.sampled_from([0, 2, 3, 4]),
        st.integers(1, 6),
    )


class TestAgainstOracle:
    """The search finds a witness exactly when the earlier search does, of the same degree.

    The witness itself may differ: the earlier search returned the
    lexicographically first assignment, this one the first coset table.
    Each search runs every degree from 2 up, so a fixed cap covers the
    lower degrees too.
    """

    @staticmethod
    def check(P, degree):
        found = find_noncyclic_quotient(P, degree)
        expected = oracles.find_noncyclic_quotient_oracle(P, degree)
        assert (found is None) == (expected is None)
        if found is not None:
            assert found.degree == expected.degree
            assert assignment_satisfies(P, found) and not image_is_cyclic(found)

    @given(one_fusion_groups())
    @settings(max_examples=30, deadline=None)
    def test_one_fusion_groups(self, P):
        self.check(P, 5)

    @given(fusion_groups())
    @settings(max_examples=30, deadline=None)
    def test_fusion_groups(self, P):
        self.check(P, 4)

    @given(abelian_groups())
    @settings(max_examples=30, deadline=None)
    def test_abelian_groups(self, case):
        self.check(*case)

    def test_z3_squared_needs_two_orbits(self):
        # every transitive image of Z/3 x Z/3 is cyclic (Z/3, on 3 points),
        # so only the union of two such actions reaches it, at degree 6
        P = parse_presentation("gens: x, y\nrels: x^3 ; y^3 ; x y x^-1 y^-1")
        assert find_noncyclic_quotient(P, 5) is None
        found = find_noncyclic_quotient(P, 6)
        assert found is not None and found.degree == 6
        self.check(P, 6)

    def test_relator_over_a_later_generator_alone(self):
        # y^3 and z^2 are each over one generator, not the first
        P = parse_presentation("gens: x, y, z\nrels: z^2 ; y^3 ; x y x^-1 y^-1 z")
        self.check(P, 4)

    def test_z6_corpus_has_no_witness_at_degree_seven(self):
        # Z/2 x Z/3 is cyclic, so the search is exhaustive and finds nothing
        P = parse_presentation((CORPUS / "z6.txt").read_text())
        assert find_noncyclic_quotient(P, 7) is None

    def test_z6_corpus_exhausts_the_default_degree_within_a_second(self):
        # Z/6 is cyclic, so the search visits every subgroup of index up to 8
        P = parse_presentation((CORPUS / "z6.txt").read_text())
        start = time.perf_counter()
        assert find_noncyclic_quotient(P, 8) is None
        assert time.perf_counter() - start < 1.0


class TestImageIsCyclic:
    def test_single_generator_image(self):
        a = PermutationAssignment(3, spun_trefoil().alphabet[:1], ((1, 2, 0),))
        assert image_is_cyclic(a)

    def test_two_transpositions_not_cyclic(self):
        P = parse_presentation("gens: x,y\nrels:")
        a = PermutationAssignment(3, P.alphabet, ((1, 0, 2), (2, 1, 0)))
        assert not image_is_cyclic(a)

    def test_identity_images_cyclic(self):
        P = parse_presentation("gens: x,y\nrels:")
        a = PermutationAssignment(3, P.alphabet, ((0, 1, 2), (0, 1, 2)))
        assert image_is_cyclic(a)

    def test_abelian_noncyclic_detected(self):
        # Klein four-group inside S_4: two commuting double transpositions
        P = parse_presentation("gens: x,y\nrels:")
        a = PermutationAssignment(4, P.alphabet, ((1, 0, 3, 2), (2, 3, 0, 1)))
        assert not image_is_cyclic(a)

    def test_cyclic_generated_by_two_powers(self):
        # <(0123), (02)(13)> = <(0123)> is cyclic of order 4
        P = parse_presentation("gens: x,y\nrels:")
        a = PermutationAssignment(4, P.alphabet, ((1, 2, 3, 0), (2, 3, 0, 1)))
        assert image_is_cyclic(a)


class TestConsistencyWithAbelianization:
    def test_witness_never_contradicts_abelianization(self):
        # wherever a witness exists the group cannot be cyclic, so its
        # abelianization cannot be trivial-or-prime-cyclic in a way that
        # would force cyclicity of the whole group; single-generator
        # presentations are the only ones abelianization alone settles,
        # and those must come back witness-free
        for text in (
            "gens: x,y\nrels: y x^-1 y x y^-1 x",
            "gens: x,y\nrels:",
            "gens: x\nrels: x^6",
            "gens: x\nrels:",
        ):
            P = parse_presentation(text)
            witness = find_noncyclic_quotient(P, 3)
            if len(P.alphabet) <= 1:
                assert witness is None
            if witness is not None:
                assert assignment_satisfies(P, witness)
