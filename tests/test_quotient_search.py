from itertools import permutations, product

import pytest

from pochette import quotient_search
from pochette.errors import CertificateError
from pochette.presentations import parse_presentation
from pochette.quotient_search import (
    PermutationAssignment,
    assignment_satisfies,
    find_noncyclic_quotient,
    image_is_cyclic,
)
from pochette.ribbon import spun_trefoil


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
