import random
from math import gcd, inf

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pochette import abelian
from pochette.abelian import (
    AbelianInvariants,
    abelian_invariants,
    cokernel_invariants,
    hom_to_Z,
    relator_matrix,
    stabilizer_invariants,
    word_image,
)
from pochette.coset_enum import enumerate_cosets
from pochette.errors import CertificateError
from pochette.presentations import FinitePresentation, PermutationAssignment, parse_presentation
from pochette.words import Generator, Word, invert, parse_word
from test_presentations import fusion_presentations, long_presentations, random_presentations

X = Generator("x")
Y = Generator("y")
TRIVIAL_GROUP = AbelianInvariants(0, ())


def oracle_invariants(rows, ncols):
    """The cokernel's invariants from the elementary-operation oracle's diagonal."""
    diag = oracles.snf_diagonal_oracle(rows)
    return AbelianInvariants(ncols - sum(1 for d in diag if d), tuple(d for d in diag if d > 1))


def check_invariants(rows):
    nrows, ncols = len(rows), len(rows[0])
    before = [list(row) for row in rows]
    invariants = cokernel_invariants(rows, ncols)
    assert rows == before, "the input rows must be left untouched"
    assert invariants == oracle_invariants(rows, ncols), rows
    minors = oracles.minors_gcd_diagonal(rows, min(nrows, ncols))
    assert minors == oracles.snf_diagonal_oracle(rows), rows
    return invariants


class TestSmithNormalForm:
    def test_diag_2_3(self):
        assert check_invariants([[2, 0], [0, 3]]) == AbelianInvariants.cyclic(6)

    def test_zero_matrix(self):
        assert check_invariants([[0, 0], [0, 0], [0, 0]]) == AbelianInvariants.free(2)

    def test_one_by_one(self):
        for n in (-7, -1, 0, 1, 12):
            assert check_invariants([[n]]) == AbelianInvariants.cyclic(n)

    def test_empty_shapes(self):
        assert cokernel_invariants([], 3) == AbelianInvariants.free(3)
        assert cokernel_invariants([[], []], 0) == TRIVIAL_GROUP

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            cokernel_invariants([[1, 2], [3]], 2)

    def test_against_elementary_oracle_seeded(self):
        rng = random.Random(20240817)
        for _ in range(150):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
            check_invariants(rows)

    def test_against_minors_gcd_oracle_seeded(self):
        rng = random.Random(99)
        for _ in range(60):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
            check_invariants(rows)

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=80, deadline=None)
    def test_decomposition_properties(self, rows):
        check_invariants(rows)


class TestAbelianInvariants:
    def test_surgered_spun_trefoil_trivial(self):
        P = parse_presentation("gens: x,y\nrels: y x^-1 y x y^-1 x ; y^2 x")
        assert abelian_invariants(P).is_trivial()

    def test_free_rank_one(self):
        P = parse_presentation("gens: x\nrels:")
        assert abelian_invariants(P) == AbelianInvariants(1, ())

    def test_knot_group_abelianization(self):
        # < x, y | w x w^-1 y > abelianizes to Z for any w
        rng = random.Random(7)
        for _ in range(25):
            letters = tuple(
                (rng.choice((X, Y)), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))
            )
            w = Word(letters)
            relator = w * Word(((X, 1),)) * invert(w) * Word(((Y, 1),))
            P = FinitePresentation((X, Y), (relator,))
            assert abelian_invariants(P) == AbelianInvariants(1, ())

    def test_torsion_example(self):
        P = parse_presentation("gens: x\nrels: x^6")
        assert abelian_invariants(P) == AbelianInvariants(0, (6,))

    def test_divisibility_order_validated(self):
        with pytest.raises(ValueError):
            AbelianInvariants(0, (4, 6))
        with pytest.raises(ValueError):
            AbelianInvariants(0, (1,))

    def test_free_rank_validated(self):
        with pytest.raises(ValueError) as exc:
            AbelianInvariants(-1, ())
        assert str(exc.value) == "free rank must be nonnegative"

    def test_describe(self):
        assert str(AbelianInvariants(0, ())) == "0"
        assert str(AbelianInvariants(1, ())) == "Z"
        assert str(AbelianInvariants(2, ())) == "Z^2"
        assert str(AbelianInvariants(0, (3,))) == "Z/3"
        assert str(AbelianInvariants(1, (2, 4))) == "Z + Z/2 + Z/4"

    def test_order(self):
        assert AbelianInvariants(0, (2, 6)).order() == 12
        assert AbelianInvariants(1, ()).order() is None


def large_exponent_presentations():
    """Up to three generators and four relators of up to four syllables g^e, |e| <= 30."""
    gens = st.sampled_from([(X,), (X, Y), (X, Y, Generator("z"))])
    return gens.flatmap(
        lambda alphabet: st.lists(
            st.lists(
                st.tuples(st.sampled_from(alphabet), st.integers(-30, 30)),
                max_size=4,
            ).map(Word.from_syllables),
            max_size=4,
        ).map(lambda rels: FinitePresentation(alphabet, tuple(rels)))
    )


def check_against_oracle(P):
    # exponent sums straight from the letters, not via relator_matrix
    rows = [
        [sum(s for h, s in rel.letters if h == g) for g in P.alphabet]
        for rel in P.relators
    ]
    assert relator_matrix(P) == [{j: v for j, v in enumerate(row) if v} for row in rows]
    invariants = oracle_invariants(rows, len(P.alphabet))
    assert abelian_invariants(P) == invariants, rows
    images = hom_to_Z(P)
    assert (images is not None) == (invariants == AbelianInvariants.free(1)), rows
    if images is not None:
        assert set(images) == set(P.alphabet)
        assert all(word_image(images, rel) == 0 for rel in P.relators)
        assert gcd(*images.values()) == 1
        assert next(x for x in images.values() if x) > 0


class TestHomToZ:
    def test_spun_trefoil(self):
        P = parse_presentation("gens: x,y\nrels: y x^-1 y x y^-1 x")
        images = hom_to_Z(P)
        assert images == {X: 1, Y: -1}

    def test_single_free_generator(self):
        P = parse_presentation("gens: x\nrels:")
        assert hom_to_Z(P) == {Generator("x"): 1}

    def test_rank_two_fails(self):
        P = parse_presentation("gens: x,y\nrels:")
        assert hom_to_Z(P) is None

    def test_torsion_fails(self):
        P = parse_presentation("gens: x,y\nrels: x^2 ; y x y^-1 x")
        assert hom_to_Z(P) is None

    def test_normalization_sign(self):
        P = parse_presentation("gens: x,y\nrels: x^2 y")
        images = hom_to_Z(P)
        first_nonzero = next(images[g] for g in P.alphabet if images[g] != 0)
        assert first_nonzero > 0
        assert images == {X: 1, Y: -2}

    def test_word_image(self):
        P = parse_presentation("gens: x,y\nrels: y x^-1 y x y^-1 x")
        images = hom_to_Z(P)
        assert word_image(images, parse_word("x y x", P.alphabet)) == 1
        assert word_image(images, Word()) == 0

    @given(st.one_of(random_presentations(), fusion_presentations()))
    @settings(max_examples=200, deadline=None)
    def test_against_oracle(self, P):
        check_against_oracle(P)

    @given(large_exponent_presentations())
    @settings(max_examples=200, deadline=None)
    def test_large_exponents_against_oracle(self, P):
        check_against_oracle(P)

    @pytest.mark.parametrize(
        "kernel",
        [{0: 2, 1: 2}, {0: 1}],  # images of gcd 2; a relator not sent to 0
    )
    def test_wrong_kernel_raises(self, monkeypatch, kernel):
        P = parse_presentation("gens: x,y\nrels: x y^-1")
        cokernel = abelian._cokernel

        def wrong_kernel(rows, ncols, max_work=inf, basis=None):
            invariants = cokernel(rows, ncols, max_work, basis)
            (free,) = basis
            basis[free] = kernel
            return invariants

        monkeypatch.setattr(abelian, "_cokernel", wrong_kernel)
        with pytest.raises(CertificateError):
            hom_to_Z(P)


def one_point(P):
    return PermutationAssignment(1, P.alphabet, ((0,),) * len(P.alphabet))


def triangle_presentations():
    """<x, y | x^a, y^b, (x y)^c, w>: finite for most a, b, c, often with torsion."""
    letters = st.tuples(st.sampled_from((X, Y)), st.sampled_from((1, -1)))
    return st.builds(
        lambda a, b, c, w: FinitePresentation(
            (X, Y), (Word(((X, 1),)) ** a, Word(((Y, 1),)) ** b, Word(((X, 1), (Y, 1))) ** c, w)
        ),
        st.integers(2, 5),
        st.integers(2, 5),
        st.integers(2, 5),
        st.one_of(st.just(Word()), st.lists(letters, max_size=8).map(lambda ls: Word(tuple(ls)))),
    )


class TestStabilizerInvariants:
    @given(st.one_of(random_presentations(), fusion_presentations()))
    @settings(max_examples=200, deadline=None)
    def test_one_point_is_the_relator_matrix(self, P):
        assert stabilizer_invariants(P, one_point(P)) == abelian_invariants(P)

    @given(st.one_of(long_presentations(), triangle_presentations()), st.data())
    @settings(max_examples=200, deadline=None)
    def test_against_dense_oracle(self, P, data):
        # the cosets of a random cyclic subgroup, when they close in 60
        letters = st.tuples(st.sampled_from(P.alphabet), st.sampled_from([1, -1]))
        subgroup = Word(tuple(data.draw(st.lists(letters, min_size=1, max_size=3))))
        result = enumerate_cosets(P, (subgroup,), 60)
        if result.kind == "Unknown":
            return
        invariants = stabilizer_invariants(P, result.table)
        expected = oracles.stabilizer_invariants_oracle(P, result.table)
        assert (invariants.free_rank, invariants.torsion) == expected

    @pytest.mark.parametrize(
        "text, subgroup, expected",
        [
            ("gens: a,b\nrels: a^2; b^2; a b a b a b", "", TRIVIAL_GROUP),
            ("gens: a,b\nrels: a^2; b^2; a b a b a b", "a", AbelianInvariants.cyclic(2)),
            ("gens: s, t\nrels: s^3 t^-5 ; t s t s^-2", "", TRIVIAL_GROUP),
            ("gens: s, t\nrels: s^3 t^-5 ; t s t s^-2", "s^-1 t^2", AbelianInvariants.cyclic(10)),
            ("gens: x\nrels:", "x^3", AbelianInvariants.free(1)),
            ("gens: a, b\nrels: a^2; b^2", "a b", AbelianInvariants.free(1)),
        ],
    )
    def test_known_stabilizers(self, text, subgroup, expected):
        P = parse_presentation(text)
        table = enumerate_cosets(P, (parse_word(subgroup, P.alphabet),), 1000).table
        assert stabilizer_invariants(P, table) == expected

    def test_work_bound(self):
        P = parse_presentation("gens: s, t\nrels: s^3 t^-5 ; t s t s^-2")
        table = enumerate_cosets(P, (parse_word("s^-1 t^2", P.alphabet),), 1000).table
        assert stabilizer_invariants(P, table, max_work=0) is None
        assert stabilizer_invariants(P, table, max_work=1000) == AbelianInvariants.cyclic(10)
        # the one move on <x, y | x y>, the column move that clears y, passes 0
        P = parse_presentation("gens: x, y\nrels: x y")
        assert stabilizer_invariants(P, one_point(P), max_work=0) is None
        assert stabilizer_invariants(P, one_point(P), max_work=1) == AbelianInvariants.free(1)
