import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pochette.abelian import (
    AbelianInvariants,
    abelian_invariants,
    hom_to_Z,
    relator_matrix,
    smith_normal_form,
    stabilizer_invariants,
    word_image,
)
from pochette.coset_enum import enumerate_cosets
from pochette.presentations import FinitePresentation, PermutationAssignment, parse_presentation
from pochette.words import Generator, Word, invert, parse_word
from test_presentations import fusion_presentations, long_presentations, random_presentations

X = Generator("x")
Y = Generator("y")
TRIVIAL_GROUP = AbelianInvariants(0, ())


def diagonal(S, ncols):
    return [S[i][i] for i in range(min(len(S), ncols))]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def check_decomposition(rows):
    nrows, ncols = len(rows), len(rows[0])
    before = [list(row) for row in rows]
    S, U, V = smith_normal_form(rows, ncols, row_transform=True)
    assert rows == before, "the input rows must be left untouched"
    assert [len(row) for row in S] == [ncols] * nrows
    assert [len(row) for row in U] == [nrows] * nrows
    assert [len(row) for row in V] == [ncols] * ncols
    assert oracles.matmul(oracles.matmul(U, rows), V) == S
    assert abs(oracles.det(U)) == 1
    assert abs(oracles.det(V)) == 1
    diag = diagonal(S, ncols)
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag[: len(nonzero)] == nonzero, "zeros must come last"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # off-diagonal must vanish
    for i in range(nrows):
        for j in range(ncols):
            if i != j:
                assert S[i][j] == 0
    return S


class TestSmithNormalForm:
    def test_diag_2_3(self):
        S = check_decomposition([[2, 0], [0, 3]])
        assert diagonal(S, 2) == [1, 6]

    def test_zero_matrix(self):
        rows = [[0, 0], [0, 0], [0, 0]]
        S, U, V = smith_normal_form(rows, 2, row_transform=True)
        assert S == rows
        assert U == identity(3)
        assert V == identity(2)

    def test_one_by_one(self):
        for n in (-7, -1, 0, 1, 12):
            S, _, _ = smith_normal_form([[n]], 1)
            assert diagonal(S, 1) == [abs(n)]

    def test_empty_shapes(self):
        S, U, V = smith_normal_form([], 3, row_transform=True)
        assert S == [] and U == [] and V == identity(3)
        S, U, V = smith_normal_form([[], []], 0, row_transform=True)
        assert S == [[], []] and U == identity(2) and V == []

    def test_row_transform_is_opt_in(self):
        rng = random.Random(7)
        for _ in range(50):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
            S, U, V = smith_normal_form(rows, ncols)
            tracked_S, _, tracked_V = smith_normal_form(rows, ncols, row_transform=True)
            assert U is None and (S, V) == (tracked_S, tracked_V)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2], [3]], 2)

    def test_against_elementary_oracle_seeded(self):
        rng = random.Random(20240817)
        for _ in range(150):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
            S = check_decomposition(rows)
            assert diagonal(S, ncols) == oracles.snf_diagonal_oracle(rows), rows

    def test_against_minors_gcd_oracle_seeded(self):
        rng = random.Random(99)
        for _ in range(60):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
            S, _, _ = smith_normal_form(rows, ncols)
            size = min(nrows, ncols)
            assert diagonal(S, ncols) == oracles.minors_gcd_diagonal(rows, size), rows

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=80, deadline=None)
    def test_decomposition_properties(self, rows):
        check_decomposition(rows)


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

    def test_describe(self):
        assert str(AbelianInvariants(0, ())) == "0"
        assert str(AbelianInvariants(1, ())) == "Z"
        assert str(AbelianInvariants(2, ())) == "Z^2"
        assert str(AbelianInvariants(0, (3,))) == "Z/3"
        assert str(AbelianInvariants(1, (2, 4))) == "Z + Z/2 + Z/4"

    def test_order(self):
        assert AbelianInvariants(0, (2, 6)).order() == 12
        assert AbelianInvariants(1, ()).order() is None


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
        # exponent sums straight from the letters, not via relator_matrix
        rows = [
            [sum(s for h, s in rel.letters if h == g) for g in P.alphabet]
            for rel in P.relators
        ]
        assert relator_matrix(P) == rows
        diag = oracles.snf_diagonal_oracle(rows)
        infinite_cyclic = (
            len(P.alphabet) - sum(1 for d in diag if d) == 1
            and all(d <= 1 for d in diag)
        )
        images = hom_to_Z(P)
        assert (images is not None) == infinite_cyclic, rows
        if images is not None:
            assert set(images) == set(P.alphabet)
            assert all(word_image(images, rel) == 0 for rel in P.relators)
            assert gcd(*images.values()) == 1


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
