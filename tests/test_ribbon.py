import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from pochette import ribbon
from pochette.abelian import AbelianInvariants, abelian_invariants
from pochette.budgets import Budgets
from pochette.coset_enum import certify_trivial
from pochette.errors import InputError
from pochette.presentations import (
    FinitePresentation,
    add_relator,
    format_presentation,
    relators_equivalent,
)
from pochette.quotient_search import assignment_satisfies, find_noncyclic_quotient
from pochette.ribbon import (
    FusionData,
    InvalidFusionGraph,
    _as_meridian_power,
    cord_triviality,
    format_fusion,
    fusion_generators,
    load_preset,
    n_fusion_presentation,
    one_fusion_presentation,
    parse_fusion_file,
    random_embedding,
    random_fusion_data,
    spun_trefoil,
)
from pochette.words import Generator, Word, invert, parse_word

X = Generator("x")
Y = Generator("y")
Z = AbelianInvariants(1, ())
WORDS = st.lists(
    st.tuples(st.sampled_from([X, Y]), st.sampled_from([1, -1])), max_size=5
).map(lambda letters: Word(tuple(letters)))


def w(text, alphabet=(X, Y)):
    return parse_word(text, alphabet)


class TestOneFusion:
    def test_unknotted_case(self):
        P = one_fusion_presentation(Word(), -1)
        assert P.relators == (w("x y^-1"),)
        assert abelian_invariants(P) == Z

    def test_spun_trefoil_equivalent_band(self):
        P = one_fusion_presentation(w("x^-1 y"), 1)
        assert abelian_invariants(P) == abelian_invariants(spun_trefoil()) == Z
        witness = find_noncyclic_quotient(P, 3)
        assert witness is not None and witness.degree == 3
        assert relators_equivalent(P.relators[0], spun_trefoil().relators[0])

    def test_abelianization_always_Z(self):
        rng = random.Random(13)
        for _ in range(30):
            letters = tuple(
                (rng.choice((X, Y)), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 6))
            )
            P = one_fusion_presentation(Word(letters), rng.choice((1, -1)))
            assert abelian_invariants(P) == Z

    def test_bad_sign(self):
        with pytest.raises(InputError):
            one_fusion_presentation(Word(), 2)

    def test_band_word_over_other_letters(self):
        # the CLI's presets parse the band word over x, y, so only a call reaches this
        band = parse_word("x z^-1", (X, Generator("z")))
        with pytest.raises(InputError) as exc:
            one_fusion_presentation(band, 1)
        assert str(exc.value) == "band word 'x z^-1' must be over x, y"


class TestNFusion:
    def test_one_band_matches_one_fusion(self):
        gens = fusion_generators(1)
        band_word = parse_word("x1 x2^-1", gens)
        data = FusionData(1, ((band_word, 1, 2),))
        direct = n_fusion_presentation(data)
        via_one_fusion = one_fusion_presentation(band_word, -1, (gens[0], gens[1]))
        assert direct == via_one_fusion

    def test_star_graph_identity_bands(self):
        bands = tuple((Word(), 1, j) for j in range(2, 5))
        P = n_fusion_presentation(FusionData(3, bands))
        gens = fusion_generators(3)
        assert P.relators == tuple(
            parse_word(f"x1 x{j}^-1", gens) for j in range(2, 5)
        )
        assert abelian_invariants(P) == Z

    def test_random_trees_abelianize_to_Z(self):
        rng = random.Random(5)
        for _ in range(40):
            data = random_fusion_data(rng, rng.randint(1, 4))
            assert abelian_invariants(n_fusion_presentation(data)) == Z

    def test_cycle_rejected(self):
        gens = fusion_generators(2)
        bands = ((Word(), 1, 2), (Word(), 2, 1))
        with pytest.raises(InvalidFusionGraph):
            FusionData(2, bands)

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidFusionGraph):
            FusionData(1, ((Word(), 1, 1),))

    def test_index_out_of_range(self):
        with pytest.raises(InvalidFusionGraph):
            FusionData(1, ((Word(), 1, 3),))

    def test_band_count_mismatch(self):
        with pytest.raises(InvalidFusionGraph):
            FusionData(2, ((Word(), 1, 2),))

    def test_band_word_alphabet_checked(self):
        with pytest.raises(InvalidFusionGraph):
            FusionData(1, ((Word(((Generator("q"), 1),)), 1, 2),))


class TestSpunTrefoil:
    def test_presentation(self):
        assert format_presentation(spun_trefoil()) == "gens: x, y\nrels: y x^-1 y x y^-1 x"
        assert abelian_invariants(spun_trefoil()) == Z

    def test_degree_three_quotient(self):
        witness = find_noncyclic_quotient(spun_trefoil(), 3)
        assert witness is not None
        assert assignment_satisfies(spun_trefoil(), witness)

    def test_surgered_group_trivial(self):
        P = add_relator(spun_trefoil(), w("y^2 x"))
        assert certify_trivial(P).kind == "Trivial"


class TestCordTriviality:
    BUDGETS = Budgets(max_cosets=2000, quotient_degree=3)

    def test_meridian_power_visibly_trivial(self):
        P = spun_trefoil()
        verdict = cord_triviality(P, w("x"), w("x^2"), self.BUDGETS)
        assert verdict.kind == "TrivialCordClass"

    def test_spun_trefoil_cord_nontrivial(self):
        P = spun_trefoil()
        verdict = cord_triviality(P, w("x"), w("y"), self.BUDGETS)
        assert verdict.kind == "NontrivialCordCertified"
        assert verdict.witness is not None and verdict.witness.degree <= 3
        assert assignment_satisfies(P, verdict.witness)

    def test_free_group_unknown(self):
        P = FinitePresentation((X, Y), ())
        verdict = cord_triviality(
            P, w("x"), w("y"), Budgets(max_cosets=200, quotient_degree=3)
        )
        assert verdict.kind == "Unknown"

    def test_membership_route_in_finite_group(self):
        # dihedral-8: cord x^3 is in <x>; cord y is not, and the Klein
        # quotient (degree 4) certifies the group is not Z
        P = FinitePresentation(
            (X, Y), (w("y^2"), w("x y x y"), w("x^4"))
        )
        budgets = Budgets(max_cosets=2000, quotient_degree=4)
        trivial = cord_triviality(P, w("x"), w("x^3 y y^-1"), budgets)
        assert trivial.kind == "TrivialCordClass"
        nontrivial = cord_triviality(P, w("x"), w("y"), budgets)
        assert nontrivial.kind == "NontrivialCordCertified"
        assert nontrivial.membership is not None
        assert nontrivial.membership.kind == "NotInSubgroup"
        assert nontrivial.witness.degree == 4

    def test_refuted_membership_without_quotient_is_unknown(self):
        # Z/5 with meridian the generator squared-cube... cord outside the
        # subgroup but every quotient cyclic: stays Unknown by design
        P = FinitePresentation((X,), (w("x^5", (X,)),))
        verdict = cord_triviality(
            P, w("x^2", (X,)), w("x", (X,)), Budgets(max_cosets=100, quotient_degree=3)
        )
        # x = (x^2)^3 in Z/5, so membership holds; use a genuine non-member
        assert verdict.kind == "TrivialCordClass"
        Q = FinitePresentation((X, Y), (w("x^3"), w("y^3"), w("x y x^-1 y^-1")))
        verdict = cord_triviality(
            Q, w("x"), w("y"), Budgets(max_cosets=200, quotient_degree=3)
        )
        assert verdict.kind == "Unknown"
        assert verdict.membership.kind == "NotInSubgroup"

    def test_trivial_cord_in_Z_at_the_default_degree(self):
        # < x, y | x y^-1 > is Z: the search must exhaust degree 8 quickly
        # and leave the verdict to membership
        P = FinitePresentation((X, Y), (w("x y^-1"),))
        verdict = cord_triviality(P, w("x"), w("y"))
        assert verdict.kind == "TrivialCordClass"
        assert verdict.membership.kind == "InSubgroup"

    def test_two_generator_witness_skips_membership(self):
        verdict = cord_triviality(spun_trefoil(), w("x"), w("y"), self.BUDGETS)
        assert verdict.kind == "NontrivialCordCertified"
        assert verdict.membership is None

    @given(
        st.lists(
            st.tuples(st.sampled_from([X, Y]), st.sampled_from([1, -1])), max_size=6
        ),
        st.sampled_from([1, -1]),
        st.sampled_from(["y", "x y", "y^2", "x^2", "y x y^-1"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_kind_as_membership_first(self, letters, sign, cord):
        # searching first changes which certificate decides, never the kind
        P = one_fusion_presentation(Word(tuple(letters)), sign)
        budgets = Budgets(max_cosets=500, quotient_degree=4)
        assert cord_triviality(P, w("x"), w(cord), budgets).kind == (
            oracles.cord_kind_membership_first_oracle(P, w("x"), w(cord), budgets)
        )

    @given(WORDS, WORDS, WORDS, st.integers(-6, 6), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_meridian_power_matches_every_power_scan(self, outer, core, noise, k, perturb):
        # meridians u c u^-1 with c often not cyclically reduced, and cords
        # that are powers of them, some perturbed
        meridian = outer * core * invert(outer)
        cord = meridian**k * (noise if perturb else Word())
        assert _as_meridian_power(cord, meridian) == oracles.as_meridian_power_oracle(
            cord, meridian
        )

    DIHEDRAL_8 = FinitePresentation((X, Y), (w("y^2"), w("x y x y"), w("x^4")))
    TWO_WITNESS = (
        "a trivial cord would make the two-generator group cyclic, "
        "contradicting the non-cyclic quotient witness"
    )
    REFUTED_WITNESS = (
        "membership refuted by a closed enumeration and the group is not infinite cyclic"
    )

    @pytest.mark.parametrize(
        "P, cord, budgets, calls, kind, detail",
        [
            (
                spun_trefoil(),
                "y",
                Budgets(quotient_degree=3),
                [("search", True)],
                "NontrivialCordCertified",
                TWO_WITNESS,
            ),
            (
                FinitePresentation((X, Y), (w("x y^-1"),)),
                "y",
                Budgets(),
                [("search", False), ("membership", "InSubgroup")],
                "TrivialCordClass",
                "cord traced into the meridian subgroup (index 1)",
            ),
            (
                DIHEDRAL_8,
                "y x y^-1",
                Budgets(max_cosets=2000, quotient_degree=4),
                [("membership", "InSubgroup")],
                "TrivialCordClass",
                "cord traced into the meridian subgroup (index 2)",
            ),
            (
                DIHEDRAL_8,
                "y",
                Budgets(max_cosets=2000, quotient_degree=4),
                [("membership", "NotInSubgroup"), ("search", True)],
                "NontrivialCordCertified",
                REFUTED_WITNESS,
            ),
            (
                FinitePresentation((X, Y), (w("x^2"), w("y^3"), w("x y x^-1 y^-1"))),
                "y",
                Budgets(max_cosets=2000, quotient_degree=6),
                [("membership", "NotInSubgroup"), ("search", False)],
                "Unknown",
                "membership refuted but no non-cyclic quotient found within degree 6",
            ),
            (
                FinitePresentation((X, Y), ()),
                "y",
                Budgets(max_cosets=200, quotient_degree=3),
                [("membership", "Unknown")],
                "Unknown",
                "enumeration overflowed at 200 cosets",
            ),
        ],
        ids=["spun-trefoil", "Z", "D8-member", "D8-witness", "Z6", "free"],
    )
    def test_certificate_order(self, monkeypatch, P, cord, budgets, calls, kind, detail):
        # each certificate runs at most once, in the order the two-generator
        # test picks, and a witness ends the run
        seen = []
        membership = ribbon.subgroup_membership
        search = ribbon.find_noncyclic_quotient

        def counted_membership(*args):
            result = membership(*args)
            seen.append(("membership", result.kind))
            return result

        def counted_search(*args):
            result = search(*args)
            seen.append(("search", result is not None))
            return result

        monkeypatch.setattr(ribbon, "subgroup_membership", counted_membership)
        monkeypatch.setattr(ribbon, "find_noncyclic_quotient", counted_search)
        verdict = cord_triviality(P, w("x"), w(cord), budgets)
        assert seen == calls
        assert (verdict.kind, verdict.detail) == (kind, detail)

    def test_certificate_stability_across_budgets(self):
        P = spun_trefoil()
        kinds = set()
        for max_cosets in (50, 500, 5000):
            verdict = cord_triviality(
                P, w("x"), w("y"), Budgets(max_cosets=max_cosets, quotient_degree=3)
            )
            kinds.add(verdict.kind)
        assert "TrivialCordClass" not in kinds or "NontrivialCordCertified" not in kinds


class TestFusionFiles:
    def test_round_trip(self):
        rng = random.Random(21)
        for _ in range(10):
            data = random_fusion_data(rng, rng.randint(1, 4))
            assert parse_fusion_file(format_fusion(data)) == data

    def test_spaces_in_band_words(self):
        data = parse_fusion_file("n: 2\nband: x1 x3^-1 1 2\nband: 1 2 3\n")
        assert data.bands[0][0] == parse_word("x1 x3^-1", fusion_generators(2))
        assert data.bands[1][0] == Word()

    def test_comments_ignored(self):
        data = parse_fusion_file("# tree\nn: 1\nband: 1 1 2  # identity band\n")
        assert data.n == 1

    def test_errors(self):
        with pytest.raises(InputError):
            parse_fusion_file("band: 1 1 2")
        with pytest.raises(InputError):
            parse_fusion_file("n: 1\nband: 1\n")
        with pytest.raises(InputError):
            parse_fusion_file("n: one\n")
        with pytest.raises(InputError):
            parse_fusion_file("n: 1\nnonsense\n")


class TestPresets:
    def test_spun_trefoil_preset(self):
        assert load_preset("spun-trefoil") == spun_trefoil()

    def test_one_fusion_preset(self):
        P = load_preset("one-fusion:x^-1*y:+1")
        assert P == one_fusion_presentation(w("x^-1 y"), 1)
        Q = load_preset("one-fusion:1:-1")
        assert Q.relators == (w("x y^-1"),)

    def test_unknown_preset(self):
        with pytest.raises(InputError):
            load_preset("granny-knot")
        with pytest.raises(InputError):
            load_preset("one-fusion:x:y:+1")
        with pytest.raises(InputError):
            load_preset("one-fusion:x:+2")


class TestRandomInstances:
    def test_seeded_determinism(self):
        a = [random_embedding(random.Random(99)) for _ in range(5)]
        b = [random_embedding(random.Random(99)) for _ in range(5)]
        assert a == b

    def test_embeddings_are_valid(self):
        rng = random.Random(4)
        for _ in range(25):
            data = random_embedding(rng)
            assert abelian_invariants(data.knot_group) == Z
