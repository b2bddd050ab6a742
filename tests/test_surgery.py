import json
import random
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from pochette import surgery
from pochette.abelian import AbelianInvariants, abelian_invariants
from pochette.budgets import Budgets
from pochette.cli import main
from pochette.coset_enum import EnumerationVerdict, certify_trivial, enumerate_cosets
from pochette.errors import InputError
from pochette.presentations import (
    add_relator,
    format_presentation,
    parse_presentation,
    relators_equivalent,
)
from pochette.ribbon import random_embedding, spun_trefoil, spun_trefoil_embedding
from pochette.surgery import (
    LONGITUDE_LETTER,
    MERIDIAN_LETTER,
    MeridianNotGenerator,
    NotCoprime,
    PochetteEmbeddingData,
    SlopeSpec,
    UndefinedForSlopeZero,
    detect_s4,
    linking_number,
    surgery_homology,
    surgery_invariants,
    surgery_pi1,
    surgery_relator_word,
)
from pochette.words import Word, exponent_sum, parse_word, substitute, word_to_text

Z = AbelianInvariants(1, ())
TRIVIAL = AbelianInvariants(0, ())
CERTIFICATES = {
    "HomeoS4Certified": "meridian-index-1",
    "NontrivialPi1": "meridian-index-above-1",
}


def normalized_coprime_slopes(p_max, q_max):
    out = []
    for p in range(0, p_max + 1):
        for q in range(-q_max, q_max + 1):
            if (p, q) == (0, 0) or gcd(abs(p), abs(q)) != 1:
                continue
            if p == 0 and q != 1:
                continue
            out.append(SlopeSpec(p, q))
    return out


class TestSlopeSpec:
    def test_normalization(self):
        assert (SlopeSpec(-1, 2).p, SlopeSpec(-1, 2).q) == (1, -2)
        assert (SlopeSpec(0, -1).p, SlopeSpec(0, -1).q) == (0, 1)
        assert (SlopeSpec(3, -4).p, SlopeSpec(3, -4).q) == (3, -4)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            SlopeSpec(2, 4)
        with pytest.raises(NotCoprime):
            SlopeSpec(0, 0)
        with pytest.raises(NotCoprime):
            SlopeSpec(0, 2)

    def test_gcd_with_zero_accepted(self):
        assert (SlopeSpec(1, 0).p, SlopeSpec(1, 0).q) == (1, 0)
        assert (SlopeSpec(0, 1).p, SlopeSpec(0, 1).q) == (0, 1)

    def test_framing_validation(self):
        SlopeSpec(1, 2, 1)
        with pytest.raises(InputError):
            SlopeSpec(1, 2, 2)


class TestSurgeryRelatorWord:
    def test_examples(self):
        assert word_to_text(surgery_relator_word(SlopeSpec(1, 0))) == "m"
        assert word_to_text(surgery_relator_word(SlopeSpec(2, 1))) == "m l m"
        assert word_to_text(surgery_relator_word(SlopeSpec(3, 4))) == "l m l m l^2 m"

    def test_single_m_family(self):
        for q in range(-6, 7):
            slope = SlopeSpec(1, q)
            expected = (Word(((LONGITUDE_LETTER, 1),)) ** q) * Word(((MERIDIAN_LETTER, 1),))
            assert surgery_relator_word(slope) == expected

    def test_slope_zero_undefined(self):
        with pytest.raises(UndefinedForSlopeZero):
            surgery_relator_word(SlopeSpec(0, 1))

    def test_exponent_sums_telescope(self):
        for p in range(1, 13):
            for q in range(-12, 13):
                if gcd(p, abs(q)) != 1:
                    continue
                word = surgery_relator_word(SlopeSpec(p, q))
                assert exponent_sum(word, MERIDIAN_LETTER) == p
                assert exponent_sum(word, LONGITUDE_LETTER) == q

    def test_lemma_anchor_p_p_plus_one(self):
        alphabet = spun_trefoil().alphabet
        x = parse_word("x", alphabet)
        y = parse_word("y", alphabet)
        for p in range(1, 7):
            for sign in (1, -1):
                ys = y if sign == 1 else parse_word("y^-1", alphabet)
                sub = substitute(
                    surgery_relator_word(SlopeSpec(p, p + 1)),
                    {MERIDIAN_LETTER: x, LONGITUDE_LETTER: ys},
                )
                target = ys * ((x * ys) ** p)
                assert relators_equivalent(sub, target), (p, sign)


class TestEmbeddingData:
    def test_valid(self):
        data = spun_trefoil_embedding()
        assert word_to_text(data.meridian) == "x"

    def test_meridian_must_generate(self):
        P = parse_presentation("gens: x\nrels:")
        with pytest.raises(MeridianNotGenerator):
            PochetteEmbeddingData(P, parse_word("x^2", P.alphabet), Word())

    def test_rank_two_rejected(self):
        P = parse_presentation("gens: x,y\nrels:")
        with pytest.raises(MeridianNotGenerator):
            PochetteEmbeddingData(P, parse_word("x", P.alphabet), parse_word("y", P.alphabet))

    def test_words_must_fit_alphabet(self):
        from pochette.words import AlphabetMismatch, Generator

        P = parse_presentation("gens: x,y\nrels: y x^-1 y x y^-1 x")
        with pytest.raises(AlphabetMismatch):
            PochetteEmbeddingData(
                P, Word(((Generator("z"), 1),)), parse_word("y", P.alphabet)
            )


class TestLinkingNumber:
    def test_spun_trefoil(self):
        assert linking_number(spun_trefoil_embedding()) == -1

    def test_longitude_equals_meridian(self):
        P = spun_trefoil()
        m = parse_word("x", P.alphabet)
        assert linking_number(PochetteEmbeddingData(P, m, m)) == 1

    def test_null_homologous_longitude(self):
        P = spun_trefoil()
        data = PochetteEmbeddingData(P, parse_word("x", P.alphabet), Word())
        assert linking_number(data) == 0

    def test_meridian_sign_convention(self):
        # meridian mapping to -1 flips the reported sign so l = image(l)/image(m)
        P = spun_trefoil()
        data = PochetteEmbeddingData(
            P, parse_word("x^-1", P.alphabet), parse_word("y", P.alphabet)
        )
        assert linking_number(data) == 1

    def test_stored_once_and_survives_pickling(self):
        import pickle

        data = spun_trefoil_embedding()
        assert data.linking == -1
        copy = pickle.loads(pickle.dumps(data))
        assert copy == data and linking_number(copy) == -1

    def test_not_part_of_equality(self):
        data = spun_trefoil_embedding()
        altered = PochetteEmbeddingData(data.knot_group, data.meridian, data.longitude)
        object.__setattr__(altered, "linking", 7)
        assert altered == data and hash(altered) == hash(data)


class TestSurgeryPi1:
    def test_criterion_one_presentation(self):
        pi1 = surgery_pi1(spun_trefoil_embedding(), SlopeSpec(1, 2))
        assert format_presentation(pi1) == "gens: x, y\nrels: y x^-1 y x y^-1 x ; y^2 x"

    def test_slope_infinity_kills_meridian(self):
        data = spun_trefoil_embedding()
        pi1 = surgery_pi1(data, SlopeSpec(1, 0))
        assert pi1.relators[-1] == data.meridian

    def test_slope_zero_adds_longitude(self):
        data = spun_trefoil_embedding()
        pi1 = surgery_pi1(data, SlopeSpec(0, 1))
        assert pi1.relators[-1] == data.longitude

    def test_one_fusion_family_relator(self):
        from pochette.ribbon import one_fusion_presentation

        P = one_fusion_presentation(parse_word("x y x^-1", spun_trefoil().alphabet), 1)
        data = PochetteEmbeddingData(
            P, parse_word("x", P.alphabet), parse_word("y", P.alphabet)
        )
        for p in range(1, 5):
            pi1 = surgery_pi1(data, SlopeSpec(p, p + 1))
            y, x = parse_word("y", P.alphabet), parse_word("x", P.alphabet)
            assert relators_equivalent(pi1.relators[-1], y * ((x * y) ** p))

    def test_n_fusion_family_relator(self):
        # meridian x_r, inverted-longitude lift x_s^-1, slope p/(p+1):
        # the added relator is cyclically x_s^-1 (x_r x_s^-1)^p
        from pochette.ribbon import n_fusion_presentation, parse_fusion_file

        fusion = parse_fusion_file("n: 2\nband: x1 x3^-1 1 2\nband: x2 2 3\n")
        P = n_fusion_presentation(fusion)
        xr = parse_word("x1", P.alphabet)
        xs_inv = parse_word("x3^-1", P.alphabet)
        data = PochetteEmbeddingData(P, xr, xs_inv)
        assert linking_number(data) == -1
        for p in range(1, 5):
            pi1 = surgery_pi1(data, SlopeSpec(p, p + 1))
            assert relators_equivalent(pi1.relators[-1], xs_inv * ((xr * xs_inv) ** p))


class TestSurgeryHomology:
    def test_spun_trefoil_slope_half(self):
        h = surgery_homology(-1, SlopeSpec(1, 2))
        assert h == (Z, TRIVIAL, TRIVIAL, TRIVIAL, Z)

    def test_zero_branch(self):
        for linking in (-3, 0, 2, 5):
            slope = SlopeSpec(abs(linking), -1 if linking >= 0 else 1) if linking else SlopeSpec(0, 1)
            assert slope.p + slope.q * linking == 0
            h = surgery_homology(linking, slope)
            assert h == (Z, Z, AbelianInvariants(2, ()), Z, Z)

    def test_torsion_branch(self):
        h = surgery_homology(0, SlopeSpec(3, 1))
        assert h[1] == h[2] == AbelianInvariants(0, (3,))
        assert h[3] == TRIVIAL

    def test_boundary_entries_always_Z(self):
        for linking in range(-4, 5):
            for slope in normalized_coprime_slopes(3, 3):
                h = surgery_homology(linking, slope)
                assert h[0] == h[4] == Z


class TestDetectS4:
    def test_spun_trefoil_certified(self):
        verdict = detect_s4(spun_trefoil_embedding(), SlopeSpec(1, 2))
        assert verdict.kind == "HomeoS4Certified" and verdict.p_plus_q_ell == -1

    def test_zero_sum_not_homotopy_sphere(self):
        data = spun_trefoil_embedding()  # linking -1
        inv = surgery_invariants(data, SlopeSpec(1, 1))
        assert inv.p_plus_q_ell == 0
        assert inv.verdict.kind == "NotHomotopySphere"
        assert inv.homology[2] == AbelianInvariants(2, ())
        assert inv.verdict.detail == "H1 = Z, H2 = Z^2 (obstruction Z)"

    def test_torsion_not_homotopy_sphere(self):
        P = spun_trefoil()
        data = PochetteEmbeddingData(P, parse_word("x", P.alphabet), Word())
        inv = surgery_invariants(data, SlopeSpec(3, 1))
        assert inv.verdict.kind == "NotHomotopySphere"
        assert inv.homology[1] == AbelianInvariants(0, (3,))
        assert inv.verdict.detail == "H1 = Z/3, H2 = Z/3 (obstruction Z/3)"

    def test_unknown_on_tiny_budget(self):
        # <x> needs 3 cosets at slope 1/2, so at 2 both enumerations overflow
        verdict = detect_s4(
            spun_trefoil_embedding(), SlopeSpec(1, 2), Budgets(max_cosets=2)
        )
        assert verdict.kind == "Unknown"
        assert verdict.certificate is None

    def test_meridian_certifies_within_a_tight_budget(self):
        # the regular enumeration of 1/2 overflows at 5 cosets; <x> closes in 3
        inv = surgery_invariants(
            spun_trefoil_embedding(), SlopeSpec(1, 2), Budgets(max_cosets=5)
        )
        assert inv.verdict.kind == "HomeoS4Certified"
        assert inv.verdict.certificate == "meridian-index-1"
        assert (inv.enumeration.index, inv.enumeration.cosets_defined) == (1, 3)
        assert certify_trivial(inv.pi1, 5).kind == "Unknown"

    def test_nontrivial_pi1_binary_icosahedral(self):
        # adding (st)^2 s^-3 to <s,t | s^3 t^-5> gives the order-120
        # perfect group; realized here at slope 1/1 with linking number 0
        P = parse_presentation("gens: s, t\nrels: s^3 t^-5")
        data = PochetteEmbeddingData(
            P,
            parse_word("s^-1 t^2", P.alphabet),
            parse_word("s t s t s^-3 t^-2 s", P.alphabet),
        )
        assert linking_number(data) == 0
        inv = surgery_invariants(data, SlopeSpec(1, 1), Budgets(max_cosets=5000))
        assert inv.verdict.kind == "NontrivialPi1"
        assert inv.verdict.pi1_index == 120
        assert inv.verdict.certificate == "meridian-index-above-1"
        # 120 = 12 * 10: <m> has index 12, and H1 of the stabilizer is Z/10
        assert inv.enumeration.index == 12
        assert inv.enumeration.stabilizer == AbelianInvariants.cyclic(10)

    def test_never_certified_without_unit_homology(self):
        rng = random.Random(11)
        for _ in range(40):
            data = random_embedding(rng)
            linking = linking_number(data)
            for slope in normalized_coprime_slopes(3, 3):
                if abs(slope.p + slope.q * linking) != 1:
                    verdict = detect_s4(data, slope, Budgets(max_cosets=200))
                    assert verdict.kind != "HomeoS4Certified"
                    assert verdict.certificate is None


class TestPi1OnDemand:
    """pi1 is built for the S4 verdict, and otherwise on its first read."""

    @pytest.mark.parametrize(
        "longitude, p, q, kind",
        [
            ("y", 1, 2, "HomeoS4Certified"),
            ("y", 3, 1, "NotHomotopySphere"),
            # linking 0, so 0/1 is NotHomotopySphere; its relator is the longitude
            ("x y", 0, 1, "NotHomotopySphere"),
        ],
    )
    def test_equals_surgery_pi1(self, longitude, p, q, kind):
        P = spun_trefoil()
        data = PochetteEmbeddingData(
            P, parse_word("x", P.alphabet), parse_word(longitude, P.alphabet)
        )
        slope = SlopeSpec(p, q)
        inv = surgery_invariants(data, slope)
        assert inv.verdict.kind == kind
        unread = surgery_invariants(data, slope)
        assert inv.pi1 == surgery_pi1(data, slope)
        assert inv.pi1 is inv.pi1, "built once per SurgeryInvariants"
        assert inv == unread, "reading pi1 does not change equality"

    def test_sweep_builds_pi1_only_on_unit_rows(self, monkeypatch, capsys):
        calls = []

        def counting_add_relator(P, w):
            calls.append(w)
            return add_relator(P, w)

        monkeypatch.setattr(surgery, "add_relator", counting_add_relator)
        argv = ["sweep", "spun-trefoil", "--p-range=1:12", "--q-range=-12:12", "--format=json"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        unit_rows = sum(abs(row["p_plus_q_ell"]) == 1 for row in rows)
        assert 0 < unit_rows < len(rows)
        assert len(calls) == unit_rows


class TestMeridianCertificate:
    """The one-run <m> S4 branch against the regular-only branch it replaced."""

    @given(
        seed=st.integers(0, 999),
        q=st.sampled_from((-3, -2, -1, 1, 2, 3)),
        n=st.sampled_from((1, -1)),
        max_cosets=st.sampled_from((100, 300, 1000)),
    )
    @settings(max_examples=150, deadline=None)
    # the one NontrivialPi1 slope (order 120) among these seeds
    @example(seed=323, q=1, n=1, max_cosets=1000)
    def test_agrees_with_regular_oracle(self, seed, q, n, max_cosets):
        data = random_embedding(random.Random(seed))
        p = n - q * data.linking
        assume(p > 0 and gcd(p, abs(q)) == 1)
        slope = SlopeSpec(p, q)
        budgets = Budgets(max_cosets=max_cosets)
        verdict = surgery_invariants(data, slope, budgets).verdict
        expected = oracles.s4_verdict_regular_oracle(data, slope, budgets)
        meridian = enumerate_cosets(surgery_pi1(data, slope), (data.meridian,), max_cosets)
        # the <m> run alone decides: an overflow is Unknown, index 1 is S4
        assert (verdict.kind == "Unknown") == (meridian.kind == "Unknown")
        assert (verdict.kind == "HomeoS4Certified") == (meridian.index == 1)
        assert verdict.certificate == CERTIFICATES.get(verdict.kind)
        if expected.kind != "Unknown":
            assert (verdict.kind, verdict.pi1_index) == (expected.kind, expected.pi1_index)

    @pytest.mark.parametrize(
        "seed, p, q, index, stabilizer",
        [(287, 7, -2, 544, 9), (287, 5, -2, 48, 7), (323, 1, 1, 12, 10)],
    )
    def test_order_read_off_the_meridian_table(self, seed, p, q, index, stabilizer):
        # the regular run overflows the default budget on 287 at 7/-2
        data = random_embedding(random.Random(seed))
        inv = surgery_invariants(data, SlopeSpec(p, q))
        assert inv.verdict.kind == "NontrivialPi1"
        assert inv.verdict.pi1_index == index * stabilizer
        assert inv.verdict.detail == f"fundamental group has order {index * stabilizer}"
        assert inv.verdict.certificate == "meridian-index-above-1"
        assert inv.enumeration.index == index
        assert inv.enumeration.stabilizer == AbelianInvariants.cyclic(stabilizer)

    def test_order_past_the_elimination_bound_is_not_computed(self):
        # <m> closes at index 544 within 10,000 cosets, but the elimination
        # needs more than the 40,000 rewrites that budget allows
        data = random_embedding(random.Random(287))
        inv = surgery_invariants(data, SlopeSpec(7, -2), Budgets(max_cosets=10_000))
        assert (inv.verdict.kind, inv.verdict.pi1_index) == ("NontrivialPi1", None)
        assert inv.verdict.detail == (
            "<m> has index 544; the order of the fundamental group was not computed"
        )
        assert inv.verdict.certificate == "meridian-index-above-1"
        assert (inv.enumeration.index, inv.enumeration.stabilizer) == (544, None)

    def test_free_stabilizer_reads_infinite(self, monkeypatch):
        # unreachable with H1 = 0 when the table is right (a virtually cyclic
        # group with trivial H1 is finite), so the enumeration is stubbed
        stub = EnumerationVerdict("NonTrivial", 2, 2, 0, 100, stabilizer=Z)
        monkeypatch.setattr(surgery, "certify_trivial", lambda *args, **kwargs: stub)
        verdict = surgery_invariants(spun_trefoil_embedding(), SlopeSpec(1, 2)).verdict
        assert (verdict.kind, verdict.pi1_index) == ("NontrivialPi1", None)
        assert verdict.detail == (
            "fundamental group is infinite: the stabilizer of <m>'s coset has H1 = Z"
        )


class TestAbelianizationConsistency:
    def test_h1_matches_presentation_abelianization(self):
        rng = random.Random(2718)
        slopes = normalized_coprime_slopes(4, 4)
        for _ in range(30):
            data = random_embedding(rng)
            linking = linking_number(data)
            for slope in slopes:
                expected = surgery_homology(linking, slope)[1]
                actual = abelian_invariants(surgery_pi1(data, slope))
                assert actual == expected, (
                    format_presentation(data.knot_group),
                    word_to_text(data.meridian),
                    word_to_text(data.longitude),
                    (slope.p, slope.q),
                )
