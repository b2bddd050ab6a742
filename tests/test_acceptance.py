"""Acceptance suite.

One test per criterion; each prints a single PASS line on success (run
with -s or check the pytest summary).  All tolerances are exact: these
are integer and word-level identities.
"""

import json
import random
import time
from math import gcd

import oracles
from pochette.abelian import AbelianInvariants, abelian_invariants, cokernel_invariants
from pochette.budgets import Budgets
from pochette.cli import main
from pochette.coset_enum import certify_trivial, enumerate_cosets
from pochette.presentations import (
    FinitePresentation,
    parse_presentation,
    relators_equivalent,
)
from pochette.quotient_search import assignment_satisfies, image_is_cyclic
from pochette.ribbon import (
    cord_triviality,
    random_embedding,
    spun_trefoil,
    spun_trefoil_embedding,
)
from pochette.surgery import (
    LONGITUDE_LETTER,
    MERIDIAN_LETTER,
    PochetteEmbeddingData,
    SlopeSpec,
    detect_s4,
    linking_number,
    surgery_homology,
    surgery_invariants,
    surgery_pi1,
    surgery_relator_word,
)
from pochette.words import Generator, Word, exponent_sum, invert, parse_word, substitute

X = Generator("x")
Y = Generator("y")


def all_reduced_words(max_len):
    words = [Word()]
    frontier = [Word()]
    letters = [(X, 1), (X, -1), (Y, 1), (Y, -1)]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for letter in letters:
                extended = Word(w.letters + (letter,))
                if len(extended) == len(w) + 1:
                    nxt.append(extended)
        words.extend(nxt)
        frontier = nxt
    return words


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


def test_criterion_1_spun_trefoil_surgery(capsys):
    start = time.perf_counter()
    code = main([
        "surger", "spun-trefoil",
        "--meridian", "x", "--longitude", "y",
        "--slope", "1/2", "--format", "json",
    ])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["presentation"] == {
        "gens": "x, y",
        "rels": "y x^-1 y x y^-1 x ; y^2 x",
    }
    assert report["linking"] == -1
    assert report["p_plus_q_ell"] == -1
    assert report["verdict"]["kind"] == "HomeoS4Certified"
    assert report["enumeration"]["index"] == 1
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        print(f"\nACCEPTANCE 1 PASS: spun-trefoil 1/2 surgery certified in {elapsed:.2f}s")


def test_criterion_2_fusion_family_triviality(capsys):
    start = time.perf_counter()
    words = all_reduced_words(5)
    assert len(words) == 485  # exhaustive over reduced length <= 5
    x_word = Word(((X, 1),))
    checked = 0
    for w in words:
        for sign in (1, -1):
            y_sign = Word(((Y, sign),))
            band_relator = w * x_word * invert(w) * y_sign
            for p in range(1, 6):
                slope_relator = substitute(
                    surgery_relator_word(SlopeSpec(p, p + 1)),
                    {MERIDIAN_LETTER: x_word, LONGITUDE_LETTER: y_sign},
                )
                P = FinitePresentation((X, Y), (band_relator, slope_relator))
                verdict = certify_trivial(P, max_cosets=100_000)
                assert verdict.kind == "Trivial", (str(w), sign, p, verdict.kind)
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 485 * 2 * 5
    assert elapsed < 300, f"took {elapsed:.1f}s"
    with capsys.disabled():
        print(f"ACCEPTANCE 2 PASS: {checked} fusion-family groups certified trivial in {elapsed:.1f}s")


def test_criterion_3_homology_cross_check(capsys):
    rng = random.Random(20240601)
    slopes = normalized_coprime_slopes(6, 6)
    zero_branch_hits = 0
    checked = 0
    for _ in range(200):
        data = random_embedding(rng)
        linking = linking_number(data)
        for slope in slopes:
            expected_h1 = surgery_homology(linking, slope)[1]
            actual = abelian_invariants(surgery_pi1(data, slope))
            assert actual == expected_h1, (
                str(data.knot_group), str(slope), linking,
            )
            checked += 1
            if slope.p + slope.q * linking == 0:
                zero_branch_hits += 1
    assert zero_branch_hits > 0, "the p + q*linking = 0 branch must be exercised"
    with capsys.disabled():
        print(
            f"ACCEPTANCE 3 PASS: {checked} surgery abelianizations matched the "
            f"homology formula ({zero_branch_hits} on the zero branch)"
        )


def test_criterion_4_slope_word_telescoping(capsys):
    checked = 0
    for p in range(1, 13):
        for q in range(-12, 13):
            if gcd(p, abs(q)) != 1:
                continue
            word = surgery_relator_word(SlopeSpec(p, q))
            assert exponent_sum(word, MERIDIAN_LETTER) == p
            assert exponent_sum(word, LONGITUDE_LETTER) == q
            checked += 1
    x_word = Word(((X, 1),))
    y_word = Word(((Y, 1),))
    for p in range(1, 7):
        sub = substitute(
            surgery_relator_word(SlopeSpec(p, p + 1)),
            {MERIDIAN_LETTER: x_word, LONGITUDE_LETTER: y_word},
        )
        assert relators_equivalent(sub, y_word * ((x_word * y_word) ** p)), p
    with capsys.disabled():
        print(
            f"ACCEPTANCE 4 PASS: exponent sums telescoped on {checked} slopes; "
            f"p/(p+1) words cyclically match the fusion-family relator for p <= 6"
        )


def test_criterion_5_engine_oracles(capsys):
    # the cokernel's invariants vs the elementary-operation and minors oracles
    rng = random.Random(13579)
    for _ in range(500):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        diagonal = oracles.snf_diagonal_oracle(rows)
        assert diagonal == oracles.minors_gcd_diagonal(rows, min(nrows, ncols)), rows
        expected = AbelianInvariants(
            ncols - sum(1 for d in diagonal if d), tuple(d for d in diagonal if d > 1)
        )
        assert cokernel_invariants(rows, ncols) == expected, rows

    # Todd-Coxeter orders vs brute-force multiplication-table closures
    for n in range(1, 51):
        result = enumerate_cosets(parse_presentation(f"gens: x\nrels: x^{n}"))
        assert result.kind == "Completed"
        if n == 1:
            assert result.index == 1
        else:
            cyclic = oracles.mulclose([oracles.from_cycle(n, tuple(range(n)))])
            assert result.index == len(cyclic) == n

    s3 = enumerate_cosets(parse_presentation("gens: a,b\nrels: a^2; b^2; a b a b a b"))
    s3_order = len(oracles.mulclose([
        oracles.from_cycle(3, (0, 1)), oracles.from_cycle(3, (1, 2)),
    ]))
    assert s3.kind == "Completed" and s3.index == s3_order == 6

    d8 = enumerate_cosets(parse_presentation("gens: x,y\nrels: y^2; x y x y; x^4"))
    d8_order = len(oracles.mulclose([
        oracles.from_cycle(4, (0, 1, 2, 3)), oracles.from_cycle(4, (0, 2)),
    ]))
    assert d8.kind == "Completed" and d8.index == d8_order == 8
    with capsys.disabled():
        print(
            "ACCEPTANCE 5 PASS: 500 cokernels matched the elementary and minors "
            "oracles; Todd-Coxeter orders matched closure "
            "oracles for cyclic(1..50), S3, dihedral-8"
        )


def test_criterion_6_cord_certification(capsys):
    P = spun_trefoil()
    meridian = parse_word("x", P.alphabet)
    budgets = Budgets(max_cosets=2000, quotient_degree=3)
    verdict = cord_triviality(P, meridian, parse_word("y", P.alphabet), budgets)
    assert verdict.kind == "NontrivialCordCertified"
    assert verdict.witness is not None and verdict.witness.degree <= 3
    assert assignment_satisfies(P, verdict.witness)
    assert not image_is_cyclic(verdict.witness)
    for k in range(1, 6):
        verdict_k = cord_triviality(
            P, meridian, parse_word(f"x^{k}", P.alphabet), budgets
        )
        assert verdict_k.kind == "TrivialCordClass", k
    with capsys.disabled():
        print(
            "ACCEPTANCE 6 PASS: cord y certified nontrivial with a verified "
            "degree-3 witness; cords x^1..x^5 classified trivial"
        )


def test_criterion_7_honest_negatives(capsys):
    P = spun_trefoil()
    data = PochetteEmbeddingData(P, parse_word("x", P.alphabet), Word())
    assert linking_number(data) == 0

    verdict = detect_s4(data, SlopeSpec(3, 1))
    assert verdict.kind == "NotHomotopySphere"
    homology = surgery_homology(0, SlopeSpec(3, 1))
    assert str(homology[1]) == "Z/3"

    # slope (linking, -1) normalizes to (0, 1) here and lands on the zero branch
    slope = SlopeSpec(0, -1)
    verdict = detect_s4(data, slope)
    assert verdict.kind == "NotHomotopySphere" and verdict.p_plus_q_ell == 0
    homology = surgery_homology(0, slope)
    assert str(homology[2]) == "Z^2"

    # same branch with a nonzero linking number: (linking, -1) for linking -1
    data2 = spun_trefoil_embedding()
    slope2 = SlopeSpec(linking_number(data2), -1)
    verdict2 = detect_s4(data2, slope2)
    assert verdict2.kind == "NotHomotopySphere" and verdict2.p_plus_q_ell == 0
    assert str(surgery_homology(linking_number(data2), slope2)[2]) == "Z^2"
    with capsys.disabled():
        print(
            "ACCEPTANCE 7 PASS: linking-0 data reports Z/3 homology at slope 3/1 "
            "and Z^2 second homology on the zero branch"
        )


def test_spun_trefoil_s4_family_meridian_certified(capsys):
    # every p/(p+1) and p/(p-1) up to p = 400 at the default budget; the
    # regular enumeration overflows 100,000 cosets from p of about 225 on
    start = time.perf_counter()
    data = spun_trefoil_embedding()
    checked = 0
    for p in range(2, 401):
        for q in (p + 1, p - 1):
            inv = surgery_invariants(data, SlopeSpec(p, q))
            assert inv.verdict.kind == "HomeoS4Certified", (p, q, inv.verdict.kind)
            assert inv.verdict.certificate == "meridian-index-1", (p, q)
            assert inv.enumeration.index == 1
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 2 * 399
    with capsys.disabled():
        print(f"ACCEPTANCE S4 family PASS: {checked} spun-trefoil slopes certified by <x> in {elapsed:.1f}s")
