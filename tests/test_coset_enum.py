import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import oracles
from pochette.coset_enum import (
    Completed,
    CosetTable,
    Overflow,
    _verify_closed,
    certify_trivial,
    enumerate_cosets,
    subgroup_membership,
)
from pochette.errors import CertificateError, InputError
from pochette.presentations import FinitePresentation, parse_presentation
from pochette.words import Generator, Word, parse_word

X = Generator("x")
Y = Generator("y")

S3 = "gens: a,b\nrels: a^2; b^2; a b a b a b"
DIHEDRAL8 = "gens: x,y\nrels: y^2; x y x y; x^4"
SURGERED_SPUN_TREFOIL = "gens: x,y\nrels: y x^-1 y x y^-1 x ; y^2 x"


class TestEnumerate:
    def test_s3_against_multiplication_table_oracle(self):
        result = enumerate_cosets(parse_presentation(S3))
        expected = len(oracles.mulclose([
            oracles.from_cycle(3, (0, 1)),
            oracles.from_cycle(3, (1, 2)),
        ]))
        assert isinstance(result, Completed)
        assert result.index == expected == 6

    def test_cyclic_groups_against_oracle(self):
        for n in range(1, 51):
            P = parse_presentation(f"gens: x\nrels: x^{n}")
            result = enumerate_cosets(P)
            expected = len(oracles.mulclose([oracles.from_cycle(n, tuple(range(n)))])) if n > 1 else 1
            assert isinstance(result, Completed)
            assert result.index == n == expected if n > 1 else result.index == 1

    def test_dihedral8_against_oracle(self):
        result = enumerate_cosets(parse_presentation(DIHEDRAL8))
        expected = len(oracles.mulclose([
            oracles.from_cycle(4, (0, 1, 2, 3)),
            oracles.from_cycle(4, (0, 2)),
        ]))
        assert isinstance(result, Completed)
        assert result.index == expected == 8

    def test_surgered_spun_trefoil_trivial(self):
        result = enumerate_cosets(parse_presentation(SURGERED_SPUN_TREFOIL))
        assert isinstance(result, Completed) and result.index == 1

    def test_empty_presentation(self):
        result = enumerate_cosets(FinitePresentation((), ()))
        assert isinstance(result, Completed) and result.index == 1

    def test_free_group_overflows(self):
        result = enumerate_cosets(parse_presentation("gens: x,y\nrels:"), max_cosets=500)
        assert isinstance(result, Overflow)
        assert result.max_cosets == 500

    def test_subgroup_index(self):
        P = parse_presentation(S3)
        result = enumerate_cosets(P, [parse_word("a", P.alphabet)])
        assert isinstance(result, Completed) and result.index == 3

    def test_completed_table_closes_all_relator_traces(self):
        for text in (S3, DIHEDRAL8, SURGERED_SPUN_TREFOIL, "gens: x\nrels: x^12"):
            P = parse_presentation(text)
            result = enumerate_cosets(P)
            assert isinstance(result, Completed)
            for coset in range(result.index):
                for rel in P.relators:
                    assert result.table.trace(coset, rel) == coset

    def test_monotone_in_max_cosets(self):
        P = parse_presentation(S3)
        small = enumerate_cosets(P, max_cosets=200)
        assert isinstance(small, Completed)
        for bound in (small.cosets_defined, 1000, 100_000):
            again = enumerate_cosets(P, max_cosets=bound)
            assert isinstance(again, Completed) and again.index == small.index

    def test_stable_under_relator_reordering(self):
        base = parse_presentation(S3)
        indices = set()
        rng = random.Random(3)
        for _ in range(6):
            rels = list(base.relators)
            rng.shuffle(rels)
            result = enumerate_cosets(FinitePresentation(base.alphabet, tuple(rels)))
            assert isinstance(result, Completed)
            indices.add(result.index)
        assert indices == {6}

    def test_stable_under_generator_renaming(self):
        renamed = parse_presentation("gens: u,v\nrels: u^2; v^2; u v u v u v")
        result = enumerate_cosets(renamed)
        assert isinstance(result, Completed) and result.index == 6

    def test_bad_max_cosets(self):
        with pytest.raises(ValueError):
            enumerate_cosets(parse_presentation("gens: x\nrels: x"), max_cosets=0)


class TestCertifyTrivial:
    def test_empty_presentation_trivial(self):
        assert certify_trivial(FinitePresentation((), ())).is_trivial()

    def test_lemma_family_instance(self):
        # w = x y x^-1, sign +1, p = 3: both relators of the fusion family
        w = parse_word("x y x^-1", (X, Y))
        rel1 = w * Word(((X, 1),)) * Word(tuple((g, -s) for g, s in reversed(w.letters))) * Word(((Y, 1),))
        rel2 = parse_word("y x y x y x y", (X, Y))  # y (x y)^3
        P = FinitePresentation((X, Y), (rel1, rel2))
        verdict = certify_trivial(P)
        assert verdict.is_trivial()

    def test_nontrivial_cyclic(self):
        verdict = certify_trivial(parse_presentation("gens: x\nrels: x^2"))
        assert verdict.kind == "NonTrivial" and verdict.index == 2

    def test_unknown_on_overflow(self):
        verdict = certify_trivial(parse_presentation("gens: x,y\nrels:"), max_cosets=100)
        assert verdict.kind == "Unknown" and verdict.index is None


class TestSubgroupMembership:
    def test_dihedral_in_subgroup(self):
        P = parse_presentation(DIHEDRAL8)
        sub = [parse_word("x", P.alphabet)]
        verdict = subgroup_membership(P, sub, parse_word("x^3", P.alphabet))
        assert verdict.kind == "InSubgroup" and verdict.subgroup_index == 2

    def test_identity_always_in(self):
        P = parse_presentation(DIHEDRAL8)
        verdict = subgroup_membership(P, [parse_word("x", P.alphabet)], Word())
        assert verdict.kind == "InSubgroup"

    def test_dihedral_not_in_subgroup(self):
        P = parse_presentation(DIHEDRAL8)
        verdict = subgroup_membership(
            P, [parse_word("x", P.alphabet)], parse_word("y", P.alphabet)
        )
        assert verdict.kind == "NotInSubgroup"

    def test_unknown_on_overflow(self):
        P = parse_presentation("gens: x,y\nrels: y x^-1 y x y^-1 x")
        verdict = subgroup_membership(
            P, [parse_word("x", P.alphabet)], parse_word("y", P.alphabet), max_cosets=300
        )
        assert verdict.kind == "Unknown"

    def test_cross_check_with_abelian_order(self):
        # abelian group: enumeration order must match the invariant-factor order
        from pochette.abelian import abelian_invariants

        P = parse_presentation("gens: x,y\nrels: x^4 ; y^6 ; x y x^-1 y^-1")
        result = enumerate_cosets(P)
        assert isinstance(result, Completed)
        assert result.index == abelian_invariants(P).order() == 24


class TestStructuralCertificates:
    def test_gcd_family(self):
        from math import gcd

        for a in range(1, 13):
            for b in range(1, 13):
                P = parse_presentation(f"gens: x\nrels: x^{a} ; x^{b}")
                result = enumerate_cosets(P)
                assert isinstance(result, Completed)
                assert result.index == gcd(a, b), (a, b)

    def test_subgroup_index_divides_group_order(self):
        rng = random.Random(17)
        for text in (S3, DIHEDRAL8, "gens: x,y\nrels: x^4 ; y^6 ; x y x^-1 y^-1"):
            P = parse_presentation(text)
            order = enumerate_cosets(P).index
            for _ in range(8):
                word = Word(tuple(
                    (rng.choice(P.alphabet), rng.choice((1, -1)))
                    for _ in range(rng.randint(1, 5))
                ))
                result = enumerate_cosets(P, [word])
                assert isinstance(result, Completed)
                assert order % result.index == 0, (text, str(word))

    def test_completed_table_is_a_permutation_action(self):
        # each signed-generator column of a closed table must be a bijection
        # on the cosets, pairing with its inverse column
        for text in (S3, DIHEDRAL8, SURGERED_SPUN_TREFOIL):
            P = parse_presentation(text)
            result = enumerate_cosets(P)
            assert isinstance(result, Completed)
            rows = result.table.rows
            n = len(rows)
            for column in range(2 * len(P.alphabet)):
                images = [rows[c][column] for c in range(n)]
                assert sorted(images) == list(range(n))
                for c in range(n):
                    assert rows[rows[c][column]][column ^ 1] == c

    def test_index_intrinsic_under_relator_reordering_fuzz(self):
        rng = random.Random(0)

        def random_word(max_len):
            return Word(tuple(
                (rng.choice((X, Y)), rng.choice((1, -1)))
                for _ in range(rng.randint(1, max_len))
            ))

        checked = 0
        for _ in range(400):
            relators = tuple(random_word(8) for _ in range(rng.randint(1, 3)))
            P = FinitePresentation((X, Y), relators)
            subgroup = [random_word(4)] if rng.random() < 0.4 else []
            first = enumerate_cosets(P, subgroup, max_cosets=3000)
            if not isinstance(first, Completed):
                continue
            reordered = FinitePresentation((X, Y), tuple(reversed(relators)))
            second = enumerate_cosets(reordered, subgroup, max_cosets=50_000)
            assert isinstance(second, Completed)
            assert first.index == second.index, (relators, subgroup)
            checked += 1
        assert checked > 100


class TestVerifyClosed:
    """The completion re-check raises CertificateError, also under python -O."""

    def test_corrupted_table_raises(self):
        P = parse_presentation("gens: x\nrels: x^3")
        # x acts as a transposition on three cosets, so x^3 does not close
        table = CosetTable(P.alphabet, ((1, 1), (0, 0), (2, 2)))
        with pytest.raises(CertificateError) as exc:
            _verify_closed(P, (), table)
        assert not isinstance(exc.value, InputError)
        with pytest.raises(CertificateError):
            _verify_closed(
                parse_presentation("gens: x\nrels:"), [parse_word("x", [X])], table
            )

    def test_corrupted_table_raises_under_optimize(self):
        script = textwrap.dedent(
            """
            from pochette.coset_enum import CosetTable, _verify_closed
            from pochette.errors import CertificateError
            from pochette.presentations import parse_presentation

            assert False, "asserts must be stripped by -O"
            P = parse_presentation("gens: x\\nrels: x^3")
            try:
                _verify_closed(P, (), CosetTable(P.alphabet, ((1, 1), (0, 0), (2, 2))))
            except CertificateError:
                print("raised")
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised"
