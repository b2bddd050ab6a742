import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from pochette.coset_enum import (
    _hlt,
    _verify_closed,
    certify_trivial,
    enumerate_cosets,
    subgroup_membership,
)
from pochette.errors import CertificateError, InputError
from pochette.presentations import (
    FinitePresentation,
    PermutationAssignment,
    parse_presentation,
)
from pochette.ribbon import spun_trefoil_embedding
from pochette.surgery import SlopeSpec, surgery_pi1
from pochette.words import Generator, Word, parse_word

X = Generator("x")
Y = Generator("y")

S3 = "gens: a,b\nrels: a^2; b^2; a b a b a b"
DIHEDRAL8 = "gens: x,y\nrels: y^2; x y x y; x^4"
SURGERED_SPUN_TREFOIL = "gens: x,y\nrels: y x^-1 y x y^-1 x ; y^2 x"
ORDER_10752 = "gens: a, b\nrels: a^8 ; b^7 ; a b a b ; a^-1 b a^-1 b a^-1 b"


def trace(table, coset, word):
    """The coset that ``word`` carries ``coset`` to, read off the closed table."""
    for gen, sign in word.letters:
        image = table.images[table.alphabet.index(gen)]
        coset = image[coset] if sign == 1 else image.index(coset)
    return coset


class TestEnumerate:
    def test_s3_against_multiplication_table_oracle(self):
        result = enumerate_cosets(parse_presentation(S3))
        expected = len(oracles.mulclose([
            oracles.from_cycle(3, (0, 1)),
            oracles.from_cycle(3, (1, 2)),
        ]))
        assert result.kind == "Completed"
        assert result.index == expected == 6

    def test_cyclic_groups_against_oracle(self):
        for n in range(1, 51):
            P = parse_presentation(f"gens: x\nrels: x^{n}")
            result = enumerate_cosets(P)
            expected = len(oracles.mulclose([oracles.from_cycle(n, tuple(range(n)))])) if n > 1 else 1
            assert result.kind == "Completed"
            assert result.index == n == expected if n > 1 else result.index == 1

    def test_dihedral8_against_oracle(self):
        result = enumerate_cosets(parse_presentation(DIHEDRAL8))
        expected = len(oracles.mulclose([
            oracles.from_cycle(4, (0, 1, 2, 3)),
            oracles.from_cycle(4, (0, 2)),
        ]))
        assert result.kind == "Completed"
        assert result.index == expected == 8

    def test_surgered_spun_trefoil_trivial(self):
        result = enumerate_cosets(parse_presentation(SURGERED_SPUN_TREFOIL))
        assert result.kind == "Completed" and result.index == 1

    def test_empty_presentation(self):
        result = enumerate_cosets(FinitePresentation((), ()))
        assert result.kind == "Completed" and result.index == 1

    def test_free_group_overflows(self):
        result = enumerate_cosets(parse_presentation("gens: x,y\nrels:"), max_cosets=500)
        assert result.kind == "Unknown"
        assert result.index is None and result.table is None
        assert result.max_cosets == 500

    def test_subgroup_index(self):
        P = parse_presentation(S3)
        result = enumerate_cosets(P, [parse_word("a", P.alphabet)])
        assert result.kind == "Completed" and result.index == 3

    def test_completed_table_closes_all_relator_traces(self):
        for text in (S3, DIHEDRAL8, SURGERED_SPUN_TREFOIL, "gens: x\nrels: x^12"):
            P = parse_presentation(text)
            result = enumerate_cosets(P)
            assert result.kind == "Completed"
            for coset in range(result.index):
                for rel in P.relators:
                    assert trace(result.table, coset, rel) == coset

    def test_monotone_in_max_cosets(self):
        P = parse_presentation(S3)
        small = enumerate_cosets(P, max_cosets=200)
        assert small.kind == "Completed"
        for bound in (small.cosets_defined, 1000, 100_000):
            again = enumerate_cosets(P, max_cosets=bound)
            assert again.kind == "Completed" and again.index == small.index

    def test_stable_under_relator_reordering(self):
        base = parse_presentation(S3)
        indices = set()
        rng = random.Random(3)
        for _ in range(6):
            rels = list(base.relators)
            rng.shuffle(rels)
            result = enumerate_cosets(FinitePresentation(base.alphabet, tuple(rels)))
            assert result.kind == "Completed"
            indices.add(result.index)
        assert indices == {6}

    def test_stable_under_generator_renaming(self):
        renamed = parse_presentation("gens: u,v\nrels: u^2; v^2; u v u v u v")
        result = enumerate_cosets(renamed)
        assert result.kind == "Completed" and result.index == 6

    def test_bad_max_cosets(self):
        with pytest.raises(ValueError):
            enumerate_cosets(parse_presentation("gens: x\nrels: x"), max_cosets=0)


@st.composite
def coded_presentations(draw, subgroup_words):
    """(nletters, relators, subgroup) over 2 or 3 generators, letters coded as ints."""
    nletters = 2 * draw(st.sampled_from((2, 3)))
    letters = st.integers(0, nletters - 1)
    relators = draw(st.lists(
        st.lists(letters, min_size=1, max_size=8).map(tuple), min_size=1, max_size=3
    ))
    subgroup = draw(st.lists(
        st.lists(letters, min_size=1, max_size=4).map(tuple),
        min_size=subgroup_words[0], max_size=subgroup_words[1],
    ))
    return nletters, relators, subgroup


class TestKernelAgainstOracle:
    """The column kernel matches the row-per-coset kernel it replaced.

    Equal (rows, defined, collapses) means every definition and every
    coincidence happened in the same order.
    """

    def check(self, nletters, relators, subgroup, max_cosets=2000):
        expected = oracles.hlt_oracle(nletters, relators, subgroup, max_cosets)
        assert _hlt(nletters, relators, subgroup, max_cosets) == expected
        rows, defined, _ = expected
        budgets = {1}
        if rows is not None:
            # exactly enough cosets, and one short of them (an overflow)
            budgets |= {defined, defined - 1} - {0}
        for budget in sorted(budgets):
            expected = oracles.hlt_oracle(nletters, relators, subgroup, budget)
            assert _hlt(nletters, relators, subgroup, budget) == expected, budget
            if rows is not None and budget == defined - 1:
                assert expected[0] is None

    @given(coded_presentations(subgroup_words=(0, 0)))
    @settings(max_examples=150, deadline=None)
    @example((4, [(0, 0), (2, 2), (0, 2, 0, 2, 0, 2)], []))  # S3
    def test_random_presentations(self, case):
        self.check(*case)

    @given(coded_presentations(subgroup_words=(1, 2)))
    @settings(max_examples=150, deadline=None)
    @example((4, [(0, 0), (2, 2), (0, 2, 0, 2, 0, 2)], [(0,)]))  # S3 over <a>
    def test_random_presentations_with_subgroup(self, case):
        self.check(*case)

    def test_spun_trefoil_meridian_runs(self):
        # the <x> enumerations of the S4 branch: p/(p+1) and p/(p-1), p <= 400
        data = spun_trefoil_embedding()
        for p in range(2, 401):
            for q in (p + 1, p - 1):
                P = surgery_pi1(data, SlopeSpec(p, q))
                relators = [P.encode(r) for r in P.relators]
                meridian = [P.encode(data.meridian)]
                args = (2 * len(P.alphabet), relators, meridian, 100_000)
                rows, defined, collapses = _hlt(*args)
                assert (rows, defined, collapses) == oracles.hlt_oracle(*args), (p, q)
                assert rows is not None and len(rows) == 1, (p, q)

    def test_order_10752_pinned(self):
        result = enumerate_cosets(parse_presentation(ORDER_10752))
        assert result.kind == "Completed" and result.index == 10_752
        assert (result.cosets_defined, result.collapses) == (54_054, 43_302)


class TestCertifyTrivial:
    def test_empty_presentation_trivial(self):
        assert certify_trivial(FinitePresentation((), ())).kind == "Trivial"

    def test_lemma_family_instance(self):
        # w = x y x^-1, sign +1, p = 3: both relators of the fusion family
        w = parse_word("x y x^-1", (X, Y))
        rel1 = w * Word(((X, 1),)) * Word(tuple((g, -s) for g, s in reversed(w.letters))) * Word(((Y, 1),))
        rel2 = parse_word("y x y x y x y", (X, Y))  # y (x y)^3
        P = FinitePresentation((X, Y), (rel1, rel2))
        verdict = certify_trivial(P)
        assert verdict.kind == "Trivial"

    def test_nontrivial_cyclic(self):
        verdict = certify_trivial(parse_presentation("gens: x\nrels: x^2"))
        assert verdict.kind == "NonTrivial" and verdict.index == 2

    def test_unknown_on_overflow(self):
        verdict = certify_trivial(parse_presentation("gens: x,y\nrels:"), max_cosets=100)
        assert verdict.kind == "Unknown"
        assert verdict.index is None and verdict.table is None

    def test_cyclic_word_certifies_before_the_regular_run(self):
        # <x> closes in 3 cosets; the trivial subgroup overflows at 5
        P = parse_presentation(SURGERED_SPUN_TREFOIL)
        assert certify_trivial(P, 5).kind == "Unknown"
        verdict = certify_trivial(P, 5, cyclic=parse_word("x", (X, Y)))
        assert verdict.kind == "Trivial" and verdict.index == 1
        assert verdict.subgroup == (parse_word("x", (X, Y)),)

    def test_cyclic_index_1_needs_trivial_homology(self):
        # <x> has index 1 in Z/5, which is cyclic but not trivial
        P = parse_presentation("gens: x\nrels: x^5")
        verdict = certify_trivial(P, cyclic=parse_word("x", (X,)))
        assert verdict.kind == "NonTrivial" and verdict.index == 5
        assert verdict.subgroup == ()

    def test_cyclic_index_above_1_falls_back(self):
        P = parse_presentation(S3)
        a = P.alphabet[0]
        verdict = certify_trivial(P, cyclic=Word(((a, 1),)))
        assert verdict.kind == "NonTrivial" and verdict.index == 6
        assert verdict.subgroup == ()


class TestSubgroupMembership:
    def test_dihedral_in_subgroup(self):
        P = parse_presentation(DIHEDRAL8)
        sub = [parse_word("x", P.alphabet)]
        verdict = subgroup_membership(P, sub, parse_word("x^3", P.alphabet))
        assert verdict.kind == "InSubgroup" and verdict.index == 2

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
        assert verdict.index is None and verdict.table is None

    def test_cross_check_with_abelian_order(self):
        # abelian group: enumeration order must match the invariant-factor order
        from pochette.abelian import abelian_invariants

        P = parse_presentation("gens: x,y\nrels: x^4 ; y^6 ; x y x^-1 y^-1")
        result = enumerate_cosets(P)
        assert result.kind == "Completed"
        assert result.index == abelian_invariants(P).order() == 24


class TestStructuralCertificates:
    def test_gcd_family(self):
        from math import gcd

        for a in range(1, 13):
            for b in range(1, 13):
                P = parse_presentation(f"gens: x\nrels: x^{a} ; x^{b}")
                result = enumerate_cosets(P)
                assert result.kind == "Completed"
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
                assert result.kind == "Completed"
                assert order % result.index == 0, (text, str(word))

    def test_completed_table_is_a_permutation_action(self):
        # each generator's image in a closed table must be a bijection on
        # the cosets
        for text in (S3, DIHEDRAL8, SURGERED_SPUN_TREFOIL):
            P = parse_presentation(text)
            result = enumerate_cosets(P)
            assert result.kind == "Completed"
            table = result.table
            assert table.degree == result.index
            assert table.alphabet == P.alphabet and len(table.images) == len(P.alphabet)
            for image in table.images:
                assert sorted(image) == list(range(result.index))

    def test_index_intrinsic_under_relator_reordering_fuzz(self):
        rng = random.Random(0)

        def random_word(max_len):
            return Word(tuple(
                (rng.choice((X, Y)), rng.choice((1, -1)))
                for _ in range(rng.randint(1, max_len))
            ))

        # candidates come from their own stream, so the presentations
        # drawn from rng stay the same
        candidates = random.Random(1)
        checked = overflowed = 0
        for _ in range(400):
            relators = tuple(random_word(8) for _ in range(rng.randint(1, 3)))
            P = FinitePresentation((X, Y), relators)
            subgroup = [random_word(4)] if rng.random() < 0.4 else []
            first = enumerate_cosets(P, subgroup, max_cosets=3000)
            candidate = Word(tuple(
                (candidates.choice((X, Y)), candidates.choice((1, -1)))
                for _ in range(candidates.randint(0, 4))
            ))
            # certify_trivial and subgroup_membership report the same
            # enumeration, relabelled
            membership = subgroup_membership(P, subgroup, candidate, 3000)
            verdicts = [membership]
            if not subgroup:
                trivial = certify_trivial(P, 3000)
                verdicts.append(trivial)
            for verdict in verdicts:
                assert verdict == replace(first, kind=verdict.kind), (relators, subgroup)
            if first.kind == "Unknown":
                assert first.index is None and first.table is None
                assert all(v.kind == "Unknown" and v.table is None for v in verdicts)
                overflowed += 1
                continue
            assert first.kind == "Completed"
            assert all(v.table == first.table for v in verdicts)
            inside = trace(first.table, 0, candidate) == 0
            assert membership.kind == ("InSubgroup" if inside else "NotInSubgroup")
            if not subgroup:
                assert trivial.kind == ("Trivial" if first.index == 1 else "NonTrivial")
            reordered = FinitePresentation((X, Y), tuple(reversed(relators)))
            second = enumerate_cosets(reordered, subgroup, max_cosets=50_000)
            assert second.kind == "Completed"
            assert first.index == second.index, (relators, subgroup)
            checked += 1
        assert checked > 100 and overflowed > 0


class TestVerifyClosed:
    """The completion re-check raises CertificateError, also under python -O."""

    def test_corrupted_table_raises(self):
        P = parse_presentation("gens: x\nrels: x^3")
        # x acts as a transposition on three cosets, so x^3 does not close
        table = PermutationAssignment(3, P.alphabet, ((1, 0, 2),))
        with pytest.raises(CertificateError) as exc:
            _verify_closed(P, (), table)
        assert not isinstance(exc.value, InputError)
        with pytest.raises(CertificateError):
            _verify_closed(
                parse_presentation("gens: x\nrels:"), [parse_word("x", [X])], table
            )

    def test_subgroup_word_must_fix_coset_0(self):
        # a transitive action that closes x^2, but x moves coset 0
        P = parse_presentation("gens: x\nrels: x^2")
        table = PermutationAssignment(2, P.alphabet, ((1, 0),))
        _verify_closed(P, (), table)
        with pytest.raises(CertificateError, match="coset 0"):
            _verify_closed(P, [parse_word("x", P.alphabet)], table)

    def test_unreachable_coset_raises(self):
        # x fixes both cosets, so the relator x closes everywhere, but coset
        # 1 is not a coset of the subgroup coset 0 stands for
        P = parse_presentation("gens: x\nrels: x")
        with pytest.raises(CertificateError, match="reachable"):
            _verify_closed(P, (), PermutationAssignment(2, P.alphabet, ((0, 1),)))
        _verify_closed(P, (), PermutationAssignment(1, P.alphabet, ((0,),)))

    def test_column_must_be_a_permutation(self):
        P = parse_presentation("gens: x\nrels: x^3")
        for images in (
            ((1, 1, 0),),  # x maps two cosets to 1
            ((1, 2, 3),),  # an entry past the last coset
            ((1, 2),),  # a short image
            ((1, 2, 0), (1, 2, 0)),  # an image for a generator P lacks
            (),  # no image for x
        ):
            with pytest.raises(CertificateError, match="permutation"):
                _verify_closed(P, (), PermutationAssignment(3, P.alphabet, images))
        _verify_closed(P, (), PermutationAssignment(3, P.alphabet, ((1, 2, 0),)))
        with pytest.raises(CertificateError, match="no cosets"):
            _verify_closed(P, (), PermutationAssignment(0, P.alphabet, ((),)))

    def test_relator_trace_checked_on_a_transitive_action(self):
        # a transitive 3-cycle that x^2 does not close
        P = parse_presentation("gens: x\nrels: x^2")
        with pytest.raises(CertificateError, match="relator"):
            _verify_closed(P, (), PermutationAssignment(3, P.alphabet, ((1, 2, 0),)))

    def test_corrupted_table_raises_under_optimize(self):
        script = textwrap.dedent(
            """
            from pochette.coset_enum import _verify_closed
            from pochette.errors import CertificateError
            from pochette.presentations import PermutationAssignment, parse_presentation

            assert False, "asserts must be stripped by -O"
            for text, degree, image in (
                ("gens: x\\nrels: x^3", 3, (1, 0, 2)),
                ("gens: x\\nrels: x", 2, (0, 1)),
            ):
                P = parse_presentation(text)
                try:
                    _verify_closed(P, (), PermutationAssignment(degree, P.alphabet, (image,)))
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
        assert proc.stdout.split() == ["raised", "raised"]
