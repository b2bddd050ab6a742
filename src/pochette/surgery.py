"""Pochette-surgery invariants of homology 4-spheres.

Given the algebraic shadow of an embedded pochette (a knot-group
presentation with meridian and longitude words) and a surgery slope,
this module produces the surgered fundamental group, the linking
number, the homology table, and a 4-sphere verdict.

The homology and the NotHomotopySphere verdict depend only on
n = p + q*linking.  Both, the verdict's text included, are built once
per distinct n and kept in bounded per-process caches; the S^4 branch
|n| = 1 is never cached.  The surgered group is built on demand: at
once on a homology 4-sphere, where the verdict comes from coset
enumeration, of the meridian subgroup <m> alone (see
coset_enum.certify_trivial), and otherwise on the first read of
SurgeryInvariants.pi1; its relator takes one walk of the slope's
l-blocks and one free reduction.

The positive verdict is a homeomorphism statement: simple connectivity
plus the right homology pins down the homeomorphism type of a closed
4-manifold, while smooth classification is beyond algebraic invariants.
Likewise the mod 2 framing is carried through to reports but consumed
by no computation here; it only ever affects the diffeomorphism type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

from .abelian import AbelianInvariants, hom_to_Z, word_image
from .budgets import Budgets
from .coset_enum import EnumerationVerdict, certify_trivial
from .errors import InputError
from .presentations import FinitePresentation, add_relator
from .words import Generator, Letter, Word, invert, word_to_text
from .words import substitute  # noqa: F401  kept: bench/spans.py wraps it here

__all__ = [
    "MERIDIAN_LETTER",
    "LONGITUDE_LETTER",
    "SlopeSpec",
    "PochetteEmbeddingData",
    "surgery_relator_word",
    "linking_number",
    "surgery_pi1",
    "surgery_homology",
    "Verdict",
    "SurgeryInvariants",
    "surgery_invariants",
    "detect_s4",
    "EPSILON_NOTE",
]

# abstract letters for the slope word before substitution
MERIDIAN_LETTER = Generator("m")
LONGITUDE_LETTER = Generator("l")

EPSILON_NOTE = (
    "the mod 2 framing is reported but affects no computed invariant; "
    "it can only change the diffeomorphism type"
)


@dataclass(frozen=True)
class SlopeSpec:
    """Coprime slope pair plus mod 2 framing, normalized so p >= 0.

    (p, q) and (-p, -q) describe the same slope; p = 0 forces q = 1.
    """

    p: int
    q: int
    epsilon: int = 0

    def __post_init__(self):
        if self.epsilon not in (0, 1):
            raise InputError(f"framing must be 0 or 1, got {self.epsilon}")
        p, q = self.p, self.q
        if p == 0 and q == 0:
            raise InputError("slope (0, 0) is not allowed")
        if gcd(abs(p), abs(q)) != 1:
            raise InputError(f"slope ({p}, {q}) is not coprime")
        if p < 0 or (p == 0 and q < 0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def _slope_word(slope: SlopeSpec, m: tuple[Letter, ...], l: tuple[Letter, ...]) -> Word:
    """The slope word with each m spelled ``m`` and each l ``l``, reduced once.

    It interleaves p copies of m with l-blocks of exponent
    floor(k*q/p) - floor((k-1)*q/p), so the exponent sums are exactly p
    and q (the floors telescope).  Floor division rounds toward minus
    infinity, which keeps the telescoping true for negative q.  Every
    block has q's sign, so ``l`` spells l^-1 when q < 0.
    """
    p, q = slope.p, slope.q
    letters: list[Letter] = []
    prev = 0
    for k in range(1, p + 1):
        cur = (k * q) // p
        letters += l * abs(cur - prev)
        letters += m
        prev = cur
    return Word(tuple(letters))


def surgery_relator_word(slope: SlopeSpec) -> Word:
    """The word over {m, l} to which the surgery sends the meridian."""
    if slope.p == 0:
        raise InputError("slope 0/1 has no slope word; the surgery relator is the longitude")
    l_letter = ((LONGITUDE_LETTER, 1 if slope.q > 0 else -1),)
    return _slope_word(slope, ((MERIDIAN_LETTER, 1),), l_letter)


@dataclass(frozen=True)
class PochetteEmbeddingData:
    """Knot-group presentation plus meridian and longitude words.

    The knot group must abelianize to Z with the meridian mapping to a
    generator (image +-1); this is what makes the linking number an
    integer.  The linking number is computed here, once per embedding.
    """

    knot_group: FinitePresentation
    meridian: Word
    longitude: Word
    linking: int = field(init=False, compare=False)

    def __post_init__(self):
        allowed = set(self.knot_group.alphabet)
        for label, w in (("meridian", self.meridian), ("longitude", self.longitude)):
            extra = w.generators() - allowed
            if extra:
                raise InputError(
                    f"{label} {word_to_text(w)!r} uses generators outside the "
                    f"knot group alphabet"
                )
        images = hom_to_Z(self.knot_group)
        if images is None:
            raise InputError("knot group abelianization is not infinite cyclic")
        meridian_image = word_image(images, self.meridian)
        if abs(meridian_image) != 1:
            raise InputError(
                f"meridian {word_to_text(self.meridian)!r} does not generate "
                f"the abelianization"
            )
        linking = word_image(images, self.longitude) * meridian_image
        object.__setattr__(self, "linking", linking)


def linking_number(data: PochetteEmbeddingData) -> int:
    """Longitude class over meridian class in the infinite cyclic abelianization."""
    return data.linking


def surgery_pi1(data: PochetteEmbeddingData, slope: SlopeSpec) -> FinitePresentation:
    """Knot group with the surgery relator adjoined.

    The relator is the slope word with m, l replaced by the meridian and
    longitude words, built in one walk of the slope's l-blocks and freely
    reduced once; at slope 0 the relator is the longitude itself.
    """
    if slope.p == 0:
        extra = data.longitude
    else:
        longitude = data.longitude if slope.q > 0 else invert(data.longitude)
        extra = _slope_word(slope, data.meridian.letters, longitude.letters)
    return add_relator(data.knot_group, extra)


_Z = AbelianInvariants.free(1)
_Z2 = AbelianInvariants.free(2)
_TRIVIAL = AbelianInvariants.free(0)


# n = p + q*linking decides the homology and, off the S^4 branch, the
# verdict; a sweep meets each n many times, and both values are frozen.
# A benchmark pass of sweeps meets 116 distinct n, which 256 entries hold
@lru_cache(maxsize=256)
def _homology(n: int) -> tuple[AbelianInvariants, ...]:
    if n == 0:
        return (_Z, _Z, _Z2, _Z, _Z)
    h = AbelianInvariants.cyclic(n)  # H1 = H2 = Z/|n|
    return (_Z, h, h, _TRIVIAL, _Z)


def surgery_homology(linking: int, slope: SlopeSpec) -> tuple[AbelianInvariants, ...]:
    """Homology H0..H4 of the surgered manifold, from the slope and linking number."""
    return _homology(slope.p + slope.q * linking)


@dataclass(frozen=True)
class Verdict:
    """Outcome of 4-sphere detection.

    kind is one of:
      NotHomotopySphere - |p + q*linking| != 1, homology obstructs
      HomeoS4Certified  - homology trivial and pi1 certified trivial
      NontrivialPi1     - homology trivial but <m> has index > 1
      Unknown           - homology trivial but enumeration overflowed

    certificate is "meridian-index-1" or "meridian-index-above-1" for
    those two kinds and None otherwise.  pi1_index is the order of pi1;
    detail says whether a None means infinite or not computed.
    """

    kind: str
    p_plus_q_ell: int
    pi1_index: int | None = None
    detail: str = ""
    certificate: str | None = None


@dataclass(frozen=True)
class SurgeryInvariants:
    """Invariants of one surgery; pi1 is built on its first read.

    Only the S^4 branch needs the surgered group for its verdict, and
    passes the one it built as ``_pi1``.
    """

    data: PochetteEmbeddingData
    slope: SlopeSpec
    linking: int
    p_plus_q_ell: int
    homology: tuple[AbelianInvariants, ...]
    verdict: Verdict
    enumeration: EnumerationVerdict | None
    _pi1: FinitePresentation | None = field(default=None, compare=False, repr=False)

    @property
    def pi1(self) -> FinitePresentation:
        if self._pi1 is None:
            object.__setattr__(self, "_pi1", surgery_pi1(self.data, self.slope))
        return self._pi1


@lru_cache(maxsize=256)
def _obstruction(n: int) -> Verdict:
    """The verdict at |n| != 1, where H1 is Z or Z/|n| with |n| >= 2: never trivial."""
    h1, h2 = map(str, _homology(n)[1:3])
    return Verdict("NotHomotopySphere", n, detail=f"H1 = {h1}, H2 = {h2} (obstruction {h1})")


def surgery_invariants(
    data: PochetteEmbeddingData,
    slope: SlopeSpec,
    budgets: Budgets = Budgets(),
) -> SurgeryInvariants:
    """Full pipeline: linking number, homology, verdict; pi1 when it is needed."""
    linking = linking_number(data)
    n = slope.p + slope.q * linking
    homology = _homology(n)
    pi1: FinitePresentation | None = None
    enumeration: EnumerationVerdict | None = None
    if abs(n) != 1:
        verdict = _obstruction(n)
    else:
        # H1 = 0 here.  On spun trefoil p/(p+1), <m> closes at index 1 in
        # about 4p cosets, where the trivial subgroup needs about 2p^2.
        pi1 = surgery_pi1(data, slope)
        enumeration = certify_trivial(pi1, budgets.max_cosets, cyclic=data.meridian)
        if enumeration.kind == "Trivial":
            verdict = Verdict(
                "HomeoS4Certified",
                n,
                pi1_index=1,
                detail="trivial homology and trivial fundamental group",
                certificate="meridian-index-1",
            )
        elif enumeration.kind == "NonTrivial":
            # H1 = 0, so <m> has index above 1; pi1's order is read off its table
            index, stabilizer, order = enumeration.index, enumeration.stabilizer, None
            if stabilizer is None:
                detail = (
                    f"<m> has index {index}; the order of the fundamental group was not computed"
                )
            elif stabilizer.free_rank:
                detail = (
                    f"fundamental group is infinite: the stabilizer of <m>'s coset has "
                    f"H1 = {stabilizer}"
                )
            else:
                order = index * stabilizer.order()
                detail = f"fundamental group has order {order}"
            verdict = Verdict(
                "NontrivialPi1", n, order, detail, certificate="meridian-index-above-1"
            )
        else:
            verdict = Verdict(
                "Unknown",
                n,
                detail=(
                    f"coset enumeration exceeded {budgets.max_cosets} cosets; "
                    "no claim about the fundamental group"
                ),
            )
    return SurgeryInvariants(data, slope, linking, n, homology, verdict, enumeration, pi1)


def detect_s4(
    data: PochetteEmbeddingData,
    slope: SlopeSpec,
    budgets: Budgets = Budgets(),
) -> Verdict:
    return surgery_invariants(data, slope, budgets).verdict
