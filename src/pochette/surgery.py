"""Pochette-surgery invariants of homology 4-spheres.

Given the algebraic shadow of an embedded pochette (a knot-group
presentation with meridian and longitude words) and a surgery slope,
this module produces the surgered fundamental group, the linking
number, the homology table, and a 4-sphere verdict.

The positive verdict is a homeomorphism statement: simple connectivity
plus the right homology pins down the homeomorphism type of a closed
4-manifold, while smooth classification is beyond algebraic invariants.
Likewise the mod 2 framing is carried through to reports but consumed
by no computation here; it only ever affects the diffeomorphism type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .abelian import AbelianInvariants, hom_to_Z, word_image
from .budgets import Budgets
from .coset_enum import TrivialityVerdict, certify_trivial
from .errors import InputError
from .presentations import FinitePresentation, add_relator
from .words import AlphabetMismatch, Generator, Word, substitute, word_to_text

__all__ = [
    "MERIDIAN_LETTER",
    "LONGITUDE_LETTER",
    "NotCoprime",
    "UndefinedForSlopeZero",
    "MeridianNotGenerator",
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


class NotCoprime(InputError):
    pass


class UndefinedForSlopeZero(InputError):
    pass


class MeridianNotGenerator(InputError):
    pass


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
            raise NotCoprime("slope (0, 0) is not allowed")
        if gcd(abs(p), abs(q)) != 1:
            raise NotCoprime(f"slope ({p}, {q}) is not coprime")
        if p < 0 or (p == 0 and q < 0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def surgery_relator_word(slope: SlopeSpec) -> Word:
    """The word over {m, l} to which the surgery sends the meridian.

    It interleaves p letters m with l-blocks of exponent
    floor(k*q/p) - floor((k-1)*q/p), so the exponent sums are exactly p
    and q (the floors telescope).  Floor division rounds toward minus
    infinity, which keeps the telescoping true for negative q.
    """
    if slope.p == 0:
        raise UndefinedForSlopeZero(
            "slope 0 surgery attaches along the longitude itself"
        )
    p, q = slope.p, slope.q
    letters: list[tuple[Generator, int]] = []
    prev = 0
    for k in range(1, p + 1):
        cur = (k * q) // p
        exponent = cur - prev
        sign = 1 if exponent > 0 else -1
        letters.extend((LONGITUDE_LETTER, sign) for _ in range(abs(exponent)))
        letters.append((MERIDIAN_LETTER, 1))
        prev = cur
    return Word(tuple(letters))


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
                raise AlphabetMismatch(
                    f"{label} {word_to_text(w)!r} uses generators outside the "
                    f"knot group alphabet"
                )
        images = hom_to_Z(self.knot_group)
        if images is None:
            raise MeridianNotGenerator(
                "knot group abelianization is not infinite cyclic"
            )
        meridian_image = word_image(images, self.meridian)
        if abs(meridian_image) != 1:
            raise MeridianNotGenerator(
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
    longitude words; at slope 0 the relator is the longitude itself.
    """
    if slope.p == 0:
        extra = data.longitude
    else:
        extra = substitute(
            surgery_relator_word(slope),
            {MERIDIAN_LETTER: data.meridian, LONGITUDE_LETTER: data.longitude},
        )
    return add_relator(data.knot_group, extra)


def surgery_homology(linking: int, slope: SlopeSpec) -> tuple[AbelianInvariants, ...]:
    """Homology H0..H4 of the surgered manifold, from the slope and linking number."""
    Z = AbelianInvariants.free(1)
    n = slope.p + slope.q * linking
    if n != 0:
        middle = (
            AbelianInvariants.cyclic(n),
            AbelianInvariants.cyclic(n),
            AbelianInvariants.free(0),
        )
    else:
        middle = (Z, AbelianInvariants.free(2), Z)
    return (Z,) + middle + (Z,)


@dataclass(frozen=True)
class Verdict:
    """Outcome of 4-sphere detection.

    kind is one of:
      NotHomotopySphere - |p + q*linking| != 1, homology obstructs
      HomeoS4Certified  - homology trivial and pi1 certified trivial
      NontrivialPi1     - coset enumeration completed with index > 1
      Unknown           - homology trivial but enumeration overflowed
    """

    kind: str
    p_plus_q_ell: int
    pi1_index: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class SurgeryInvariants:
    slope: SlopeSpec
    linking: int
    p_plus_q_ell: int
    pi1: FinitePresentation
    homology: tuple[AbelianInvariants, ...]
    verdict: Verdict
    enumeration: TrivialityVerdict | None


def surgery_invariants(
    data: PochetteEmbeddingData,
    slope: SlopeSpec,
    budgets: Budgets = Budgets(),
) -> SurgeryInvariants:
    """Full pipeline: linking number, surgered group, homology, verdict."""
    linking = linking_number(data)
    n = slope.p + slope.q * linking
    pi1 = surgery_pi1(data, slope)
    homology = surgery_homology(linking, slope)
    enumeration: TrivialityVerdict | None = None
    if abs(n) != 1:
        obstruction = homology[1] if not homology[1].is_trivial() else homology[2]
        verdict = Verdict(
            "NotHomotopySphere",
            n,
            detail=f"H1 = {homology[1]}, H2 = {homology[2]} (obstruction {obstruction})",
        )
    else:
        enumeration = certify_trivial(pi1, budgets.max_cosets)
        if enumeration.kind == "Trivial":
            verdict = Verdict(
                "HomeoS4Certified",
                n,
                pi1_index=1,
                detail="trivial homology and trivial fundamental group",
            )
        elif enumeration.kind == "NonTrivial":
            verdict = Verdict(
                "NontrivialPi1",
                n,
                pi1_index=enumeration.index,
                detail=f"fundamental group has order {enumeration.index}",
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
    return SurgeryInvariants(slope, linking, n, pi1, homology, verdict, enumeration)


def detect_s4(
    data: PochetteEmbeddingData,
    slope: SlopeSpec,
    budgets: Budgets = Budgets(),
) -> Verdict:
    return surgery_invariants(data, slope, budgets).verdict
