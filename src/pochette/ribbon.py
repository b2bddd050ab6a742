"""Ribbon 2-knot group families and cord-triviality analysis.

A ribbon 2-knot of n-fusion has a group presented on n+1 meridian
generators with n conjugation relators, one per fusion band; the band
graph must be a tree for the result to be a single 2-sphere, which is
also what forces the abelianization to be Z.

A cord (properly embedded arc in the knot exterior) is classified by
the double coset of its group element with respect to the meridian
subgroup; the trivial class is exactly the meridian subgroup itself, so
membership testing decides triviality whenever the enumeration closes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

from .abelian import hom_to_Z
from .budgets import Budgets
from .coset_enum import EnumerationVerdict, subgroup_membership
from .errors import InputError
from .presentations import FinitePresentation, PermutationAssignment, parse_presentation
from .quotient_search import find_noncyclic_quotient
from .surgery import PochetteEmbeddingData
from .words import Generator, Word, cyclically_reduce, invert, parse_word, word_to_text

__all__ = [
    "InvalidFusionGraph",
    "FusionData",
    "CordVerdict",
    "one_fusion_presentation",
    "n_fusion_presentation",
    "spun_trefoil",
    "spun_trefoil_embedding",
    "cord_triviality",
    "fusion_generators",
    "parse_fusion_file",
    "format_fusion",
    "load_preset",
    "random_fusion_data",
    "random_embedding",
]

X = Generator("x")
Y = Generator("y")


class InvalidFusionGraph(InputError):
    """Fusion data that is not a tree of bands; ``band`` indexes the band at fault."""

    def __init__(self, message: str, band: int | None = None):
        super().__init__(message)
        self.band = band


def fusion_generators(n: int) -> tuple[Generator, ...]:
    return tuple(Generator(f"x{i}") for i in range(1, n + 2))


@dataclass(frozen=True)
class FusionData:
    """n fusion bands on n+1 disks; band k conjugates generator i_k to j_k.

    The band graph on vertices 1..n+1 with edges {i_k, j_k} must be a
    tree (connected, acyclic).
    """

    n: int
    bands: tuple[tuple[Word, int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidFusionGraph("fusion count must be at least 1")
        if len(self.bands) != self.n:
            raise InvalidFusionGraph(
                f"expected {self.n} bands, got {len(self.bands)}"
            )
        allowed = set(fusion_generators(self.n))
        parent = list(range(self.n + 2))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for k, (word, i, j) in enumerate(self.bands):
            if not (1 <= i <= self.n + 1 and 1 <= j <= self.n + 1):
                raise InvalidFusionGraph(f"band endpoint out of range: ({i}, {j})", k)
            if i == j:
                raise InvalidFusionGraph(f"band may not join disk {i} to itself", k)
            if word.generators() - allowed:
                raise InvalidFusionGraph(
                    f"band word {word_to_text(word)!r} uses letters outside x1..x{self.n + 1}",
                    k,
                )
            ri, rj = find(i), find(j)
            if ri == rj:
                raise InvalidFusionGraph("band graph contains a cycle", k)
            parent[ri] = rj
        # n edges, no cycle, n+1 vertices: connectivity is automatic


def one_fusion_presentation(
    w: Word, sign: int, alphabet: tuple[Generator, Generator] = (X, Y)
) -> FinitePresentation:
    """The 1-fusion knot group < x, y | w x w^-1 y^sign >."""
    if sign not in (1, -1):
        raise InputError(f"sign must be +-1, got {sign}")
    x, y = alphabet
    if w.generators() - {x, y}:
        raise InputError(
            f"band word {word_to_text(w)!r} must be over {x.name}, {y.name}"
        )
    relator = w * Word(((x, 1),)) * invert(w) * Word(((y, sign),))
    return FinitePresentation(alphabet, (relator,))


def n_fusion_presentation(f: FusionData) -> FinitePresentation:
    """The n-fusion knot group with relators w_k x_{i_k} w_k^-1 x_{j_k}^-1."""
    gens = fusion_generators(f.n)
    relators = []
    for word, i, j in f.bands:
        xi = Word(((gens[i - 1], 1),))
        xj_inv = Word(((gens[j - 1], -1),))
        relators.append(word * xi * invert(word) * xj_inv)
    return FinitePresentation(gens, tuple(relators))


@cache  # a constant: a process parses it once
def spun_trefoil() -> FinitePresentation:
    return parse_presentation("gens: x, y\nrels: y x^-1 y x y^-1 x")


def spun_trefoil_embedding() -> PochetteEmbeddingData:
    """Spun trefoil with the standard meridian x and longitude y (linking -1)."""
    P = spun_trefoil()
    return PochetteEmbeddingData(P, P.parse("x"), P.parse("y"))


@dataclass(frozen=True)
class CordVerdict:
    kind: str  # "TrivialCordClass" | "NontrivialCordCertified" | "Unknown"
    witness: PermutationAssignment | None = None
    membership: EnumerationVerdict | None = None
    detail: str = ""


def _as_meridian_power(cord: Word, meridian: Word) -> int | None:
    """Exponent k with cord == meridian^k as free words, if any.

    Sound for the group question: equality of the reduced words implies
    equality in every quotient.  Write the meridian as u c u^-1 with c
    cyclically reduced; then meridian^k is the reduced word u c^k u^-1 of
    length 2|u| + |k| |c|, so the cord's length leaves one candidate |k|.
    """
    if not cord:
        return 0
    core = len(cyclically_reduce(meridian))
    if not core:
        return None
    k, rest = divmod(len(cord) - (len(meridian) - core), core)
    if rest or k < 1:
        return None
    for exponent in (k, -k):
        if meridian**exponent == cord:
            return exponent
    return None


def cord_triviality(
    P: FinitePresentation,
    meridian: Word,
    cord: Word,
    budgets: Budgets = Budgets(),
) -> CordVerdict:
    """Classify a cord's double coset against the trivial class.

    The trivial class pulls back to the meridian subgroup, so a closed
    enumeration's membership verdict decides it.  When meridian and cord
    are the generators of a two-generator group with H1 = Z, a trivial
    cord would make the group Z, so a non-cyclic quotient rules it out.
    After the visible-power test the quotient search runs first in that
    shape, where knot groups defeat the enumeration, and membership first
    elsewhere, each at most once and the search second only after a
    refutation; a witness ends the run.
    """
    power = _as_meridian_power(cord, meridian)
    if power is not None:
        return CordVerdict("TrivialCordClass", detail=f"cord is visibly meridian^{power}")
    two_generator = (
        len(P.alphabet) == 2
        and len(meridian) == len(cord) == 1
        and meridian.letters[0][0] != cord.letters[0][0]
        and hom_to_Z(P) is not None
    )
    membership = None
    for step in ("search", "membership") if two_generator else ("membership", "search"):
        if step == "membership":
            membership = subgroup_membership(P, [meridian], cord, budgets.max_cosets)
        elif membership is None or membership.kind == "NotInSubgroup":
            if witness := find_noncyclic_quotient(P, budgets.quotient_degree):
                detail = (
                    "a trivial cord would make the two-generator group cyclic, "
                    "contradicting the non-cyclic quotient witness"
                    if two_generator
                    else "membership refuted by a closed enumeration and the group "
                    "is not infinite cyclic"
                )
                return CordVerdict("NontrivialCordCertified", witness, membership, detail)
    kind, detail = {
        "InSubgroup": (
            "TrivialCordClass",
            f"cord traced into the meridian subgroup (index {membership.index})",
        ),
        "Unknown": ("Unknown", f"enumeration overflowed at {budgets.max_cosets} cosets"),
        "NotInSubgroup": (
            "Unknown",
            "membership refuted but no non-cyclic quotient found within "
            f"degree {budgets.quotient_degree}",
        ),
    }[membership.kind]
    return CordVerdict(kind, membership=membership, detail=detail)


def parse_fusion_file(text: str) -> FusionData:
    """Parse the fusion format: an ``n:`` line then n ``band:`` lines.

    Each band line is ``band: <word> <i> <j>`` with the last two tokens
    the disk indices; the word may contain spaces.  Comments start with
    '#'; blank lines are ignored.  An error in one band names its line,
    and an error in the count or the number of bands that of ``n:``.
    """
    n: int | None = None
    bands: list[tuple[Word, int, int]] = []
    band_lines: list[int] = []
    gens: tuple[Generator, ...] = ()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n:"):
            if n is not None:
                raise InputError(f"line {lineno}: duplicate n: line")
            n_line = lineno
            try:
                n = int(line[len("n:"):].strip())
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad fusion count") from exc
            gens = fusion_generators(n)
        elif line.startswith("band:"):
            if n is None:
                raise InputError(f"line {lineno}: band: before n:")
            tokens = line[len("band:"):].split()
            if len(tokens) < 3:
                raise InputError(
                    f"line {lineno}: expected 'band: <word> <i> <j>'"
                )
            try:
                i, j = int(tokens[-2]), int(tokens[-1])
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad disk indices") from exc
            try:
                word = parse_word(" ".join(tokens[:-2]), gens)
            except InputError as exc:
                raise InputError(f"line {lineno}: {exc}") from exc
            bands.append((word, i, j))
            band_lines.append(lineno)
        else:
            raise InputError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise InputError("fusion file is missing the n: line")
    try:
        return FusionData(n, tuple(bands))
    except InvalidFusionGraph as exc:
        line = n_line if exc.band is None else band_lines[exc.band]
        raise InvalidFusionGraph(f"line {line}: {exc}") from exc


def format_fusion(f: FusionData) -> str:
    lines = [f"n: {f.n}"]
    lines.extend(
        f"band: {word_to_text(word)} {i} {j}" for word, i, j in f.bands
    )
    return "\n".join(lines)


def load_preset(name: str) -> FinitePresentation:
    """Resolve a preset name to a presentation.

    Recognized: ``spun-trefoil`` and ``one-fusion:<word>:<sign>`` where
    the word uses '*' separators (e.g. ``one-fusion:x^-1*y:+1``).
    """
    if name == "spun-trefoil":
        return spun_trefoil()
    if name.startswith("one-fusion:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise InputError(
                "one-fusion preset must look like one-fusion:<word>:<sign>"
            )
        _, word_text, sign_text = parts
        if sign_text not in ("+1", "-1", "1"):
            raise InputError(f"bad sign {sign_text!r} in one-fusion preset")
        w = parse_word(word_text, (X, Y))
        return one_fusion_presentation(w, 1 if sign_text in ("+1", "1") else -1)
    raise InputError(f"unknown preset {name!r}")


def _random_word(
    rng: random.Random, gens: tuple[Generator, ...], max_len: int
) -> Word:
    length = rng.randint(0, max_len)
    letters = tuple(
        (rng.choice(gens), rng.choice((1, -1))) for _ in range(length)
    )
    return Word(letters)


def random_fusion_data(
    rng: random.Random, n: int, max_word_len: int = 4
) -> FusionData:
    """Seeded random fusion data: a random tree with random band words."""
    gens = fusion_generators(n)
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 2)]
    rng.shuffle(edges)
    bands = []
    for i, j in edges:
        if rng.random() < 0.5:
            i, j = j, i
        bands.append((_random_word(rng, gens, max_word_len), i, j))
    return FusionData(n, tuple(bands))


def random_embedding(
    rng: random.Random, max_fusion: int = 3, max_word_len: int = 4
) -> PochetteEmbeddingData:
    """Seeded random embedding data over a random fusion knot group.

    The meridian is a random generator (every generator maps to +-1 in
    the abelianization of a fusion presentation); the longitude is a
    random word, occasionally the identity so the degenerate linking
    number 0 shows up too.
    """
    n = rng.randint(1, max_fusion)
    if n == 1 and rng.random() < 0.5:
        P = one_fusion_presentation(
            _random_word(rng, (X, Y), max_word_len), rng.choice((1, -1))
        )
    else:
        P = n_fusion_presentation(random_fusion_data(rng, n, max_word_len))
    meridian = Word(((rng.choice(P.alphabet), rng.choice((1, -1))),))
    if rng.random() < 0.15:
        longitude = Word()
    else:
        longitude = _random_word(rng, P.alphabet, max_word_len + 1)
    return PochetteEmbeddingData(P, meridian, longitude)
