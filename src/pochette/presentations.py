"""Finite group presentations, their text format, and Tietze simplification.

Relators are kept freely and cyclically reduced, with duplicates (up to
cyclic permutation and inversion) dropped at construction time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError
from .words import (
    AlphabetMismatch,
    Generator,
    Word,
    cyclically_reduce,
    invert,
    parse_word,
    substitute,
    word_to_text,
)

__all__ = [
    "FinitePresentation",
    "MissingSection",
    "PresentationParseError",
    "parse_presentation",
    "format_presentation",
    "add_relator",
    "relators_equivalent",
    "tietze_simplify",
    "TietzeResult",
]


class MissingSection(InputError):
    def __init__(self, section: str):
        self.section = section
        super().__init__(f"presentation text is missing a {section!r} line")


class PresentationParseError(InputError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _rotations(letters: tuple) -> Iterable[tuple]:
    for k in range(max(1, len(letters))):
        yield letters[k:] + letters[:k]


def _least_rotation(s: tuple) -> tuple:
    """The lexicographically least rotation of s, in O(len(s)).

    Booth's algorithm (K. S. Booth, "Lexicographically least circular
    substrings", IPL 1980): a Knuth-Morris-Pratt failure function over
    s + s, restarted whenever a smaller candidate start appears.
    """
    doubled = s + s
    failure = [-1] * len(doubled)
    k = 0
    for j in range(1, len(doubled)):
        c = doubled[j]
        i = failure[j - k - 1]
        while i != -1 and c != doubled[k + i + 1]:
            if c < doubled[k + i + 1]:
                k = j - i - 1
            i = failure[i]
        if c != doubled[k + i + 1]:  # here i == -1
            if c < doubled[k]:
                k = j
            failure[j - k] = -1
        else:
            failure[j - k] = i + 1
    return s[k:] + s[:k]


def _relator_key(w: Word) -> tuple:
    """Canonical key identifying a relator up to rotation and inversion.

    The least rotation of the (name, sign) sequence of the cyclic
    reduction or of its inverse, whichever is smaller; linear time.
    """
    r = cyclically_reduce(w)
    return min(
        _least_rotation(tuple((g.name, s) for g, s in x.letters)) for x in (r, invert(r))
    )


@dataclass(frozen=True)
class FinitePresentation:
    """Generators plus relators; the group is the quotient of the free group."""

    alphabet: tuple[Generator, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        names = [g.name for g in self.alphabet]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate generator names in {names}")
        allowed = set(self.alphabet)
        reduced: list[Word] = []
        for rel in self.relators:
            extra = rel.generators() - allowed
            if extra:
                raise AlphabetMismatch(
                    f"relator {word_to_text(rel)!r} uses generators outside the "
                    f"alphabet: {sorted(g.name for g in extra)}"
                )
            r = cyclically_reduce(rel)
            if r:
                reduced.append(r)
        # rotation and inversion keep length, so only relators sharing a
        # length with another can be duplicates and need a key
        lengths = Counter(len(r) for r in reduced)
        cleaned: list[Word] = []
        seen: set[tuple] = set()
        for r in reduced:
            if lengths[len(r)] > 1:
                key = _relator_key(r)
                if key in seen:
                    continue
                seen.add(key)
            cleaned.append(r)
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "relators", tuple(cleaned))

    def total_relator_length(self) -> int:
        return sum(len(r) for r in self.relators)

    def parse(self, text: str) -> Word:
        return parse_word(text, self.alphabet)

    def __str__(self) -> str:
        return format_presentation(self)


def parse_presentation(text: str) -> FinitePresentation:
    """Parse the two-line format: a ``gens:`` line and a ``rels:`` line.

    Comments start with '#'; blank lines are ignored.  Relator words are
    separated by ';'.
    """
    gens_line: tuple[int, str] | None = None
    rels_line: tuple[int, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if gens_line is not None:
                raise PresentationParseError(lineno, "duplicate gens: line")
            gens_line = (lineno, line[len("gens:"):])
        elif line.startswith("rels:"):
            if rels_line is not None:
                raise PresentationParseError(lineno, "duplicate rels: line")
            rels_line = (lineno, line[len("rels:"):])
        else:
            raise PresentationParseError(lineno, f"unrecognized line {line!r}")
    if gens_line is None:
        raise MissingSection("gens:")
    if rels_line is None:
        raise MissingSection("rels:")

    lineno, gens_text = gens_line
    alphabet: list[Generator] = []
    for piece in gens_text.split(","):
        name = piece.strip()
        if not name:
            continue
        try:
            alphabet.append(Generator(name))
        except InputError as exc:
            raise PresentationParseError(lineno, str(exc)) from exc

    lineno, rels_text = rels_line
    relators: list[Word] = []
    for piece in rels_text.split(";"):
        if not piece.strip():
            continue
        try:
            relators.append(parse_word(piece, alphabet))
        except InputError as exc:
            column = rels_text.index(piece) + len("rels:") + 1
            raise PresentationParseError(
                lineno, f"column {column}: {exc}"
            ) from exc
    try:
        return FinitePresentation(tuple(alphabet), tuple(relators))
    except InputError as exc:
        raise PresentationParseError(lineno, str(exc)) from exc


def format_presentation(P: FinitePresentation) -> str:
    gens = ", ".join(g.name for g in P.alphabet)
    rels = " ; ".join(word_to_text(r) for r in P.relators)
    return f"gens: {gens}\nrels: {rels}"


def add_relator(P: FinitePresentation, r: Word) -> FinitePresentation:
    """New presentation with r appended (cyclically reduced; dropped if duplicate)."""
    return FinitePresentation(P.alphabet, P.relators + (r,))


def relators_equivalent(a: Word, b: Word) -> bool:
    """True iff the cyclic reductions agree up to rotation and inversion."""
    return _relator_key(a) == _relator_key(b)


@dataclass(frozen=True)
class TietzeResult:
    presentation: FinitePresentation
    steps: int
    budget_exhausted: bool


def _print_key(w: Word) -> tuple[int, str]:
    return (len(w), word_to_text(w))


def _find_subword_rewrite(
    P: FinitePresentation,
) -> tuple[int, int, Word] | None:
    """Locate one length-decreasing relator-substring rewrite.

    A relator r, read cyclically in either direction, splits as u*v, so
    u = v^-1 in the group.  An occurrence of u (with len(u) > len(r)/2)
    inside another relator s, read cyclically, can be replaced by v^-1,
    strictly shortening s.  Returns (source index, target index, new
    target word), preferring short sources, long matches, short targets.
    """
    order = sorted(range(len(P.relators)), key=lambda i: _print_key(P.relators[i]))
    for ri in order:
        r = P.relators[ri]
        length = len(r)
        if length == 0:
            continue
        variants: list[tuple] = []
        for base in (r.letters, invert(r).letters):
            for rot in _rotations(base):
                if rot not in variants:
                    variants.append(rot)
        for cut in range(length, length // 2, -1):
            for variant in variants:
                u = variant[:cut]
                v_inv = tuple((g, -s) for g, s in reversed(variant[cut:]))
                for si in sorted(
                    (i for i in range(len(P.relators)) if i != ri),
                    key=lambda i: _print_key(P.relators[i]),
                ):
                    s = P.relators[si].letters
                    if len(s) < cut or len(s) + length - 2 * cut >= len(s):
                        continue
                    doubled = s + s
                    for start in range(len(s)):
                        if doubled[start : start + cut] == u:
                            rotated = s[start:] + s[:start]
                            new = Word(v_inv + rotated[cut:])
                            return ri, si, new
    return None


def _find_generator_elimination(
    P: FinitePresentation,
) -> tuple[int, Generator, Word] | None:
    """Locate a relator containing some generator exactly once (up to sign).

    Such a relator isolates the generator: rotating it to g^s * w gives
    g = w^-s, a guaranteed-safe substitution.  The move is only taken if
    it does not increase the total relator length.  Returns (relator
    index, generator, image word).
    """
    current_total = P.total_relator_length()
    order = sorted(range(len(P.relators)), key=lambda i: _print_key(P.relators[i]))
    for ri in order:
        r = P.relators[ri]
        for g in P.alphabet:
            occurrences = [k for k, (gen, _) in enumerate(r.letters) if gen == g]
            if len(occurrences) != 1:
                continue
            k = occurrences[0]
            rotated = r.letters[k:] + r.letters[:k]
            sign = rotated[0][1]
            w = Word(rotated[1:])
            image = invert(w) if sign == 1 else w
            uses = sum(
                sum(1 for gen, _ in rel.letters if gen == g)
                for i, rel in enumerate(P.relators)
                if i != ri
            )
            new_total = current_total - len(r) + uses * (len(image) - 1)
            if new_total > current_total:
                continue
            return ri, g, image
    return None


def tietze_simplify(P: FinitePresentation, budget: int) -> TietzeResult:
    """Shrink a presentation by length-non-increasing Tietze moves.

    Applies relator-substring rewriting, single-occurrence generator
    elimination, and deduplication until a fixpoint or the step budget
    is exhausted.  The group is unchanged up to isomorphism and the
    total relator length never grows.
    """
    if budget <= 0:
        raise InputError("tietze budget must be positive")
    steps = 0
    current = P
    while steps < budget:
        rewrite = _find_subword_rewrite(current)
        if rewrite is not None:
            ri, si, new_word = rewrite
            relators = list(current.relators)
            relators[si] = new_word
            current = FinitePresentation(current.alphabet, tuple(relators))
            steps += 1
            continue
        elimination = _find_generator_elimination(current)
        if elimination is not None:
            ri, g, image = elimination
            images = {h: Word(((h, 1),)) for h in current.alphabet}
            images[g] = image
            relators = tuple(
                substitute(rel, images)
                for i, rel in enumerate(current.relators)
                if i != ri
            )
            alphabet = tuple(h for h in current.alphabet if h != g)
            current = FinitePresentation(alphabet, relators)
            steps += 1
            continue
        return TietzeResult(current, steps, budget_exhausted=False)
    more = (
        _find_subword_rewrite(current) is not None
        or _find_generator_elimination(current) is not None
    )
    return TietzeResult(current, steps, budget_exhausted=more)
