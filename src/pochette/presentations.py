"""Finite group presentations, their text format, and Tietze simplification.

Relators are kept freely and cyclically reduced, with duplicates (up to
cyclic permutation and inversion) dropped at construction time, keyed
by the least rotation of a relator or of its inverse, found in linear
time by comparing two candidate starts.
``FinitePresentation.encode`` is the kernels' integer letter code, which
the Tietze search reads as a string, one character per letter, and
``assignment_satisfies`` checks the relators in any permutation action.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import InputError
from .words import (
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
    "PermutationAssignment",
    "assignment_satisfies",
    "parse_presentation",
    "format_presentation",
    "add_relator",
    "relators_equivalent",
    "tietze_simplify",
    "TietzeResult",
]


def _least_rotation(s: tuple) -> tuple:
    """The lexicographically least rotation of s, in O(len(s)).

    Two candidate starts i < j are read side by side in s + s.  Every
    start below j but i is beaten; when the two first differ, k letters
    in, the larger one's start and the k after it are beaten too.
    """
    n, doubled = len(s), s + s
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
        elif a > b:
            i, j, k = j, max(j + 1, i + k + 1), 0
        else:
            j, k = j + k + 1, 0
    return s[i:] + s[:i]


def _relator_key(w: Word) -> tuple:
    """Canonical key identifying a relator up to rotation and inversion.

    The least rotation of the (name, sign) sequence of the cyclic
    reduction or of its inverse, whichever is smaller; linear time.
    """
    forward = tuple((g.name, s) for g, s in cyclically_reduce(w).letters)
    inverse = tuple((name, -s) for name, s in reversed(forward))
    return min(_least_rotation(forward), _least_rotation(inverse))


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
                raise InputError(
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

    @cached_property
    def _letter_code(self) -> dict[Generator, int]:
        return {g: 2 * i for i, g in enumerate(self.alphabet)}

    def encode(self, word: Word) -> tuple[int, ...]:
        """Letters as integers: generator i is 2i and its inverse 2i + 1, so lt ^ 1 inverts lt."""
        code = self._letter_code
        return tuple(code[g] + (s == -1) for g, s in word.letters)

    @cached_property
    def relator_codes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self.encode, self.relators))

    def total_relator_length(self) -> int:
        return sum(len(r) for r in self.relators)

    def parse(self, text: str) -> Word:
        return parse_word(text, self.alphabet)

    def __str__(self) -> str:
        return format_presentation(self)


Perm = tuple[int, ...]


@dataclass(frozen=True)
class PermutationAssignment:
    """Generator images in the symmetric group on ``range(degree)``, one per letter.

    A closed coset table and a quotient witness are both such actions.
    """

    degree: int
    alphabet: tuple[Generator, ...]
    images: tuple[Perm, ...]

    @cached_property
    def is_action(self) -> bool:
        """True iff there is one image per generator, each a permutation of the points."""
        points = list(range(self.degree))
        return len(self.images) == len(self.alphabet) and all(
            sorted(p) == points for p in self.images
        )

    @cached_property
    def columns(self) -> tuple[Perm, ...]:
        """Each image, then its inverse, in ``encode``'s letter order (needs is_action)."""
        out = []
        for p in self.images:
            inverse = [0] * self.degree
            for x, y in enumerate(p):
                inverse[y] = x
            out += (p, tuple(inverse))
        return tuple(out)

    @cached_property
    def spanning_tree(self) -> tuple[tuple[int, int], ...]:
        """Per point reached from 0 breadth first, the (point, generator index) that reaches it.

        Needs is_action, as ``columns`` and ``walk`` do: on an image with an
        undefined entry, -1, it would follow image[-1].
        """
        reached, walk, tree = {0}, [0], []
        for c in walk:
            for g, image in enumerate(self.images):
                if image[c] not in reached:
                    reached.add(image[c])
                    walk.append(image[c])
                    tree.append((c, g))
        return tuple(tree)

    def walk(self, code: tuple[int, ...]) -> int:
        """The point that an encoded word takes point 0 to (needs is_action)."""
        columns, x = self.columns, 0
        for lt in code:
            x = columns[lt][x]
        return x


def assignment_satisfies(P: FinitePresentation, a: PermutationAssignment) -> bool:
    """True iff a is an action of P's generators in which every relator fixes every point."""
    if a.alphabet != P.alphabet or not a.is_action:
        return False
    # on at most one point every permutation is the identity; on more, an
    # itemgetter of several keys maps all points at once
    if a.degree < 2:
        return True
    identity = tuple(range(a.degree))
    columns = a.columns
    for code in P.relator_codes:
        image = identity
        for lt in code:
            image = itemgetter(*image)(columns[lt])
        if image != identity:
            return False
    return True


def parse_presentation(text: str) -> FinitePresentation:
    """Parse the two-line format: a ``gens:`` line and a ``rels:`` line.

    Comments start with '#'; blank lines are ignored.  Relator words are
    separated by ';'.
    """
    gens_line: tuple[int, str] | None = None
    rels_line: tuple[int, str, int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        line = content.strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if gens_line is not None:
                raise InputError(f"line {lineno}: duplicate gens: line")
            gens_line = (lineno, line[len("gens:"):])
        elif line.startswith("rels:"):
            if rels_line is not None:
                raise InputError(f"line {lineno}: duplicate rels: line")
            # columns count in the line as written, indentation included
            offset = content.index("rels:") + len("rels:")
            rels_line = (lineno, line[len("rels:"):], offset)
        else:
            raise InputError(f"line {lineno}: unrecognized line {line!r}")
    if gens_line is None:
        raise InputError("presentation text is missing a 'gens:' line")
    if rels_line is None:
        raise InputError("presentation text is missing a 'rels:' line")

    gens_lineno, gens_text = gens_line
    alphabet: list[Generator] = []
    for piece in gens_text.split(","):
        name = piece.strip()
        if not name:
            continue
        try:
            alphabet.append(Generator(name))
        except InputError as exc:
            raise InputError(f"line {gens_lineno}: {exc}") from exc

    lineno, rels_text, offset = rels_line  # offset of the current piece
    relators: list[Word] = []
    for piece in rels_text.split(";"):
        if piece.strip():
            try:
                relators.append(parse_word(piece, alphabet))
            except InputError as exc:
                raise InputError(f"line {lineno}: column {offset + 1}: {exc}") from exc
        offset += len(piece) + 1
    try:
        return FinitePresentation(tuple(alphabet), tuple(relators))
    except InputError as exc:
        # the relators are words over the alphabet, so the fault is a repeated name
        raise InputError(f"line {gens_lineno}: {exc}") from exc


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


def _subword_rewrite(
    P: FinitePresentation, order: list[int]
) -> FinitePresentation | None:
    """One length-decreasing relator-substring rewrite, or None.

    A relator r, read cyclically in either direction, splits as u*v, so
    u = v^-1 in the group.  An occurrence of u (with len(u) > len(r)/2)
    inside another relator s, read cyclically, can be replaced by v^-1,
    strictly shortening s.  Prefers short sources, long matches, short
    targets, all in ``order``.  Relators are read as strings, one
    character per letter code, and u is found at its smallest start by
    ``str.find`` in s written twice.
    """
    texts = ["".join(map(chr, code)) for code in P.relator_codes]
    doubled = [text * 2 for text in texts]
    lengths = [len(text) for text in texts]
    flip = {c: c ^ 1 for c in range(2 * len(P.alphabet))}
    for ri in order:
        text = texts[ri]
        targets = [si for si in order if si != ri]
        longest = max((lengths[si] for si in targets), default=0)
        # a match u longer than every other relator cannot occur
        cuts = range(min(lengths[ri], longest), lengths[ri] // 2, -1)
        if not cuts:
            continue
        # distinct rotations of r and of r^-1, in first-occurrence order
        bases = (text, text[::-1].translate(flip))
        variants = dict.fromkeys(b[k:] + b[:k] for b in bases for k in range(len(b)))
        for cut in cuts:
            # only a target at least cut long can hold u, in the order given;
            # a shorter one's doubled text could match it across both copies
            fits = [si for si in targets if lengths[si] >= cut]
            for variant in variants:
                u = variant[:cut]
                for si in fits:
                    start = doubled[si].find(u)
                    if start >= 0:
                        v_inv = variant[cut:][::-1].translate(flip)
                        rest = v_inv + doubled[si][start + cut : start + lengths[si]]
                        new = Word(
                            tuple((P.alphabet[c // 2], -1 if c % 2 else 1) for c in map(ord, rest))
                        )
                        rewritten = P.relators[:si] + (new,) + P.relators[si + 1 :]
                        return FinitePresentation(P.alphabet, rewritten)
    return None


def _generator_elimination(
    P: FinitePresentation, order: list[int]
) -> FinitePresentation | None:
    """Eliminate a generator that some relator contains exactly once, or None.

    Such a relator isolates the generator: rotating it to g^s * w gives
    g = w^-s, a guaranteed-safe substitution.  The move is only taken if
    it does not increase the total relator length.  The first relator in
    ``order`` with such a generator wins, generators in alphabet order.
    """
    uses = Counter(g for r in P.relators for g, _ in r.letters)
    for ri in order:
        r = P.relators[ri]
        here = Counter(g for g, _ in r.letters)
        for g in P.alphabet:
            if here[g] != 1:
                continue
            k = [gen for gen, _ in r.letters].index(g)
            w = Word(r.letters[k + 1 :] + r.letters[:k])
            image = invert(w) if r.letters[k][1] == 1 else w
            # the other uses of g each grow by len(image) - 1; r goes away
            if (uses[g] - 1) * (len(image) - 1) > len(r):
                continue
            images = {h: image if h == g else Word(((h, 1),)) for h in P.alphabet}
            kept = (rel for i, rel in enumerate(P.relators) if i != ri)
            alphabet = tuple(h for h in P.alphabet if h != g)
            return FinitePresentation(alphabet, tuple(substitute(rel, images) for rel in kept))
    return None


def _tietze_move(P: FinitePresentation) -> FinitePresentation | None:
    """P after one Tietze move, a rewrite before an elimination, or None."""
    # both searches scan the relators shortest first, ties by printed text
    rels = P.relators
    order = sorted(range(len(rels)), key=lambda i: (len(rels[i]), word_to_text(rels[i])))
    moved = _subword_rewrite(P, order)
    return moved if moved is not None else _generator_elimination(P, order)


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
    while (moved := _tietze_move(P)) is not None:
        if steps == budget:
            return TietzeResult(P, steps, budget_exhausted=True)
        P = moved
        steps += 1
    return TietzeResult(P, steps, budget_exhausted=False)
