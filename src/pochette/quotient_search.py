"""Finite non-cyclic quotients as certificates that a group is not Z.

Every quotient of Z is cyclic, so a permutation representation whose
image subgroup is non-cyclic certifies the group is not infinite
cyclic.  The search is exhaustive over symmetric groups up to the
degree cap; NotFound (None) is inconclusive, never a negative claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import lcm

from .errors import CertificateError
from .presentations import FinitePresentation
from .words import Generator, Word

__all__ = [
    "DEFAULT_MAX_DEGREE",
    "PermutationAssignment",
    "find_noncyclic_quotient",
    "image_is_cyclic",
    "assignment_satisfies",
]

DEFAULT_MAX_DEGREE = 8

Perm = tuple[int, ...]


def _compose(a: Perm, b: Perm) -> Perm:
    """Apply a, then b."""
    return tuple(b[x] for x in a)


def _inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def _word_perm(word: Word, images: dict[Generator, Perm], degree: int) -> Perm:
    acc = tuple(range(degree))
    for gen, sign in word.letters:
        p = images[gen] if sign == 1 else _inverse(images[gen])
        acc = _compose(acc, p)
    return acc


def _closure(perms: list[Perm], degree: int) -> set[Perm]:
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in perms:
                b = _compose(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def _order(a: Perm) -> int:
    degree = len(a)
    seen = [False] * degree
    out = 1
    for i in range(degree):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        out = lcm(out, length)
    return out


@dataclass(frozen=True)
class PermutationAssignment:
    """Generator images in a symmetric group, satisfying every relator."""

    degree: int
    alphabet: tuple[Generator, ...]
    images: tuple[Perm, ...]

    def image_of(self, g: Generator) -> Perm:
        return self.images[self.alphabet.index(g)]

    def as_dict(self) -> dict[Generator, Perm]:
        return dict(zip(self.alphabet, self.images))


def assignment_satisfies(P: FinitePresentation, a: PermutationAssignment) -> bool:
    """Re-check every relator against the assignment, independently of the search."""
    identity = tuple(range(a.degree))
    images = a.as_dict()
    return all(_word_perm(rel, images, a.degree) == identity for rel in P.relators)


def image_is_cyclic(a: PermutationAssignment) -> bool:
    """True iff the subgroup generated by the images is cyclic.

    Uses closure construction plus the exponent test: a finite group is
    cyclic iff some element's order equals the group order.
    """
    group = _closure(list(a.images), a.degree)
    size = len(group)
    return any(_order(g) == size for g in group)


def find_noncyclic_quotient(
    P: FinitePresentation, max_degree: int = DEFAULT_MAX_DEGREE
) -> PermutationAssignment | None:
    """Backtracking search for a relator-satisfying non-cyclic permutation image.

    Deterministic first-found order: lowest degree, then lexicographic
    assignment (generators in alphabet order, each image running through
    permutations in lexicographic order).  Partial assignments are
    pruned as soon as a fully supported relator fails.
    """
    gens = P.alphabet
    if not gens:
        return None
    for degree in range(2, max_degree + 1):
        perms = list(permutations(range(degree)))
        identity = tuple(range(degree))
        # relators become checkable once all their generators have images
        support = [rel.generators() for rel in P.relators]
        checkpoint: list[list[Word]] = [[] for _ in gens]
        for rel, sup in zip(P.relators, support):
            last = max((gens.index(g) for g in sup), default=0)
            checkpoint[last].append(rel)

        images: dict[Generator, Perm] = {}

        def backtrack(k: int) -> PermutationAssignment | None:
            if k == len(gens):
                assignment = PermutationAssignment(
                    degree, gens, tuple(images[g] for g in gens)
                )
                if not image_is_cyclic(assignment):
                    return assignment
                return None
            for p in perms:
                images[gens[k]] = p
                if all(
                    _word_perm(rel, images, degree) == identity
                    for rel in checkpoint[k]
                ):
                    found = backtrack(k + 1)
                    if found is not None:
                        return found
            del images[gens[k]]
            return None

        found = backtrack(0)
        if found is not None:
            if not assignment_satisfies(P, found):
                raise CertificateError("quotient witness violates a relator")
            return found
    return None
