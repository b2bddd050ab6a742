"""Finite non-cyclic quotients as certificates that a group is not Z.

Every quotient of Z is cyclic, so a permutation representation whose
image subgroup is non-cyclic certifies the group is not infinite
cyclic.  The search is exhaustive over symmetric groups up to the
degree cap; NotFound (None) is inconclusive, never a negative claim.

The search compiles each relator once into integer slots and checks it
point by point against tables of the generator images and their
inverses; relators over a single generator filter that generator's
candidates once per degree.  ``assignment_satisfies`` and
``image_is_cyclic`` work on the ``Word``s and whole permutations
instead, and stay the independent re-check of every witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import lcm
from typing import Sequence

from .budgets import Budgets
from .errors import CertificateError
from .presentations import FinitePresentation
from .words import Generator, Word

__all__ = [
    "PermutationAssignment",
    "find_noncyclic_quotient",
    "image_is_cyclic",
    "assignment_satisfies",
]

Perm = tuple[int, ...]
Slots = tuple[int, ...]


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


def _compile(P: FinitePresentation) -> tuple[list[list[Slots]], list[list[Slots]]]:
    """Each relator as slots into a per-node image table, by checkpoint level.

    Generator k's image sits in slot 2k and its inverse in slot 2k + 1.
    A relator becomes checkable at the level of its last generator; at
    level k, ``mixed[k]`` holds those that also use an earlier one, and
    ``single[k]`` those over generator k alone, with slots 0 and 1 read
    against the pair (image, inverse).
    """
    index = {g: k for k, g in enumerate(P.alphabet)}
    single: list[list[Slots]] = [[] for _ in P.alphabet]
    mixed: list[list[Slots]] = [[] for _ in P.alphabet]
    for rel in P.relators:
        slots = tuple(2 * index[g] + (sign == -1) for g, sign in rel.letters)
        used = {slot // 2 for slot in slots}
        if len(used) == 1:
            single[used.pop()].append(tuple(slot % 2 for slot in slots))
        else:
            mixed[max(used)].append(slots)
    return single, mixed


def _fixes_every_point(rel: Slots, table: Sequence[Perm], degree: int) -> bool:
    """True iff the relator's permutation is the identity, traced point by point."""
    for x in range(degree):
        y = x
        for slot in rel:
            y = table[slot][y]
        if y != x:
            return False
    return True


def find_noncyclic_quotient(
    P: FinitePresentation, max_degree: int = Budgets.quotient_degree
) -> PermutationAssignment | None:
    """Backtracking search for a relator-satisfying non-cyclic permutation image.

    Deterministic first-found order: lowest degree, then lexicographic
    assignment (generators in alphabet order, each image running through
    permutations in lexicographic order).  Relators are compiled once
    into generator slots and checked point by point, stopping at the
    first point they move.  A relator over one generator alone filters
    that generator's candidates once per degree, keeping their order;
    the backtracking checks each mixed relator as soon as its last
    generator has an image.  Each leaf must pass ``image_is_cyclic``, and
    the witness returned is re-checked by ``assignment_satisfies`` on
    the relator words.
    """
    gens = P.alphabet
    if not gens:
        return None
    single, mixed = _compile(P)
    for degree in range(2, max_degree + 1):
        pairs = [(p, _inverse(p)) for p in permutations(range(degree))]
        candidates = [
            [
                pair
                for pair in pairs
                if all(_fixes_every_point(rel, pair, degree) for rel in rels)
            ]
            for rels in single
        ]
        table: list[Perm] = [()] * (2 * len(gens))

        def backtrack(k: int) -> PermutationAssignment | None:
            if k == len(gens):
                assignment = PermutationAssignment(degree, gens, tuple(table[::2]))
                return None if image_is_cyclic(assignment) else assignment
            checks = mixed[k]
            for image, inverse in candidates[k]:
                table[2 * k] = image
                table[2 * k + 1] = inverse
                for rel in checks:
                    if not _fixes_every_point(rel, table, degree):
                        break
                else:
                    found = backtrack(k + 1)
                    if found is not None:
                        return found
            return None

        found = backtrack(0)
        if found is not None:
            if not assignment_satisfies(P, found):
                raise CertificateError("quotient witness violates a relator")
            return found
    return None
