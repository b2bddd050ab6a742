"""Finite non-cyclic quotients as certificates that a group is not Z.

Every quotient of Z is cyclic, so a permutation representation whose
image subgroup is non-cyclic certifies the group is not infinite
cyclic.  The search is exhaustive up to the degree cap; NotFound (None)
is inconclusive, never a negative claim.

It is Sims' low-index method (Sims 1994, ch. 5; Holt-Eick-O'Brien §5.4):
backtracking over standardized partial coset tables meets each transitive
action, on the cosets of one subgroup of finite index, exactly once.  An
image whose orbits all have cyclic images is abelian; if it is not cyclic
it has p-rank 2 for some prime p, and so has its image on some two orbits.
So unions of two transitive actions complete the search.
``image_is_cyclic`` works on whole permutations, and together with
``assignment_satisfies``, the relator check a closed coset table also
passes, it re-checks every witness.
"""

from __future__ import annotations

from math import lcm
from typing import Iterator

from .budgets import Budgets
from .errors import CertificateError
from .presentations import (
    FinitePresentation,
    Perm,
    PermutationAssignment,
    assignment_satisfies,
)
from .words import Generator

# with presentations' witness type and check, for callers checking a witness
__all__ = [
    "PermutationAssignment",
    "find_noncyclic_quotient",
    "image_is_cyclic",
    "assignment_satisfies",
]

UNDEF = -1


def _closure(perms: list[Perm], degree: int) -> set[Perm]:
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in perms:
                b = tuple(g[x] for x in a)  # a, then g
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def _order(a: Perm) -> int:
    """The lcm of the cycle lengths."""
    out, seen = 1, set()
    for start in range(len(a)):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j, length = a[j], length + 1
        out = lcm(out, length or 1)
    return out


def image_is_cyclic(a: PermutationAssignment) -> bool:
    """True iff the subgroup generated by the images is cyclic.

    Uses closure construction plus the exponent test: a finite group is
    cyclic iff some element's order equals the group order.
    """
    group = _closure(list(a.images), a.degree)
    size = len(group)
    return any(_order(g) == size for g in group)


def _transitive_actions(
    nletters: int, relators: tuple[tuple[int, ...], ...], degree: int
) -> Iterator[tuple[Perm, ...]]:
    """The generator images of every transitive action on exactly ``degree`` points.

    Each step fills the first undefined entry, in coset then letter order,
    with an existing coset or the next new one, so cosets are numbered in
    order of first appearance: each completed table is the standardized
    table of its point stabilizer.  Column lt is letter lt of ``P.encode``.
    """
    cols = [[UNDEF] * degree for _ in range(nletters)]
    trail: list[tuple[int, int]] = []

    def deduce(n: int) -> bool:
        """Scan each relator from each coset until stable; False if one fails to close.

        A scan left with a single undefined entry defines it, and its inverse.
        """
        changed = True
        while changed:
            changed = False
            for rel in relators:
                for c in range(n):
                    f, i, b, j = c, 0, c, len(rel) - 1
                    while i <= j and cols[rel[i]][f] != UNDEF:
                        f, i = cols[rel[i]][f], i + 1
                    while j >= i and cols[rel[j] ^ 1][b] != UNDEF:
                        b, j = cols[rel[j] ^ 1][b], j - 1
                    if j < i and f != b:
                        return False
                    if j == i:
                        cols[rel[i]][f], cols[rel[i] ^ 1][b] = b, f
                        trail.extend(((rel[i], f), (rel[i] ^ 1, b)))
                        changed = True
        return True

    def grow(n: int, c: int, lt: int) -> Iterator[tuple[Perm, ...]]:
        while c < n and cols[lt][c] != UNDEF:
            c, lt = (c + 1, 0) if lt + 1 == nletters else (c, lt + 1)
        if c == n:
            if n == degree:
                yield tuple(tuple(col) for col in cols[::2])
            return
        for t in range(min(n + 1, degree)):
            if cols[lt ^ 1][t] != UNDEF:
                continue
            mark = len(trail)
            cols[lt][c], cols[lt ^ 1][t] = t, c
            trail.extend(((lt, c), (lt ^ 1, t)))
            if deduce(max(n, t + 1)):
                yield from grow(max(n, t + 1), c, lt)
            for undo, coset in trail[mark:]:
                cols[undo][coset] = UNDEF
            del trail[mark:]

    if deduce(1):
        yield from grow(1, 0, 0)


def _noncyclic_images(
    gens: tuple[Generator, ...], relators: tuple[tuple[int, ...], ...], max_degree: int
) -> Iterator[PermutationAssignment]:
    """At each degree from 2 up: transitive actions, then unions of two cyclic ones."""
    cyclic: list[PermutationAssignment] = []
    for degree in range(2, max_degree + 1):
        for images in _transitive_actions(2 * len(gens), relators, degree):
            action = PermutationAssignment(degree, gens, images)
            if image_is_cyclic(action):
                cyclic.append(action)
            else:
                yield action
        for k, a in enumerate(cyclic):
            for b in cyclic[k + 1:]:
                if a.degree + b.degree == degree:
                    shifted = (tuple(x + a.degree for x in q) for q in b.images)
                    images = tuple(p + q for p, q in zip(a.images, shifted))
                    union = PermutationAssignment(degree, gens, images)
                    if not image_is_cyclic(union):
                        yield union


def find_noncyclic_quotient(
    P: FinitePresentation, max_degree: int = Budgets.quotient_degree
) -> PermutationAssignment | None:
    """A relator-satisfying permutation image that is not cyclic, of least degree.

    The witness is re-checked by ``assignment_satisfies`` on the relator words.
    """
    if not P.alphabet:
        return None
    found = next(_noncyclic_images(P.alphabet, P.relator_codes, max_degree), None)
    if found is not None and not assignment_satisfies(P, found):
        raise CertificateError("quotient witness violates a relator")
    return found
