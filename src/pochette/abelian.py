"""Abelian invariants by one sparse integer elimination.

A relation matrix is a list of sparse rows ``{column: value}``, and
``_cokernel`` reduces it to the invariants of Z^ncols modulo the rows:
of the relator matrix for the abelianization and the map to Z, of the
Reidemeister-Schreier rows for H1 of a stabilizer.  All arithmetic is
exact over Python integers, so entry growth during elimination can
never wrap around.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations, product
from math import gcd, inf, lcm

from .errors import CertificateError
from .presentations import FinitePresentation, PermutationAssignment
from .words import Generator, Word

__all__ = [
    "AbelianInvariants",
    "abelian_invariants",
    "cokernel_invariants",
    "stabilizer_invariants",
    "hom_to_Z",
    "word_image",
    "relator_matrix",
]


@dataclass(frozen=True)
class AbelianInvariants:
    """Free rank plus torsion coefficients in divisibility order d1 | d2 | ..."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {self.torsion} not in divisibility order")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")

    @staticmethod
    def free(rank: int) -> "AbelianInvariants":
        return AbelianInvariants(rank, ())

    @staticmethod
    def cyclic(n: int) -> "AbelianInvariants":
        """Z/nZ;  n = 0 gives Z and |n| = 1 gives the trivial group."""
        if n == 0:
            return AbelianInvariants(1, ())
        n = abs(n)
        return AbelianInvariants(0, ()) if n == 1 else AbelianInvariants(0, (n,))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def __str__(self) -> str:
        parts: list[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _cokernel(
    rows: list[dict[int, int]],
    ncols: int,
    max_work: float = inf,
    basis: dict[int, dict[int, int]] | None = None,
) -> AbelianInvariants | None:
    """Z^ncols modulo the sparse rows ``{column: value}``; None past max_work.

    The pivot is the least |entry|, from the shortest row holding it, in
    its column of fewest rows.  Row moves clear the pivot's column; once
    the column is the row's alone, column moves clear the row.  A nonzero
    remainder is a smaller entry, so the Euclidean steps run through the
    same loop.  An isolated pivot adds 1 to the rank, and |p| > 1 to the
    diagonal, which one gcd/lcm pass puts in divisibility order.  Work
    counts every rewritten entry.  The rows are rewritten in place.
    ``basis``, when given, maps columns to vectors that the column moves
    act on too and loses each pivot's column: from e_j for every column j
    it ends as a basis of the kernel of the matrix.
    """
    where = defaultdict(set)  # the rows each column is in
    for i, row in enumerate(rows):
        for c in row:
            where[c].add(i)
    heap = [(1, len(row), i) for i, row in enumerate(rows) if row]
    heapify(heap)
    work = rank = 0
    diagonal = []
    # a key may be below its row's (least |entry|, length): rows go in with
    # least 1, and the pop that finds a key too low pushes the row's own
    while heap and work <= max_work:
        least, length, i = heappop(heap)
        row = rows[i]
        if len(row) != length:
            continue  # rewritten since it was pushed
        if (true_least := min(map(abs, row.values()))) != least:
            heappush(heap, (true_least, length, i))
            continue
        c = min((e for e, v in row.items() if abs(v) == least), key=lambda e: len(where[e]))
        p = row[c]
        for t in where[c] - {i}:
            other = rows[t]
            q = other[c] // p
            for e, v in row.items():
                if x := other.get(e, 0) - q * v:
                    other[e] = x
                    where[e].add(t)
                else:
                    del other[e]
                    where[e].discard(t)
            work += len(row)
            if other:
                heappush(heap, (1, len(other), t))
        if len(where[c]) > 1:
            heappush(heap, (least, length, i))  # remainders left in the column
            continue
        for e in [e for e in row if e != c]:
            q, row[e] = divmod(row[e], p)
            if basis is not None:
                target = basis[e]
                for g, y in basis[c].items():
                    target[g] = target.get(g, 0) - q * y
            if not row[e]:
                del row[e]
                where[e].discard(i)
            work += 1
        if len(row) > 1:
            heappush(heap, (1, len(row), i))
            continue
        rank += 1
        if abs(p) > 1:
            diagonal.append(abs(p))
        rows[i] = {}
        if basis is not None:
            del basis[c]
    if work > max_work:
        return None
    for a, b in combinations(range(len(diagonal)), 2):
        diagonal[a], diagonal[b] = gcd(diagonal[a], diagonal[b]), lcm(diagonal[a], diagonal[b])
    return AbelianInvariants(ncols - rank, tuple(d for d in diagonal if d > 1))


def cokernel_invariants(rows: list[list[int]], ncols: int) -> AbelianInvariants:
    """Z^ncols modulo the rows of a dense integer matrix, which is left untouched."""
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"every row must have {ncols} entries")
    return _cokernel([{j: v for j, v in enumerate(row) if v} for row in rows], ncols)


def _relation_rows(P: FinitePresentation, action: PermutationAssignment) -> list[dict[int, int]]:
    """Abelianized Reidemeister-Schreier rows of the stabilizer of point 0.

    Holt, Eick, O'Brien, "Handbook of Computational Group Theory", 2.5: a
    column per entry (point, g) off ``action.spanning_tree``, keyed point *
    k + g, and a row per relator read from each point.
    """
    k, columns, n = len(action.images), action.columns, action.degree
    tree = {c * k + g for c, g in action.spanning_tree}
    # letter lt read at point x has key x * 2k + lt: step[key] is the first key of the
    # point it reaches, crossed[key] the entry it crosses, (x, g) or (x g^-1, g)
    step = [columns[lt][x] * 2 * k for x in range(n) for lt in range(2 * k)]
    crossed = [
        (columns[lt][x] if lt & 1 else x) * k + lt // 2 for x in range(n) for lt in range(2 * k)
    ]
    rows = []
    for code, start in product(P.relator_codes, range(n)):
        read = code  # on one point each letter is its own key
        if n > 1:
            read, x = [], 2 * k * start
            for lt in code:
                read.append(x + lt)
                x = step[x + lt]
        row: dict[int, int] = {}
        for key, times in Counter(read).items():
            if (entry := crossed[key]) not in tree:
                row[entry] = row.get(entry, 0) + (-times if key & 1 else times)
        rows.append({entry: v for entry, v in row.items() if v})
    return rows


def relator_matrix(P: FinitePresentation) -> list[dict[int, int]]:
    """Rows = relators as ``{generator index: nonzero exponent sum}``: the rows on one point."""
    return _relation_rows(P, PermutationAssignment(1, P.alphabet, ((0,),) * len(P.alphabet)))


def abelian_invariants(P: FinitePresentation) -> AbelianInvariants:
    """Invariants of the cokernel of the relator matrix."""
    return _cokernel(relator_matrix(P), len(P.alphabet))


def stabilizer_invariants(
    P: FinitePresentation, action: PermutationAssignment, max_work: float = inf
) -> AbelianInvariants | None:
    """H1 of the stabilizer of point 0 in a transitive action of P; None past max_work.

    The cokernel of the Reidemeister-Schreier rows (``_relation_rows``); on
    one point they are the relator matrix.  Work counts rewritten entries.
    """
    ncols = action.degree * len(action.images) - len(action.spanning_tree)
    return _cokernel(_relation_rows(P, action), ncols, max_work)


def hom_to_Z(P: FinitePresentation) -> dict[Generator, int] | None:
    """Generator images under the abelianization, when it is infinite cyclic.

    Returns None when the abelianization is not Z.  Images are
    normalized so the first generator with nonzero image maps to a
    positive integer, and re-checked: every relator maps to 0 and the
    images generate Z.
    """
    rows, k = relator_matrix(P), len(P.alphabet)
    basis = {j: {j: 1} for j in range(k)}
    if _cokernel([dict(row) for row in rows], k, basis=basis) != AbelianInvariants(1, ()):
        return None
    (kernel,) = basis.values()
    values = [kernel.get(j, 0) for j in range(k)]
    if next((x for x in values if x), 0) < 0:
        values = [-x for x in values]
    if any(sum(values[j] * v for j, v in row.items()) for row in rows):
        raise CertificateError("a relator does not map to 0")
    if gcd(*values) != 1:
        raise CertificateError("generator images do not generate Z")
    return dict(zip(P.alphabet, values))


def word_image(images: dict[Generator, int], w: Word) -> int:
    """Image of a word under a homomorphism to Z given on generators."""
    return sum(images[g] * s for g, s in w.letters)
