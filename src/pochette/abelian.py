"""Integer Smith normal form and abelian invariants.

Matrices are plain lists of integer rows.  All arithmetic is exact over
Python integers, so entry growth during elimination can never wrap
around.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import product
from math import gcd, inf

from .errors import CertificateError
from .presentations import FinitePresentation, PermutationAssignment
from .words import Generator, Word

__all__ = [
    "AbelianInvariants",
    "smith_normal_form",
    "abelian_invariants",
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


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(
    rows: list[list[int]], ncols: int, row_transform: bool = False
) -> tuple[list[list[int]], list[list[int]] | None, list[list[int]]]:
    """Diagonalize the matrix M = rows by unimodular transforms: U M V = S.

    ``ncols`` is the column count, which zero rows cannot carry.  S is
    diagonal with nonnegative entries d1 | d2 | ... and zeros last; S, U
    and V are new lists of rows and ``rows`` is left untouched.  U is
    tracked only when ``row_transform`` asks for it, and is None
    otherwise: abelian invariants need S alone, maps to Z only V.  Pivots
    are chosen with minimal nonzero absolute value, ties broken by
    lowest (row, column) index, which bounds entry growth and makes the
    run deterministic.
    """
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"every row must have {ncols} entries")
    nrows = len(rows)
    a = [list(row) for row in rows]
    u = _identity(nrows) if row_transform else None
    v = _identity(ncols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        if u is not None:
            u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    def min_pivot(t):
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    pivot, best = (i, j), x
        return pivot

    t = 0
    while t < nrows and t < ncols:
        if min_pivot(t) is None:
            break
        while True:
            # re-select the globally minimal pivot after every pass: the
            # remainders it leaves behind become the next, smaller pivot,
            # which is what keeps intermediate entries from exploding
            i, j = min_pivot(t)
            swap_rows(t, i)
            swap_cols(t, j)
            reduced = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    reduced = True
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    reduced = True
            if reduced:
                continue
            # pivot row and column are clear; force the pivot to divide
            # the whole trailing block so the diagonal comes out chained
            offender = None
            for i in range(t + 1, nrows):
                if any(a[i][j] % a[t][t] != 0 for j in range(t + 1, ncols)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return a, u, v


def relator_matrix(P: FinitePresentation) -> list[list[int]]:
    """Rows = relators, columns = generators, entries = exponent sums.

    Each relator is read once, counting its signed letters, for all columns.
    """
    rows = []
    for rel in P.relators:
        count = Counter(rel.letters)
        rows.append([count[g, 1] - count[g, -1] for g in P.alphabet])
    return rows


def _cokernel(rows: list[list[int]], ncols: int) -> tuple[AbelianInvariants, list[list[int]]]:
    """Invariants of Z^ncols modulo the rows, and the column transform V."""
    S, _, V = smith_normal_form(rows, ncols)
    diag = [S[i][i] for i in range(min(len(S), ncols))]
    rank = sum(1 for d in diag if d != 0)
    return AbelianInvariants(ncols - rank, tuple(d for d in diag if d > 1)), V


def abelian_invariants(P: FinitePresentation) -> AbelianInvariants:
    """Invariants of the cokernel of the relator matrix."""
    return _cokernel(relator_matrix(P), len(P.alphabet))[0]


def stabilizer_invariants(
    P: FinitePresentation, action: PermutationAssignment, max_work: float = inf
) -> AbelianInvariants | None:
    """H1 of the stabilizer of point 0 in a transitive action of P; None past max_work.

    Abelianized Reidemeister-Schreier (Holt, Eick, O'Brien, "Handbook of
    Computational Group Theory", 2.5): a generator per entry (point, g) off
    ``action.spanning_tree``, a relation per relator read from each point, so
    on one point the relator matrix.  Pivots of +-1 go first, from the shortest
    row with one, in its column of fewest rows; work counts the entries they
    rewrite, and the cells the Smith form of the rest scans.
    """
    k, columns, n = len(action.images), action.columns, action.degree
    tree = {c * k + g for c, g in action.spanning_tree}
    # letter lt read at point x has key x * 2k + lt: step[key] is the first key of the
    # point it reaches, crossed[key] the entry it crosses, (x, g) or (x g^-1, g)
    step = [columns[lt][x] * 2 * k for x in range(n) for lt in range(2 * k)]
    crossed = [
        (columns[lt][x] if lt & 1 else x) * k + lt // 2 for x in range(n) for lt in range(2 * k)
    ]
    rows, where = [], defaultdict(set)  # the rows each entry is in
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
        for entry in rows[-1]:
            where[entry].add(len(rows) - 1)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapify(heap)
    work = eliminated = 0
    while heap and work <= max_work:
        length, i = heappop(heap)
        row = rows[i]
        units = [entry for entry, v in row.items() if v in (1, -1)] if len(row) == length else ()
        if not units:
            continue  # none, or the row was rewritten since it was pushed
        pivot = min(units, key=lambda entry: len(where[entry]))
        rows[i] = {}
        for entry in row:
            where[entry].discard(i)
        for t in where.pop(pivot):
            other = rows[t]
            factor = other[pivot] * row[pivot]
            for entry, v in row.items():  # clears the pivot's entry
                other[entry] = other.get(entry, 0) - factor * v
                if other[entry]:
                    where[entry].add(t)
                else:
                    del other[entry]
                    where[entry].discard(t)
            work += len(row)
            heappush(heap, (len(other), t))
        eliminated += 1
    left = [row for row in rows if row]
    used = dict.fromkeys(entry for row in left for entry in row)
    work += len(left) * len(used) * min(len(left), len(used))
    if work > max_work:
        return None
    invariants, _ = _cokernel([[row.get(entry, 0) for entry in used] for row in left], len(used))
    unused = n * k - len(tree) - eliminated - len(used)  # generators in no relation left
    return AbelianInvariants(invariants.free_rank + unused, invariants.torsion)


def hom_to_Z(P: FinitePresentation) -> dict[Generator, int] | None:
    """Generator images under the abelianization, when it is infinite cyclic.

    Returns None when the abelianization is not Z.  Images are
    normalized so the first generator with nonzero image maps to a
    positive integer.
    """
    invariants, V = _cokernel(relator_matrix(P), len(P.alphabet))
    if invariants != AbelianInvariants(1, ()):
        return None
    free_col = len(P.alphabet) - 1  # the single zero column of S comes last
    images = {g: V[j][free_col] for j, g in enumerate(P.alphabet)}
    lead = next((images[g] for g in P.alphabet if images[g] != 0), None)
    if lead is None:
        raise CertificateError("rank-1 free part must be hit by some generator")
    if lead < 0:
        images = {g: -x for g, x in images.items()}
    if (gcd(*images.values()) if len(images) > 1 else abs(lead)) != 1:
        raise CertificateError("generator images do not generate Z")
    return images


def word_image(images: dict[Generator, int], w: Word) -> int:
    """Image of a word under a homomorphism to Z given on generators."""
    return sum(images[g] * s for g, s in w.letters)
