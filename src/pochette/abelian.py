"""Integer-matrix Smith normal form and abelian invariants.

All arithmetic is exact over Python integers, so entry growth during
elimination can never wrap around.  An optional magnitude bound turns
runaway growth into an explicit OverflowGuard error instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import CertificateError
from .presentations import FinitePresentation
from .words import Generator, Word, exponent_sum

__all__ = [
    "IntegerMatrix",
    "AbelianInvariants",
    "OverflowGuard",
    "smith_normal_form",
    "abelian_invariants",
    "hom_to_Z",
    "word_image",
    "relator_matrix",
]


class OverflowGuard(Exception):
    def __init__(self, bound: int):
        self.bound = bound
        super().__init__(f"intermediate entry magnitude exceeded {bound}")


@dataclass(frozen=True)
class IntegerMatrix:
    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[int] = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(int(x) for x in row)
        return IntegerMatrix(nrows, ncols, tuple(flat))

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, index: tuple[int, int]) -> int:
        i, j = index
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        a, b = self.to_rows(), other.to_rows()
        out = [
            [sum(a[i][k] * b[k][j] for k in range(self.cols)) for j in range(other.cols)]
            for i in range(self.rows)
        ]
        return IntegerMatrix.from_rows(out) if self.rows else IntegerMatrix(0, other.cols, ())

    def diagonal(self) -> list[int]:
        return [self[i, i] for i in range(min(self.rows, self.cols))]

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.to_rows())


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

    def describe(self) -> str:
        parts: list[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.describe()


def _check_bound(mat: list[list[int]], bound: int | None):
    if bound is None:
        return
    for row in mat:
        for x in row:
            if abs(x) > bound:
                raise OverflowGuard(bound)


def smith_normal_form(
    M: IntegerMatrix, magnitude_bound: int | None = None
) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Diagonalize M by unimodular transforms: U @ M @ V == S.

    S is diagonal with nonnegative entries d1 | d2 | ... and zeros last.
    Pivots are chosen with minimal nonzero absolute value, ties broken
    by lowest (row, column) index, which bounds entry growth and makes
    the run deterministic.
    """
    nrows, ncols = M.rows, M.cols
    a = M.to_rows()
    u = IntegerMatrix.identity(nrows).to_rows()
    v = IntegerMatrix.identity(ncols).to_rows()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
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
            _check_bound(a, magnitude_bound)
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

    S = IntegerMatrix.from_rows(a) if nrows else IntegerMatrix(0, ncols, ())
    U = IntegerMatrix.from_rows(u) if nrows else IntegerMatrix(0, 0, ())
    V = IntegerMatrix.from_rows(v) if ncols else IntegerMatrix(0, 0, ())
    return S, U, V


def relator_matrix(P: FinitePresentation) -> IntegerMatrix:
    """Rows = relators, columns = generators, entries = exponent sums."""
    rows = [
        [exponent_sum(rel, g) for g in P.alphabet] for rel in P.relators
    ]
    if not rows:
        return IntegerMatrix(0, len(P.alphabet), ())
    return IntegerMatrix.from_rows(rows)


def abelian_invariants(P: FinitePresentation) -> AbelianInvariants:
    """Invariants of the cokernel of the relator matrix."""
    M = relator_matrix(P)
    S, _, _ = smith_normal_form(M)
    diag = S.diagonal()
    rank = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    return AbelianInvariants(M.cols - rank, torsion)


def hom_to_Z(P: FinitePresentation) -> dict[Generator, int] | None:
    """Generator images under the abelianization, when it is infinite cyclic.

    Returns None when the abelianization is not Z.  Images are
    normalized so the first generator with nonzero image maps to a
    positive integer.
    """
    M = relator_matrix(P)
    S, _, V = smith_normal_form(M)
    diag = S.diagonal()
    rank = sum(1 for d in diag if d != 0)
    if M.cols - rank != 1 or any(d > 1 for d in diag):
        return None
    free_col = rank  # single zero column of S, after the d_i = 1 block
    images = {g: V[j, free_col] for j, g in enumerate(P.alphabet)}
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
