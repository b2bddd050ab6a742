"""Independent oracles for the test suite.

Everything here is deliberately naive and shares no code with the
package: a straightforward elementary-operation diagonalization for
invariant factors (no transform tracking, first-nonzero pivoting), a
gcd-of-minors calculation as a second opinion, exact determinants, and
brute-force permutation-group closure for group orders, and all-rotations
relator keys over plain ``(name, sign)`` letter sequences.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm


def snf_diagonal_oracle(rows: list[list[int]]) -> list[int]:
    """Invariant factors by unoptimized row/column reduction.

    Picks the first nonzero entry as pivot, clears its row and column by
    Euclidean steps, recurses on the rest, then repairs divisibility by
    pairwise gcd/lcm on the diagonal.  Returns the full diagonal,
    including trailing zeros, nonnegative.
    """
    a = [list(r) for r in rows]
    nrows, ncols = len(a), len(a[0]) if a else 0
    diag: list[int] = []
    t = 0
    while t < nrows and t < ncols:
        # first nonzero entry in the remaining block
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            done = True
            for i in range(t + 1, nrows):
                while a[i][t] != 0:
                    if abs(a[i][t]) < abs(a[t][t]):
                        a[t], a[i] = a[i], a[t]
                        done = False
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, ncols):
                while a[t][j] != 0:
                    if abs(a[t][j]) < abs(a[t][t]):
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        done = False
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
            if done and all(a[i][t] == 0 for i in range(t + 1, nrows)):
                break
        diag.append(abs(a[t][t]))
        t += 1
    # repair divisibility pairwise
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if x and y and y % x != 0:
                diag[i], diag[i + 1] = gcd(x, y), lcm(x, y)
                changed = True
    diag.extend(0 for _ in range(min(nrows, ncols) - len(diag)))
    return diag


def det(rows: list[list[int]]) -> int:
    """Exact integer determinant by cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det(minor)
    return total


def minors_gcd_diagonal(rows: list[list[int]], size: int) -> list[int]:
    """Invariant factors as quotients of determinantal divisors.

    D_k = gcd of all k x k minors; the k-th invariant factor is
    D_k / D_{k-1}.  Padded with zeros to the requested size.
    """
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    divisors = [1]
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rsel in combinations(range(nrows), k):
            for csel in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, det(sub))
        divisors.append(g)
        if g == 0:
            break
    out = []
    for k in range(1, len(divisors)):
        if divisors[k] == 0:
            break
        out.append(divisors[k] // divisors[k - 1])
    out.extend(0 for _ in range(size - len(out)))
    return out


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
    ]


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p, then q."""
    return tuple(q[x] for x in p)


def from_cycle(n: int, cycle: tuple[int, ...]) -> tuple[int, ...]:
    out = list(range(n))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        out[a] = b
    return tuple(out)


def mulclose(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Brute-force multiplication-table closure of a permutation set."""
    n = len(gens[0])
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = compose(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def cyclically_reduce_oracle(letters) -> tuple:
    """Strip inverse first/last letter pairs by re-slicing, one pair at a time."""
    letters = list(letters)
    while (
        len(letters) >= 2
        and letters[0][0] == letters[-1][0]
        and letters[0][1] == -letters[-1][1]
    ):
        letters = letters[1:-1]
    return tuple(letters)


def relator_key_oracle(letters) -> tuple:
    """Least of all rotations of the cyclic reduction and of its inverse.

    ``letters`` is a freely reduced sequence of ``(name, sign)`` pairs.
    """
    r = cyclically_reduce_oracle(letters)
    inverse = tuple((name, -sign) for name, sign in reversed(r))
    return min(
        seq[k:] + seq[:k] for seq in (r, inverse) for k in range(max(1, len(seq)))
    )


def dedup_relators_oracle(relators) -> list[tuple]:
    """Cyclic reductions, empties dropped, first occurrence of each key kept."""
    kept: list[tuple] = []
    seen: set[tuple] = set()
    for letters in relators:
        r = cyclically_reduce_oracle(letters)
        key = relator_key_oracle(r)
        if r and key not in seen:
            seen.add(key)
            kept.append(r)
    return kept
