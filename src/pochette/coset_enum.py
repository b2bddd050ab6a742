"""Todd-Coxeter coset enumeration (HLT strategy).

Relator tracing with immediate coincidence processing via union-find
collapse.  Completion certifies the subgroup index exactly; hitting the
coset bound is a verdict ("no claim"), not an error.

The method follows the classical presentation in Holt, Eick, O'Brien,
"Handbook of Computational Group Theory", ch. 5, with definitions made
at the first undefined (coset, signed generator) pair in scan order.
While it runs the table is kept by column, one list per signed letter
indexed by coset, and every relator and subgroup word is compiled once
to its lists of columns.  The statistics a report prints (cosets
defined, collapses) are those of the row-per-coset layout.  A closed
table is returned as the ``PermutationAssignment`` of the generators on
the cosets, coset 0 the subgroup, and ``_verify_closed`` re-checks it:
a transitive permutation action that ``assignment_satisfies`` accepts,
in which every subgroup word fixes coset 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .abelian import abelian_invariants
from .budgets import Budgets
from .errors import CertificateError
from .presentations import FinitePresentation, PermutationAssignment, assignment_satisfies
from .words import Word

__all__ = [
    "EnumerationVerdict",
    "enumerate_cosets",
    "certify_trivial",
    "subgroup_membership",
]

UNDEF = -1


@dataclass(frozen=True)
class EnumerationVerdict:
    """The outcome of one coset enumeration, with its statistics.

    kind is "Completed" from enumerate_cosets, "Trivial" | "NonTrivial"
    from certify_trivial and "InSubgroup" | "NotInSubgroup" from
    subgroup_membership.  Any of the three gives "Unknown" when the
    enumeration hit max_cosets; index and table are then None.
    Otherwise table is the closed table that certified the index: the
    action of the generators on the cosets, coset 0 the subgroup.
    subgroup holds the words whose subgroup's cosets were enumerated.
    """

    kind: str
    index: int | None
    cosets_defined: int
    collapses: int
    max_cosets: int
    subgroup: tuple[Word, ...] = ()
    table: PermutationAssignment | None = field(default=None, compare=False, repr=False)


def _hlt(
    nletters: int,
    relators: list[tuple[int, ...]],
    subgroup: list[tuple[int, ...]],
    max_cosets: int,
) -> tuple[tuple[tuple[int, ...], ...] | None, int, int]:
    """Run the HLT main loop.

    Returns (rows, defined, collapses); rows is None when the coset
    bound was hit.  On success rows is the closed table over the live
    cosets, renumbered in order: every relator and subgroup-generator
    scan closes.  Dead cosets keep their numbers, so ``defined`` is the
    number of cosets ever made.

    The table is kept by column, ``cols[lt][coset]``, and each word is
    compiled to its forward columns and to the inverse letters' columns
    for the backward scan, so a scan step is ``f = fw[i][f]``.  Columns
    grow in place, in chunks, so the compiled lists stay valid.
    """
    cap = min(max_cosets, 256)
    cols = [[UNDEF] * cap for _ in range(nletters)]
    parent = list(range(cap))
    pairs = [(cols[lt], cols[lt ^ 1]) for lt in range(nletters)]
    n = 1
    collapses = 0

    def compile_scan(word: tuple[int, ...]):
        return [cols[lt] for lt in word], [cols[lt ^ 1] for lt in word], len(word) - 1

    def grow():
        extra = min(cap, max_cosets - cap)
        chunk = [UNDEF] * extra
        for col in cols:
            col.extend(chunk)
        parent.extend(range(cap, cap + extra))
        return cap + extra

    def rep(k: int) -> int:
        r = k
        while parent[r] != r:
            r = parent[r]
        while parent[k] != r:
            parent[k], k = r, parent[k]
        return r

    def coincidence(x: int, y: int) -> int:
        """Merge x and y and every coincidence they force; return the merges.

        Merges only happen while pending drains, so a dead coset's
        representative is fixed while its row is moved.
        """
        merged = 0
        pending = [(x, y)]
        dead: list[int] = []
        head = 0
        while True:
            while pending:
                x, y = pending.pop()
                if parent[x] != x:
                    x = rep(x)
                if parent[y] != y:
                    y = rep(y)
                if x == y:
                    continue
                if x > y:
                    x, y = y, x
                parent[y] = x
                merged += 1
                dead.append(y)
            if head == len(dead):
                return merged
            gamma = dead[head]
            head += 1
            mu = rep(gamma)
            for col, inv in pairs:
                delta = col[gamma]
                if delta == UNDEF:
                    continue
                inv[delta] = UNDEF
                nu = delta if parent[delta] == delta else rep(delta)
                image = col[mu]
                if image != UNDEF:
                    pending.append((nu, image))
                    continue
                image = inv[nu]
                if image != UNDEF:
                    pending.append((mu, image))
                else:
                    col[mu] = nu
                    inv[nu] = mu

    relator_scans = [compile_scan(w) for w in relators]
    # coset 0 never dies, so its first visit scans the subgroup words first
    scans = [compile_scan(w) for w in subgroup] + relator_scans
    # Coincidences may re-open entries of already-processed cosets, so
    # sweep until a pass leaves every live row closed.
    while True:
        alpha = 0
        while alpha < n:
            if parent[alpha] == alpha:
                for fw, bw, last in scans:
                    f = b = alpha
                    i = 0
                    j = last
                    while True:
                        while i <= j:
                            g = fw[i][f]
                            if g == UNDEF:
                                break
                            f = g
                            i += 1
                        if i > j:
                            if f != b:
                                collapses += coincidence(f, b)
                            break
                        while j >= i:
                            g = bw[j][b]
                            if g == UNDEF:
                                break
                            b = g
                            j -= 1
                        if j < i:
                            collapses += coincidence(f, b)
                            break
                        if j == i:
                            fw[i][f] = b
                            bw[i][b] = f
                            break
                        # define f.word[i] as a new coset
                        if n >= max_cosets:
                            return None, n, collapses
                        if n == cap:
                            cap = grow()
                        fw[i][f] = n
                        bw[i][n] = f
                        n += 1
                    if parent[alpha] != alpha:
                        break
                scans = relator_scans
                if parent[alpha] == alpha:
                    for col, inv in pairs:
                        if col[alpha] == UNDEF:
                            if n >= max_cosets:
                                return None, n, collapses
                            if n == cap:
                                cap = grow()
                            col[alpha] = n
                            inv[n] = alpha
                            n += 1
            alpha += 1
        live = [c for c in range(n) if parent[c] == c]
        closed = [[col[c] for c in live] for col in cols]
        if all(UNDEF not in column for column in closed):
            break
    # a dead coset's parent is a smaller coset, so one pass in order gives
    # every coset the new number of its live representative
    label = [0] * n
    k = 0
    for c in range(n):
        if parent[c] == c:
            label[c] = k
            k += 1
        else:
            label[c] = label[parent[c]]
    if not cols:
        return ((),), n, collapses
    rows = tuple(zip(*([label[e] for e in column] for column in closed)))
    return rows, n, collapses


def enumerate_cosets(
    P: FinitePresentation,
    subgroup: list[Word] | tuple[Word, ...] = (),
    max_cosets: int = Budgets.max_cosets,
) -> EnumerationVerdict:
    """Enumerate cosets of the subgroup generated by the given words.

    Kind "Completed" certifies the index; "Unknown" makes no claim.  The
    run is deterministic: definitions are made at the first undefined
    pair in scan order, with relators traced in presentation order.
    """
    if max_cosets <= 0:
        raise ValueError("max_cosets must be positive")
    relators = [P.encode(r) for r in P.relators]
    subgroup_words = [P.encode(w) for w in subgroup]

    rows, defined, collapses = _hlt(2 * len(P.alphabet), relators, subgroup_words, max_cosets)
    stats = (defined, collapses, max_cosets, tuple(subgroup))
    if rows is None:
        return EnumerationVerdict("Unknown", None, *stats)
    table = PermutationAssignment(len(rows), P.alphabet, tuple(zip(*rows))[::2])
    _verify_closed(P, subgroup, table)
    return EnumerationVerdict("Completed", len(rows), *stats, table)


def _verify_closed(P: FinitePresentation, subgroup, action: PermutationAssignment):
    """Certify the completion claim: a transitive action that closes every scan.

    The images must be permutations of the cosets, and every coset must
    be reachable from coset 0; only then does ``assignment_satisfies``,
    with every relator fixing every coset, prove [G : H] >= the table's
    size.  Every subgroup word must then fix coset 0.
    """
    n = action.degree
    if n == 0:
        raise CertificateError("coset table has no cosets")
    if not action.is_action():
        raise CertificateError("coset table column is not a permutation")
    # the images are permutations, so they reach the orbit of coset 0
    reached = [True] + [False] * (n - 1)
    stack = [0]
    while stack:
        c = stack.pop()
        for image in action.images:
            d = image[c]
            if not reached[d]:
                reached[d] = True
                stack.append(d)
    if not all(reached):
        raise CertificateError("coset not reachable from coset 0")
    if not assignment_satisfies(P, action):
        raise CertificateError("relator trace failed to close")
    for w in subgroup:
        c = 0
        for lt in P.encode(w):
            c = action.columns[lt][c]
        if c != 0:
            raise CertificateError("subgroup generator left coset 0")


def certify_trivial(
    P: FinitePresentation, max_cosets: int = Budgets.max_cosets, cyclic: Word | None = None
) -> EnumerationVerdict:
    """Trivial iff enumeration over the empty subgroup completes with index 1.

    Given ``cyclic`` = g, <g> is enumerated first: index 1 makes G = <g> cyclic,
    so G = H1(G), and a trivial H1 certifies G trivial with that run.  Any other
    outcome falls back to the trivial subgroup, whose index is also the order of G.
    """
    if cyclic is not None:
        result = enumerate_cosets(P, (cyclic,), max_cosets)
        if result.index == 1 and abelian_invariants(P).is_trivial():
            return replace(result, kind="Trivial")
    result = enumerate_cosets(P, (), max_cosets)
    if result.kind == "Unknown":
        return result
    return replace(result, kind="Trivial" if result.index == 1 else "NonTrivial")


def subgroup_membership(
    P: FinitePresentation,
    subgroup_gens: list[Word] | tuple[Word, ...],
    candidate: Word,
    max_cosets: int = Budgets.max_cosets,
) -> EnumerationVerdict:
    """Decide membership in a finitely generated subgroup, when the index is finite.

    With a completed table, the candidate lands on coset 0 iff it lies
    in the subgroup.  An overflow yields Unknown.
    """
    result = enumerate_cosets(P, tuple(subgroup_gens), max_cosets)
    if result.kind == "Unknown":
        return result
    coset = 0
    for lt in P.encode(candidate):
        coset = result.table.columns[lt][coset]
    return replace(result, kind="InSubgroup" if coset == 0 else "NotInSubgroup")
