"""Todd-Coxeter coset enumeration (HLT strategy).

Relator tracing with immediate coincidence processing via union-find
collapse.  Completion certifies the subgroup index exactly; hitting the
coset bound is a verdict ("no claim"), not an error.

The method follows the classical presentation in Holt, Eick, O'Brien,
"Handbook of Computational Group Theory", ch. 5, with definitions made
at the first undefined (coset, signed generator) pair in scan order.
A coincidence merges each pair it forces at once (HEO §5.1); whatever
the order of the merges, it leaves the quotient by the same congruence.
One sweep over the cosets closes the table (HEO §5.2): coincidence
processing restores every entry it clears, so a processed coset's row
stays complete and its scans stay closed.
A scan of a freely reduced word whose two ends differ defines its whole
gap in one run: the scan loop's definitions, in its order (see ``_hlt``).
While it runs the table is kept by column, one list per signed letter
indexed by coset, and every relator and subgroup word is compiled once
to its lists of columns.  The statistics a report prints (cosets
defined, collapses) are those of the row-per-coset layout.  The kernel
hands a closed table over once, as ``(degree, columns)`` over the live
cosets; ``enumerate_cosets`` keeps the generators' columns as the
``PermutationAssignment`` on the cosets, coset 0 the subgroup, and
``_verify_closed`` re-checks it:
a transitive permutation action that ``assignment_satisfies`` accepts,
in which every subgroup word fixes coset 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import compress, count, repeat
from math import inf
from operator import eq, xor

from .abelian import AbelianInvariants, stabilizer_invariants
from .budgets import Budgets
from .errors import CertificateError
from .presentations import FinitePresentation, PermutationAssignment, assignment_satisfies
from .words import IDENTITY, Word

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
    certify_trivial also gives stabilizer, H1 of that subgroup.
    """

    kind: str
    index: int | None
    cosets_defined: int
    collapses: int
    max_cosets: int
    table: PermutationAssignment | None = field(default=None, compare=False, repr=False)
    stabilizer: AbelianInvariants | None = None


def _hlt(
    nletters: int,
    relators: tuple[tuple[int, ...], ...],
    subgroup: list[tuple[int, ...]],
    max_cosets: int,
) -> tuple[tuple[int, tuple[tuple[int, ...], ...]] | None, int, int]:
    """Run the HLT main loop.

    Returns (closed, defined, collapses); closed is None when the coset
    bound was hit.  Otherwise closed is ``(degree, columns)``, the table
    over the live cosets after one sweep, renumbered in order, with one
    column per letter, ``columns[lt][coset]``: every relator and
    subgroup-generator scan closes, which ``_verify_closed`` checks.
    Dead cosets keep their numbers while the kernel runs, so ``defined``
    is the number of cosets ever made.

    The table is kept by column, ``cols[lt][coset]``, and each word is
    compiled to its forward columns and to the inverse letters' columns
    for the backward scan, so a scan step is ``f = fw[i][f]``.  Columns
    grow in place, in chunks, so the compiled lists stay valid.  A scan
    first walks forward from its coset, keeping no index: defined all the
    way, it only closes or forces a coincidence.  At an undefined entry
    it starts over from its coset, alpha, with i = 0, in the loop of
    forward, backward and defining steps, whose forward steps re-walk the
    defined prefix (1.5 letters on average on the order-10752 group).

    A scan that stops at a gap word[i:j] defines f.word[i] and scans on;
    on a freely reduced word (``compile_scan`` marks it) with ends f != b
    it defines the whole gap in one run, then deduces f.word[j] = b.  A
    new coset's row holds only word[k]^-1, so the loop would stop at it
    again, and no entry of the run is in b's row: so the loop makes the
    same definitions, and overflows at the same bound.
    """
    cap = min(max_cosets, 256)
    cols = [[UNDEF] * cap for _ in range(nletters)]
    parent = list(range(cap))
    pairs = [(cols[lt], cols[lt ^ 1]) for lt in range(nletters)]
    n = 1
    collapses = 0

    def compile_scan(word: tuple[int, ...]):
        reduced = not any(map(eq, word[1:], map(xor, word, repeat(1))))
        return [cols[lt] for lt in word], [cols[lt ^ 1] for lt in word], len(word) - 1, reduced

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

        HEO §5.1's COINCIDENCE: each forced pair is merged when it is found,
        and a dead coset's row moves to its representative, re-read when a
        merge kills it.  Cosets x and y are live and distinct.
        """
        if x > y:
            x, y = y, x
        parent[y] = x
        dead = [y]
        for gamma in dead:
            mu = parent[gamma]
            mu = mu if parent[mu] == mu else rep(mu)
            for col, inv in pairs:
                delta = col[gamma]
                if delta < 0:
                    continue
                inv[delta] = UNDEF
                nu = delta if parent[delta] == delta else rep(delta)
                x, y = col[mu], nu
                if x < 0:
                    x, y = inv[nu], mu
                    if x < 0:
                        col[mu] = nu
                        inv[nu] = mu
                        continue
                x = x if parent[x] == x else rep(x)
                if x == y:
                    continue
                if x > y:
                    x, y = y, x
                parent[y] = x
                dead.append(y)
                if y == mu:
                    mu = x
        return len(dead)

    relator_scans = [compile_scan(w) for w in relators]
    # coset 0 never dies, so its first visit scans the subgroup words first
    scans = [compile_scan(w) for w in subgroup] + relator_scans
    # one sweep: each live coset scans the relators, then fills its row, and
    # coincidence processing restores every entry it clears before it returns
    alpha = 0
    while alpha < n:
        if parent[alpha] == alpha:
            for fw, bw, last, reduced in scans:
                f = alpha
                for col in fw:
                    f = col[f]
                    if f < 0:
                        break
                else:
                    if f != alpha:
                        collapses += coincidence(f, alpha)
                        if parent[alpha] != alpha:
                            break
                    continue
                # the walk kept no index: the loop below re-walks from alpha
                f = b = alpha
                i = 0
                j = last
                while True:
                    while i <= j:
                        g = fw[i][f]
                        if g < 0:
                            break
                        f = g
                        i += 1
                    if i > j:
                        if f != b:
                            collapses += coincidence(f, b)
                        break
                    while j >= i:
                        g = bw[j][b]
                        if g < 0:
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
                    # define f.word[i] as a new coset, or the whole gap in one
                    # run: the loop's definitions (see the docstring)
                    run = reduced and f != b
                    stop = j if run else i + 1
                    if n + stop - i > max_cosets:
                        return None, max_cosets, collapses
                    while cap < n + stop - i:
                        cap = grow()
                    for k in range(i, stop):
                        fw[k][f] = n
                        bw[k][n] = f
                        f = n
                        n += 1
                    if run:
                        fw[j][f] = b
                        bw[j][b] = f
                        break
                    i = stop
                if parent[alpha] != alpha:
                    break
            scans = relator_scans
            if parent[alpha] == alpha:
                for col, inv in pairs:
                    if col[alpha] < 0:
                        if n >= max_cosets:
                            return None, n, collapses
                        if n == cap:
                            cap = grow()
                        col[alpha] = n
                        inv[n] = alpha
                        n += 1
        alpha += 1
    live = list(compress(range(n), map(eq, parent, range(n))))
    # a live row names live cosets only; UNDEF stands in for any other, and
    # for an entry left undefined, which _verify_closed rejects
    label = dict(zip(live, count()))
    columns = tuple(
        tuple(map(label.get, map(col.__getitem__, live), repeat(UNDEF))) for col in cols
    )
    return (len(live), columns), n, collapses


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
    subgroup_words = [P.encode(w) for w in subgroup]
    closed, defined, collapses = _hlt(
        2 * len(P.alphabet), P.relator_codes, subgroup_words, max_cosets
    )
    if closed is None:
        return EnumerationVerdict("Unknown", None, defined, collapses, max_cosets)
    degree, columns = closed
    table = PermutationAssignment(degree, P.alphabet, columns[::2])
    _verify_closed(P, subgroup, table)
    return EnumerationVerdict("Completed", degree, defined, collapses, max_cosets, table)


def _verify_closed(P: FinitePresentation, subgroup, action: PermutationAssignment):
    """Certify the completion claim: a transitive action that closes every scan.

    The images must be permutations of the cosets, and every coset must
    be reachable from coset 0; only then does ``assignment_satisfies``,
    with every relator fixing every coset, prove [G : H] >= the table's
    size.  Every subgroup word must then fix coset 0.
    """
    if action.degree == 0:
        raise CertificateError("coset table has no cosets")
    if not action.is_action:
        raise CertificateError("coset table column is not a permutation")
    # the images are permutations, so their walk reaches the orbit of coset 0
    if len(action.spanning_tree) != action.degree - 1:
        raise CertificateError("coset not reachable from coset 0")
    if not assignment_satisfies(P, action):
        raise CertificateError("relator trace failed to close")
    if any(action.walk(P.encode(w)) for w in subgroup):
        raise CertificateError("subgroup generator left coset 0")


def certify_trivial(
    P: FinitePresentation, max_cosets: int = Budgets.max_cosets, cyclic: Word = IDENTITY
) -> EnumerationVerdict:
    """Whether G is trivial, from one enumeration: of the cosets of <cyclic>.

    A cyclic group is its own H1, so |G| = index * |H1 of the stabilizer
    of coset 0|, which ``stabilizer_invariants`` reads off the table;
    "Trivial" iff that is 1, and an overflow is "Unknown".  The default,
    the identity, enumerates the trivial subgroup.  Above index 1, where G
    is not trivial anyway, the elimination may rewrite, by row and column
    moves, as many entries as a full table of max_cosets cosets holds, and
    past that stabilizer is None.
    """
    result = enumerate_cosets(P, (cyclic,), max_cosets)
    if result.kind == "Unknown":
        return result
    bound = max_cosets * len(P.alphabet) if result.index > 1 else inf
    stabilizer = stabilizer_invariants(P, result.table, bound)
    trivial = result.index == 1 and stabilizer.is_trivial()
    return replace(result, kind="Trivial" if trivial else "NonTrivial", stabilizer=stabilizer)


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
    coset = result.table.walk(P.encode(candidate))
    return replace(result, kind="InSubgroup" if coset == 0 else "NotInSubgroup")
