"""Todd-Coxeter coset enumeration (HLT strategy).

Relator tracing with immediate coincidence processing via union-find
collapse.  Completion certifies the subgroup index exactly; hitting the
coset bound is a verdict ("no claim"), not an error.

The table layout follows the classical presentation in Holt, Eick,
O'Brien, "Handbook of Computational Group Theory", ch. 5: one row per
coset, one column per signed generator, with definitions made at the
first undefined (coset, signed generator) pair in scan order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .abelian import abelian_invariants
from .budgets import Budgets
from .errors import CertificateError
from .presentations import FinitePresentation
from .words import Word

__all__ = [
    "CosetTable",
    "EnumerationVerdict",
    "enumerate_cosets",
    "certify_trivial",
    "subgroup_membership",
]

UNDEF = -1


@dataclass(frozen=True)
class CosetTable:
    """Closed coset table: rows[c][2*g] = c.g, rows[c][2*g+1] = c.g^-1.

    Coset 0 is the subgroup itself; every entry is defined.
    """

    alphabet: tuple
    rows: tuple[tuple[int, ...], ...]

    @cached_property
    def _columns(self) -> dict:
        """Signed letter (generator, sign) -> table column."""
        return {
            (g, sign): 2 * i + (0 if sign == 1 else 1)
            for i, g in enumerate(self.alphabet)
            for sign in (1, -1)
        }

    def trace(self, coset: int, word: Word) -> int:
        columns = self._columns
        for letter in word.letters:
            coset = self.rows[coset][columns[letter]]
        return coset


@dataclass(frozen=True)
class EnumerationVerdict:
    """The outcome of one coset enumeration, with its statistics.

    kind is "Completed" from enumerate_cosets, "Trivial" | "NonTrivial"
    from certify_trivial and "InSubgroup" | "NotInSubgroup" from
    subgroup_membership.  Any of the three gives "Unknown" when the
    enumeration hit max_cosets; index and table are then None.
    Otherwise table is the closed table that certified the index.
    subgroup holds the words whose subgroup's cosets were enumerated.
    """

    kind: str
    index: int | None
    cosets_defined: int
    collapses: int
    max_cosets: int
    subgroup: tuple[Word, ...] = ()
    table: CosetTable | None = field(default=None, compare=False, repr=False)


def _encode(word: Word, position: dict) -> tuple[int, ...]:
    return tuple(
        2 * position[gen] + (0 if sign == 1 else 1) for gen, sign in word.letters
    )


class _CosetBoundHit(Exception):
    """A definition was needed with max_cosets cosets already in the table."""


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
    scan closes.  Dead rows stay in the table, so ``defined`` is its
    length.
    """
    table: list[list[int]] = [[UNDEF] * nletters]
    parent: list[int] = [0]
    collapses = 0

    def rep(k: int) -> int:
        r = k
        while parent[r] != r:
            r = parent[r]
        while parent[k] != r:
            parent[k], k = r, parent[k]
        return r

    def define(coset: int, lt: int):
        """Make coset.lt a fresh coset; raise _CosetBoundHit at the bound."""
        beta = len(table)
        if beta >= max_cosets:
            raise _CosetBoundHit
        table.append([UNDEF] * nletters)
        parent.append(beta)
        table[coset][lt] = beta
        table[beta][lt ^ 1] = coset

    def coincidence(x: int, y: int):
        nonlocal collapses
        pending = [(x, y)]
        dead: list[int] = []
        head = 0
        while True:
            while pending:
                x, y = pending.pop()
                x, y = rep(x), rep(y)
                if x == y:
                    continue
                if x > y:
                    x, y = y, x
                parent[y] = x
                collapses += 1
                dead.append(y)
            if head == len(dead):
                return
            gamma = dead[head]
            head += 1
            row = table[gamma]
            for lt in range(nletters):
                delta = row[lt]
                if delta == UNDEF:
                    continue
                table[delta][lt ^ 1] = UNDEF
                mu = rep(gamma)
                nu = rep(delta)
                if table[mu][lt] != UNDEF:
                    pending.append((nu, table[mu][lt]))
                elif table[nu][lt ^ 1] != UNDEF:
                    pending.append((mu, table[nu][lt ^ 1]))
                else:
                    table[mu][lt] = nu
                    table[nu][lt ^ 1] = mu

    def scan_and_fill(alpha: int, word: tuple[int, ...]):
        f = alpha
        i = 0
        b = alpha
        j = len(word) - 1
        while True:
            while i <= j and table[f][word[i]] != UNDEF:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][word[j] ^ 1] != UNDEF:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            define(f, word[i])

    try:
        for word in subgroup:
            scan_and_fill(0, word)
        # Coincidences may re-open entries of already-processed cosets, so
        # sweep until a pass leaves every live row closed.
        while True:
            alpha = 0
            while alpha < len(table):
                if parent[alpha] == alpha:
                    for word in relators:
                        scan_and_fill(alpha, word)
                        if parent[alpha] != alpha:
                            break
                    if parent[alpha] == alpha:
                        for lt in range(nletters):
                            if table[alpha][lt] == UNDEF:
                                define(alpha, lt)
                alpha += 1
            live = [c for c in range(len(table)) if parent[c] == c]
            if all(UNDEF not in table[c] for c in live):
                break
    except _CosetBoundHit:
        return None, len(table), collapses
    relabel = {c: i for i, c in enumerate(live)}
    rows = tuple(tuple(relabel[rep(entry)] for entry in table[c]) for c in live)
    return rows, len(table), collapses


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
    position = {g: i for i, g in enumerate(P.alphabet)}
    nletters = 2 * len(P.alphabet)
    relators = [_encode(r, position) for r in P.relators]
    subgroup_words = [_encode(w, position) for w in subgroup]

    rows, defined, collapses = _hlt(nletters, relators, subgroup_words, max_cosets)
    stats = (defined, collapses, max_cosets, tuple(subgroup))
    if rows is None:
        return EnumerationVerdict("Unknown", None, *stats)
    table = CosetTable(P.alphabet, rows)
    _verify_closed(P, subgroup, table)
    return EnumerationVerdict("Completed", len(rows), *stats, table)


def _verify_closed(P: FinitePresentation, subgroup, table: CosetTable):
    """Certify the completion claim: all scans must return to their start."""
    for c in range(len(table.rows)):
        for rel in P.relators:
            if table.trace(c, rel) != c:
                raise CertificateError("relator trace failed to close")
    for w in subgroup:
        if table.trace(0, w) != 0:
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
    inside = result.table.trace(0, candidate) == 0
    return replace(result, kind="InSubgroup" if inside else "NotInSubgroup")
