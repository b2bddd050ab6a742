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

from dataclasses import dataclass

from .errors import CertificateError
from .presentations import FinitePresentation
from .words import Word

__all__ = [
    "DEFAULT_MAX_COSETS",
    "CosetTable",
    "Completed",
    "Overflow",
    "EnumerationResult",
    "enumerate_cosets",
    "TrivialityVerdict",
    "certify_trivial",
    "MembershipVerdict",
    "subgroup_membership",
]

DEFAULT_MAX_COSETS = 100_000

UNDEF = -1


@dataclass(frozen=True)
class CosetTable:
    """Closed coset table: rows[c][2*g] = c.g, rows[c][2*g+1] = c.g^-1.

    Coset 0 is the subgroup itself; every entry is defined.
    """

    alphabet: tuple
    rows: tuple[tuple[int, ...], ...]

    def trace(self, coset: int, word: Word) -> int:
        index = {g: i for i, g in enumerate(self.alphabet)}
        for gen, sign in word.letters:
            column = 2 * index[gen] + (0 if sign == 1 else 1)
            coset = self.rows[coset][column]
        return coset


@dataclass(frozen=True)
class Completed:
    index: int
    table: CosetTable
    cosets_defined: int
    collapses: int


@dataclass(frozen=True)
class Overflow:
    max_cosets: int
    cosets_defined: int
    collapses: int


EnumerationResult = Completed | Overflow


def _encode(word: Word, position: dict) -> tuple[int, ...]:
    return tuple(
        2 * position[gen] + (0 if sign == 1 else 1) for gen, sign in word.letters
    )


def _hlt(
    nletters: int,
    relators: list[tuple[int, ...]],
    subgroup: list[tuple[int, ...]],
    max_cosets: int,
) -> tuple[list[list[int]] | None, list[int], int, int]:
    """Run the HLT main loop.

    Returns (table, parent, defined, collapses); table is None when the
    coset bound was hit.  On success every live row is fully defined and
    all relator and subgroup-generator scans close.
    """
    table: list[list[int]] = [[UNDEF] * nletters]
    parent: list[int] = [0]
    defined = 1
    collapses = 0
    overflowed = False

    def rep(k: int) -> int:
        r = k
        while parent[r] != r:
            r = parent[r]
        while parent[k] != r:
            parent[k], k = r, parent[k]
        return r

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
        nonlocal defined, overflowed
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
            # fill: define f.word[i] as a fresh coset
            if len(table) >= max_cosets:
                overflowed = True
                return
            beta = len(table)
            table.append([UNDEF] * nletters)
            parent.append(beta)
            defined += 1
            table[f][word[i]] = beta
            table[beta][word[i] ^ 1] = f

    for word in subgroup:
        scan_and_fill(0, word)
        if overflowed:
            return None, parent, defined, collapses

    # Coincidences may re-open entries of already-processed cosets, so
    # sweep until a pass leaves every live row closed.
    while True:
        alpha = 0
        while alpha < len(table):
            if parent[alpha] == alpha:
                for word in relators:
                    scan_and_fill(alpha, word)
                    if overflowed:
                        return None, parent, defined, collapses
                    if parent[alpha] != alpha:
                        break
                if parent[alpha] == alpha:
                    for lt in range(nletters):
                        if table[alpha][lt] == UNDEF:
                            if len(table) >= max_cosets:
                                return None, parent, defined, collapses
                            beta = len(table)
                            table.append([UNDEF] * nletters)
                            parent.append(beta)
                            defined += 1
                            table[alpha][lt] = beta
                            table[beta][lt ^ 1] = alpha
            alpha += 1
        closed = all(
            UNDEF not in table[c]
            for c in range(len(table))
            if parent[c] == c
        )
        if closed:
            return table, parent, defined, collapses


def enumerate_cosets(
    P: FinitePresentation,
    subgroup: list[Word] | tuple[Word, ...] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> EnumerationResult:
    """Enumerate cosets of the subgroup generated by the given words.

    Completed(n) certifies index n; Overflow makes no claim.  The run is
    deterministic: definitions are made at the first undefined pair in
    scan order, with relators traced in presentation order.
    """
    if max_cosets <= 0:
        raise ValueError("max_cosets must be positive")
    position = {g: i for i, g in enumerate(P.alphabet)}
    nletters = 2 * len(P.alphabet)
    relators = [_encode(r, position) for r in P.relators]
    subgroup_words = [_encode(w, position) for w in subgroup]

    table, parent, defined, collapses = _hlt(
        nletters, relators, subgroup_words, max_cosets
    )
    if table is None:
        return Overflow(max_cosets, defined, collapses)

    def rep(k: int) -> int:
        while parent[k] != k:
            k = parent[k]
        return k

    live = [c for c in range(len(table)) if parent[c] == c]
    relabel = {c: i for i, c in enumerate(live)}
    rows = tuple(
        tuple(relabel[rep(entry)] for entry in table[c]) for c in live
    )
    result = Completed(len(live), CosetTable(P.alphabet, rows), defined, collapses)
    _verify_closed(P, subgroup, result.table)
    return result


def _verify_closed(P: FinitePresentation, subgroup, table: CosetTable):
    """Certify the completion claim: all scans must return to their start."""
    for c in range(len(table.rows)):
        for rel in P.relators:
            if table.trace(c, rel) != c:
                raise CertificateError("relator trace failed to close")
    for w in subgroup:
        if table.trace(0, w) != 0:
            raise CertificateError("subgroup generator left coset 0")


@dataclass(frozen=True)
class TrivialityVerdict:
    kind: str  # "Trivial" | "NonTrivial" | "Unknown"
    index: int | None = None
    cosets_defined: int = 0
    collapses: int = 0
    max_cosets: int = DEFAULT_MAX_COSETS

    def is_trivial(self) -> bool:
        return self.kind == "Trivial"


def certify_trivial(
    P: FinitePresentation, max_cosets: int = DEFAULT_MAX_COSETS
) -> TrivialityVerdict:
    """Trivial iff enumeration over the empty subgroup completes with index 1."""
    result = enumerate_cosets(P, (), max_cosets)
    if isinstance(result, Overflow):
        return TrivialityVerdict(
            "Unknown", None, result.cosets_defined, result.collapses, max_cosets
        )
    kind = "Trivial" if result.index == 1 else "NonTrivial"
    return TrivialityVerdict(
        kind, result.index, result.cosets_defined, result.collapses, max_cosets
    )


@dataclass(frozen=True)
class MembershipVerdict:
    kind: str  # "InSubgroup" | "NotInSubgroup" | "Unknown"
    subgroup_index: int | None = None
    cosets_defined: int = 0
    collapses: int = 0
    max_cosets: int = DEFAULT_MAX_COSETS


def subgroup_membership(
    P: FinitePresentation,
    subgroup_gens: list[Word] | tuple[Word, ...],
    candidate: Word,
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> MembershipVerdict:
    """Decide membership in a finitely generated subgroup, when the index is finite.

    With a completed table, the candidate lands on coset 0 iff it lies
    in the subgroup.  Overflow yields Unknown.
    """
    result = enumerate_cosets(P, tuple(subgroup_gens), max_cosets)
    if isinstance(result, Overflow):
        return MembershipVerdict(
            "Unknown", None, result.cosets_defined, result.collapses, max_cosets
        )
    landed = result.table.trace(0, candidate)
    kind = "InSubgroup" if landed == 0 else "NotInSubgroup"
    return MembershipVerdict(
        kind, result.index, result.cosets_defined, result.collapses, max_cosets
    )
