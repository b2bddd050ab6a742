"""Independent oracles for the test suite.

Everything here is deliberately naive and shares no code with the
package: a straightforward elementary-operation diagonalization for
invariant factors (no transform tracking, first-nonzero pivoting), a
gcd-of-minors calculation as a second opinion, exact determinants,
brute-force permutation-group closure for group orders, all-rotations
relator keys over plain ``(name, sign)`` letter sequences, and a dense
Reidemeister-Schreier matrix, from a depth-first transversal, for the
invariants of a point stabilizer.

The exceptions are earlier versions of package code, kept as the
references the current code must match, so they build the package's
own presentations, words and verdicts: ``tietze_simplify_oracle`` (the
earlier Tietze program, matched move for move), ``substitute_oracle``
(one inversion per letter), ``s4_verdict_regular_oracle`` (the S4
verdict from regular coset enumeration alone),
``cord_kind_membership_first_oracle`` (the cord verdict kind with
membership run before the quotient search), ``as_meridian_power_oracle``
(the meridian exponent found by trying every power up to the cord's
length), ``sweep_slopes_oracle``
(the sweep grid's slopes, normalized one ``SlopeSpec`` at a time),
``find_noncyclic_quotient_oracle`` (the quotient search that composed
whole permutations of ``Word``s at every node, matched on whether a
witness exists and its degree), ``assignment_satisfies_oracle`` (the
relator check that composed those permutations, inverting a letter by
search) and ``hlt_oracle`` (the row-per-coset HLT kernel, matched
definition for definition on integer-coded words).
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import gcd, lcm

from pochette.abelian import hom_to_Z
from pochette.coset_enum import enumerate_cosets, subgroup_membership
from pochette.errors import CertificateError, InputError
from pochette.presentations import (
    FinitePresentation,
    PermutationAssignment,
    TietzeResult,
    assignment_satisfies,
)
from pochette.quotient_search import image_is_cyclic
from pochette.surgery import SlopeSpec, Verdict, linking_number, surgery_pi1
from pochette.words import Generator, MissingImage, Word, invert, substitute, word_to_text


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


def _print_key(w: Word) -> tuple[int, str]:
    return (len(w), word_to_text(w))


def _find_subword_rewrite_oracle(P: FinitePresentation):
    """Re-sorts the targets and rescans the variants for every cut."""
    order = sorted(range(len(P.relators)), key=lambda i: _print_key(P.relators[i]))
    for ri in order:
        r = P.relators[ri]
        length = len(r)
        if length == 0:
            continue
        variants: list[tuple] = []
        for base in (r.letters, invert(r).letters):
            for k in range(max(1, len(base))):
                rot = base[k:] + base[:k]
                if rot not in variants:
                    variants.append(rot)
        for cut in range(length, length // 2, -1):
            for variant in variants:
                u = variant[:cut]
                v_inv = tuple((g, -s) for g, s in reversed(variant[cut:]))
                for si in sorted(
                    (i for i in range(len(P.relators)) if i != ri),
                    key=lambda i: _print_key(P.relators[i]),
                ):
                    s = P.relators[si].letters
                    if len(s) < cut or len(s) + length - 2 * cut >= len(s):
                        continue
                    doubled = s + s
                    for start in range(len(s)):
                        if doubled[start : start + cut] == u:
                            rotated = s[start:] + s[:start]
                            return ri, si, Word(v_inv + rotated[cut:])
    return None


def _find_generator_elimination_oracle(P: FinitePresentation):
    """Rescans every relator for each (relator, generator) pair."""
    current_total = P.total_relator_length()
    order = sorted(range(len(P.relators)), key=lambda i: _print_key(P.relators[i]))
    for ri in order:
        r = P.relators[ri]
        for g in P.alphabet:
            occurrences = [k for k, (gen, _) in enumerate(r.letters) if gen == g]
            if len(occurrences) != 1:
                continue
            k = occurrences[0]
            rotated = r.letters[k:] + r.letters[:k]
            sign = rotated[0][1]
            w = Word(rotated[1:])
            image = invert(w) if sign == 1 else w
            uses = sum(
                sum(1 for gen, _ in rel.letters if gen == g)
                for i, rel in enumerate(P.relators)
                if i != ri
            )
            if current_total - len(r) + uses * (len(image) - 1) > current_total:
                continue
            return ri, g, image
    return None


def tietze_simplify_oracle(P: FinitePresentation, budget: int) -> TietzeResult:
    """The earlier Tietze loop: two copied move blocks, a second search at the end."""
    steps = 0
    current = P
    while steps < budget:
        rewrite = _find_subword_rewrite_oracle(current)
        if rewrite is not None:
            ri, si, new_word = rewrite
            relators = list(current.relators)
            relators[si] = new_word
            current = FinitePresentation(current.alphabet, tuple(relators))
            steps += 1
            continue
        elimination = _find_generator_elimination_oracle(current)
        if elimination is not None:
            ri, g, image = elimination
            images = {h: Word(((h, 1),)) for h in current.alphabet}
            images[g] = image
            relators = tuple(
                substitute(rel, images)
                for i, rel in enumerate(current.relators)
                if i != ri
            )
            alphabet = tuple(h for h in current.alphabet if h != g)
            current = FinitePresentation(alphabet, relators)
            steps += 1
            continue
        return TietzeResult(current, steps, budget_exhausted=False)
    more = (
        _find_subword_rewrite_oracle(current) is not None
        or _find_generator_elimination_oracle(current) is not None
    )
    return TietzeResult(current, steps, budget_exhausted=more)


def substitute_oracle(w: Word, images) -> Word:
    """substitute as it was, inverting the image again for every inverse letter."""
    letters = []
    for gen, sign in w.letters:
        if gen not in images:
            raise MissingImage(gen)
        image = images[gen] if sign == 1 else invert(images[gen])
        letters.extend(image.letters)
    return Word(tuple(letters))


def sweep_slopes_oracle(
    p_range: tuple[int, int], q_range: tuple[int, int]
) -> list[tuple[int, int]]:
    """The sweep grid's slopes, found by normalizing every grid point.

    A point is kept when its ``SlopeSpec`` normal form lies in the grid;
    duplicates go, and the rest are sorted.
    """
    out = set()
    for p in range(p_range[0], p_range[1] + 1):
        for q in range(q_range[0], q_range[1] + 1):
            try:
                slope = SlopeSpec(p, q)
            except InputError:
                continue
            if p_range[0] <= slope.p <= p_range[1] and q_range[0] <= slope.q <= q_range[1]:
                out.add((slope.p, slope.q))
    return sorted(out)


def s4_verdict_regular_oracle(data, slope, budgets):
    """The S4 verdict of a slope with |p + q*linking| = 1, by regular enumeration alone.

    The verdict branch as it was before the meridian subgroup was tried
    first: pi1 is enumerated over the trivial subgroup only, and the
    index of that subgroup is the order of pi1.
    """
    n = slope.p + slope.q * linking_number(data)
    enumeration = enumerate_cosets(surgery_pi1(data, slope), (), budgets.max_cosets)
    if enumeration.kind == "Unknown":
        return Verdict("Unknown", n)
    if enumeration.index == 1:
        return Verdict("HomeoS4Certified", n, pi1_index=1)
    return Verdict("NontrivialPi1", n, pi1_index=enumeration.index)


def stabilizer_invariants_oracle(P: FinitePresentation, a: PermutationAssignment):
    """(free rank, torsion) of H1 of the stabilizer of point 0 in a transitive action.

    The transversal is a depth-first search that steps along generators
    and their inverses; each (point, generator) off its tree is a column,
    and each relator read letter by letter from each point is a dense row.
    """
    tree: set[tuple[int, int]] = set()
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for g, image in enumerate(a.images):
            for y, edge in ((image[x], (x, g)), (image.index(x), (image.index(x), g))):
                if y not in seen:
                    seen.add(y)
                    tree.add(edge)
                    stack.append(y)
    cols = [(x, g) for x in range(a.degree) for g in range(len(a.images)) if (x, g) not in tree]
    index = {edge: j for j, edge in enumerate(cols)}
    rows = []
    for rel in P.relators:
        for start in range(a.degree):
            row = [0] * len(cols)
            x = start
            for gen, sign in rel.letters:
                g = P.alphabet.index(gen)
                image = a.images[g]
                if sign == -1:
                    x = image.index(x)
                if (x, g) in index:
                    row[index[x, g]] += sign
                if sign == 1:
                    x = image[x]
            rows.append(row)
    diag = snf_diagonal_oracle(rows) if rows and cols else []
    return len(cols) - sum(1 for d in diag if d), tuple(d for d in diag if d > 1)


def _word_perm(word: Word, images: dict[Generator, tuple[int, ...]], degree: int):
    """The permutation of range(degree) that ``word`` induces, one letter at a time."""
    acc = tuple(range(degree))
    for gen, sign in word.letters:
        p = images[gen]
        acc = tuple(p[x] if sign == 1 else p.index(x) for x in acc)
    return acc


def assignment_satisfies_oracle(P: FinitePresentation, a: PermutationAssignment) -> bool:
    """Every relator's permutation, composed letter by letter, is the identity.

    The images must be permutations of range(degree), one per generator.
    """
    points = set(range(a.degree))
    if len(a.images) != len(P.alphabet) or any(
        len(p) != a.degree or set(p) != points for p in a.images
    ):
        return False
    images = dict(zip(P.alphabet, a.images))
    identity = tuple(range(a.degree))
    return all(_word_perm(rel, images, a.degree) == identity for rel in P.relators)


def find_noncyclic_quotient_oracle(
    P: FinitePresentation, max_degree: int
) -> PermutationAssignment | None:
    """The earlier quotient search: each check composes the relator's whole permutation.

    Deterministic first-found order: lowest degree, then lexicographic
    assignment (generators in alphabet order, each image running through
    permutations in lexicographic order).  Partial assignments are
    pruned as soon as a fully supported relator fails.
    """
    gens = P.alphabet
    if not gens:
        return None
    # relators become checkable once all their generators have images
    checkpoint: list[list[Word]] = [[] for _ in gens]
    for rel in P.relators:
        last = max((gens.index(g) for g in rel.generators()), default=0)
        checkpoint[last].append(rel)
    for degree in range(2, max_degree + 1):
        perms = list(permutations(range(degree)))
        identity = tuple(range(degree))
        images: dict[Generator, tuple[int, ...]] = {}

        def backtrack(k: int) -> PermutationAssignment | None:
            if k == len(gens):
                assignment = PermutationAssignment(
                    degree, gens, tuple(images[g] for g in gens)
                )
                if not image_is_cyclic(assignment):
                    return assignment
                return None
            for p in perms:
                images[gens[k]] = p
                if all(
                    _word_perm(rel, images, degree) == identity
                    for rel in checkpoint[k]
                ):
                    found = backtrack(k + 1)
                    if found is not None:
                        return found
            del images[gens[k]]
            return None

        found = backtrack(0)
        if found is not None:
            if not assignment_satisfies(P, found):
                raise CertificateError("quotient witness violates a relator")
            return found
    return None


def as_meridian_power_oracle(cord: Word, meridian: Word) -> int | None:
    """Exponent k with cord == meridian^k as free words: every k up to the cord's length.

    Powers of a nonidentity reduced word grow strictly in length, so the
    scan terminates.
    """
    if not meridian:
        return 0 if not cord else None
    if not cord:
        return 0
    k = 1
    while len(meridian**k) <= len(cord):
        for exponent in (k, -k):
            if (meridian**exponent).letters == cord.letters:
                return exponent
        k += 1
    return None


def cord_kind_membership_first_oracle(P, meridian, cord, budgets) -> str:
    """The cord verdict kind from the earlier order: membership, then the search.

    The search is ``find_noncyclic_quotient_oracle``; it runs after a
    refuted membership, or after an overflow when the two-generator
    argument applies (two generators, meridian and cord distinct single
    letters, abelianization Z).
    """
    if as_meridian_power_oracle(cord, meridian) is not None:
        return "TrivialCordClass"
    membership = subgroup_membership(P, [meridian], cord, budgets.max_cosets)
    if membership.kind == "InSubgroup":
        return "TrivialCordClass"
    searched = membership.kind == "NotInSubgroup" or (
        len(P.alphabet) == 2
        and len(meridian) == len(cord) == 1
        and meridian.letters[0][0] != cord.letters[0][0]
        and hom_to_Z(P) is not None
    )
    if searched and find_noncyclic_quotient_oracle(P, budgets.quotient_degree):
        return "NontrivialCordCertified"
    return "Unknown"


UNDEF = -1


class _CosetBoundHit(Exception):
    """A definition was needed with max_cosets cosets already in the table."""


def hlt_oracle(
    nletters: int,
    relators: list[tuple[int, ...]],
    subgroup: list[tuple[int, ...]],
    max_cosets: int,
) -> tuple[tuple[tuple[int, ...], ...] | None, int, int]:
    """The earlier HLT kernel: a row per coset, ``table[coset][letter]``.

    Matched by ``coset_enum._hlt`` definition for definition, and in the
    partition and table after each coincidence.  It defers the merges a
    coincidence forces to a pending stack, where ``_hlt`` makes each at
    once, so it shows that the order of the merges does not matter.

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
