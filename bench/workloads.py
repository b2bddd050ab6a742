"""Seeded workloads: the queries one pass runs and the checks on their reports.

Inputs are generated here, from the seed alone, and written as source
files; the program sees only those files and the command lines.  The
generators are the benchmark's own, so a change to the package's
random-instance helpers cannot change the workload.

Each query is one ``pochette`` command line plus a check that turns its
JSON report into a Tally: the problems found (any problem fails the
query), how many verdicts it decided, how many of those are
certificates, and how many slopes it covered.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from typing import Callable

WORKLOADS = ("sweep-grid", "s4-certify", "group-tools")

S4_KINDS = ("HomeoS4Certified", "NontrivialPi1", "Unknown")
S4_CERTIFICATES = ("HomeoS4Certified", "NontrivialPi1")
CORD_CERTIFICATES = ("TrivialCordClass", "NontrivialCordCertified")

SPUN_TREFOIL = "gens: x, y\nrels: y x^-1 y x y^-1 x"
ORDER_10752 = "gens: a, b\nrels: a^8 ; b^7 ; a b a b ; a^-1 b a^-1 b a^-1 b"


@dataclass
class Tally:
    problems: list[str] = field(default_factory=list)
    decisions: int = 0
    certified: int = 0
    slopes: int = 0


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    check: Callable[[dict], Tally]


# ---------------------------------------------------------------- inputs

# Random instances whose cost varies from one draw to the next (fusion
# knots, one-fusion knots) come from a fixed pool drawn once from this
# seed; the workload seed relabels and reorders them.  That keeps every
# seed's inputs distinct while the problems, and so the work, stay the
# same, so the spread between seeds measures the machine, not the draw.
POOL_SEED = "pochette-bench-pool"

Letters = list[tuple[str, int]]


def _letter_text(name: str, sign: int) -> str:
    return name if sign == 1 else f"{name}^-1"


def _word_text(letters: Letters, sep: str = " ") -> str:
    return sep.join(_letter_text(n, s) for n, s in letters) or "1"


def _inverse(letters: Letters) -> Letters:
    return [(n, -s) for n, s in reversed(letters)]


@dataclass(frozen=True)
class Fusion:
    """n fusion bands on disks 1..n+1; band words are over x1..x{n+1}."""

    n: int
    bands: tuple[tuple[tuple[tuple[int, int], ...], int, int], ...]

    @staticmethod
    def draw(rng: random.Random, n: int, max_word_len: int = 4) -> "Fusion":
        """A random tree on the disks with random band words."""
        edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 2)]
        rng.shuffle(edges)
        bands = []
        for i, j in edges:
            if rng.random() < 0.5:
                i, j = j, i
            word = tuple(
                (rng.randint(1, n + 1), rng.choice((1, -1)))
                for _ in range(rng.randint(0, max_word_len))
            )
            bands.append((word, i, j))
        return Fusion(n, tuple(bands))

    def relabeled(self, rng: random.Random) -> "Fusion":
        """The same knot with its disks renumbered and its bands reordered."""
        image = list(range(1, self.n + 2))
        rng.shuffle(image)
        bands = [
            (tuple((image[g - 1], s) for g, s in word), image[i - 1], image[j - 1])
            for word, i, j in self.bands
        ]
        rng.shuffle(bands)
        return Fusion(self.n, tuple(bands))

    def text(self) -> str:
        lines = [f"n: {self.n}"]
        for word, i, j in self.bands:
            lines.append(f"band: {_word_text([(f'x{g}', s) for g, s in word])} {i} {j}")
        return "\n".join(lines) + "\n"


def reduced_word(rng: random.Random, length: int) -> Letters:
    """Freely reduced word over x, y of the given length using both letters."""
    while True:
        letters: Letters = []
        while len(letters) < length:
            letter = (rng.choice("xy"), rng.choice((1, -1)))
            if letters and letters[-1] == (letter[0], -letter[1]):
                continue
            letters.append(letter)
        if {n for n, _ in letters} == {"x", "y"}:
            return letters


def _pool():
    rng = random.Random(POOL_SEED)
    sweep_fusion = Fusion.draw(rng, 10)
    simplify_fusions = [Fusion.draw(rng, 10) for _ in range(4)]
    one_fusions = [(reduced_word(rng, rng.randint(4, 6)), rng.choice((1, -1))) for _ in range(8)]
    return sweep_fusion, simplify_fusions, one_fusions


# ---------------------------------------------------------------- checks


def _cyclic_text(n: int) -> str:
    """The package's printed form of Z/|n| (Z for n = 0, 0 for |n| = 1)."""
    if n == 0:
        return "Z"
    return "0" if abs(n) == 1 else f"Z/{abs(n)}"


def _exponent_sums(word_text: str) -> Counter:
    sums: Counter = Counter()
    for factor in word_text.replace("*", " ").split():
        name, _, exp = factor.partition("^")
        if name != "1":
            sums[name] += int(exp) if exp else 1
    return sums


def sweep_check(ell: int, p_range: tuple[int, int], q_range: tuple[int, int]):
    """Rows cover every coprime slope; each verdict follows from |p + q*ell|."""
    expected = {
        (p, q)
        for p in range(p_range[0], p_range[1] + 1)
        for q in range(q_range[0], q_range[1] + 1)
        if gcd(p, q) == 1
    }

    def check(report: dict) -> Tally:
        tally = Tally(slopes=len(report["rows"]))
        slopes = [(row["p"], row["q"]) for row in report["rows"]]
        if len(slopes) != len(expected) or set(slopes) != expected:
            tally.problems.append("sweep rows do not cover the coprime slopes of the grid")
        for row in report["rows"]:
            n = row["p"] + row["q"] * ell
            where = f"slope {row['p']}/{row['q']}"
            if row["p_plus_q_ell"] != n:
                tally.problems.append(f"{where}: p+q*ell is {row['p_plus_q_ell']}, not {n}")
            h2 = "Z^2" if n == 0 else _cyclic_text(n)
            if row["h1"] != _cyclic_text(n) or row["h2"] != h2:
                tally.problems.append(f"{where}: homology {row['h1']}, {row['h2']}")
            if abs(n) != 1:
                if row["verdict"] != "NotHomotopySphere":
                    tally.problems.append(f"{where}: verdict {row['verdict']} with |n| != 1")
                continue
            tally.decisions += 1
            tally.certified += row["verdict"] in S4_CERTIFICATES
            if row["verdict"] not in S4_KINDS:
                tally.problems.append(f"{where}: verdict {row['verdict']} with |n| = 1")
            if row["verdict"] == "HomeoS4Certified" and row["pi1_index"] != 1:
                tally.problems.append(f"{where}: HomeoS4Certified with pi1_index {row['pi1_index']}")
        return tally

    return check


def surger_check(p: int, q: int, ell: int):
    """An S4-branch slope: homology of S4, a consistent verdict, the right relator."""
    n = p + q * ell

    def check(report: dict) -> Tally:
        tally = Tally(decisions=1, slopes=1)
        verdict = report["verdict"]
        tally.certified = verdict["kind"] in S4_CERTIFICATES
        if (report["slope"]["p"], report["slope"]["q"]) != (p, q):
            tally.problems.append(f"slope echoed as {report['slope']}")
        if report["linking"] != ell or report["p_plus_q_ell"] != n:
            tally.problems.append(f"linking {report['linking']}, n {report['p_plus_q_ell']}")
        if report["homology"] != ["Z", "0", "0", "0", "Z"]:
            tally.problems.append(f"homology {report['homology']} is not that of S4")
        if verdict["kind"] not in S4_KINDS:
            tally.problems.append(f"verdict {verdict['kind']}")
        if verdict["kind"] == "HomeoS4Certified" and verdict["pi1_index"] != 1:
            tally.problems.append(f"HomeoS4Certified with pi1_index {verdict['pi1_index']}")
        if verdict["kind"] == "NontrivialPi1" and not verdict["pi1_index"] > 1:
            tally.problems.append(f"NontrivialPi1 with pi1_index {verdict['pi1_index']}")
        surgery_relator = report["presentation"]["rels"].split(" ; ")[-1]
        sums = _exponent_sums(surgery_relator)
        if (sums["x"], sums["y"]) != (p, q):
            tally.problems.append(f"surgery relator has exponent sums {dict(sums)}")
        return tally

    return check


def enumerate_check(index: int):
    def check(report: dict) -> Tally:
        tally = Tally(decisions=1, certified=report["outcome"] == "Completed")
        if report["outcome"] != "Completed" or report["index"] != index:
            tally.problems.append(f"{report['outcome']} with index {report['index']}, not {index}")
        return tally

    return check


def cord_check(presentation_text: str, cord_is_trivial: bool | None = None):
    """A reported witness must satisfy every relator and have a non-cyclic image.

    cord_is_trivial, when known, rules out the opposite certificate.
    """

    def check(report: dict) -> Tally:
        from pochette.presentations import parse_presentation
        from pochette.quotient_search import (
            PermutationAssignment,
            assignment_satisfies,
            image_is_cyclic,
        )

        tally = Tally(decisions=1, certified=report["verdict"] in CORD_CERTIFICATES)
        if cord_is_trivial is not None and report["verdict"] == (
            "NontrivialCordCertified" if cord_is_trivial else "TrivialCordClass"
        ):
            tally.problems.append(f"verdict {report['verdict']} is false for this cord")
        witness = report["witness"]
        if witness is not None:
            P = parse_presentation(presentation_text)
            images = tuple(tuple(witness["images"][g.name]) for g in P.alphabet)
            assignment = PermutationAssignment(witness["degree"], P.alphabet, images)
            if not assignment_satisfies(P, assignment):
                tally.problems.append("witness does not satisfy the relators")
            if image_is_cyclic(assignment):
                tally.problems.append("witness image is cyclic")
        elif report["verdict"] == "NontrivialCordCertified":
            tally.problems.append("NontrivialCordCertified without a witness")
        return tally

    return check


def simplify_check(report: dict) -> Tally:
    """Tietze moves keep the abelianization and never lengthen the relators."""
    from pochette.abelian import abelian_invariants
    from pochette.presentations import parse_presentation

    tally = Tally()
    before, after = (
        parse_presentation(f"gens: {side['gens']}\nrels: {side['rels']}")
        for side in (report["before"], report["after"])
    )
    if abelian_invariants(before) != abelian_invariants(after):
        tally.problems.append("simplify changed the abelian invariants")
    if after.total_relator_length() > before.total_relator_length():
        tally.problems.append("simplify lengthened the relators")
    return tally


def abelianize_check(report: dict) -> Tally:
    """A ribbon knot group (fusion bands on a tree) abelianizes to Z."""
    tally = Tally()
    if (report["invariants"], report["free_rank"], report["torsion"]) != ("Z", 1, []):
        tally.problems.append(f"abelianization {report['invariants']} is not Z")
    return tally


# ---------------------------------------------------------------- workloads


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _sweep_grid(rng: random.Random, workdir: Path) -> list[Query]:
    # Each grid is split into sweeps of three p values, so that per-query
    # latency has enough samples; the union is the grid itself.
    fusion, _, _ = _pool()
    source = "fusion:" + _write(workdir / "fusion10.txt", fusion.relabeled(rng).text())
    grids = (
        ("spun-trefoil", -1, (1, 39), (-40, 40)),
        (source, 1, (1, 24), (1, 24)),
    )
    queries = []
    for source, ell, (p_lo, p_hi), q_range in grids:
        for lo in range(p_lo, p_hi + 1, 3):
            p_range = (lo, min(lo + 2, p_hi))
            argv = (
                "sweep", source,
                f"--p-range={p_range[0]}:{p_range[1]}",
                f"--q-range={q_range[0]}:{q_range[1]}",
                "--format=json",
            )
            queries.append(Query(argv, sweep_check(ell, p_range, q_range)))
    return queries


def _s4_certify(rng: random.Random, workdir: Path) -> list[Query]:
    # One p per stratum of width 8 over 2..401, for each of p/(p+1) and
    # p/(p-1): the seed picks the slopes, the strata fix the mix of cheap,
    # expensive and overflowing enumerations.
    queries = []
    for lo in range(2, 402, 8):
        for delta in (1, -1):
            p = rng.randint(lo, min(lo + 7, 400))
            q = p + delta
            argv = ("surger", "spun-trefoil", f"--slope={p}/{q}", "--format=json")
            queries.append(Query(argv, surger_check(p, q, ell=-1)))
    return queries


def _one_fusion_cord(rng: random.Random, band: Letters, sign: int, path: Path) -> Query:
    """Cord = the second generator of <x, y | w x w^-1 y^sign>, respelled.

    The seed renames both generators, orders them, and rotates or
    inverts the relator: the same group, meridian and cord.
    """
    meridian, cord = rng.sample("abcdstuvw", 2)
    names = {"x": meridian, "y": cord}
    relator = [(names[n], e) for n, e in band + [("x", 1)] + _inverse(band) + [("y", sign)]]
    if rng.random() < 0.5:
        relator = _inverse(relator)
    turn = rng.randrange(len(relator))
    relator = relator[turn:] + relator[:turn]
    gens = [meridian, cord]
    rng.shuffle(gens)
    text = f"gens: {', '.join(gens)}\nrels: {_word_text(relator)}"
    argv = (
        "cordcheck", _write(path, text), f"--meridian={meridian}", f"--cord={cord}",
        "--degree=5", "--max-cosets=20000", "--format=json",
    )
    return Query(argv, cord_check(text))


def _group_tools(rng: random.Random, workdir: Path) -> list[Query]:
    _, simplify_fusions, one_fusions = _pool()
    queries = [
        Query(
            ("enumerate", _write(workdir / "order10752.txt", ORDER_10752), "--format=json"),
            enumerate_check(10752),
        )
    ]
    # Z/2 x Z/3 and Z/2 x Z/5 are cyclic: the degree-6 quotient search is
    # exhaustive and finds nothing, and y is not in <x>.
    for b in (3, 5):
        text = f"gens: x, y\nrels: x^2 ; y^{b} ; x y x^-1 y^-1"
        path = _write(workdir / f"cyclic{2 * b}.txt", text)
        argv = ("cordcheck", path, "--meridian=x", "--cord=y", "--degree=6", "--format=json")
        queries.append(Query(argv, cord_check(text, cord_is_trivial=False)))
    queries.append(
        Query(
            ("cordcheck", "spun-trefoil", "--cord=y", "--format=json"),
            cord_check(SPUN_TREFOIL, cord_is_trivial=False),
        )
    )
    for k, (band, sign) in enumerate(one_fusions):
        queries.append(_one_fusion_cord(rng, band, sign, workdir / f"one-fusion-{k}.txt"))
    for k, fusion in enumerate(simplify_fusions):
        source = "fusion:" + _write(workdir / f"fusion10-{k}.txt", fusion.relabeled(rng).text())
        queries.append(Query(("simplify", source, "--format=json"), simplify_check))
        queries.append(Query(("abelianize", source, "--format=json"), abelianize_check))
    return queries


_BUILDERS = {
    "sweep-grid": _sweep_grid,
    "s4-certify": _s4_certify,
    "group-tools": _group_tools,
}


def build(workload: str, seed: int, workdir: Path) -> list[Query]:
    """Write the workload's source files into workdir and return its queries."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)
