"""Command-line surface.

Every subcommand emits a self-contained report, as text or JSON
carrying identical fields (JSON schema version 1).  Reports reproduce
bit-for-bit across runs except for the wall_ms timing field.  Exit code
is 0 unless the inputs were invalid; inconclusive verdicts still exit 0.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import shlex
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .abelian import abelian_invariants
from .budgets import Budgets
from .coset_enum import Completed, enumerate_cosets
from .errors import InputError
from .presentations import (
    FinitePresentation,
    format_presentation,
    parse_presentation,
    tietze_simplify,
)
from .ribbon import (
    CordSpec,
    cord_triviality,
    format_fusion,
    load_preset,
    n_fusion_presentation,
    parse_fusion_file,
    random_fusion_data,
)
from .surgery import (
    EPSILON_NOTE,
    PochetteEmbeddingData,
    SlopeSpec,
    surgery_invariants,
    surgery_relator_word,
)
from .words import parse_word, word_to_text

__all__ = ["main"]

_SLOPE_RE = re.compile(r"(-?\d+)\s*/\s*(-?\d+)")


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _scalar(item) -> str:
    if item is None:
        return "null"
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, (dict, list)):
        return "{}" if isinstance(item, dict) else "[]"
    return str(item)


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(_render_text(report)))


def _echo(command: str, *positional: str, **options) -> str:
    """Reconstruct a canonical, re-runnable invocation.

    Option values are attached with '=' so that values starting with a
    dash (negative ranges, slopes) survive argument parsing when the
    echoed command is pasted back.
    """
    parts = ["pochette", command]
    parts.extend(shlex.quote(p) for p in positional)
    for flag, value in options.items():
        name = flag.replace("_", "-")
        parts.append(shlex.quote(f"--{name}={value}"))
    return " ".join(parts)


def _parse_slope(text: str, framing: int) -> SlopeSpec:
    match = _SLOPE_RE.fullmatch(text.strip())
    if match is None:
        raise InputError(f"slope must look like p/q, got {text!r}")
    return SlopeSpec(int(match.group(1)), int(match.group(2)), framing)


def _load_source(source: str) -> tuple[FinitePresentation, str, str]:
    """Resolve a presentation source to (presentation, default meridian, default longitude).

    Sources: the presets ``spun-trefoil`` / ``one-fusion:<word>:<sign>``,
    a fusion file via ``fusion:<path>``, or a presentation file path.
    """
    if source == "spun-trefoil" or source.startswith("one-fusion:"):
        return load_preset(source), "x", "y"
    if source.startswith("fusion:"):
        path = source[len("fusion:"):]
        try:
            text = open(path).read()
        except OSError as exc:
            raise InputError(f"cannot read fusion file {path!r}: {exc}") from exc
        return n_fusion_presentation(parse_fusion_file(text)), "x1", "x2"
    try:
        text = open(source).read()
    except OSError as exc:
        raise InputError(f"cannot read presentation file {source!r}: {exc}") from exc
    return parse_presentation(text), "", ""


def _require_word(P: FinitePresentation, text: str, default: str, flag: str):
    chosen = text if text is not None else default
    if not chosen:
        raise InputError(f"--{flag} is required for presentation file sources")
    return parse_word(chosen, P.alphabet), chosen


def _presentation_fields(P: FinitePresentation) -> dict:
    gens_line, rels_line = format_presentation(P).splitlines()
    return {
        "gens": gens_line[len("gens:"):].strip(),
        "rels": rels_line[len("rels:"):].strip(),
    }


def _enumeration_fields(stats) -> dict | None:
    if stats is None:
        return None
    return {
        "index": stats.index,
        "cosets_defined": stats.cosets_defined,
        "collapses": stats.collapses,
        "max_cosets": stats.max_cosets,
    }


def _surger_report(
    source: str,
    meridian_text: str,
    longitude_text: str,
    slope: SlopeSpec,
    budgets: Budgets,
    fmt: str,
) -> dict:
    P, default_m, default_l = _load_source(source)
    meridian, meridian_text = _require_word(P, meridian_text, default_m, "meridian")
    longitude, longitude_text = _require_word(P, longitude_text, default_l, "longitude")
    data = PochetteEmbeddingData(P, meridian, longitude)
    start = time.perf_counter()
    inv = surgery_invariants(data, slope, budgets)
    wall_ms = (time.perf_counter() - start) * 1000
    return {
        "schema": 1,
        "command": _echo(
            "surger", source,
            meridian=meridian_text,
            longitude=longitude_text,
            slope=f"{slope.p}/{slope.q}",
            framing=slope.epsilon,
            max_cosets=budgets.max_cosets,
            format=fmt,
        ),
        "source": source,
        "meridian": meridian_text,
        "longitude": longitude_text,
        "slope": {"p": slope.p, "q": slope.q, "epsilon": slope.epsilon},
        "linking": inv.linking,
        "p_plus_q_ell": inv.p_plus_q_ell,
        "presentation": _presentation_fields(inv.pi1),
        "homology": [str(h) for h in inv.homology],
        "verdict": {
            "kind": inv.verdict.kind,
            "pi1_index": inv.verdict.pi1_index,
            "detail": inv.verdict.detail,
        },
        "enumeration": _enumeration_fields(inv.enumeration),
        "epsilon_note": EPSILON_NOTE,
        "wall_ms": round(wall_ms, 1),
    }


def _sweep_slopes(p_range: tuple[int, int], q_range: tuple[int, int]) -> list[tuple[int, int]]:
    """Normalized coprime slopes inside the grid, in canonical order."""
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


def _sweep_worker(job: tuple) -> dict:
    data, p, q, epsilon, max_cosets = job
    inv = surgery_invariants(data, SlopeSpec(p, q, epsilon), Budgets(max_cosets=max_cosets))
    return {
        "p": p,
        "q": q,
        "p_plus_q_ell": inv.p_plus_q_ell,
        "h1": str(inv.homology[1]),
        "h2": str(inv.homology[2]),
        "verdict": inv.verdict.kind,
        "pi1_index": inv.verdict.pi1_index,
    }


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise InputError(f"range must look like lo:hi, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputError(f"range bounds must be integers: {text!r}") from exc
    if lo > hi:
        raise InputError(f"empty range {text!r}")
    return lo, hi


def _cmd_cword(args) -> int:
    slope = SlopeSpec(args.p, args.q, args.epsilon)
    if slope.p == 0:
        raise InputError(
            "slope 0/1 has no slope word; the surgery relator is the longitude"
        )
    print(word_to_text(surgery_relator_word(slope)))
    return 0


def _cmd_surger(args) -> int:
    slope = _parse_slope(args.slope, args.framing)
    budgets = Budgets.from_env()
    budgets = Budgets(
        max_cosets=args.max_cosets or budgets.max_cosets,
        tietze_steps=budgets.tietze_steps,
        quotient_degree=budgets.quotient_degree,
    )
    report = _surger_report(
        args.source, args.meridian, args.longitude, slope, budgets, args.format
    )
    _emit(report, args.format)
    return 0


def _cmd_sweep(args) -> int:
    P, default_m, default_l = _load_source(args.source)
    meridian, meridian_text = _require_word(P, args.meridian, default_m, "meridian")
    longitude, longitude_text = _require_word(P, args.longitude, default_l, "longitude")
    data = PochetteEmbeddingData(P, meridian, longitude)
    p_range = _parse_range(args.p_range)
    q_range = _parse_range(args.q_range)
    slopes = _sweep_slopes(p_range, q_range)
    budgets = Budgets.from_env()
    max_cosets = args.max_cosets or budgets.max_cosets
    jobs = [(data, p, q, args.framing, max_cosets) for p, q in slopes]
    start = time.perf_counter()
    if args.jobs > 1 and jobs:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_worker, jobs))
    else:
        rows = [_sweep_worker(job) for job in jobs]
    wall_ms = (time.perf_counter() - start) * 1000
    report = {
        "schema": 1,
        "command": _echo(
            "sweep", args.source,
            meridian=meridian_text,
            longitude=longitude_text,
            p_range=args.p_range,
            q_range=args.q_range,
            framing=args.framing,
            max_cosets=max_cosets,
            format=args.format,
        ),
        "source": args.source,
        "meridian": meridian_text,
        "longitude": longitude_text,
        "rows": rows,
        "epsilon_note": EPSILON_NOTE,
        "wall_ms": round(wall_ms, 1),
    }
    _emit(report, args.format)
    return 0


def _cmd_enumerate(args) -> int:
    P, _, _ = _load_source(args.source)
    subgroup = []
    if args.subgroup:
        subgroup = [
            parse_word(piece, P.alphabet)
            for piece in args.subgroup.split(";")
            if piece.strip()
        ]
    max_cosets = args.max_cosets or Budgets.from_env().max_cosets
    start = time.perf_counter()
    result = enumerate_cosets(P, subgroup, max_cosets)
    wall_ms = (time.perf_counter() - start) * 1000
    completed = isinstance(result, Completed)
    report = {
        "schema": 1,
        "command": _echo(
            "enumerate", args.source,
            subgroup=args.subgroup or "",
            max_cosets=max_cosets,
            format=args.format,
        ),
        "source": args.source,
        "subgroup": [word_to_text(w) for w in subgroup],
        "outcome": "Completed" if completed else "Overflow",
        "index": result.index if completed else None,
        "cosets_defined": result.cosets_defined,
        "collapses": result.collapses,
        "max_cosets": max_cosets,
        "wall_ms": round(wall_ms, 1),
    }
    _emit(report, args.format)
    return 0


def _cmd_abelianize(args) -> int:
    P, _, _ = _load_source(args.source)
    start = time.perf_counter()
    inv = abelian_invariants(P)
    wall_ms = (time.perf_counter() - start) * 1000
    report = {
        "schema": 1,
        "command": _echo("abelianize", args.source, format=args.format),
        "source": args.source,
        "invariants": str(inv),
        "free_rank": inv.free_rank,
        "torsion": list(inv.torsion),
        "wall_ms": round(wall_ms, 1),
    }
    _emit(report, args.format)
    return 0


def _cmd_simplify(args) -> int:
    P, _, _ = _load_source(args.source)
    steps = args.steps or Budgets.from_env().tietze_steps
    if steps <= 0:
        raise InputError("--steps must be positive")
    start = time.perf_counter()
    result = tietze_simplify(P, steps)
    wall_ms = (time.perf_counter() - start) * 1000
    report = {
        "schema": 1,
        "command": _echo(
            "simplify", args.source, steps=steps, format=args.format
        ),
        "source": args.source,
        "before": _presentation_fields(P),
        "after": _presentation_fields(result.presentation),
        "steps_applied": result.steps,
        "budget_exhausted": result.budget_exhausted,
        "wall_ms": round(wall_ms, 1),
    }
    _emit(report, args.format)
    return 0


def _cmd_cordcheck(args) -> int:
    P, default_m, _ = _load_source(args.source)
    meridian, meridian_text = _require_word(P, args.meridian, default_m, "meridian")
    cord = parse_word(args.cord, P.alphabet)
    env = Budgets.from_env()
    budgets = Budgets(
        max_cosets=args.max_cosets or env.max_cosets,
        tietze_steps=env.tietze_steps,
        quotient_degree=args.degree or env.quotient_degree,
    )
    start = time.perf_counter()
    verdict = cord_triviality(P, meridian, CordSpec(cord), budgets)
    wall_ms = (time.perf_counter() - start) * 1000
    witness = None
    if verdict.witness is not None:
        witness = {
            "degree": verdict.witness.degree,
            "images": {
                g.name: list(perm)
                for g, perm in zip(verdict.witness.alphabet, verdict.witness.images)
            },
        }
    report = {
        "schema": 1,
        "command": _echo(
            "cordcheck", args.source,
            meridian=meridian_text,
            cord=args.cord,
            max_cosets=budgets.max_cosets,
            degree=budgets.quotient_degree,
            format=args.format,
        ),
        "source": args.source,
        "meridian": meridian_text,
        "cord": args.cord,
        "verdict": verdict.kind,
        "detail": verdict.detail,
        "witness": witness,
        "membership": (
            None
            if verdict.membership is None
            else {
                "kind": verdict.membership.kind,
                "subgroup_index": verdict.membership.subgroup_index,
                "cosets_defined": verdict.membership.cosets_defined,
                "collapses": verdict.membership.collapses,
                "max_cosets": verdict.membership.max_cosets,
            }
        ),
        "wall_ms": round(wall_ms, 1),
    }
    _emit(report, args.format)
    return 0


def _cmd_gen_fusion(args) -> int:
    if args.n < 1:
        raise InputError("--n must be at least 1")
    rng = random.Random(args.seed)
    print(format_fusion(random_fusion_data(rng, args.n, args.max_word_len)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pochette",
        description="Algebraic invariants of pochette surgery on homology 4-spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    def add_source(p):
        p.add_argument(
            "source",
            help="presentation file, 'spun-trefoil', 'one-fusion:<word>:<sign>', "
            "or 'fusion:<path>'",
        )

    p = sub.add_parser("cword", help="print the slope word over the letters m, l")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--epsilon", type=int, default=0, choices=(0, 1))
    p.set_defaults(func=_cmd_cword)

    p = sub.add_parser("surger", help="full surgery invariant report with verdict")
    add_source(p)
    p.add_argument("--meridian")
    p.add_argument("--longitude")
    p.add_argument("--slope", required=True, help="p/q")
    p.add_argument("--framing", type=int, default=0, choices=(0, 1))
    p.add_argument("--max-cosets", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_surger)

    p = sub.add_parser("sweep", help="verdict table over a grid of slopes")
    add_source(p)
    p.add_argument("--meridian")
    p.add_argument("--longitude")
    p.add_argument("--p-range", required=True, help="lo:hi")
    p.add_argument("--q-range", required=True, help="lo:hi")
    p.add_argument("--framing", type=int, default=0, choices=(0, 1))
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-cosets", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("enumerate", help="coset enumeration index and statistics")
    add_source(p)
    p.add_argument("--subgroup", help="subgroup generator words separated by ';'")
    p.add_argument("--max-cosets", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("abelianize", help="abelian invariants of a presentation")
    add_source(p)
    add_format(p)
    p.set_defaults(func=_cmd_abelianize)

    p = sub.add_parser("simplify", help="Tietze-simplify a presentation")
    add_source(p)
    p.add_argument("--steps", type=int, help="move budget")
    add_format(p)
    p.set_defaults(func=_cmd_simplify)

    p = sub.add_parser("cordcheck", help="classify a cord against the trivial class")
    add_source(p)
    p.add_argument("--meridian")
    p.add_argument("--cord", required=True)
    p.add_argument("--max-cosets", type=int)
    p.add_argument("--degree", type=int, help="quotient search degree cap")
    add_format(p)
    p.set_defaults(func=_cmd_cordcheck)

    p = sub.add_parser("gen-fusion", help="print seeded random fusion data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-word-len", type=int, default=4)
    p.set_defaults(func=_cmd_gen_fusion)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
