"""Command-line surface.

Every subcommand emits a self-contained report, as text or JSON
carrying identical fields (JSON schema version 1).  Reports reproduce
bit-for-bit across runs except for the wall_ms timing field.  Exit code
is 0 unless the inputs were invalid; inconclusive verdicts still exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shlex
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import cache, partial
from pathlib import Path

from .abelian import abelian_invariants
from .budgets import Budgets
from .coset_enum import enumerate_cosets
from .errors import InputError
from .presentations import (
    FinitePresentation,
    format_presentation,
    parse_presentation,
    tietze_simplify,
)
from .ribbon import (
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


def _echo(command: str, source: str, **options) -> str:
    """Reconstruct a canonical, re-runnable invocation.

    Option values are attached with '=' so that values starting with a
    dash (negative ranges, slopes) survive argument parsing when the
    echoed command is pasted back.
    """
    parts = ["pochette", command, shlex.quote(source)]
    for flag, value in options.items():
        name = flag.replace("_", "-")
        parts.append(shlex.quote(f"--{name}={value}"))
    return " ".join(parts)


def _parse_slope(text: str, framing: int) -> SlopeSpec:
    match = _SLOPE_RE.fullmatch(text.strip())
    if match is None:
        raise InputError(f"slope must look like p/q, got {text!r}")
    return SlopeSpec(int(match.group(1)), int(match.group(2)), framing)


def _read(path: str, kind: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {kind} file {path!r}: {exc}") from exc


def _load_source(source: str) -> tuple[FinitePresentation, str, str]:
    """Resolve a presentation source to (presentation, default meridian, default longitude).

    Sources: the presets ``spun-trefoil`` / ``one-fusion:<word>:<sign>``,
    a fusion file via ``fusion:<path>``, or a presentation file path.
    """
    if source == "spun-trefoil" or source.startswith("one-fusion:"):
        return load_preset(source), "x", "y"
    if source.startswith("fusion:"):
        text = _read(source[len("fusion:"):], "fusion")
        return n_fusion_presentation(parse_fusion_file(text)), "x1", "x2"
    return parse_presentation(_read(source, "presentation")), "", ""


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


def _enumeration_fields(verdict, index_key: str, with_kind: bool = False) -> dict | None:
    if verdict is None:
        return None
    return {
        **({"kind": verdict.kind} if with_kind else {}),
        index_key: verdict.index,
        "cosets_defined": verdict.cosets_defined,
        "collapses": verdict.collapses,
        "max_cosets": verdict.max_cosets,
    }


def _embedding(args, source) -> tuple[PochetteEmbeddingData, str, str]:
    """Embedding data plus the meridian and longitude texts actually used."""
    P, default_m, default_l = source
    meridian, meridian_text = _require_word(P, args.meridian, default_m, "meridian")
    longitude, longitude_text = _require_word(P, args.longitude, default_l, "longitude")
    return PochetteEmbeddingData(P, meridian, longitude), meridian_text, longitude_text


def _run_report(handler, args) -> int:
    """Run one report subcommand and print its report.

    ``handler(args, source, timed)`` returns the options echoed in the
    command and the report body; it passes its main computation through
    ``timed``, whose duration becomes ``wall_ms``.
    """
    wall_s = 0.0

    def timed(fn, *fn_args):
        nonlocal wall_s
        start = time.perf_counter()
        result = fn(*fn_args)
        wall_s = time.perf_counter() - start
        return result

    options, body = handler(args, _load_source(args.source), timed)
    report = {
        "schema": 1,
        "command": _echo(args.command, args.source, **options, format=args.format),
        "source": args.source,
        **body,
        "wall_ms": round(wall_s * 1000, 1),
    }
    _emit(report, args.format)
    return 0


def _invariants_with_pi1(data, slope, budgets):
    """surgery_invariants with pi1 built, so that wall_ms covers the group it reports."""
    inv = surgery_invariants(data, slope, budgets)
    inv.pi1
    return inv


def _surger(args, source, timed):
    slope = _parse_slope(args.slope, args.framing)
    budgets = Budgets.with_overrides(max_cosets=args.max_cosets)
    data, meridian_text, longitude_text = _embedding(args, source)
    inv = timed(_invariants_with_pi1, data, slope, budgets)
    options = {
        "meridian": meridian_text,
        "longitude": longitude_text,
        "slope": f"{slope.p}/{slope.q}",
        "framing": slope.epsilon,
        "max_cosets": budgets.max_cosets,
    }
    return options, {
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
            "certificate": inv.verdict.certificate,
        },
        "enumeration": _enumeration_fields(inv.enumeration, "index"),
        "epsilon_note": EPSILON_NOTE,
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
    data, p, q, epsilon, budgets = job
    inv = surgery_invariants(data, SlopeSpec(p, q, epsilon), budgets)
    return {
        "p": p,
        "q": q,
        "p_plus_q_ell": inv.p_plus_q_ell,
        "h1": str(inv.homology[1]),
        "h2": str(inv.homology[2]),
        "verdict": inv.verdict.kind,
        "pi1_index": inv.verdict.pi1_index,
    }


def _sweep_rows(jobs: list[tuple], workers: int) -> list[dict]:
    # the fork start method starts every worker at the first submit
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_worker, jobs))
    return [_sweep_worker(job) for job in jobs]


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


def _sweep(args, source, timed):
    if args.jobs < 1:
        raise InputError("--jobs must be at least 1")
    data, meridian_text, longitude_text = _embedding(args, source)
    slopes = _sweep_slopes(_parse_range(args.p_range), _parse_range(args.q_range))
    budgets = Budgets.with_overrides(max_cosets=args.max_cosets)
    jobs = [(data, p, q, args.framing, budgets) for p, q in slopes]
    rows = timed(_sweep_rows, jobs, args.jobs)
    options = {
        "meridian": meridian_text,
        "longitude": longitude_text,
        "p_range": args.p_range,
        "q_range": args.q_range,
        "framing": args.framing,
        "max_cosets": budgets.max_cosets,
    }
    return options, {
        "meridian": meridian_text,
        "longitude": longitude_text,
        "rows": rows,
        "epsilon_note": EPSILON_NOTE,
    }


def _enumerate(args, source, timed):
    P = source[0]
    subgroup = [
        parse_word(piece, P.alphabet)
        for piece in (args.subgroup or "").split(";")
        if piece.strip()
    ]
    budgets = Budgets.with_overrides(max_cosets=args.max_cosets)
    result = timed(enumerate_cosets, P, subgroup, budgets.max_cosets)
    options = {"subgroup": args.subgroup or "", "max_cosets": budgets.max_cosets}
    return options, {
        "subgroup": [word_to_text(w) for w in subgroup],
        "outcome": "Overflow" if result.index is None else "Completed",
        **_enumeration_fields(result, "index"),
    }


def _abelianize(args, source, timed):
    inv = timed(abelian_invariants, source[0])
    return {}, {
        "invariants": str(inv),
        "free_rank": inv.free_rank,
        "torsion": list(inv.torsion),
    }


def _simplify(args, source, timed):
    P = source[0]
    budgets = Budgets.with_overrides(tietze_steps=args.steps)
    result = timed(tietze_simplify, P, budgets.tietze_steps)
    return {"steps": budgets.tietze_steps}, {
        "before": _presentation_fields(P),
        "after": _presentation_fields(result.presentation),
        "steps_applied": result.steps,
        "budget_exhausted": result.budget_exhausted,
    }


def _cordcheck(args, source, timed):
    P, default_m, _ = source
    meridian, meridian_text = _require_word(P, args.meridian, default_m, "meridian")
    cord = parse_word(args.cord, P.alphabet)
    budgets = Budgets.with_overrides(
        max_cosets=args.max_cosets, quotient_degree=args.degree
    )
    verdict = timed(cord_triviality, P, meridian, cord, budgets)
    witness = None
    if verdict.witness is not None:
        witness = {
            "degree": verdict.witness.degree,
            "images": {
                g.name: list(perm)
                for g, perm in zip(verdict.witness.alphabet, verdict.witness.images)
            },
        }
    options = {
        "meridian": meridian_text,
        "cord": args.cord,
        "max_cosets": budgets.max_cosets,
        "degree": budgets.quotient_degree,
    }
    return options, {
        "meridian": meridian_text,
        "cord": args.cord,
        "verdict": verdict.kind,
        "detail": verdict.detail,
        "witness": witness,
        "membership": _enumeration_fields(
            verdict.membership, "subgroup_index", with_kind=True
        ),
    }


def _cmd_cword(args) -> int:
    slope = SlopeSpec(args.p, args.q, args.epsilon)
    if slope.p == 0:
        raise InputError(
            "slope 0/1 has no slope word; the surgery relator is the longitude"
        )
    print(word_to_text(surgery_relator_word(slope)))
    return 0


def _cmd_gen_fusion(args) -> int:
    if args.n < 1:
        raise InputError("--n must be at least 1")
    rng = random.Random(args.seed)
    print(format_fusion(random_fusion_data(rng, args.n, args.max_word_len)))
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pochette",
        description="Algebraic invariants of pochette surgery on homology 4-spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.add_argument(
            "source",
            help="presentation file, 'spun-trefoil', 'one-fusion:<word>:<sign>', "
            "or 'fusion:<path>'",
        )
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=partial(_run_report, handler))
        return p

    p = sub.add_parser("cword", help="print the slope word over the letters m, l")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--epsilon", type=int, default=0, choices=(0, 1))
    p.set_defaults(func=_cmd_cword)

    p = add_report("surger", _surger, "full surgery invariant report with verdict")
    p.add_argument("--meridian")
    p.add_argument("--longitude")
    p.add_argument("--slope", required=True, help="p/q")
    p.add_argument("--framing", type=int, default=0, choices=(0, 1))
    p.add_argument("--max-cosets", type=int)

    p = add_report("sweep", _sweep, "verdict table over a grid of slopes")
    p.add_argument("--meridian")
    p.add_argument("--longitude")
    p.add_argument("--p-range", required=True, help="lo:hi")
    p.add_argument("--q-range", required=True, help="lo:hi")
    p.add_argument("--framing", type=int, default=0, choices=(0, 1))
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-cosets", type=int)

    p = add_report("enumerate", _enumerate, "coset enumeration index and statistics")
    p.add_argument("--subgroup", help="subgroup generator words separated by ';'")
    p.add_argument("--max-cosets", type=int)

    add_report("abelianize", _abelianize, "abelian invariants of a presentation")

    p = add_report("simplify", _simplify, "Tietze-simplify a presentation")
    p.add_argument("--steps", type=int, help="move budget")

    p = add_report("cordcheck", _cordcheck, "classify a cord against the trivial class")
    p.add_argument("--meridian")
    p.add_argument("--cord", required=True)
    p.add_argument("--max-cosets", type=int)
    p.add_argument("--degree", type=int, help="quotient search degree cap")

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
