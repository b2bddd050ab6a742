"""Command-line surface.

Every subcommand except cword and gen-fusion emits a self-contained
report, as text or JSON carrying identical fields (JSON schema version
1).  Reports reproduce bit-for-bit across runs except for the wall_ms
timing field.  Exit code is 2 on invalid input, which prints one line
``error: <message>`` on stderr; 1 when the reader of stdout closes it
before the report is written, with stderr left empty; and 0 otherwise:
inconclusive verdicts still exit 0.

Each report subcommand declares its flags once, in ``_build_parser``.
``_run_report`` resolves them and echoes each but ``--jobs`` at its
resolved value in the report's ``command``, with ``--format`` last.
wall_ms times the subcommand's own work: from after the source and its
words are loaded to the finished report body.

A JSON report is the bytes of ``json.dumps(report, indent=2)``, emitted
by ``_json``: a container of scalars, such as a verdict, goes through
json's C encoder in one call, as do all the rows of a sweep together,
and containers of containers are joined by the same indent rules.  Only
a sweep with more than one job imports the process pool, and with it
multiprocessing.

A process keeps what its queries share.  A fusion file is parsed once
per text, keyed by the text just read, and an embedding is built once
per value; a presentation file, which takes no fusion step, parses on
every read.  Off the S^4 branch a sweep row pays only for its
p + q*linking: surgery builds its homology and verdict once per value.
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
from dataclasses import fields
from functools import cache, lru_cache, partial
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from math import gcd
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
from .words import Word, parse_word, word_to_text

__all__ = ["main"]

_SLOPE_RE = re.compile(r"(-?\d+)\s*/\s*(-?\d+)")


def _render_text(value: dict | list, indent: int = 0) -> list[str]:
    """Indented lines for a report: ``key:`` labels a dict item, ``-`` a list item."""
    pad = "  " * indent
    if isinstance(value, dict):
        labeled = [(f"{key}:", item) for key, item in value.items()]
    else:
        labeled = [("-", item) for item in value]
    lines: list[str] = []
    for label, item in labeled:
        if isinstance(item, (dict, list)) and item:
            lines.append(f"{pad}{label}")
            lines.extend(_render_text(item, indent + 1))
        else:
            lines.append(f"{pad}{label} {item if isinstance(item, str) else json.dumps(item)}")
    return lines


@cache
def _scalars_encoder(depth: int):
    """Encode a container of scalars at ``depth`` as ``indent=2`` would, less
    the line breaks after its opening and before its closing bracket.

    Called as ``encoder(value, 0)``, it returns the text in chunks.
    """
    encoder = json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "))
    if c_make_encoder is None:  # an interpreter without json's C accelerator
        return lambda value, _: encoder.iterencode(value)
    # markers (None: no cycle check), default, string encoder, indent,
    # separators, sort_keys, skipkeys, allow_nan: JSONEncoder's defaults
    return c_make_encoder(
        None, encoder.default, encode_basestring_ascii, None,
        encoder.key_separator, encoder.item_separator, False, False, True,
    )


_CONTAINERS = {dict, list, tuple}


def _json(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)`` for a value nested ``depth`` deep.

    Its keys must be str and its containers plain dicts, lists and tuples,
    as a report's are.
    """
    kind = type(value)
    if kind not in _CONTAINERS:
        return "".join(_scalars_encoder(depth)(value, 0))
    opening, closing = "{}" if kind is dict else "[]"
    if not value:
        return opening + closing
    items = value.values() if kind is dict else value
    outer = "\n" + "  " * depth
    inner = outer + "  "
    if _CONTAINERS.isdisjoint(map(type, items)):
        body = "".join(_scalars_encoder(depth)(value, 0))[1:-1]
    elif kind is dict:
        body = ("," + inner).join(
            [f"{encode_basestring_ascii(k)}: {_json(item, depth + 1)}" for k, item in value.items()]
        )
    elif set(map(type, value)) == {dict} and all(value) and _CONTAINERS.isdisjoint(
        map(type, chain.from_iterable(map(dict.values, value)))
    ):
        # rows, such as a sweep's: non-empty dicts of scalars, in one encoder
        # call.  JSON escapes a newline in a string, so "},<newline>" then
        # "{" occurs only between rows, whose brackets get lines of their own
        row_inner = inner + "  "
        text = "".join(_scalars_encoder(depth + 1)(value, 0))[2:-2]
        body = "{" + row_inner + text.replace(
            "}," + row_inner + "{", inner + "}," + inner + "{" + row_inner
        ) + inner + "}"
    else:
        body = ("," + inner).join([_json(item, depth + 1) for item in value])
    return f"{opening}{inner}{body}{outer}{closing}"


def _parse_slope(text: str, framing: int) -> SlopeSpec:
    match = _SLOPE_RE.fullmatch(text.strip())
    if match is None:
        raise InputError(f"slope must look like p/q, got {text!r}")
    return SlopeSpec(int(match.group(1)), int(match.group(2)), framing)


def _read(path: str, kind: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {kind} file {path!r}: {exc}") from exc


def _load_source(source: str) -> tuple[FinitePresentation, str, str]:
    """Resolve a presentation source to (presentation, default meridian, default longitude).

    Sources: the presets ``spun-trefoil`` / ``one-fusion:<word>:<sign>``,
    a fusion file via ``fusion:<path>``, or a presentation file path.
    """
    if source == "spun-trefoil" or source.startswith("one-fusion:"):
        return load_preset(source), "x", "y"
    if source.startswith("fusion:"):
        return _fusion(_read(source[len("fusion:"):], "fusion")), "x1", "x2"
    return parse_presentation(_read(source, "presentation")), "", ""


# a process loads the same few sources many times: a benchmark pass of
# sweeps alternates 2 sources, and one of group tools reads 4 fusion
# files; the fusion and embedding caches each keep this many
_SOURCES_KEPT = 8


@lru_cache(maxsize=_SOURCES_KEPT)
def _fusion(text: str) -> FinitePresentation:
    """A fusion file's presentation, keyed by the text just read.

    A file rewritten in place parses again, and a failed parse raises,
    so it is not cached.
    """
    return n_fusion_presentation(parse_fusion_file(text))


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


def _run_report(handler, flags: list[argparse.Action], args) -> int:
    """Run one report subcommand, whose declared flags are ``flags``.

    An absent meridian or longitude takes the source's default, and each
    budget flag its Budgets value; both go back into ``args``.
    ``handler(args, P, budgets, **words)`` gets the parsed words, stores a
    flag it normalizes back into ``args`` for the echo, and returns the
    rest of the body.  ``wall_ms`` times that call: the subcommand's own
    work, from after the source and words are loaded to the finished body.
    """
    P, *defaults = _load_source(args.source)
    values = vars(args)
    words = {}
    for name, default in zip(("meridian", "longitude"), defaults):
        if name in values:
            if values[name] is None:
                values[name] = default
            if not values[name]:
                raise InputError(f"--{name} is required for presentation file sources")
            words[name] = parse_word(values[name], P.alphabet)
    budget_flags = {f.name: values[f.name] for f in fields(Budgets) if f.name in values}
    budgets = Budgets.with_overrides(**budget_flags)
    values.update((name, getattr(budgets, name)) for name in budget_flags)
    start = time.perf_counter()
    body = handler(args, P, budgets, **words)
    wall_s = time.perf_counter() - start
    # a value follows '=' so that one starting with a dash (a negative range
    # or slope) survives when the command is pasted back; --jobs cannot
    # change the report
    echoed = [
        f"{flag.option_strings[0]}={values[flag.dest]}" for flag in flags if flag.dest != "jobs"
    ]
    report = {
        "schema": 1,
        "command": shlex.join(
            ["pochette", args.command, args.source, *echoed, f"--format={args.format}"]
        ),
        "source": args.source,
        **{name: values[name] for name in words},
        **body,
        "wall_ms": round(wall_s * 1000, 1),
    }
    print(_json(report) if args.format == "json" else "\n".join(_render_text(report)))
    return 0


@lru_cache(maxsize=_SOURCES_KEPT)
def _embedding(P: FinitePresentation, meridian: Word, longitude: Word) -> PochetteEmbeddingData:
    """An embedding, keyed by value: a rewritten file parses to another P."""
    return PochetteEmbeddingData(P, meridian, longitude)


def _surger(args, P, budgets, meridian, longitude):
    args.slope = slope = _parse_slope(args.slope, args.framing)  # echoed as p/q with p >= 0
    data = _embedding(P, meridian, longitude)
    inv = surgery_invariants(data, slope, budgets)
    return {
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
    """Slopes whose normal form is in the grid: its points that are coprime with p > 0, or 0/1."""
    return [
        (p, q)
        for p in range(max(p_range[0], 0), p_range[1] + 1)
        for q in range(q_range[0], q_range[1] + 1)
        if gcd(p, q) == 1 and (p > 0 or q == 1)
    ]


def _sweep_worker(job: tuple) -> dict:
    data, p, q, epsilon, budgets = job
    inv = surgery_invariants(data, SlopeSpec(p, q, epsilon), budgets)
    h1 = str(inv.homology[1])
    return {
        "p": p,
        "q": q,
        "p_plus_q_ell": inv.p_plus_q_ell,
        "h1": h1,
        "h2": h1 if inv.homology[2] is inv.homology[1] else str(inv.homology[2]),
        "verdict": inv.verdict.kind,
        "pi1_index": inv.verdict.pi1_index,
    }


def _sweep_rows(jobs: list[tuple], workers: int) -> list[dict]:
    # fork starts every worker at once, forkserver (Python 3.14's default on
    # Linux) as work arrives; each worker then gets about four chunks of slopes.
    # The CPUs this process may run on are its affinity mask, where the OS keeps one
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, len(jobs), usable or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing loads only here

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = -(-len(jobs) // (4 * workers))
            return list(pool.map(_sweep_worker, jobs, chunksize=chunksize))
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


def _sweep(args, P, budgets, meridian, longitude):
    if args.jobs < 1:
        raise InputError("--jobs must be at least 1")
    data = _embedding(P, meridian, longitude)
    slopes = _sweep_slopes(_parse_range(args.p_range), _parse_range(args.q_range))
    jobs = [(data, p, q, args.framing, budgets) for p, q in slopes]
    return {
        "rows": _sweep_rows(jobs, args.jobs),
        "epsilon_note": EPSILON_NOTE,
    }


def _enumerate(args, P, budgets):
    subgroup = [
        parse_word(piece, P.alphabet) for piece in args.subgroup.split(";") if piece.strip()
    ]
    result = enumerate_cosets(P, subgroup, budgets.max_cosets)
    return {
        "subgroup": [word_to_text(w) for w in subgroup],
        "outcome": "Overflow" if result.index is None else "Completed",
        **_enumeration_fields(result, "index"),
    }


def _abelianize(args, P, budgets):
    inv = abelian_invariants(P)
    return {
        "invariants": str(inv),
        "free_rank": inv.free_rank,
        "torsion": list(inv.torsion),
    }


def _simplify(args, P, budgets):
    result = tietze_simplify(P, budgets.tietze_steps)
    return {
        "before": _presentation_fields(P),
        "after": _presentation_fields(result.presentation),
        "steps_applied": result.steps,
        "budget_exhausted": result.budget_exhausted,
    }


def _cordcheck(args, P, budgets, meridian):
    cord = parse_word(args.cord, P.alphabet)
    verdict = cord_triviality(P, meridian, cord, budgets)
    witness = None
    if verdict.witness is not None:
        witness = {
            "degree": verdict.witness.degree,
            "images": {
                g.name: list(perm)
                for g, perm in zip(verdict.witness.alphabet, verdict.witness.images)
            },
        }
    return {
        "cord": args.cord,
        "verdict": verdict.kind,
        "detail": verdict.detail,
        "witness": witness,
        "membership": _enumeration_fields(
            verdict.membership, "subgroup_index", with_kind=True
        ),
    }


def _cmd_cword(args) -> int:
    print(word_to_text(surgery_relator_word(SlopeSpec(args.p, args.q, args.epsilon))))
    return 0


def _cmd_gen_fusion(args) -> int:
    if args.max_word_len < 0:
        raise InputError("--max-word-len must be at least 0")
    rng = random.Random(args.seed)
    print(format_fusion(random_fusion_data(rng, args.n, args.max_word_len)))
    return 0


def _flag(*names: str, **kwargs) -> tuple:
    """A flag's add_argument arguments."""
    return names, kwargs


# flags of several report subcommands; a budget flag's dest is its Budgets field
_MERIDIAN = _flag("--meridian")
_LONGITUDE = _flag("--longitude")
_FRAMING = _flag("--framing", type=int, default=0, choices=(0, 1))
_MAX_COSETS = _flag("--max-cosets", type=int)


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pochette",
        description="Algebraic invariants of pochette surgery on homology 4-spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report(name, handler, help, *flags):
        p = sub.add_parser(name, help=help)
        p.add_argument(
            "source",
            help="presentation file, 'spun-trefoil', 'one-fusion:<word>:<sign>', "
            "or 'fusion:<path>'",
        )
        p.add_argument("--format", choices=("text", "json"), default="text")
        declared = [p.add_argument(*names, **kwargs) for names, kwargs in flags]
        p.set_defaults(func=partial(_run_report, handler, declared))

    p = sub.add_parser("cword", help="print the slope word over the letters m, l")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--epsilon", type=int, default=0, choices=(0, 1))
    p.set_defaults(func=_cmd_cword)

    add_report(
        "surger", _surger, "full surgery invariant report with verdict",
        _MERIDIAN, _LONGITUDE, _flag("--slope", required=True, help="p/q"),
        _FRAMING, _MAX_COSETS,
    )
    add_report(
        "sweep", _sweep, "verdict table over a grid of slopes",
        _MERIDIAN, _LONGITUDE,
        _flag("--p-range", required=True, help="lo:hi"),
        _flag("--q-range", required=True, help="lo:hi"),
        _FRAMING, _flag("--jobs", type=int, default=1), _MAX_COSETS,
    )
    add_report(
        "enumerate", _enumerate, "coset enumeration index and statistics",
        _flag("--subgroup", default="", help="subgroup generator words separated by ';'"),
        _MAX_COSETS,
    )
    add_report("abelianize", _abelianize, "abelian invariants of a presentation")
    add_report(
        "simplify", _simplify, "Tietze-simplify a presentation",
        _flag("--steps", dest="tietze_steps", metavar="STEPS", type=int, help="move budget"),
    )
    add_report(
        "cordcheck", _cordcheck, "classify a cord against the trivial class",
        _MERIDIAN, _flag("--cord", required=True), _MAX_COSETS,
        _flag(
            "--degree", dest="quotient_degree", metavar="DEGREE", type=int,
            help="quotient search degree cap",
        ),
    )

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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left (``| head``): as the signal module's SIGPIPE note
        # does, point stdout at devnull so that the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
