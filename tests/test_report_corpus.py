"""Fixed command corpus: reports must stay byte-identical except for wall_ms.

Each case runs one CLI command in both formats from inside
``tests/corpus`` (so file sources and the echoed command are relative)
and compares stdout byte for byte, less the ``wall_ms`` line, with the
stored ``<case>.txt`` / ``<case>.json``.  Commands that print plain
text and take no ``--format`` are compared once, against ``<case>.txt``.
Refresh the expected files only on purpose, with
``python tests/test_report_corpus.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shlex
import sys
from pathlib import Path
from unittest import mock

import pytest

from pochette.cli import _build_parser, main

CORPUS = Path(__file__).parent / "corpus"

CASES = {
    "surger-not-sphere": ("surger", "spun-trefoil", "--slope=3/1"),
    "surger-certified": ("surger", "spun-trefoil", "--slope=40/41"),
    # <x> needs 159 cosets at 40/41, so at 100 its enumeration overflows
    "surger-unknown": ("surger", "spun-trefoil", "--slope=40/41", "--max-cosets=100"),
    "surger-meridian-tight": (
        "surger", "spun-trefoil", "--slope=40/41", "--max-cosets=200",
    ),
    "surger-nontrivial-pi1": (
        "surger", "icosahedral.txt", "--meridian=s^-1*t^2",
        "--longitude=s*t*s*t*s^-3*t^-2*s", "--slope=1/1", "--max-cosets=5000",
    ),
    "surger-nontrivial-pi1-order-4896": (
        "surger", "fusion287.txt", "--meridian=x3^-1",
        "--longitude=x3*x4^-2*x3^-1*x2^-1", "--slope=7/-2",
    ),
    "sweep-spun-jobs1": (
        "sweep", "spun-trefoil", "--p-range=1:6", "--q-range=-3:8", "--jobs=1",
    ),
    "sweep-spun-jobs2": (
        "sweep", "spun-trefoil", "--p-range=1:6", "--q-range=-3:8", "--jobs=2",
    ),
    "sweep-one-fusion-jobs1": (
        "sweep", "one-fusion:x^-1*y:+1", "--p-range=1:6", "--q-range=2:7", "--jobs=1",
    ),
    "sweep-one-fusion-jobs2": (
        "sweep", "one-fusion:x^-1*y:+1", "--p-range=1:6", "--q-range=2:7", "--jobs=2",
    ),
    "enumerate-complete": (
        "enumerate", "fusion:fusion3.txt", "--subgroup=x1;x2;x3;x4", "--max-cosets=500",
    ),
    "enumerate-overflow": (
        "enumerate", "fusion:fusion3.txt", "--subgroup=x1", "--max-cosets=500",
    ),
    "abelianize": ("abelianize", "fusion:fusion3.txt"),
    "simplify": ("simplify", "fusion:fusion3.txt"),
    "simplify-exhausted": ("simplify", "fusion:fusion3.txt", "--steps=1"),
    "simplify-trefoil-40-41": ("simplify", "trefoil-40-41.txt"),
    "simplify-fusion10": ("simplify", "fusion:fusion10.txt"),
    "surger-env-budget": ("surger", "spun-trefoil", "--slope=40/41"),
    "cordcheck": (
        "cordcheck", "spun-trefoil", "--cord=y", "--degree=4", "--max-cosets=2000",
    ),
    "abelianize-torsion": ("abelianize", "torsion.txt"),
    "cordcheck-meridian-power": ("cordcheck", "spun-trefoil", "--cord=x^3"),
    "cordcheck-in-subgroup": (
        "cordcheck", "z6.txt", "--meridian=x", "--cord=y*x*y^-1",
    ),
    "cordcheck-not-in-subgroup-unknown": (
        "cordcheck", "z6.txt", "--meridian=x", "--cord=y", "--degree=4",
    ),
    "cordcheck-not-in-subgroup-witness": (
        "cordcheck", "s3.txt", "--meridian=x", "--cord=y", "--degree=3",
    ),
    # < x, y | x y^-1 > is Z: the degree-8 search finds nothing, then y is in <x>
    "cordcheck-trivial-cord-z": ("cordcheck", "one-fusion:1:-1", "--cord=y"),
}
FORMATS = {"txt": "text", "json": "json"}
# Environment variables a case runs under.
ENV = {"surger-env-budget": {"POCHETTE_MAX_COSETS": "100"}}
PLAIN_CASES = {
    "cword": ("cword", "-p", "3", "-q", "-4"),
    "gen-fusion": ("gen-fusion", "--n=3", "--seed=7"),
}


# the wall_ms line of a report, in JSON with the comma that ends the line before
WALL_MS = {
    "json": re.compile(r',\n  "wall_ms": [^\n]*'),
    "text": re.compile(r"^wall_ms: [^\n]*\n", re.MULTILINE),
}


def _strip_wall_ms(out: str, fmt: str) -> str:
    """The report's bytes less its one wall_ms line."""
    stripped, count = WALL_MS[fmt].subn("", out)
    if count != 1:
        raise ValueError(f"expected one wall_ms line in {out!r}")
    return stripped


def _stdout(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, argv
    return buffer.getvalue()


def _run(argv: tuple[str, ...], fmt: str) -> str:
    return _strip_wall_ms(_stdout([*argv, f"--format={fmt}"]), fmt)


@pytest.mark.parametrize("suffix", sorted(FORMATS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_corpus(case, suffix, monkeypatch):
    monkeypatch.chdir(CORPUS)
    for var, value in ENV.get(case, {}).items():
        monkeypatch.setenv(var, value)
    expected = (CORPUS / f"{case}.{suffix}").read_text()
    assert _run(CASES[case], FORMATS[suffix]) == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_echoed_command_reproduces_the_report(case, monkeypatch):
    monkeypatch.chdir(CORPUS)
    with monkeypatch.context() as env:
        for var, value in ENV.get(case, {}).items():
            env.setenv(var, value)
        first = json.loads(_run(CASES[case], "json"))
    # the echo runs without the case's environment, so it must carry the
    # resolved value of every flag, budgets included
    program, *argv = shlex.split(first["command"])
    assert program == "pochette" and argv[-1] == "--format=json"
    assert json.loads(_strip_wall_ms(_stdout(argv), "json")) == first


@pytest.mark.parametrize("case", sorted(PLAIN_CASES))
def test_plain_output_matches_corpus(case):
    expected = (CORPUS / f"{case}.txt").read_text()
    assert _stdout(list(PLAIN_CASES[case])) == expected


@pytest.mark.parametrize(
    "bad_argv",
    [
        ("surger", "spun-trefoil", "--slope=3/1", "--bogus"),  # argparse exits 2
        ("surger", "spun-trefoil", "--slope=3/1", "--max-cosets=0"),  # InputError
    ],
)
def test_bad_call_leaves_the_parser_reusable(bad_argv, monkeypatch):
    # main builds its parser once per process
    monkeypatch.chdir(CORPUS)
    with pytest.raises(SystemExit) as exited:
        sys.exit(main(list(bad_argv)))
    assert exited.value.code == 2
    report = _run(CASES["surger-not-sphere"], "text")
    assert report == (CORPUS / "surger-not-sphere.txt").read_text()


def test_every_subcommand_has_a_case():
    (subparsers,) = [
        action
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    covered = {argv[0] for argv in (*CASES.values(), *PLAIN_CASES.values())}
    assert set(subparsers.choices) <= covered


def regenerate() -> None:
    os.chdir(CORPUS)
    for case, argv in CASES.items():
        with mock.patch.dict(os.environ, ENV.get(case, {})):
            for suffix, fmt in FORMATS.items():
                (CORPUS / f"{case}.{suffix}").write_text(_run(argv, fmt))
    for case, argv in PLAIN_CASES.items():
        (CORPUS / f"{case}.txt").write_text(_stdout(list(argv)))


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
