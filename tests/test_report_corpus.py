"""Fixed command corpus: reports must stay byte-identical except for wall_ms.

Each case runs one CLI command in both formats from inside
``tests/corpus`` (so file sources and the echoed command are relative)
and compares stdout, with the ``wall_ms`` field removed, against the
stored ``<case>.txt`` / ``<case>.json``.  Refresh the expected files
only on purpose, with ``python tests/test_report_corpus.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from pochette.cli import main

CORPUS = Path(__file__).parent / "corpus"

CASES = {
    "surger-not-sphere": ("surger", "spun-trefoil", "--slope=3/1"),
    "surger-certified": ("surger", "spun-trefoil", "--slope=40/41"),
    "surger-unknown": ("surger", "spun-trefoil", "--slope=40/41", "--max-cosets=200"),
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
    "cordcheck": (
        "cordcheck", "spun-trefoil", "--cord=y", "--degree=4", "--max-cosets=2000",
    ),
}
FORMATS = {"txt": "text", "json": "json"}


def _strip_wall_ms(out: str, fmt: str) -> str:
    if fmt == "json":
        report = json.loads(out)
        del report["wall_ms"]
        return json.dumps(report, indent=2) + "\n"
    return "".join(
        line for line in out.splitlines(keepends=True) if not line.startswith("wall_ms: ")
    )


def _run(argv: tuple[str, ...], fmt: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([*argv, f"--format={fmt}"])
    assert code == 0, argv
    return _strip_wall_ms(buffer.getvalue(), fmt)


@pytest.mark.parametrize("suffix", sorted(FORMATS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_corpus(case, suffix, monkeypatch):
    monkeypatch.chdir(CORPUS)
    expected = (CORPUS / f"{case}.{suffix}").read_text()
    assert _run(CASES[case], FORMATS[suffix]) == expected


def regenerate() -> None:
    os.chdir(CORPUS)
    for case, argv in CASES.items():
        for suffix, fmt in FORMATS.items():
            (CORPUS / f"{case}.{suffix}").write_text(_run(argv, fmt))


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
