"""Static checks over the package source."""

from __future__ import annotations

import ast
from pathlib import Path

import pochette

SOURCES = sorted(Path(pochette.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "abelian.py", "cli.py"}


def test_no_assert_statements():
    # python -O strips assert statements, so a certificate check written
    # as one would silently stop checking; checks raise CertificateError
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
