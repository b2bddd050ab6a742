"""Static checks over the package source."""

from __future__ import annotations

import ast
import importlib
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


def test_all_names_exist():
    # a name deleted from a module but still listed in its __all__
    missing = []
    for path in SOURCES:
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"pochette.{path.stem}")
        missing += [
            f"{path.stem}.{name}" for name in module.__all__ if not hasattr(module, name)
        ]
    assert missing == []


def test_package_imports_only_exported_names():
    init = Path(pochette.__file__)
    unlisted = []
    for node in ast.parse(init.read_text(), filename=str(init)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"pochette.{node.module}").__all__
            unlisted += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if alias.name not in exported
            ]
    assert unlisted == []
