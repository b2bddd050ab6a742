"""Static checks over the package source."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

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


# every name the package bound when its __init__ listed them by hand: the
# public names, __version__ and the submodules; cli, bound only once some
# caller imports it, is not among them
PACKAGE_NAMES = {
    "AbelianInvariants", "Budgets", "CordVerdict", "EnumerationVerdict",
    "FinitePresentation", "FusionData", "Generator", "InputError", "InvalidFusionGraph",
    "PermutationAssignment", "PochetteEmbeddingData", "SlopeSpec", "SurgeryInvariants",
    "TietzeResult", "Verdict", "Word", "abelian_invariants", "add_relator",
    "assignment_satisfies", "certify_trivial", "cord_triviality", "cyclically_reduce",
    "detect_s4", "enumerate_cosets", "exponent_sum", "find_noncyclic_quotient",
    "format_fusion", "format_presentation", "hom_to_Z", "image_is_cyclic", "invert",
    "linking_number", "load_preset", "n_fusion_presentation", "one_fusion_presentation",
    "parse_fusion_file", "parse_presentation", "parse_word", "random_embedding",
    "random_fusion_data", "relators_equivalent", "spun_trefoil",
    "spun_trefoil_embedding", "subgroup_membership", "substitute", "surgery_homology",
    "surgery_invariants", "surgery_pi1", "surgery_relator_word", "tietze_simplify",
    "word_image", "word_to_text", "__version__", "abelian", "budgets", "coset_enum",
    "errors", "presentations", "quotient_search", "ribbon", "surgery", "words",
}


def test_package_reexports_every_module_api():
    # the package's API is the union of its modules' __all__ lists, cli's
    # entry point aside, and it keeps every name it ever exported
    missing = object()
    differ = []
    for path in SOURCES:
        if path.stem in ("__init__", "__main__", "cli"):
            continue
        module = importlib.import_module(f"pochette.{path.stem}")
        differ += [
            f"{path.stem}.{name}"
            for name in module.__all__
            if getattr(pochette, name, missing) is not getattr(module, name)
        ]
    assert differ == []
    assert sorted(PACKAGE_NAMES - set(dir(pochette))) == []


def test_no_private_name_crosses_a_module():
    # an underscore name belongs to its module; a second module that needs
    # it should get a public name from its owner
    crossing = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").partition(".")[0] == "pochette")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert crossing == []


def test_bench_binding_sites_resolve():
    # bench/spans.py wraps functions at the module attributes named in its
    # "pochette.<module>:<name>" strings; one the package no longer binds
    # would fail every traced benchmark run, so it fails here, by name
    spans = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    if not spans.exists():
        pytest.skip("bench/ is not in this checkout")
    sites = [
        node.value
        for node in ast.walk(ast.parse(spans.read_text(), filename=str(spans)))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and re.fullmatch(r"pochette\.\w+:\w+", node.value)
    ]
    assert sites
    unbound = []
    for site in sites:
        module_name, attribute = site.split(":")
        if not hasattr(importlib.import_module(module_name), attribute):
            unbound.append(site)
    assert unbound == []
