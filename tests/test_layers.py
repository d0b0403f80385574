"""The import graph of the package, pinned.

``moves`` holds what a move is and how moves chain: the rules, the fan,
edge inverses, traces and the chain builder.  ``markov`` (the search and
certificate files) and ``derived`` (the derived moves) both build on it,
and neither reaches into the other; the diagram layers use none of the
three.  Each module's imports are read from its source with ``ast``.
"""

import ast
import pathlib

import pytest

import doodlekit
from doodlekit import markov

PKG = pathlib.Path(doodlekit.__file__).parent
MODULES = sorted(p.stem for p in PKG.glob("*.py"))


def tree(module):
    return ast.parse((PKG / f"{module}.py").read_text())


def imports(module):
    """{package module: names imported from it} for one module; a bare
    ``import`` of a package module, or ``from . import m``, takes no names."""
    out = {}
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module
            elif node.level == 0 and (node.module or "").startswith("doodlekit"):
                source = node.module.partition(".")[2] or None
            else:
                continue
            if source is None:
                for alias in node.names:
                    if alias.name in MODULES:
                        out.setdefault(alias.name, set())
                    else:
                        out.setdefault("__init__", set()).add(alias.name)
            else:
                out.setdefault(source, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("doodlekit."):
                    out.setdefault(alias.name.split(".")[1], set())
    return out


def test_the_graph_is_read():
    # the reader sees the imports it is meant to judge
    assert set(imports("markov")) == {"errors", "moves", "words"}
    assert "_Builder" in imports("derived")["moves"]
    assert imports("cli")["__init__"] == {"__version__"}


def test_moves_imports_only_words_and_errors():
    assert set(imports("moves")) <= {"words", "errors"}


def test_derived_imports_nothing_from_markov():
    assert "markov" not in imports("derived")


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"moves"}))
def test_only_moves_builds_square_chains(module):
    # _edge_trace joins unreduced ends, and edge inverses their cancelled letters
    assert "_square_edges" not in set().union(*imports(module).values()), module


def test_derived_applies_moves_only_through_the_builder():
    assert "_apply_int" not in imports("derived")["moves"]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_private_name_of_markov(module):
    private = [name for name in imports(module).get("markov", ()) if name.startswith("_")]
    assert not private, (module, private)


@pytest.mark.parametrize("module", ["gauss", "alexander", "freegroup"])
def test_diagram_layers_import_no_move_layer(module):
    assert not set(imports(module)) & {"markov", "moves", "derived"}, module


def test_no_function_or_class_is_defined_in_two_modules():
    where = {}
    for module in MODULES:
        for node in tree(module).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                where.setdefault(node.name, []).append(module)
    assert {name: mods for name, mods in where.items() if len(mods) > 1} == {}


# every public name of markov that is a doodlekit object; the stdlib and
# typing names a module happens to import are not part of its interface
MARKOV_NAMES = (
    "Budget", "CertificateError", "Distinct", "DoodleError", "Edge", "Equivalent",
    "Letter", "MoveInstance", "MoveTrace", "PatternMismatch", "State", "TwinWord",
    "Unknown", "Verdict", "apply_move", "closure_components", "equivalent_closures",
    "format_certificate", "format_word", "neighbors", "parse_certificate", "parse_word",
    "verify_certificate",
)


def test_markov_keeps_its_public_names():
    assert [name for name in MARKOV_NAMES if not hasattr(markov, name)] == []
    assert markov.MoveTrace is doodlekit.MoveTrace and markov.MoveInstance is doodlekit.MoveInstance
