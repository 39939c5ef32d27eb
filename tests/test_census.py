"""Every name `src/fcodes` defines is called by a program, not only by tests.

A program here is a file under `src/`, `scripts/` or `perfbench/`. The census
is a name check: a definition passes when its name appears in one of those
files outside the definition itself, as a name, an attribute, an import alias,
a keyword argument or a string constant that is an identifier (`cli._BOUNDS`
and `perfbench/spans.py` name their targets as strings). It does not resolve
what a name refers to, so a local variable or another class's member of the
same name hides an unused one (`ones` and `parities` were hidden so, by local
variables, before they left `BitWord` and `FccEncoder`).
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ("src", "scripts", "perfbench")

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(tree: ast.AST) -> Counter:
    """How often each identifier is named under `tree`."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
            if node.asname:
                found[node.asname] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            found[node.arg] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found[node.value] += 1
    return found


def unnamed_definitions(root: Path = ROOT) -> list[str]:
    """`path:line name` of each non-dunder definition under `root/src/fcodes`
    whose name no program file holds outside that definition."""
    named: Counter = Counter()
    definitions = []
    for top in PROGRAMS:
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            named += _names(tree)
            if top == "src":
                definitions += [(path, node) for node in ast.walk(tree)
                                if isinstance(node, _DEFINITIONS)]
    unnamed = []
    for path, node in definitions:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if named[name] - _names(node)[name] <= 0:
            unnamed.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    return unnamed


def test_every_definition_in_src_is_named_by_a_program():
    assert unnamed_definitions() == []
