"""The library holds only code the system runs: every top-level function in
``src/sketchparse`` is referenced, by name or attribute, and every method by
attribute, somewhere in the package outside its own body. A bare name does
not reach a method, so a local variable that shares its name hides nothing.
References that exist only to serve tests belong in ``tests/oracles.py``."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sketchparse"

# Reached from outside the package; each entry gives the caller.
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a bad command line",
    "data.load_mspars_text": "the reader for the paper's data format, documented in the README",
    "pipeline.predict": "the README's entry point",
    "genscore.seq_loss": "bench/harness.install wraps it by name",
}


def _names(node: ast.AST, attributes_only: bool = False) -> Counter:
    """How often each name is read as an attribute under node, and also as
    a variable unless ``attributes_only``."""
    counts: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.Name) and not attributes_only:
            counts[sub.id] += 1
    return counts


def _definitions(tree: ast.Module, module: str):
    """(qualified name, def node, is a method) for each top-level function
    and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", item, True


def unreferenced() -> set[str]:
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"  # its re-exports are not callers
    }
    totals = {
        flag: sum((_names(tree, flag) for tree in trees.values()), Counter())
        for flag in (False, True)
    }
    found = set()
    for module, tree in trees.items():
        for qualname, node, is_method in _definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the language
            if totals[is_method][name] - _names(node, is_method)[name] == 0:
                found.add(qualname)
    return found


def test_every_library_function_has_a_library_caller():
    assert unreferenced() == set(ALLOWED)
