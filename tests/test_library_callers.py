"""The library holds only code the system runs: every top-level function and
method in ``src/sketchparse`` is referenced, by name or attribute, somewhere
in the package outside its own body. References that exist only to serve
tests belong in ``tests/oracles.py``."""

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


def _names(node: ast.AST) -> Counter:
    """How often each name is read as a variable or an attribute under node."""
    counts: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
    return counts


def _definitions(tree: ast.Module, module: str):
    """(qualified name, def node) for each top-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", item


def unreferenced() -> set[str]:
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"  # its re-exports are not callers
    }
    total = sum((_names(tree) for tree in trees.values()), Counter())
    found = set()
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the language
            if total[name] - _names(node)[name] == 0:
                found.add(qualname)
    return found


def test_every_library_function_has_a_library_caller():
    assert unreferenced() == set(ALLOWED)
