"""Every top-level private name of the package (a `_name` function, class
or constant, not a dunder) is read by some package code besides its own
definition.  A helper that only the tests reach is dead code: delete it,
or give it a caller in `src/`."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "pathgain").glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _reads(tree) -> Counter:
    """How often each name is read in tree: as a name, an attribute or an
    imported name."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def _private_definitions(tree):
    """(name, node) of each top-level private function, class or
    constant; node is the part of the definition whose reads are its own."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if _is_private(node.name):
                yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _is_private(target.id):
                    yield target.id, node.value


TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
DEFINITIONS = [(module, name, node) for module, tree in TREES.items()
               for name, node in _private_definitions(tree)]


def test_the_package_defines_private_names():
    assert len(DEFINITIONS) > 20


@pytest.mark.parametrize("module, name, node", DEFINITIONS,
                         ids=[f"{module}:{name}" for module, name, _ in DEFINITIONS])
def test_private_name_is_read_by_the_package(module, name, node):
    reads = sum((_reads(tree)[name] for tree in TREES.values()))
    own = _reads(node)[name] if node is not None else 0
    assert reads > own, f"{module}: {name} is read only by its own definition"
