"""Every function, method and class in src/gpspec is read somewhere in
src/gpspec: its name appears there apart from its own definition, as a
name, an attribute or an identifier in a string (the package's export
table).  Dunder methods are called by Python itself and are exempt.  A
definition that nothing reads is deleted, not kept for later."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gpspec"

# read only by perfbench's span table, which times them as layers
ALLOWED = {"GradedSubmodule.quotient_invariants", "intlinalg.element_order_in_quotient"}


def definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, line) of every def and class in tree."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}.{child.name}", child.name, child.lineno
                yield from walk(child, child.name)
            else:
                yield from walk(child, prefix)
    yield from walk(tree, module)


def reads(tree: ast.Module) -> Counter:
    """How often each identifier is read in tree."""
    seen = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute):
            seen[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            seen[node.value] += 1
    return seen


def test_every_definition_in_src_is_read_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py"))}
    seen = sum((reads(tree) for tree in trees.values()), Counter())
    unread = {
        qualified: f"{module}.py:{line}"
        for module, tree in trees.items()
        for qualified, name, line in definitions(tree, module)
        if not (name.startswith("__") and name.endswith("__")) and not seen[name]
    }
    assert unread.keys() - ALLOWED == set(), unread
    assert ALLOWED - unread.keys() == set(), "now read in src/: drop it from ALLOWED"
