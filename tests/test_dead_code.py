"""Every function, method and class in src/gpspec is read somewhere in
src/gpspec: its name appears there apart from its own definition, as a
name, an attribute or an identifier in a string (the package's export
table).  A method or property counts as read only as an attribute or in a
string, since a bare name of the same spelling (a local variable) never
reaches it.  Dunder methods are called by Python itself and are exempt.  A
definition that nothing reads is deleted, not kept for later."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gpspec"

# read only by perfbench's span table, which times them as layers
ALLOWED = {"GradedSubmodule.quotient_invariants", "intlinalg.element_order_in_quotient"}


def definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, line, whether a method) of every def and
    class in tree; a method is a def directly in a class body."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                method = isinstance(node, ast.ClassDef) and not isinstance(child, ast.ClassDef)
                yield f"{prefix}.{child.name}", child.name, child.lineno, method
                yield from walk(child, child.name)
            else:
                yield from walk(child, prefix)
    yield from walk(tree, module)


def reads(tree: ast.Module) -> tuple[Counter, Counter]:
    """How often each identifier is read in tree: as a bare name, and as an
    attribute or a string."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes[node.value] += 1
    return names, attributes


def test_every_definition_in_src_is_read_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py"))}
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        by_name, by_attribute = reads(tree)
        names += by_name
        attributes += by_attribute
    unread = {
        qualified: f"{module}.py:{line}"
        for module, tree in trees.items()
        for qualified, name, line, method in definitions(tree, module)
        if not (name.startswith("__") and name.endswith("__"))
        and not attributes[name] and (method or not names[name])
    }
    assert unread.keys() - ALLOWED == set(), unread
    assert ALLOWED - unread.keys() == set(), "now read in src/: drop it from ALLOWED"
