"""Where code lives: a private helper of the library is there for the
library.  One that only the tests call belongs in ``tests/``, as the
reference builders in ``conftest`` do."""

import ast
from pathlib import Path

import crossflow

SRC = Path(crossflow.__file__).resolve().parent


def _names_used(tree: ast.AST) -> set[str]:
    """The names that ``tree``'s code reads, as names, attributes or
    imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_private_helper_is_used_by_the_library():
    # every top-level statement of src/, with the names its code reads; a
    # private function or class must be read by a statement other than its
    # own definition.  _kernels holds the backtracking kernels, which only
    # the tests and the benchmark harness call.
    statements = [
        (path.name, node, _names_used(node))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    unused = [
        f"{module}: {node.name}"
        for module, node, _ in statements
        if module != "_kernels.py"
        and isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not any(node.name in used for _, other, used in statements if other is not node)
    ]
    assert not unused, unused
