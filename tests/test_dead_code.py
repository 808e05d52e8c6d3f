"""Every public top-level function or class of the package is either used
somewhere in the package or exported in grasspoly.__all__."""

import ast
import pathlib

import grasspoly


def test_no_unreferenced_public_helpers():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in pathlib.Path(grasspoly.__file__).parent.glob("*.py")}
    used = set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue  # its imports are checked through __all__
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    dead = [f"{name}:{node.name}"
            for name, tree in sorted(trees.items()) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in used
            and node.name not in grasspoly.__all__]
    assert dead == []
