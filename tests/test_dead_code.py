"""Every public top-level function or class of the package is either used
somewhere in the package or exported in grasspoly.__all__, and every
command line option is read by the command line module."""

import argparse
import ast
import pathlib

import grasspoly
from grasspoly import cli


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


def test_every_cli_option_is_read():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    parser = cli.build_parser()
    subparsers, = (action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
    unread = [f"{name}: {action.dest}"
              for name, sub in [("grasspoly", parser)]
              + sorted(subparsers.choices.items())
              for action in sub._actions
              if not isinstance(action, argparse._HelpAction)
              and action.dest not in read]
    assert unread == []
