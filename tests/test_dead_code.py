"""Every public top-level function or class of the package is either used
somewhere in the package or exported in grasspoly.__all__, every private
one, and every private module-level constant, is read somewhere in the
package, every parameter of a package function is read in its body, and
every command line option is read by the command line module."""

import argparse
import ast
import pathlib

import grasspoly
from grasspoly import cli


def _package_trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in pathlib.Path(grasspoly.__file__).parent.glob("*.py")}


def _names_used(trees):
    # a name that is only assigned to is not used
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def _top_level_definitions(trees):
    return [(name, node.name)
            for name, tree in sorted(trees.items()) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _top_level_assignments(trees):
    """(module, name) of each name that a module-level assignment binds,
    such as a compiled pattern or a table of constants."""
    out = []
    for name, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            out.extend((name, n.id) for target in targets
                       for n in ast.walk(target) if isinstance(n, ast.Name))
    return out


def test_no_unreferenced_public_helpers():
    trees = _package_trees()
    # the imports of __init__.py are checked through __all__
    used = _names_used(tree for name, tree in trees.items()
                       if name != "__init__.py")
    dead = [f"{name}:{definition}"
            for name, definition in _top_level_definitions(trees)
            if not definition.startswith("_")
            and definition not in used
            and definition not in grasspoly.__all__]
    assert dead == []


def test_no_unreferenced_private_helpers():
    # every underscored top-level function, class or assigned name is
    # read somewhere in the package; module hooks such as __getattr__ and
    # names such as __all__ are Python's to use
    trees = _package_trees()
    used = _names_used(trees.values())
    dead = [f"{name}:{definition}"
            for name, definition in (_top_level_definitions(trees)
                                     + _top_level_assignments(trees))
            if definition.startswith("_")
            and not definition.endswith("__")
            and definition not in used]
    assert dead == []


# Parameters kept only so that existing callers still work.  The
# benchmark workers still pass num_points and seed to the Steinberg check,
# which evaluates no point (see the FOUND: on perfbench/ in CHANGES.md);
# both keywords go when those callers drop them.  An entry that names a
# function that no longer exists, or a parameter that its function reads
# or no longer has, fails the test, so the list cannot outlive its callers.
_KEPT_UNREAD = {"check_steinberg_wedge": {"num_points", "seed"}}


def test_no_unread_parameters():
    # a method's receiver is Python's to pass, and __setattr__ only refuses
    unread, kept_unread = [], set()
    for name, tree in sorted(_package_trees().items()):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            params = [arg.arg for arg in a.posonlyargs + a.args
                      + a.kwonlyargs + [a.vararg, a.kwarg] if arg]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            function = getattr(node, "name", "<lambda>")
            kept_unread |= {(function, param) for param in params
                            if param in _KEPT_UNREAD.get(function, ())
                            and param not in read}
            kept = {"self", "cls"} | _KEPT_UNREAD.get(function, set())
            if function == "__setattr__":
                kept |= {"name", "value"}
            unread.extend(f"{name}:{function}:{param}" for param in params
                          if param not in read and param not in kept)
    assert unread == []
    stale = sorted((function, param)
                   for function, params in _KEPT_UNREAD.items()
                   for param in params
                   if (function, param) not in kept_unread)
    assert stale == []


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
