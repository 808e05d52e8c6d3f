"""The package namespace: every exported name is resolved from its home
module on first use, and every module is registered in `sys.modules` by
`import grasspoly` alone."""

import importlib
import subprocess
import sys

import pytest

import grasspoly


def test_exported_names_resolve_to_their_home_objects():
    assert len(set(grasspoly.__all__)) == len(grasspoly.__all__)
    listed = dir(grasspoly)
    for module, names in grasspoly._EXPORTS.items():
        home = importlib.import_module(f"grasspoly.{module}")
        for name in names:
            assert getattr(grasspoly, name) is getattr(home, name), name
            assert name in listed, name
    assert grasspoly.__all__ == [name for names in grasspoly._EXPORTS.values()
                                 for name in names]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        grasspoly.no_such_name
    assert not hasattr(grasspoly, "_no_such_private_name")
    with pytest.raises(ImportError):
        exec("from grasspoly import no_such_name", {})


def test_layer_attributes_are_the_registered_modules():
    for module in grasspoly._EXPORTS:
        assert getattr(grasspoly, module) is sys.modules[
            f"grasspoly.{module}"]


def test_import_runs_no_module():
    """`import grasspoly` registers every module and runs none of them;
    the first exported name taken from one runs that module and what it
    imports, and only those."""
    code = (
        "import sys, types\n"
        "import grasspoly\n"
        "def ran():\n"
        "    return sorted(m for m in grasspoly._EXPORTS if type(\n"
        "        sys.modules['grasspoly.' + m]) is types.ModuleType)\n"
        "print(*ran(), sep=',')\n"
        "grasspoly.MultTensor\n"
        "print(*ran(), sep=',')\n"
        "grasspoly.build_element\n"
        "print(*ran(), sep=',')\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "", "errors,tensors", "elements,errors,tensors"]
