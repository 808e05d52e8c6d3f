"""Shared test set-up.

The command line tests run ``python -m grasspoly.cli`` in subprocesses.
They must import the same package as the tests themselves, also when
the package is not installed and only pytest's own ``pythonpath`` points
at ``src``, so the directory holding the imported package is put first
on the subprocesses' PYTHONPATH.
"""

import os
from pathlib import Path

import pytest

import grasspoly


@pytest.fixture(autouse=True, scope="session")
def cli_imports_the_tested_package():
    src = str(Path(grasspoly.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src + (os.pathsep + rest if rest else ""))
        yield
