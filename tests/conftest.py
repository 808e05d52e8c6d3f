"""Shared test set-up.

`per_word_sum` integrates an element word by word, through the prefix
trie of `iterate_words`: the oracle of the element's automaton, which the
same sweep runs on the other layout.

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
from grasspoly.iterint import iterate_words


@pytest.fixture(autouse=True, scope="session")
def cli_imports_the_tested_package():
    src = str(Path(grasspoly.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src + (os.pathsep + rest if rest else ""))
        yield


def _per_word_sum(t, path, tol=1e-12):
    """sum_w c_w It(w) over the element's terms, from one iterate_words
    sweep of its words."""
    terms = t.items_sorted()
    words = [tuple(((1, sym),) for sym in slots) for slots, _ in terms]
    results = iterate_words(words, path, tol=tol)
    return sum(complex(c) * r.value for (_, c), r in zip(terms, results))


@pytest.fixture
def per_word_sum():
    return _per_word_sum
