"""The examples in the docstrings of every tauforms module run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import tauforms

MODULES = ["tauforms"] + sorted(m.name for m in pkgutil.iter_modules(tauforms.__path__, "tauforms."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_the_series_examples_are_found():
    # a finder that sees no example would pass vacuously
    for name in ("tauforms.qseries", "tauforms.forms"):
        assert doctest.testmod(importlib.import_module(name)).attempted > 0
