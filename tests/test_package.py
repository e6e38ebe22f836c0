"""Every name a ``belllab`` module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import belllab

MODULES = sorted(info.name for info in pkgutil.iter_modules(belllab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_all(name):
    module = importlib.import_module(f"belllab.{name}")
    namespace = {}
    exec(f"from belllab.{name} import *", namespace)  # AttributeError on a stale name
    assert set(module.__all__) <= set(namespace)
