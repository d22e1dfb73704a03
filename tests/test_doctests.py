"""The examples in the package docstrings run and give what they show."""

import doctest
import importlib
import pkgutil

import dyalg


def test_package_doctests_pass():
    failed = attempted = 0
    for info in pkgutil.iter_modules(dyalg.__path__):
        module = importlib.import_module(f"dyalg.{info.name}")
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 10
