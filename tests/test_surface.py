"""The package's public surface: ``invdel.__all__`` is what its submodules
define, stated once."""

import importlib
import pkgutil

import invdel

SUBMODULES = [importlib.import_module(f"invdel.{info.name}")
              for info in pkgutil.iter_modules(invdel.__path__)]


def test_every_public_name_is_defined_by_a_submodule():
    # A submodule, or a name that the package imports for its own use, is
    # no submodule's attribute.
    for name in invdel.__all__:
        value = getattr(invdel, name)
        assert any(getattr(module, name, None) is value for module in SUBMODULES), name


def test_a_star_import_binds_exactly_the_sorted_public_names():
    namespace: dict = {}
    exec("from invdel import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == invdel.__all__ == sorted(invdel.__all__)
