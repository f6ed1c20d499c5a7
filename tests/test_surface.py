"""The package's public surface: ``invdel.__all__`` is what its submodules
define, stated once, and each operator on a field checks its type."""

import importlib
import inspect
import pkgutil

import pytest

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


def test_every_operator_on_a_field_refuses_a_bare_form():
    # A public callable whose first parameter is a field checks its type at
    # the door; each required positional parameter gets the bare form.
    form = invdel.parse("x")
    fields = (invdel.VectorField, invdel.ScalarField)
    message = r" must be a (Vector|Scalar)Field, not a CanonicalForm$"
    operators = set()
    for name in invdel.__all__:
        value = getattr(invdel, name)
        if not inspect.isfunction(value):
            continue
        parameters = list(inspect.signature(value, eval_str=True).parameters.values())
        if parameters and parameters[0].annotation in fields:
            operators.add(name)
            required = [p for p in parameters if p.default is p.empty
                        and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
            with pytest.raises(invdel.ValidationError, match=message):
                value(*[form] * len(required))
    assert operators >= {"curl", "divergence", "gradient", "inverse_curl", "inverse_divergence",
                         "inverse_gradient", "curl_potential_formula", "curl_integrands",
                         "gauge_shift_curl", "gauge_shift_div"}, operators
