"""Per-layer tracing of invdel, installed from outside the library.

invdel modules bind each other's entry points by name
(``from .expr import canonicalize``), so wrapping a function only in its
defining module would miss most call sites.  ``Tracer.install`` therefore
rebinds the wrapper in every loaded ``invdel`` module that holds the
function.  Recursive functions (``differentiate``, ``eval_numeric``) call
themselves through their defining module's global, which is left alone:
only their importers' bindings are wrapped, so each outermost call is one
span and the recursion runs at full speed.

Each span adds one call and its self time (duration minus the time its
traced children took).  ``canonicalize`` also sums the terms it produced,
and every entry point counts the refusals (``NotIntegrable`` or
``UnsupportedExpression``) it raised.  The tracer only counts while
installed; ``uninstall`` restores every binding it replaced.
"""

from __future__ import annotations

import sys
import time

ENTRY_POINTS = {
    "parser": ("parse", "render"),
    "expr": ("canonicalize", "substitute", "reciprocal", "eval_numeric"),
    "calculus": ("differentiate", "antidifferentiate", "split_by_variable",
                 "weighted_split_integral"),
    "vecops": ("curl", "divergence", "gradient"),
    "inverse": ("inverse_curl", "curl_potential_formula", "inverse_divergence",
                "inverse_gradient"),
    "verify": ("roundtrip_report",),
    "coords": ("builtin",),
}

RECURSIVE = {("calculus", "differentiate"), ("expr", "eval_numeric")}
PACKAGE = "invdel"


class Stat:
    __slots__ = ("calls", "self_s", "terms_out", "refused")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.terms_out = 0
        self.refused = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Counts calls and self time of the ENTRY_POINTS of a loaded invdel."""

    def __init__(self):
        self.stats = {f"{module}.{fn}": Stat()
                      for module, names in ENTRY_POINTS.items() for fn in names}
        self._stack: list[float] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        errors = sys.modules[f"{PACKAGE}.errors"]
        refusals = (errors.NotIntegrable, errors.UnsupportedExpression)
        prefix = PACKAGE + "."
        holders = [module for name, module in sorted(sys.modules.items())
                   if module is not None
                   and (name == PACKAGE or name.startswith(prefix))]
        for module_name, names in ENTRY_POINTS.items():
            home = sys.modules[prefix + module_name]
            for fn_name in names:
                original = getattr(home, fn_name)
                key = f"{module_name}.{fn_name}"
                wrapper = self._wrap(self.stats[key], original, refusals,
                                     count_terms=key == "expr.canonicalize")
                for module in holders:
                    if module is home and (module_name, fn_name) in RECURSIVE:
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, stat: Stat, fn, refusals, count_terms: bool):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except refusals:
                stat.refused += 1
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if count_terms:
                stat.terms_out += len(result.terms)
            return result

        return traced

    def snapshot(self) -> dict:
        return {key: stat.as_dict() for key, stat in self.stats.items()}
