"""Command-line interface (see the README's "Command line").

Every command keeps its expressions in one list, ``texts``, and runs
through one runner, ``_run``: it parses the field of the command's kind
(``verify KIND`` runs as ``KIND --verify``), applies the kind's operator
(``inverse.construct`` for an inverse) and renders the result as parts with
``vecops.rendered``.  The CLI only splits its input: each value type reads
its own text and raises ValidationError for a value it cannot read.
``main(argv)`` is the in-process API; ``run``, the process entry, freezes
the garbage collector after ``main``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .coords import BUILTIN_NAMES, CoordinateSystem, builtin, custom
from .errors import MAX_ECHOED_CHARS, InvdelError, ValidationError, _echoed
from .inverse import BasePoint, DivergenceWeights, construct, gauge_shift_curl, gauge_shift_div
from .parser import parse
from .vecops import ScalarField, VectorField, curl, divergence, gradient, rendered
from .verify import roundtrip_report


class _Parser(argparse.ArgumentParser):
    """Cuts each outside text a usage error echoes, as ``_echoed`` does."""

    def parse_known_args(self, args=None, namespace=None):
        self._texts = list(sys.argv[1:] if args is None else args)
        return super().parse_known_args(self._texts, namespace)

    def error(self, message):
        # An echo is an argument, its value after "=" or a short option's tail,
        # bare or as its repr; a longer text goes first, as it may hold a shorter.
        texts = {t for s in self._texts for t in (s, s.partition("=")[2], s[2:])
                 if len(t) > MAX_ECHOED_CHARS}
        for text in sorted(texts, key=lambda t: (-len(t), t)):
            message = message.replace(repr(text), _echoed(repr(text))).replace(text, _echoed(text))
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(
        prog="invdel",
        description="Symbolic curl, divergence and gradient and their "
                    "inverses in orthogonal curvilinear coordinates.",
    )
    sub = root.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--coords", choices=BUILTIN_NAMES, default="cartesian",
                        help="builtin coordinate system (default: cartesian)")
    common.add_argument("--coords-file", metavar="PATH",
                        help="load a custom coordinate system from a key/value file")
    common.add_argument("--format", choices=("text", "json"), default="text")

    checks = argparse.ArgumentParser(add_help=False)
    checks.add_argument("--verify", action="store_true",
                        help="attach a round-trip verification report")
    checks.add_argument("--samples", type=int, default=100)
    checks.add_argument("--seed", type=int, default=42)
    # Options that only some inverse kinds take; the runner reads them all.
    checks.set_defaults(unchecked=False, gauge_scalar=None, gauge_vector=None,
                        weights=None, base=None, c0=None)

    # Every command's expressions are the list ``texts``; metavars name them.
    p = sub.add_parser("curl", parents=[common], help="curl of a vector field")
    p.add_argument("texts", nargs=3, metavar="components")

    p = sub.add_parser("div", parents=[common], help="divergence of a vector field")
    p.add_argument("texts", nargs=3, metavar="components")

    p = sub.add_parser("grad", parents=[common], help="gradient of a scalar field")
    p.add_argument("texts", nargs=1, metavar="expression")

    p = sub.add_parser("inv-curl", parents=[common, checks],
                       help="vector potential of a solenoidal field")
    p.add_argument("texts", nargs=3, metavar="components")
    p.add_argument("--gauge-scalar", metavar="EXPR",
                   help="add the gradient of this scalar to the result")
    p.add_argument("--unchecked", action="store_true",
                   help="skip the solenoidality gate; report the residual")

    p = sub.add_parser("inv-div", parents=[common, checks],
                       help="vector field with prescribed divergence")
    p.add_argument("texts", nargs=1, metavar="expression")
    p.add_argument("--weights", metavar="K1,K2,K3",
                   help="component weights summing to 1 (default: 1/3,1/3,1/3)")
    p.add_argument("--gauge-vector", metavar="E1,E2,E3",
                   help="add the curl of this vector to the result")

    p = sub.add_parser("inv-grad", parents=[common, checks],
                       help="scalar potential of a conservative field")
    p.add_argument("texts", nargs=3, metavar="components")
    p.add_argument("--base", metavar="A,B,C",
                   help="base point of the integration path (default: system default)")
    p.add_argument("--c0", metavar="VALUE", help="additive constant (default: 0)")
    p.add_argument("--unchecked", action="store_true",
                   help="skip the conservativeness gate; report the residual")

    p = sub.add_parser("verify", parents=[common],
                       help="run a round-trip verification report")
    p.add_argument("kind", choices=("inv-curl", "inv-div", "inv-grad"))
    p.add_argument("texts", nargs="+", metavar="expressions")
    p.add_argument("--weights", metavar="K1,K2,K3")
    p.add_argument("--base", metavar="A,B,C")
    p.add_argument("--c0", metavar="VALUE")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    # With these the kind's inverse runs as under KIND --verify.
    p.set_defaults(verify=True, unchecked=False, gauge_scalar=None, gauge_vector=None)

    return root


def _three(text: str, what: str, items: str = "values") -> list[str]:
    """The three comma-separated texts of an option; the reading is left to
    the value they build."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"{what} needs three comma-separated {items}")
    return parts


def load_system_file(path: str) -> CoordinateSystem:
    """Read names/h1/h2/h3/base/box from a flat key = value file."""
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValidationError(
                        f"{path}:{line_number}: expected 'key = value'")
                key, _, value = line.partition("=")
                entries[key.strip()] = value.strip()
    except OSError as exc:
        raise ValidationError(f"cannot read coordinate file: {_echoed(str(exc))}") from None
    missing = [k for k in ("names", "h1", "h2", "h3", "base", "box") if k not in entries]
    if missing:
        raise ValidationError(
            f"coordinate file is missing keys: {', '.join(missing)}")
    names = tuple(n.strip() for n in entries["names"].split(","))
    box = []
    for interval in entries["box"].split(","):
        lo, sep, hi = interval.partition(":")
        if not sep:
            raise ValidationError("box intervals use the form lo:hi")
        box.append((lo, hi))
    return custom(
        names=names,
        scale_factors=(entries["h1"], entries["h2"], entries["h3"]),
        base_point=entries["base"].split(","),
        sampling_box=box,
        label=path,
    )


def _base_arg(ns: argparse.Namespace, system: CoordinateSystem) -> Optional[BasePoint]:
    if ns.base is None and ns.c0 is None:
        return None
    base = system.base_point if ns.base is None else _three(ns.base, "base coordinate")
    return BasePoint(*base, 0 if ns.c0 is None else ns.c0)


def _run(ns: argparse.Namespace, payload: dict) -> None:
    """Every command: load the system, parse the field, apply the kind's
    operator, render.  ``verify KIND`` is ``KIND --verify``; the verify
    parser's defaults make it so."""
    system = load_system_file(ns.coords_file) if ns.coords_file else builtin(ns.coords)
    kind = ns.kind if ns.command == "verify" else ns.command
    texts = ns.texts
    if kind in ("grad", "inv-div"):
        if len(texts) != 1:
            raise ValidationError(f"verify {kind} takes one scalar expression")
        field = ScalarField(parse(texts[0]), system)
    elif len(texts) != 3:
        raise ValidationError(f"verify {kind} takes three component expressions")
    else:
        field = VectorField(tuple(map(parse, texts)), system)
    # Forward operators are looked up here, at call time, and inverse ones in
    # ``construct``, so that a rebinding of them (as a tracer makes) is seen.
    forward = {"curl": curl, "div": divergence, "grad": gradient}
    if kind in forward:
        payload["result"] = rendered(forward[kind](field))
        return

    # The kind's own options, read after its field is parsed.
    weights = base = None
    if kind == "inv-div" and ns.weights is not None:
        weights = DivergenceWeights(*_three(ns.weights, "weight"))
    elif kind == "inv-grad":
        base = _base_arg(ns, system)
    kind = kind.replace("-", "_")
    result, residual = construct(kind, field, weights=weights, base=base,
                                 unchecked=ns.unchecked)
    if residual is not None:
        parts = rendered(residual)
        # A divergence residual is one bare form, a curl residual a triple.
        payload["residual"] = parts if isinstance(residual, VectorField) else parts[0]
    if ns.gauge_scalar is not None:
        result = gauge_shift_curl(result, ScalarField(parse(ns.gauge_scalar), system))
    if ns.gauge_vector is not None:
        gauge = _three(ns.gauge_vector, "--gauge-vector", "expressions")
        result = gauge_shift_div(result, VectorField(tuple(map(parse, gauge)), system))
    payload["result"] = rendered(result)
    if ns.verify:
        report = roundtrip_report(kind, field, samples=ns.samples, seed=ns.seed,
                                  result=result)
        payload["verification"] = report.to_dict()


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        import json  # here, so that a text-format run does not load it
        print(json.dumps(payload, indent=2))
        return
    if payload.get("error"):
        print(f"error: {payload['error']}", file=sys.stderr)
        return
    result = payload.get("result") or []
    if len(result) == 1:
        print(f"phi: {result[0]}")
    else:
        for i, text in enumerate(result, start=1):
            print(f"e{i}: {text}")
    if "residual" in payload:
        residual = payload["residual"]
        if isinstance(residual, list):
            print("residual: (" + ", ".join(residual) + ")")
        else:
            print(f"residual: {residual}")
    report = payload.get("verification")
    if report:
        print(
            "verify: symbolic_equal={symbolic_equal} within_tolerance={within_tolerance} "
            "samples={sample_count} seed={rng_seed} max_abs_error={max_abs_error!r} "
            "max_rel_error={max_rel_error!r} resamples={resample_count}".format(**report))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    payload: dict = {
        "command": ns.command,
        "coords": ns.coords_file or ns.coords,
        "input": ns.texts,
        "result": None,
        "verification": None,
        "error": None,
    }
    code = 0
    try:
        _run(ns, payload)
    except InvdelError as error:
        payload["error"] = f"{type(error).__name__}: {error}"
        code = error.exit_code
    _emit(payload, ns.format)
    return code


def run() -> int:
    """The process entry: ``main`` on the process's argv, then ``gc.freeze()``,
    so the interpreter's shutdown collections skip every object left alive."""
    import gc  # here, so that an import of this module does not load it
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
