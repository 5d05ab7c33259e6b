"""Command-line surface over the measure algebra.

All measure, ray, and report payloads are JSON; subsets on the command
line are 1-based comma lists, families are semicolon-separated, and the
literal token ``0`` names the empty set (``--odds 0`` prescribes the
empty set as an odd generator, omitting the flag prescribes none).

Exit codes: 0 success (and universal decisions), 3 negative universality
decision, 2 malformed input or violated precondition, 1 failed
verification suite.
"""

from __future__ import annotations

import argparse
import json
import sys

from .lifting import lift, lift_inverse
from .measures import AtomicMeasure, Measure, mconv, symmetrize
from .subsets import GeneratingPair, SubsetMask, gamma, mask_sort_key
from .sphere import SphereMeasure, radial_project, sconv
from .universality import UniversalityReport, _check_dim, _whole_space, decide_universal_rn
from .harness import run_property_suite
from .zonoids import (
    Zonotope,
    decide_d_universal,
    generating_measure,
    singleton_support_check,
)

class InputError(ValueError):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _malformed(what: str, path: str, exc: Exception) -> InputError:
    # the text of a KeyError is only the key
    detail = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
    return InputError(f"malformed {what} in {path}: {detail}")


def _parse_measure(path: str) -> AtomicMeasure:
    data = _load_json(path)
    try:
        atoms = data.get("atoms", [])
        if atoms and "ray" in atoms[0]:
            return SphereMeasure.from_json(data)
        return Measure.from_json(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise _malformed("measure", path, exc) from exc


def _parse_subset(text: str, dim: int) -> SubsetMask:
    text = text.strip()
    if text in ("0", ""):
        return SubsetMask.empty(dim)
    try:
        return SubsetMask.from_indices(dim, (int(t) for t in text.split(",")))
    except ValueError as exc:
        raise InputError(f"bad subset {text!r}: {exc}") from exc


def _parse_family(text: str | None, dim: int) -> list[SubsetMask]:
    if text is None or not text.strip():
        return []
    return [_parse_subset(part, dim) for part in text.split(";") if part.strip()]


def _compact(payload) -> str:
    """``json.dumps(payload, separators=(",", ":"))`` with the measures and
    reports in it written by their text writers, which give the bytes of
    their ``to_json()`` there."""
    if isinstance(payload, dict):
        return "{" + ",".join([f"{json.dumps(k)}:{_compact(v)}" for k, v in payload.items()]) + "}"
    if isinstance(payload, list):
        return "[" + ",".join(map(_compact, payload)) + "]"
    if isinstance(payload, (AtomicMeasure, UniversalityReport)):
        return payload.to_json_text()
    return json.dumps(payload)


def _emit(payload, fmt: str) -> None:
    """Write a payload of JSON values, measures and reports: compact output
    through the text writers (``_compact``), pretty output as
    ``json.dumps(..., indent=2)`` of their ``to_json()``."""
    if fmt == "json":
        text = _compact(payload)
    else:
        text = json.dumps(payload, indent=2, default=lambda obj: obj.to_json())
    sys.stdout.write(text + "\n")


def _cmd_convolve(args) -> int:
    a = _parse_measure(args.a)
    b = _parse_measure(args.b)
    if args.sphere or isinstance(a, SphereMeasure) or isinstance(b, SphereMeasure):
        result = sconv(a, b)
    else:
        result = mconv(a, b)
    _emit(result, args.format)
    return 0


def _cmd_project(args) -> int:
    mu = _parse_measure(args.input)
    e = _parse_subset(args.E, mu.dim)
    if args.sphere and isinstance(mu, Measure):
        mu = radial_project(mu)
    _emit(mu.project(e), args.format)
    return 0


def _cmd_decompose(args) -> int:
    mu = _parse_measure(args.input)
    components = []
    for e in sorted(mu.component_patterns(), key=mask_sort_key):
        components.append({"E": e.to_json(), "measure": mu.restrict_order(e)})
    order = mu.order_of()
    payload = {
        "components": components,
        "order": None if order is None else order.to_json(),
        "degree": mu.degree(),
    }
    _emit(payload, args.format)
    return 0


def _cmd_symmetrize(args) -> int:
    mu = _parse_measure(args.input)
    pair = GeneratingPair.make(
        mu.dim, _parse_family(args.evens, mu.dim), _parse_family(args.odds, mu.dim)
    )
    sym = gamma(pair)
    payload = {
        "result": symmetrize(mu, pair),
        "symmetry": {
            "evens": [m.to_json() for m in sorted(sym.evens, key=mask_sort_key)],
            "odds": [m.to_json() for m in sorted(sym.odds, key=mask_sort_key)],
            "proper": sym.proper,
        },
    }
    _emit(payload, args.format)
    return 0


def _cmd_lift(args) -> int:
    mu = _parse_measure(args.input)
    if not isinstance(mu, Measure):
        raise InputError("lift expects a point measure")
    _emit(lift(mu), args.format)
    return 0


def _cmd_lift_inverse(args) -> int:
    mu = _parse_measure(args.input)
    if not isinstance(mu, SphereMeasure):
        raise InputError("lift-inverse expects a sphere measure")
    _emit(lift_inverse(mu), args.format)
    return 0


def _parse_support(text: str, dim: int, sphere: bool) -> list[SubsetMask]:
    if text == "all":
        return _whole_space(dim, sphere)
    if text == "top":
        return [SubsetMask.full(dim)]
    return [_parse_subset(part, dim) for part in text.split(";")]


def _cmd_universal(args) -> int:
    nu = _parse_measure(args.input)
    sphere = args.sphere or isinstance(nu, SphereMeasure)
    if sphere and isinstance(nu, Measure):
        raise InputError("--sphere requires a sphere measure input")
    # before "all" enumerates 2**dim support sets
    _check_dim(nu.dim)
    pair = GeneratingPair.make(
        nu.dim, _parse_family(args.evens, nu.dim), _parse_family(args.odds, nu.dim)
    )
    report = decide_universal_rn(nu, _parse_support(args.support, nu.dim, sphere), pair)
    _emit(report, args.format)
    return 0 if report.universal else 3


def _cmd_zonoid(args) -> int:
    data = _load_json(args.input)
    try:
        z = Zonotope.from_json(data)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise _malformed("zonotope", args.input, exc) from exc
    nu = generating_measure(z)
    if args.check == "singleton-support":
        payload = {"check": args.check, "result": singleton_support_check(nu)}
        _emit(payload, args.format)
        return 0
    unconditional = args.check == "unc-d-universal"
    report = decide_d_universal(nu, unconditional=unconditional)
    payload = {
        "check": args.check,
        "result": report.universal,
        "report": report,
    }
    _emit(payload, args.format)
    return 0


def _cmd_verify(args) -> int:
    try:
        report = run_property_suite(args.suite, args.seed, args.trials)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(report, args.format)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multconv",
        description="exact multiplicative-convolution algebra of atomic measures",
    )
    parser.add_argument(
        "--format", choices=("pretty", "json"), default="json", help="output style"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convolve", help="convolve two measures")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--sphere", action="store_true", help="use the sphere product")
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("project", help="project onto a coordinate subspace or subsphere")
    p.add_argument("input")
    p.add_argument("--E", required=True, help="1-based comma list; 0 means the empty set")
    p.add_argument("--sphere", action="store_true")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("decompose", help="coordinate decomposition with order and degree")
    p.add_argument("input")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("symmetrize", help="apply the even/odd symmetrisation of a pair")
    p.add_argument("input")
    p.add_argument("--evens", default=None, help="semicolon-separated subsets")
    p.add_argument("--odds", default=None, help="semicolon-separated subsets")
    p.set_defaults(func=_cmd_symmetrize)

    p = sub.add_parser("lift", help="lift a point measure to a symmetric sphere measure")
    p.add_argument("input")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("lift-inverse", help="invert the lift")
    p.add_argument("input")
    p.set_defaults(func=_cmd_lift_inverse)

    p = sub.add_parser("universal", help="decide universality; exit 0 universal, 3 not")
    p.add_argument("input")
    p.add_argument("--evens", default=None)
    p.add_argument("--odds", default=None)
    p.add_argument("--support", default="all", help="all, top, or semicolon-separated subsets")
    p.add_argument("--sphere", action="store_true")
    p.set_defaults(func=_cmd_universal)

    p = sub.add_parser("zonoid", help="checks on a zonotope's generating measure")
    p.add_argument("input")
    p.add_argument(
        "--check",
        choices=("d-universal", "unc-d-universal", "singleton-support"),
        required=True,
    )
    p.set_defaults(func=_cmd_zonoid)

    p = sub.add_parser("verify", help="run a property suite; exit 0 iff it passes")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=_cmd_verify)

    return parser


# built on the first call of ``main`` and reused: ``parse_args`` keeps no
# state between calls
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # an InputError is a ValueError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
