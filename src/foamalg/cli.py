"""Command-line interface: build algebras and theta tables, run law suites,
evaluate diagram expressions, and emit text or JSON reports.

Exit codes: 0 when all selected checks pass, 1 when at least one law failed,
2 on malformed input (bad spec, rank mismatch, parse or arity errors).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .branchops import BranchContext
from .coeffring import parse_poly
from .foamlang import ArityError, ParseError, eval_closed, parse, typecheck, \
    compile_diagram
from .frobalg import FrobeniusAlgebra, algebra_from_modulus, mv_algebra, \
    truncated_algebra
from .groupfoam import GroupRingAlgebra, derive_bialgebra_theta, group_ring
from .lawsuite import run_suite, suite_passed
from .thetafoam import ThetaTable, lie_theta, mv_theta


class SpecError(ValueError):
    """Unusable algebra/theta specification or configuration."""


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"config {path!r} is not valid JSON: {exc}") from exc


def build_algebra(spec: str):
    """Algebra from a builtin name (mv, aN:<n>, group:<o1,o2,...>) or a JSON
    config file with generators/modulus/counit fields."""
    if spec == "mv":
        return mv_algebra(), None
    if spec.startswith("aN:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise SpecError(f"bad truncated-algebra spec {spec!r}") from None
        if n < 2:
            raise SpecError("aN:<n> needs n >= 2")
        return truncated_algebra(n), None
    if spec.startswith("group:"):
        try:
            orders = [int(o) for o in spec.split(":", 1)[1].split(",") if o]
        except ValueError:
            raise SpecError(f"bad group spec {spec!r}") from None
        if not orders:
            raise SpecError("group:<o1,o2,...> needs at least one order")
        try:
            return group_ring(orders), None
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
    config = _load_config(spec)
    for key in ("generators", "modulus", "counit"):
        if key not in config:
            raise SpecError(f"config {spec!r} is missing the {key!r} field")
    gens = tuple(config["generators"])

    def coeff(entry):
        if isinstance(entry, int):
            return parse_poly(str(entry), gens)
        return parse_poly(entry, gens)

    try:
        modulus = [coeff(c) for c in config["modulus"]]
        counit = [coeff(c) for c in config["counit"]]
        algebra = algebra_from_modulus(gens, modulus, counit)
    except ValueError as exc:
        raise SpecError(f"config {spec!r}: {exc}") from exc
    return algebra, config.get("theta")


def build_theta(spec: str, algebra: FrobeniusAlgebra, config_theta=None):
    """Theta table from a builtin name (mv, lie, group, zero), the algebra
    config's own entries (`config`), or a JSON file with an `entries` list."""
    if spec == "mv":
        return mv_theta()
    if spec == "lie":
        try:
            return lie_theta(algebra.rank)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
    if spec == "group":
        if not isinstance(algebra, GroupRingAlgebra):
            raise SpecError("theta spec 'group' needs a group ring algebra")
        try:
            return derive_bialgebra_theta(algebra)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
    if spec == "zero":
        return ThetaTable.zero(algebra.rank, gens=algebra.gens)
    if spec == "config":
        entries = config_theta
        if entries is None:
            raise SpecError(
                "theta spec 'config' needs a config-file algebra with a "
                "'theta' field"
            )
    else:
        entries = _load_config(spec).get("entries")
        if entries is None:
            raise SpecError(f"theta config {spec!r} is missing 'entries'")
    try:
        parsed = [
            ((int(i), int(j), int(k)), parse_poly(str(expr), algebra.gens))
            for i, j, k, expr in entries
        ]
        return ThetaTable.from_entries(algebra.rank, parsed, gens=algebra.gens)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad theta entries: {exc}") from exc


def build_context(args) -> BranchContext:
    algebra, config_theta = build_algebra(args.algebra)
    theta = build_theta(args.theta, algebra, config_theta)
    try:
        return BranchContext(algebra, theta)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _report_lines(report) -> str:
    tag = "PASS" if report.passed else "FAIL"
    if report.advisory:
        tag = f"{tag} (info)"
    name = report.law if report.variant is None else f"{report.law} [{report.variant}]"
    line = f"[{tag}] {name}: {report.checked_cases} cases"
    extra = []
    if report.note:
        extra.append(f"    note: {report.note}")
    if report.counterexample:
        cx = report.counterexample
        inputs = ", ".join(cx.get("inputs", []))
        extra.append(f"    counterexample on ({inputs}):")
        for key in ("sublaw", "output_basis", "lhs", "rhs"):
            if key in cx:
                value = cx[key]
                if isinstance(value, list):
                    value = ", ".join(value)
                extra.append(f"      {key}: {value}")
    return "\n".join([line] + extra)


def _run_selected(args):
    """Build the context and run the comma-separated `--suite` selection."""
    names = None if args.suite in (None, "all") else [
        s.strip() for s in args.suite.split(",") if s.strip()
    ]
    return run_suite(build_context(args), names)


def cmd_laws(args) -> int:
    reports = _run_selected(args)
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(_report_lines(r))
    return 0 if suite_passed(reports) else 1


def cmd_eval(args) -> int:
    ctx = build_context(args)
    source = args.expr
    if source.startswith("@"):
        try:
            with open(source[1:]) as fh:
                source = fh.read()
        except OSError as exc:
            raise SpecError(f"cannot read expression file: {exc}") from exc
    expr = parse(source)
    arity = typecheck(expr)
    if arity == (0, 0):
        value = eval_closed(expr, ctx)
        if args.format == "json":
            print(json.dumps({"arity": [0, 0], "value": str(value)}, indent=2))
        else:
            print(str(value))
        return 0
    matrix = compile_diagram(expr, ctx)
    if args.format == "json":
        print(json.dumps(
            {"arity": list(arity), "matrix": matrix.to_strings()}, indent=2,
        ))
    else:
        print(f"arity: {arity[0]} -> {arity[1]}")
        for row in matrix.to_strings():
            print("  [" + ", ".join(row) + "]")
    return 0


def cmd_report(args) -> int:
    reports = _run_selected(args)
    document = {
        "algebra": args.algebra,
        "theta": args.theta,
        "results": [r.to_dict() for r in reports],
        "version": __version__,
    }
    text = json.dumps(document, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if suite_passed(reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foamalg",
        description="Exact Frobenius-algebra and branch-operation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", required=True,
                       help="mv | aN:<n> | group:<o1,o2,...> | config.json")
        p.add_argument("--theta", required=True,
                       help="mv | lie | group | zero | config | theta.json")

    laws = sub.add_parser("laws", help="run law checks")
    common(laws)
    laws.add_argument("--suite", default="all",
                      help="comma-separated checks, or 'all'")
    laws.add_argument("--format", choices=("text", "json"), default="text")
    laws.set_defaults(func=cmd_laws)

    ev = sub.add_parser("eval", help="evaluate a diagram expression")
    common(ev)
    ev.add_argument("--expr", required=True,
                    help="expression source, or @file")
    ev.add_argument("--format", choices=("text", "json"), default="text")
    ev.set_defaults(func=cmd_eval)

    rep = sub.add_parser("report", help="emit a JSON law report")
    common(rep)
    rep.add_argument("--suite", default="all")
    rep.add_argument("--out", default=None, help="write JSON here instead of stdout")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ArityError, ValueError) as exc:
        # SpecError and DegenerateFormError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
