"""Command-line interface: build algebras and theta tables, run law suites,
evaluate diagram expressions, and emit text or JSON reports.

Exit codes: 0 when all selected checks pass, 1 when at least one law failed,
2 on malformed input (bad spec, rank mismatch, parse or arity errors), 3 on
an internal error.  Every error is one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .branchops import BranchContext
from .coeffring import _tokenize, parse_poly
from .foamlang import ArityError, ParseError, compile_diagram, parse
from .frobalg import FrobeniusAlgebra, algebra_from_modulus, mv_algebra, \
    truncated_algebra
from .groupfoam import GroupRingAlgebra, derive_bialgebra_theta, group_ring
from .lawsuite import run_suite, select_suites, suite_passed
from .thetafoam import ThetaTable, lie_theta, mv_theta


class SpecError(ValueError):
    """Unusable algebra/theta specification or configuration."""


MAX_TRUNCATED_RANK = 64
"""Largest rank accepted in an `aN:<n>` spec or a config algebra (the degree
of its modulus), matching the 64-element bound on group rings.  Construction
hands the product over as sparse columns, column (i, j) being X^(i+j)
reduced by the modulus, and checks associativity by Light's test over the
generator X, on n^2 basis triples, and takes the dual basis in closed
form: on a 2-vCPU host with Python 3.11, `aN:64` builds in about 0.03 s
and `laws --algebra aN:64 --theta zero --suite antisym` takes about
0.03 s in process."""


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise SpecError(f"config {path!r} is not a JSON object")
    return config


def _config_list(config: dict, key: str, kinds, what: str, spec: str) -> list:
    """The config field `key`, which must be a list of `kinds` values."""
    value = config[key]
    if not isinstance(value, list) or not all(
        isinstance(v, kinds) for v in value
    ):
        raise SpecError(f"config {spec!r}: {key!r} must be a list of {what}")
    return value


def _check_generator_names(gens, spec: str) -> None:
    """Each config generator must be distinct and read back as exactly one
    name of the polynomial syntax, or no expression could refer to it."""
    for name in gens:
        try:
            tokens = _tokenize(name)
        except ValueError:
            tokens = ()
        if [t[:2] for t in tokens] != [("NAME", name), ("EOF", "")]:
            raise SpecError(
                f"config {spec!r}: generator {name!r} is not a name (a letter "
                f"or '_', then letters, digits or '_')")
    if len(set(gens)) != len(gens):
        raise SpecError(f"config {spec!r}: generator names repeat: {list(gens)}")


def _decimal(field: str) -> int:
    """A number field of a spec: a nonempty run of ASCII digits and nothing
    else.  `int` alone also takes signs, spaces, underscores and non-ASCII
    digits; like `int`, this raises ValueError."""
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"not a decimal: {field!r}")
    return int(field)


def build_algebra(spec: str):
    """Algebra from a builtin name (mv, aN:<n>, group:<o1,o2,...>) or a JSON
    config file with generators/modulus/counit fields."""
    if spec == "mv":
        return mv_algebra(), None
    if spec.startswith("aN:"):
        try:
            n = _decimal(spec.split(":", 1)[1])
        except ValueError:
            raise SpecError(f"bad truncated-algebra spec {spec!r}") from None
        if n < 2:
            raise SpecError("aN:<n> needs n >= 2")
        if n > MAX_TRUNCATED_RANK:
            raise SpecError(f"aN:<n> needs n <= {MAX_TRUNCATED_RANK}")
        return truncated_algebra(n), None
    if spec.startswith("group:"):
        body = spec.split(":", 1)[1]
        if not body:
            raise SpecError("group:<o1,o2,...> needs at least one order")
        try:
            orders = [_decimal(o) for o in body.split(",")]
        except ValueError:
            raise SpecError(f"bad group spec {spec!r}") from None
        try:
            return group_ring(orders), None
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
    config = _load_config(spec)
    for key in ("generators", "modulus", "counit"):
        if key not in config:
            raise SpecError(f"config {spec!r} is missing the {key!r} field")
    gens = tuple(_config_list(config, "generators", str, "names", spec))
    _check_generator_names(gens, spec)
    modulus, counit = (
        _config_list(config, key, (int, str),
                     "integers or polynomial strings", spec)
        for key in ("modulus", "counit")
    )
    if len(modulus) - 1 > MAX_TRUNCATED_RANK:
        raise SpecError(
            f"config {spec!r}: modulus degree {len(modulus) - 1} exceeds the "
            f"rank bound {MAX_TRUNCATED_RANK}"
        )
    try:
        modulus = [parse_poly(str(c), gens) for c in modulus]
        counit = [parse_poly(str(c), gens) for c in counit]
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
        return ThetaTable(algebra.gens, algebra.rank, {})
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
    if not isinstance(entries, list) or not all(
        isinstance(e, list) and len(e) == 4
        and all(type(i) is int for i in e[:3]) and isinstance(e[3], (int, str))
        for e in entries
    ):
        raise SpecError(
            "bad theta entries: expected a list of [i, j, k, value] lists, "
            "with integer indices and an integer or polynomial string value"
        )
    try:
        parsed = [((i, j, k), parse_poly(str(expr), algebra.gens))
                  for i, j, k, expr in entries]
        return ThetaTable(algebra.gens, algebra.rank, parsed)
    except ValueError as exc:
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
    """Build the context and run the comma-separated `--suite` selection.
    `select_suites` refuses an empty selection or an unknown name before
    the context is built, and `run_suite` bialgebra off a group ring before
    any law runs."""
    names = None if args.suite in (None, "all") else [
        s.strip() for s in args.suite.split(",") if s.strip()
    ]
    select_suites(names)
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
    matrix = compile_diagram(parse(source), ctx)
    arity = [matrix.in_order, matrix.out_order]
    if arity == [0, 0]:
        value = str(matrix.entry(0, 0))
        if args.format == "json":
            print(json.dumps({"arity": arity, "value": value}, indent=2))
        else:
            print(value)
        return 0
    if args.format == "json":
        print(json.dumps(
            {"arity": arity, "matrix": matrix.to_strings()}, indent=2,
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
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SpecError(
                f"cannot write {args.out!r}: {exc.strerror or exc}") from exc
    else:
        print(text)
    return 0 if suite_passed(reports) else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process rather than on every
    `main` call; parsing does not change it."""
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
    except Exception as exc:
        # A fault of the program, not of the input: it must not read as a
        # failed law (exit 1) or show a traceback.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
