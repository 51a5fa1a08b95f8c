"""Exhaustive verification of the algebraic laws on basis tuples.

Every law is one equation lhs == rhs between compositions of cached
structure maps, checked by `frobalg._first_unequal_column` one input column,
that is one basis tuple, at a time in flat order, up to the first column
where the sides differ.  Columns of composites are made on demand, and
Kronecker stages are never built whole.  Every check is deterministic and
complete over basis tuples (multilinearity makes basis checking
sufficient), and failure is data: checks return a LawReport carrying a
concrete counterexample, rendered from the first unequal column, instead of
raising.

The web skein identities are checked under both cocomul leg conventions.
Reports for the plain-cocomul convention are marked advisory: they document
how that convention diverges (by a global sign) from the form the identities
are stated in, and do not count against the suite outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branchops import BranchContext, LinearMap
from .coeffring import MultiPoly
from .frobalg import FrobeniusAlgebra, _Kron, _column, _first_unequal_column, \
    _flat, _push, _unflat


@dataclass
class LawReport:
    """Outcome of one law checked over all relevant basis tuples."""

    law: str
    passed: bool
    checked_cases: int
    counterexample: dict | None = None
    variant: str | None = None
    note: str | None = None
    advisory: bool = False

    def __post_init__(self):
        if self.passed and self.counterexample is not None:
            raise ValueError("a passing report cannot carry a counterexample")
        if not self.passed and self.counterexample is None:
            raise ValueError("a failing report needs a counterexample")

    def to_dict(self) -> dict:
        out = {
            "law": self.law,
            "passed": self.passed,
            "cases": self.checked_cases,
        }
        if self.variant is not None:
            out["variant"] = self.variant
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.note is not None:
            out["note"] = self.note
        if self.advisory:
            out["advisory"] = True
        return out


def _labels(algebra, *indices):
    return [algebra.basis_labels[i] for i in indices]


def _render(A, col: dict, order: int) -> str:
    """A sparse column of a map into A^(x)order, printed as the scalar, the
    element or the tensor it is."""
    if order == 0:
        return str(col.get(0, MultiPoly.zero(A.gens)))
    if order == 1:
        return A.render_element(A._element(col))
    return A.render_tensor(A._tensor(order, col))


def _compare(A, lhs, rhs, in_order: int, out_order: int, per_input: int = 1):
    """Check lhs == rhs between maps A^(x)in_order -> A^(x)out_order, given
    by their columns, with `_first_unequal_column`: the number of columns
    checked, and the counterexample at the first unequal one or None.  With
    per_input > 1, that many equations take turns, column c standing for the
    input tuple c // per_input."""
    n = A.rank
    count = per_input * n ** in_order
    found = _first_unequal_column(lhs, rhs, count)
    if found is None:
        return count, None
    c, a, b = found
    return c + 1, {
        "inputs": _labels(A, *_unflat(c // per_input, n, in_order)),
        "lhs": _render(A, a, out_order),
        "rhs": _render(A, b, out_order),
    }


def _map_law(law: str, A, lhs, rhs, in_order: int, out_order: int):
    """The report of the map equation lhs == rhs, one case per column."""
    cases, cx = _compare(A, lhs, rhs, in_order, out_order)
    return LawReport(law=law, passed=cx is None, checked_cases=cases,
                     counterexample=cx)


def check_antisymmetry(ctx: BranchContext) -> LawReport:
    """bracket == -(swap ; bracket), on all basis pairs."""
    A = ctx.algebra
    m, tau = ctx.bracket_map.cols, A.swap_map.cols
    minus_one = MultiPoly.const(A.gens, -1)
    return _map_law(
        "antisymmetry", A, lambda c: m.get(c, {}),
        lambda c: _push(m, _push(tau, [(c, minus_one)]).items()), 2, 1,
    )


def check_jacobi(ctx: BranchContext) -> LawReport:
    """The cyclic sum [x,[y,z]] + [z,[x,y]] + [y,[z,x]] vanishes on basis
    triples: (id (x) bracket) ; bracket, summed over the three cyclic orders
    of its input legs, is zero."""
    A = ctx.algebra
    n, one = A.rank, MultiPoly.one(A.gens)
    m = ctx.bracket_map
    inner = _Kron(A.identity_map, m)

    def cyclic_sum(c):
        i, jk = divmod(c, n * n)
        j, k = divmod(jk, n)
        triples = (c, (k * n + i) * n + j, (j * n + k) * n + i)
        return _push(m.cols, _push(inner, [(t, one) for t in triples]).items())

    return _map_law("jacobi", A, cyclic_sum, lambda c: {}, 3, 1)


def check_cocomul_two_sided(ctx: BranchContext) -> LawReport:
    """The co-operation agrees whether the bracket acts on the first or the
    second neck leg: cocomul == (delta_one (x) id) ; (id (x) bracket), that
    is sum_i [u, y_i] (x) e_i = sum_i y_i (x) [e_i, u]."""
    A = ctx.algebra
    cocomul = ctx.cocomul_map.cols
    stages = (_Kron(A.delta_one_map, A.identity_map),
              _Kron(A.identity_map, ctx.bracket_map))
    return _map_law(
        "cocomul_two_sided", A, lambda c: cocomul.get(c, {}),
        lambda c: _column(stages, c), 1, 2,
    )


def check_theta_trace(ctx: BranchContext) -> LawReport:
    """theta(e_k, e_i, e_j) = counit(e_k * bracket(e_i, e_j)) on all
    triples: theta as a 3 -> 0 map equals (id (x) bracket) ; mul ; counit."""
    A = ctx.algebra
    n = A.rank
    theta = {_flat(t, n): {0: v} for t, v in ctx.theta.entries.items()}
    stages = (_Kron(A.identity_map, ctx.bracket_map),
              (A.mul_map >> A.counit_map).cols)
    return _map_law(
        "theta_trace", A, lambda c: theta.get(c, {}),
        lambda c: _column(stages, c), 3, 0,
    )


def check_delta_one_resolution(algebra: FrobeniusAlgebra) -> LawReport:
    """Neck cutting: u = sum_i y_i * counit(e_i * u) on every basis element,
    that is (delta_one (x) id) ; (id (x) (mul ; counit)) == id."""
    A = algebra
    one = MultiPoly.one(A.gens)
    stages = (_Kron(A.delta_one_map, A.identity_map),
              _Kron(A.identity_map, A.mul_map >> A.counit_map))
    return _map_law(
        "delta_one_resolution", A, lambda c: _column(stages, c),
        lambda c: {c: one}, 1, 1,
    )


def _matrix_counterexample(ctx, lhs: LinearMap, rhs: LinearMap):
    """First differing entry of two same-shape matrices in row-major order,
    as printable data."""
    diff = lhs - rhs
    if not diff.cols:
        return None
    r, c = min((r, c) for c, col in diff.cols.items() for r in col)
    A = ctx.algebra
    return {
        "inputs": _labels(A, *_unflat(c, A.rank, lhs.in_order)),
        "output_basis": _labels(A, *_unflat(r, A.rank, lhs.out_order)),
        "lhs": str(lhs.entry(r, c)),
        "rhs": str(rhs.entry(r, c)),
    }


def check_skein_identities(ctx: BranchContext) -> list[LawReport]:
    """The three web skein identities, under both cocomul conventions.

    With F = (bracket (x) id)(id (x) cocomul), E = delta_one . (counit mul):
      (1)  F = E - swap
      (2)  F . F = id + E
      (3)  bracket . cocomul = 2 id
    The plain-cocomul reports are advisory; notes record exact sign-flipped
    outcomes where they hold.  The pointwise kernel identity
      bracket(e_i, u_(1)) (x) u_(2) = e_j (x) e_i + counit(e_i e_j) delta_one
    (legs from plain cocomul of u = e_j) is checked as stated, with a note
    when the -counit form holds instead.
    """
    A = ctx.algebra
    n = A.rank
    gens = A.gens
    reports: list[LawReport] = []

    m = ctx.linear_map("bracket")
    mu = ctx.linear_map("mul")
    eps = ctx.linear_map("counit_map")
    tau = ctx.linear_map("swap")
    id1 = LinearMap.identity(gens, n, 1)
    id2 = LinearMap.identity(gens, n, 2)
    delta1 = ctx.linear_map("delta_one_map")
    E = (mu >> eps) >> delta1

    for variant in ("cocomul_skein", "cocomul"):
        advisory = variant == "cocomul"
        D = ctx.linear_map(variant)
        F = (id1 @ D) >> (m @ id1)

        lhs, rhs = F, E - tau
        cx = _matrix_counterexample(ctx, lhs, rhs)
        note = None
        if cx is not None and lhs == tau - E:
            note = "holds with both sides negated: F = swap - E"
        reports.append(LawReport(
            law="skein_identity_1", variant=variant, passed=cx is None,
            checked_cases=n * n, counterexample=cx, note=note,
            advisory=advisory,
        ))

        lhs, rhs = F >> F, id2 + E
        cx = _matrix_counterexample(ctx, lhs, rhs)
        reports.append(LawReport(
            law="skein_identity_2", variant=variant, passed=cx is None,
            checked_cases=n * n, counterexample=cx, advisory=advisory,
        ))

        lhs, rhs = D >> m, 2 * id1
        cx = _matrix_counterexample(ctx, lhs, rhs)
        note = None
        if cx is not None and lhs == (-2) * id1:
            note = "matrix equals -2 * identity"
        reports.append(LawReport(
            law="skein_identity_3", variant=variant, passed=cx is None,
            checked_cases=n, counterexample=cx, note=note,
            advisory=advisory,
        ))

    # Pointwise kernel identity, F == swap + E with F from the plain cocomul
    # convention; every pair is a case, and the first unequal one is shown.
    plus = tau + E
    _, cx = _compare(A, lambda c: F.cols.get(c, {}),
                     lambda c: plus.cols.get(c, {}), 2, 2)
    note = None
    if cx is not None and F == tau - E:
        note = (
            "holds with the opposite counit sign: "
            "lhs = e_j⊗e_i - counit(e_i*e_j)*delta_one"
        )
    reports.append(LawReport(
        law="skein_pointwise_kernel", variant="cocomul", passed=cx is None,
        checked_cases=n * n, counterexample=cx, note=note, advisory=True,
    ))
    return reports


SUITE_NAMES = (
    "antisym", "jacobi", "two_sided", "skein", "theta_trace", "delta_one",
    "bialgebra",
)


def run_suite(ctx: BranchContext, names=None) -> list[LawReport]:
    """Run the selected checks (default: all that apply to the context)."""
    from .groupfoam import GroupRingAlgebra, check_bialgebra

    if names is None or names == "all" or "all" in names:
        names = [
            n for n in SUITE_NAMES
            if n != "bialgebra" or isinstance(ctx.algebra, GroupRingAlgebra)
        ]
    reports: list[LawReport] = []
    for name in names:
        if name == "antisym":
            reports.append(check_antisymmetry(ctx))
        elif name == "jacobi":
            reports.append(check_jacobi(ctx))
        elif name == "two_sided":
            reports.append(check_cocomul_two_sided(ctx))
        elif name == "skein":
            reports.extend(check_skein_identities(ctx))
        elif name == "theta_trace":
            reports.append(check_theta_trace(ctx))
        elif name == "delta_one":
            reports.append(check_delta_one_resolution(ctx.algebra))
        elif name == "bialgebra":
            if not isinstance(ctx.algebra, GroupRingAlgebra):
                raise ValueError(
                    "the bialgebra suite needs a group ring algebra"
                )
            reports.append(check_bialgebra(ctx.algebra, ctx))
        else:
            raise ValueError(
                f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
            )
    return reports


def suite_passed(reports) -> bool:
    """True when every non-advisory report passed."""
    return all(r.passed for r in reports if not r.advisory)
