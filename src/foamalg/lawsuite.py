"""Exhaustive verification of the algebraic laws on basis tuples.

Every check is deterministic and complete over basis tuples (multilinearity
makes basis checking sufficient), and failure is data: checks return a
LawReport carrying a concrete counterexample instead of raising.

The web skein identities are checked under both cocomul leg conventions.
Reports for the plain-cocomul convention are marked advisory: they document
how that convention diverges (by a global sign) from the form the identities
are stated in, and do not count against the suite outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branchops import BranchContext, LinearMap
from .frobalg import FrobeniusAlgebra, _unflat


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


def check_antisymmetry(ctx: BranchContext) -> LawReport:
    """bracket(e_i, e_j) = -bracket(e_j, e_i) on all basis pairs."""
    A = ctx.algebra
    n = A.rank
    cases = 0
    for i in range(n):
        for j in range(n):
            cases += 1
            lhs = ctx.bracket_basis(i, j)
            rhs = -ctx.bracket_basis(j, i)
            if lhs != rhs:
                return LawReport(
                    law="antisymmetry", passed=False, checked_cases=cases,
                    counterexample={
                        "inputs": _labels(A, i, j),
                        "lhs": A.render_element(lhs),
                        "rhs": A.render_element(rhs),
                    },
                )
    return LawReport(law="antisymmetry", passed=True, checked_cases=cases)


def check_jacobi(ctx: BranchContext) -> LawReport:
    """The cyclic sum [x,[y,z]] + [z,[x,y]] + [y,[z,x]] vanishes on basis triples."""
    A = ctx.algebra
    n = A.rank
    e = [A.basis_element(i) for i in range(n)]
    cases = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                cases += 1
                total = (
                    ctx.bracket(e[i], ctx.bracket_basis(j, k))
                    + ctx.bracket(e[k], ctx.bracket_basis(i, j))
                    + ctx.bracket(e[j], ctx.bracket_basis(k, i))
                )
                if total:
                    return LawReport(
                        law="jacobi", passed=False, checked_cases=cases,
                        counterexample={
                            "inputs": _labels(A, i, j, k),
                            "lhs": A.render_element(total),
                            "rhs": "0",
                        },
                    )
    return LawReport(law="jacobi", passed=True, checked_cases=cases)


def check_cocomul_two_sided(ctx: BranchContext) -> LawReport:
    """The co-operation agrees whether the bracket acts on the first or the
    second neck leg: sum_i [u, y_i] (x) e_i = sum_i y_i (x) [e_i, u]."""
    A = ctx.algebra
    n = A.rank
    cases = 0
    for u in range(n):
        cases += 1
        eu = A.basis_element(u)
        lhs = ctx.cocomul(eu)
        rhs = A.tensor_zero(2)
        for i in range(n):
            w = ctx.bracket(A.basis_element(i), eu)
            rhs = rhs + A.tensor(A.dual_basis[i], w)
        if lhs != rhs:
            return LawReport(
                law="cocomul_two_sided", passed=False, checked_cases=cases,
                counterexample={
                    "inputs": _labels(A, u),
                    "lhs": A.render_tensor(lhs),
                    "rhs": A.render_tensor(rhs),
                },
            )
    return LawReport(law="cocomul_two_sided", passed=True, checked_cases=cases)


def check_theta_trace(ctx: BranchContext) -> LawReport:
    """theta(e_k, e_i, e_j) = counit(e_k * bracket(e_i, e_j)) on all triples."""
    A = ctx.algebra
    n = A.rank
    cases = 0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                cases += 1
                lhs = ctx.theta.value(k, i, j)
                rhs = A.counit(A.mul(A.basis_element(k), ctx.bracket_basis(i, j)))
                if lhs != rhs:
                    return LawReport(
                        law="theta_trace", passed=False, checked_cases=cases,
                        counterexample={
                            "inputs": _labels(A, k, i, j),
                            "lhs": str(lhs),
                            "rhs": str(rhs),
                        },
                    )
    return LawReport(law="theta_trace", passed=True, checked_cases=cases)


def check_delta_one_resolution(algebra: FrobeniusAlgebra) -> LawReport:
    """Neck cutting: u = sum_i y_i * counit(e_i * u) on every basis element."""
    A = algebra
    n = A.rank
    cases = 0
    for u in range(n):
        cases += 1
        eu = A.basis_element(u)
        acc = A.zero
        for i in range(n):
            weight = A.counit(A.mul(A.basis_element(i), eu))
            acc = acc + A.dual_basis[i].scale(weight)
        if acc != eu:
            return LawReport(
                law="delta_one_resolution", passed=False, checked_cases=cases,
                counterexample={
                    "inputs": _labels(A, u),
                    "lhs": A.render_element(acc),
                    "rhs": A.render_element(eu),
                },
            )
    return LawReport(law="delta_one_resolution", passed=True, checked_cases=cases)


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

    # Pointwise kernel identity, with legs from the plain cocomul convention.
    cases = 0
    cx = None
    minus_form_everywhere = True
    for i in range(n):
        ei = A.basis_element(i)
        for j in range(n):
            cases += 1
            ej = A.basis_element(j)
            lhs = A.tensor_zero(2)
            for (l1, l2), c in ctx.cocomul(ej).coeffs.items():
                w = ctx.bracket(ei, A.basis_element(l1)).scale(c)
                lhs = lhs + A.tensor(w, A.basis_element(l2))
            weight = A.counit(A.mul(ei, ej))
            plus = A.tensor(ej, ei) + A.delta_one.scale(weight)
            minus = A.tensor(ej, ei) - A.delta_one.scale(weight)
            if lhs != minus:
                minus_form_everywhere = False
            if lhs != plus and cx is None:
                cx = {
                    "inputs": _labels(A, i, j),
                    "lhs": A.render_tensor(lhs),
                    "rhs": A.render_tensor(plus),
                }
    note = None
    if cx is not None and minus_form_everywhere:
        note = (
            "holds with the opposite counit sign: "
            "lhs = e_j⊗e_i - counit(e_i*e_j)*delta_one"
        )
    reports.append(LawReport(
        law="skein_pointwise_kernel", variant="cocomul", passed=cx is None,
        checked_cases=cases, counterexample=cx, note=note, advisory=True,
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
