"""Exhaustive verification of the algebraic laws on basis tuples.

Every law is one equation lhs == rhs between compositions of cached
structure maps, checked by `frobalg._first_unequal_column` one input column,
that is one basis tuple, at a time in flat order, up to the first column
where the sides differ.  Columns of composites are made on demand, and
Kronecker stages are never built whole.  Jacobi and theta_trace walk only
the columns where a side can be nonzero, and count cases as if they had
walked every one.  The skein identities 1-3 report the first unequal matrix
entry in row-major order, so they walk the columns of the transposed sides
instead.  Every check is deterministic and complete over basis tuples
(multilinearity makes basis checking sufficient), and failure is data:
checks return a LawReport carrying a concrete counterexample, rendered from
the first unequal column, instead of raising.

The web skein identities are checked under both cocomul leg conventions.
Reports for the plain-cocomul convention are marked advisory: they document
how that convention diverges (by a global sign) from the form the identities
are stated in, and do not count against the suite outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .branchops import BranchContext
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


def _compare(A, lhs, rhs, in_order: int, out_order: int, per_input: int = 1,
             columns=None):
    """Check lhs == rhs between maps A^(x)in_order -> A^(x)out_order, given
    by their columns, with `_first_unequal_column`: the number of columns
    checked, and the counterexample at the first unequal one or None.  With
    per_input > 1, that many equations take turns, column c standing for the
    input tuple c // per_input.  `columns`, when given, is the increasing
    part of the column range where either side can be nonzero; the count
    is still the position of the first unequal column in the whole range."""
    n = A.rank
    count = per_input * n ** in_order
    found = _first_unequal_column(
        lhs, rhs, range(count) if columns is None else columns)
    if found is None:
        return count, None
    c, a, b = found
    return c + 1, {
        "inputs": _labels(A, *_unflat(c // per_input, n, in_order)),
        "lhs": _render(A, a, out_order),
        "rhs": _render(A, b, out_order),
    }


def _map_law(law: str, A, lhs, rhs, in_order: int, out_order: int,
             columns=None):
    """The report of the map equation lhs == rhs, one case per column."""
    cases, cx = _compare(A, lhs, rhs, in_order, out_order, columns=columns)
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
    of its input legs, is zero.  A triple (i,j,k) none of whose pairs
    (j,k), (i,j), (k,i) has a bracket column sums to zero and is skipped."""
    A = ctx.algebra
    n, one = A.rank, MultiPoly.one(A.gens)
    m = ctx.bracket_map
    inner = _Kron(A.identity_map, m)

    def cyclic_sum(c):
        i, jk = divmod(c, n * n)
        j, k = divmod(jk, n)
        triples = (c, (k * n + i) * n + j, (j * n + k) * n + i)
        return _push(m.cols, _push(inner, [(t, one) for t in triples]).items())

    def columns():
        # Lazy, so a law that fails at its first column costs nothing more.
        for i in range(n):
            for j in range(n):
                ij = i * n + j in m.cols
                for k in range(n):
                    if ij or j * n + k in m.cols or k * n + i in m.cols:
                        yield (i * n + j) * n + k

    return _map_law("jacobi", A, cyclic_sum, lambda c: {}, 3, 1, columns())


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
    triples: theta as a 3 -> 0 map equals (id (x) bracket) ; mul ; counit.
    Only the theta support and the triples (k, i, j) with a bracket column
    (i, j) are walked; both sides are zero everywhere else."""
    A = ctx.algebra
    n = A.rank
    theta = {_flat(t, n): {0: v} for t, v in ctx.theta.entries.items()}
    stages = (_Kron(A.identity_map, ctx.bracket_map), A.pairing_map.cols)
    support = sorted(theta.keys() | {
        k * n * n + ij for k in range(n) for ij in ctx.bracket_map.cols})
    return _map_law(
        "theta_trace", A, lambda c: theta.get(c, {}),
        lambda c: _column(stages, c), 3, 0, support,
    )


def check_delta_one_resolution(algebra: FrobeniusAlgebra) -> LawReport:
    """Neck cutting: u = sum_i y_i * counit(e_i * u) on every basis element,
    that is (delta_one (x) id) ; (id (x) (mul ; counit)) == id."""
    A = algebra
    one = MultiPoly.one(A.gens)
    stages = (_Kron(A.delta_one_map, A.identity_map),
              _Kron(A.identity_map, A.pairing_map))
    return _map_law(
        "delta_one_resolution", A, lambda c: _column(stages, c),
        lambda c: {c: one}, 1, 1,
    )


def _combination(*terms):
    """The columns of sum_k a_k * f_k, for (a_k, f_k) pairs of a scalar and
    a column function, accumulated with `_push`."""
    def column(c):
        return _push({k: f(c) for k, (_, f) in enumerate(terms)},
                     [(k, a) for k, (a, _) in enumerate(terms)])
    return column


def _row_major_counterexample(A, lhs_t, rhs_t, in_order: int, out_order: int):
    """The first unequal entry in row-major order of two maps
    A^(x)in_order -> A^(x)out_order, as printable data, or None when they
    are equal.  lhs_t and rhs_t give the columns of their transposes, that
    is their rows: the first unequal row, then its smallest unequal entry."""
    n = A.rank
    found = _first_unequal_column(lhs_t, rhs_t, range(n ** out_order))
    if found is None:
        return None
    r, a, b = found
    c = min(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    zero = MultiPoly.zero(A.gens)
    return {
        "inputs": _labels(A, *_unflat(c, n, in_order)),
        "output_basis": _labels(A, *_unflat(r, n, out_order)),
        "lhs": str(a.get(c, zero)),
        "rhs": str(b.get(c, zero)),
    }


def check_skein_identities(ctx: BranchContext) -> list[LawReport]:
    """The three web skein identities, under both cocomul conventions.

    With F = (id (x) cocomul) ; (bracket (x) id) and
    E = (mul ; counit) ; delta_one:
      (1)  F = E - swap
      (2)  F ; F = id + E
      (3)  cocomul ; bracket = 2 id
    Each is checked on the transposes of its two sides, one column at a
    time: (f ; g)^T = g^T ; f^T, (f (x) g)^T = f^T (x) g^T, and swap and id
    are their own transposes.  Column r of a transpose is row r of the
    matrix, so the counterexample is the first unequal entry in row-major
    order, and no composite or Kronecker product is built whole.
    The plain-cocomul reports are advisory; notes record exact sign-flipped
    outcomes where they hold.  The pointwise kernel identity
      bracket(e_i, u_(1)) (x) u_(2) = e_j (x) e_i + counit(e_i e_j) delta_one
    (legs from plain cocomul of u = e_j) is checked as stated, with a note
    when the -counit form holds instead.
    """
    A = ctx.algebra
    n = A.rank
    one, minus_one = MultiPoly.one(A.gens), MultiPoly.const(A.gens, -1)
    two, minus_two = MultiPoly.const(A.gens, 2), MultiPoly.const(A.gens, -2)
    reports: list[LawReport] = []

    ident, tau, m = A.identity_map, A.swap_map.cols, ctx.bracket_map
    m_t = m.transpose()
    pairing = A.pairing_map
    E = partial(_column, (pairing.cols, A.delta_one_map.cols))
    E_t = partial(_column, (A.delta_one_map.transpose().cols,
                            pairing.transpose().cols))
    swap, ident_col = tau.__getitem__, lambda c: {c: one}
    swap_minus_E = _combination((one, swap), (minus_one, E))

    for variant in ("cocomul_skein", "cocomul"):
        advisory = variant == "cocomul"
        D = ctx.linear_map(variant)
        D_t = D.transpose()
        F = partial(_column, (_Kron(ident, D), _Kron(m, ident)))
        F_t = (_Kron(m_t, ident), _Kron(ident, D_t))

        cx = _row_major_counterexample(
            A, partial(_column, F_t),
            _combination((one, E_t), (minus_one, swap)), 2, 2)
        note = None
        if cx is not None and _first_unequal_column(
                F, swap_minus_E, range(n * n)) is None:
            note = "holds with both sides negated: F = swap - E"
        reports.append(LawReport(
            law="skein_identity_1", variant=variant, passed=cx is None,
            checked_cases=n * n, counterexample=cx, note=note,
            advisory=advisory,
        ))

        cx = _row_major_counterexample(
            A, partial(_column, F_t + F_t),
            _combination((one, ident_col), (one, E_t)), 2, 2)
        reports.append(LawReport(
            law="skein_identity_2", variant=variant, passed=cx is None,
            checked_cases=n * n, counterexample=cx, advisory=advisory,
        ))

        cx = _row_major_counterexample(
            A, partial(_column, (m_t.cols, D_t.cols)), lambda c: {c: two},
            1, 1)
        note = None
        if cx is not None and _first_unequal_column(
                partial(_column, (D.cols, m.cols)), lambda c: {c: minus_two},
                range(n)) is None:
            note = "matrix equals -2 * identity"
        reports.append(LawReport(
            law="skein_identity_3", variant=variant, passed=cx is None,
            checked_cases=n, counterexample=cx, note=note,
            advisory=advisory,
        ))

    # Pointwise kernel identity, F == swap + E with F from the plain cocomul
    # convention; every pair is a case, and the first unequal one is shown.
    _, cx = _compare(A, F, _combination((one, swap), (one, E)), 2, 2)
    note = None
    if cx is not None and _first_unequal_column(
            F, swap_minus_E, range(n * n)) is None:
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
