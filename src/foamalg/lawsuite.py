"""Exhaustive verification of the algebraic laws on basis tuples.

Every law is one equation lhs == rhs in the table `LAWS`, each side a signed
sum of diagrams in `foamlang`'s language: the Lie laws, the skein
identities, and the bialgebra laws of a group ring.  This module is the one
that walks them.  Every check takes only the report's `BranchContext`, so
the laws of a report share its one memo; neck cutting reads no theta and
runs on that context as well.  `foamlang.side` compiles the sides to column
sources over that memo, and one walk, `_unequal`, compares them one input
column, that is one basis tuple, at a time in flat order, yielding each
column where they differ; a law stops at the first.
Only the columns where a side can be nonzero are read, and cases are
counted as if every column had been.  Two laws also leave out columns that
a proof, given in their docstrings, shows equal: Jacobi reads only the
triples i < j < k once antisymmetry holds on the same context
(`check_jacobi`), and bialgebra compatibility only the rows of e_0 and of
the generating set that construction proved associativity with
(`check_bialgebra`).
Where that proof is missing, a failed antisymmetry or an algebra with no
recorded generating set for its current product, the full walk runs; a
failed generator row runs it again to report the first failing pair.  The
skein identities 1-3 read on past unequal columns to report the first
unequal entry in row-major order.  Every check is complete over basis
tuples (multilinearity makes basis checking sufficient), and failure is
data: a LawReport carrying the first counterexample.

The web skein identities are checked under both cocomul leg conventions.
Reports for the plain-cocomul convention are marked advisory: they document
how that convention diverges (by a global sign) from the form the identities
are stated in, and do not count against the suite outcome.  `SUITES` is the
one registry of runnable suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain

from .branchops import BranchContext
from .coeffring import MultiPoly
from .foamlang import side
from .frobalg import _unflat


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
        out = {"law": self.law, "passed": self.passed,
               "cases": self.checked_cases}
        for key in ("variant", "counterexample", "note"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        if self.advisory:
            out["advisory"] = True
        return out


# Each law: its number of inputs, its lhs and its rhs.  A side is a list of
# terms (a, s, d): a coefficient, a rotation of the k input legs and a
# diagram, mapping inputs (x_0, ..., x_k-1) to
# a * d(x_s, ..., x_k-1, x_0, ..., x_s-1).  Every reordering the laws need
# is such a rotation.  The skein laws are stated for D, either leg
# convention of the co-operation; the bialgebra laws use the augmentation
# `aug` and the diagonal `diag` of a group ring.
_F = "(id * {D}) ; (bmul * id)"
_E = "(mul ; counit) ; delta_one"
LAWS = {
    "antisymmetry": (2, [(1, 0, "bmul")], [(-1, 1, "bmul")]),
    "jacobi": (3, [(1, s, "(id * bmul) ; bmul") for s in (0, 2, 1)], []),
    "cocomul_two_sided": (1, [(1, 0, "bcomul")],
                          [(1, 0, "(delta_one * id) ; (id * bmul)")]),
    "theta_trace": (3, [(1, 0, "theta")],
                    [(1, 0, "(id * bmul) ; (mul ; counit)")]),
    "delta_one_resolution": (
        1, [(1, 0, "(delta_one * id) ; (id * (mul ; counit))")],
        [(1, 0, "id")]),
    "skein_identity_1": (2, [(1, 0, _F)], [(1, 0, _E), (-1, 0, "swap")]),
    "skein_identity_2": (2, [(1, 0, f"({_F}) ; ({_F})")],
                         [(1, 0, "id * id"), (1, 0, _E)]),
    "skein_identity_3": (1, [(1, 0, "{D} ; bmul")], [(2, 0, "id")]),
    "skein_pointwise_kernel": (2, [(1, 0, _F)],
                               [(1, 0, "swap"), (1, 0, _E)]),
    "cocomul equals diagonal": (1, [(1, 0, "bcomul")], [(1, 0, "diag")]),
    "compatibility": (2, [(1, 0, "mul ; bcomul")], [(1, 0, (
        "(bcomul * bcomul) ; (id * swap * id) ; (mul * mul)"))]),
    "counit law (left)": (1, [(1, 0, "bcomul ; (aug * id)")], [(1, 0, "id")]),
    "counit law (right)": (1, [(1, 0, "bcomul ; (id * aug)")],
                           [(1, 0, "id")]),
}


def sides(ctx: BranchContext, law: str, sign: int = 1, D: str = ""):
    """The (lhs, rhs) column sources of a law of `LAWS` over `ctx`, with
    the rhs times `sign` and D put into its diagrams."""
    _, lhs, rhs = LAWS[law]
    return (side(ctx, [(a, s, d.format(D=D)) for a, s, d in lhs]),
            side(ctx, [(sign * a, s, d.format(D=D)) for a, s, d in rhs]))


def _labels(algebra, *indices):
    return [algebra.basis_labels[i] for i in indices]


_HEAD = 16  # input columns walked before any support is computed


def _unequal(pair, width: int, keep=None):
    """Check a map equation column by column: yield (c, lhs(c), rhs(c)) at
    every column c < width where the (lhs, rhs) column sources `pair`
    differ, in increasing c.  The first _HEAD columns are walked before any
    support is computed, so a consumer that stops at a difference there
    computes none; after them only the sorted union of both sides' supports
    is read, or every column when one side can be nonzero everywhere.
    Given `keep`, only the columns c where keep(c) holds are read; a caller
    may leave out a column only where both sides are zero or proven
    equal."""
    def parts():
        head = min(_HEAD, width)
        yield range(head)
        support = set()
        for side in pair:
            keys = side.support()
            if keys is None:
                yield range(head, width)
                return
            support.update(keys)
        support.difference_update(range(head))
        yield sorted(support)

    lhs, rhs = pair[0].get, pair[1].get
    columns = chain.from_iterable(parts())
    for c in columns if keep is None else filter(keep, columns):
        a, b = lhs(c), rhs(c)
        if a != b:
            yield c, a, b


def _compare(A, pair, in_order: int, keep=None):
    """The first unequal column (`_unequal`) of the (lhs, rhs) column
    sources `pair` of maps A^(x)in_order -> A^(x)out: its position plus
    one, or the number of columns, and the counterexample there or None.
    `keep` is `_unequal`'s, for a caller whose proof covers the columns it
    leaves out."""
    width = A.rank ** in_order
    found = next(_unequal(pair, width, keep), None)
    if found is None:
        return width, None
    c, a, b = found
    lhs, rhs = pair
    out = lhs.outputs if lhs.outputs is not None else rhs.outputs
    return c + 1, {
        "inputs": _labels(A, *_unflat(c, A.rank, in_order)),
        "lhs": A._render(a, out),
        "rhs": A._render(b, out),
    }


def _law_report(law: str, ctx: BranchContext, keep=None) -> LawReport:
    """The report of a law of `LAWS`, one case per column, read on the
    columns `keep` holds for (`_compare`)."""
    cases, cx = _compare(ctx.algebra, sides(ctx, law), LAWS[law][0], keep)
    return LawReport(law=law, passed=cx is None, checked_cases=cases,
                     counterexample=cx)


# The key of antisymmetry's verdict in a context's memo: a tuple, which no
# diagram source, a string, can be.
_ANTISYMMETRY = ("verdict", "antisymmetry")


def check_antisymmetry(ctx: BranchContext) -> LawReport:
    """bracket(x, y) == -bracket(y, x), on all basis pairs.  The verdict is
    kept in the context's memo, for `check_jacobi`."""
    report = _law_report("antisymmetry", ctx)
    ctx.memo[_ANTISYMMETRY] = report.passed
    return report


def check_jacobi(ctx: BranchContext) -> LawReport:
    """[x,[y,z]] + [z,[x,y]] + [y,[z,x]] == 0 on all basis triples.

    When antisymmetry holds on the same context, only the columns of the
    triples i < j < k are read, and the report is still the full walk's:
    - Over Z[g], 2[x,x] = 0 gives [x,x] = 0, because the ring has no
      torsion.  So the bracket is alternating.
    - The Jacobiator J is then alternating too: it is invariant under
      rotating its legs, and swapping x and y turns each of its terms into
      minus another.  So J vanishes on every triple with a repeated index.
    - A failing triple fails in every order, since J only changes sign.
      Its sorted order has the smallest flat index, so the first failing
      flat column c is a sorted one: a failure reports c + 1 cases and the
      same counterexample, and a pass n^3 cases.
    When antisymmetry fails, every column is walked.  Its verdict is read
    from the memo when a report on the same context has walked it, and
    walked here otherwise.
    """
    n = ctx.algebra.rank
    nn = n * n
    holds = ctx.memo.get(_ANTISYMMETRY)
    if holds is None:
        holds = next(_unequal(sides(ctx, "antisymmetry"), nn), None) is None
    if not holds:
        return _law_report("jacobi", ctx)
    return _law_report("jacobi", ctx,
                       lambda c: c // nn < c // n % n < c % n)


def _generator_rows(A):
    """The filter of the columns x * n + y, x and y basis indices, with x =
    0 or x in the generating set S that construction proved the current
    product associative with (`generator_indices`); None without such an S.

    On these rows compatibility, D(xy) = D(x)D(y) for a linear map D,
    proves itself on all n^2 pairs.  T = {x : D(xy) = D(x)D(y) for all y}
    is a submodule, since both sides are linear in x.  For x, x' in T,
    associativity gives D((xx')y) = D(x)D(x'y) = D(x)D(x')D(y) =
    D(xx')D(y), so T is closed under products.  So T, holding 1 and S, is
    A."""
    gens = A.generator_indices()
    if gens is None:
        return None
    n, rows = A.rank, {0, *gens}
    return lambda c: c // n in rows


def check_bialgebra(ctx: BranchContext) -> LawReport:
    """Verify the branch co-operation of `ctx` gives a bialgebra on its
    group ring `ctx.algebra`: the laws of `LAWS` that cocomul equals the
    diagonal `diag`; then compatibility with mul on all basis pairs; then
    the left and the right counit laws for the augmentation `aug`, on every
    basis element.  Each law is walked in turn, and the report adds up
    their cases.

    Compatibility is read only on the rows of e_0 and of a generating set,
    against every basis element, where `_generator_rows` proves that this
    decides every pair; a pass reports n^2 cases.  If one of these rows
    fails, every pair is walked again, so the report shows the first
    failing pair in flat order.  Without such a proof, every pair is
    walked."""
    A = ctx.algebra
    generator_rows = _generator_rows(A)
    cases = 0
    for law in ("cocomul equals diagonal", "compatibility",
                "counit law (left)", "counit law (right)"):
        pair = sides(ctx, law)
        keep = generator_rows if law == "compatibility" else None
        checked, cx = _compare(A, pair, LAWS[law][0], keep)
        if cx is not None and keep is not None:
            checked, cx = _compare(A, pair, LAWS[law][0])
        cases += checked
        if cx is not None:
            cx = {"inputs": cx["inputs"], "sublaw": law, **cx}
            return LawReport(law="bialgebra", passed=False,
                             checked_cases=cases, counterexample=cx)
    return LawReport(law="bialgebra", passed=True, checked_cases=cases)


def check_cocomul_two_sided(ctx: BranchContext) -> LawReport:
    """The co-operation agrees whether the bracket acts on the first or the
    second neck leg: sum_i [u, y_i] (x) e_i = sum_i y_i (x) [e_i, u]."""
    return _law_report("cocomul_two_sided", ctx)


def check_theta_trace(ctx: BranchContext) -> LawReport:
    """theta(e_k, e_i, e_j) = counit(e_k * bracket(e_i, e_j)) on all
    triples."""
    return _law_report("theta_trace", ctx)


def check_delta_one_resolution(ctx: BranchContext) -> LawReport:
    """Neck cutting: u = sum_i y_i * counit(e_i * u) on every basis
    element.  The law reads only delta_one, mul, counit and id, so its
    verdict does not depend on the context's theta."""
    return _law_report("delta_one_resolution", ctx)


def _first_unequal_entry(A, pair, order: int):
    """The counterexample at the first unequal entry, in row-major order, of
    the (lhs, rhs) maps A^(x)order -> A^(x)order, or None.  The unequal
    columns come in increasing order, so the first to reach a row is that
    row's smallest; a difference in row 0 ends the walk."""
    n, best = A.rank, None
    for c, a, b in _unequal(pair, n ** order):
        r = min(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if best is None or r < best[0]:
            best = r, c, a.get(r), b.get(r)
            if r == 0:
                break
    if best is None:
        return None
    r, c, a, b = best
    zero = MultiPoly.zero(A.gens)
    return {"inputs": _labels(A, *_unflat(c, n, order)),
            "output_basis": _labels(A, *_unflat(r, n, order)),
            "lhs": str(a or zero), "rhs": str(b or zero)}


_SKEIN_NOTES = {
    "skein_identity_1": "holds with both sides negated: F = swap - E",
    "skein_identity_3": "matrix equals -2 * identity",
}


def check_skein_identities(ctx: BranchContext) -> list[LawReport]:
    """The three web skein identities, under both cocomul conventions.

    With F = (id (x) D) ; (bracket (x) id) and
    E = (mul ; counit) ; delta_one, for D = cocomul_skein or cocomul:
      (1)  F = E - swap
      (2)  F ; F = id + E
      (3)  D ; bracket = 2 id
    Each reports the first unequal entry in row-major order
    (`_first_unequal_entry`).
    The plain-cocomul reports are advisory; notes record exact sign-flipped
    outcomes where they hold.  The pointwise kernel identity
      bracket(e_i, u_(1)) (x) u_(2) = e_j (x) e_i + counit(e_i e_j) delta_one
    (legs from plain cocomul of u = e_j) is checked as stated, with a note
    when the -counit form holds instead.
    """
    A, n = ctx.algebra, ctx.algebra.rank

    @cache
    def holds_negated(law: str, D: str) -> bool:
        """Whether `law` holds with its rhs negated; walked once for both
        the law's note and the pointwise kernel's."""
        pair = sides(ctx, law, -1, D)
        return next(_unequal(pair, n ** LAWS[law][0]), None) is None

    reports: list[LawReport] = []
    for variant, D in (("cocomul_skein", "bcomul_skein"),
                       ("cocomul", "bcomul")):
        for law in ("skein_identity_1", "skein_identity_2",
                    "skein_identity_3"):
            order = LAWS[law][0]
            cx = _first_unequal_entry(A, sides(ctx, law, D=D), order)
            note = None
            if cx is not None and law in _SKEIN_NOTES and \
                    holds_negated(law, D):
                note = _SKEIN_NOTES[law]
            reports.append(LawReport(
                law=law, variant=variant, passed=cx is None,
                checked_cases=n ** order, counterexample=cx, note=note,
                advisory=variant == "cocomul"))

    # Pointwise kernel identity, F == swap + E with F from the plain cocomul
    # convention; every pair is a case, and the first unequal one is shown.
    _, cx = _compare(A, sides(ctx, "skein_pointwise_kernel",
                              D="bcomul"), 2)
    note = None
    if cx is not None and holds_negated("skein_identity_1", "bcomul"):
        note = ("holds with the opposite counit sign: "
                "lhs = e_j⊗e_i - counit(e_i*e_j)*delta_one")
    reports.append(LawReport(
        law="skein_pointwise_kernel", variant="cocomul", passed=cx is None,
        checked_cases=n * n, counterexample=cx, note=note, advisory=True))
    return reports


# The suites, in their default order.  Each calls its checks through the
# module globals, so that a wrapper put there sees the call.
SUITES = {
    "antisym": lambda ctx: [check_antisymmetry(ctx)],
    "jacobi": lambda ctx: [check_jacobi(ctx)],
    "two_sided": lambda ctx: [check_cocomul_two_sided(ctx)],
    "skein": lambda ctx: check_skein_identities(ctx),
    "theta_trace": lambda ctx: [check_theta_trace(ctx)],
    "delta_one": lambda ctx: [check_delta_one_resolution(ctx)],
    "bialgebra": lambda ctx: [check_bialgebra(ctx)],
}
SUITE_NAMES = tuple(SUITES)


def select_suites(names=None, algebra=None) -> list[str]:
    """The suites a selection names, in its order; a single string is one
    name, and None, "all" or a list holding "all" selects every suite that
    applies to `algebra`.  Raises ValueError on a selection of no name,
    since no law run must not read as a pass, on an unknown name, and on
    bialgebra for an algebra that is not a group ring; with no algebra,
    only the names are checked."""
    if names is None:
        names = ["all"]
    elif isinstance(names, str):
        names = [names]
    if not names:
        raise ValueError(f"--suite selection {list(names)} selects no law; "
                         f"available: {', '.join(SUITE_NAMES)}, all")
    unknown = [n for n in names if n not in SUITES and n != "all"]
    if unknown:
        raise ValueError(
            f"unknown suite {unknown[0]!r}; available: {', '.join(SUITE_NAMES)}"
        )
    # A group ring is an algebra whose class defines the diagonal, as
    # `BranchContext.linear_map` finds `diag`; the class is asked, since
    # asking the instance would build the cached map.
    group = algebra is None or hasattr(type(algebra), "diagonal_map")
    if "all" in names:
        return [n for n in SUITES if n != "bialgebra" or group]
    if "bialgebra" in names and not group:
        raise ValueError("the bialgebra suite needs a group ring algebra")
    return list(names)


def run_suite(ctx: BranchContext, names=None) -> list[LawReport]:
    """Run the selected suites (default: all that apply to the context),
    once `select_suites` has accepted the whole selection."""
    return [r for name in select_suites(names, ctx.algebra)
            for r in SUITES[name](ctx)]


def suite_passed(reports) -> bool:
    """True when every non-advisory report passed."""
    return all(r.passed for r in reports if not r.advisory)
