"""Runtime tracing of foamalg's layers, installed from outside the package.

`Tracer.install()` wraps public functions and methods of the eight modules
(the layers) so that each call records a span (id, parent id, name, start,
end) in memory, and wraps the polynomial arithmetic with counters only: a
span per `MultiPoly` operation would cost more than the operation.  Nothing
under `src/` is edited; a name that a later version of the package no longer
has is skipped and listed in `missing`.

Work the tracer does for its own metrics (rebuilding an algebra without
validation, counting nonzero matrix cells) runs in spans of the layer
`trace`, so that the self times of all layers, plus the time outside any
span, add up to the wall time of the pass.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("coeffring", "frobalg", "thetafoam", "branchops", "lawsuite",
          "groupfoam", "foamlang", "cli")

# (module, attribute path, span name).  Several attributes may share a name;
# metrics sum the outermost spans of a name, so nesting never counts twice.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "build_context", "cli.build_context"),
    ("coeffring", "parse_expression", "coeffring.parse"),
    ("frobalg", "FrobeniusAlgebra.__init__", "frobalg.build"),
    ("frobalg", "unimodular_inverse", "frobalg.inverse"),
    ("frobalg", "algebra_from_modulus", "frobalg.from_modulus"),
    ("frobalg", "truncated_algebra", "frobalg.truncated"),
    ("frobalg", "mv_algebra", "frobalg.mv"),
    ("frobalg", "FrobeniusAlgebra.mul", "frobalg.mul"),
    ("frobalg", "FrobeniusAlgebra.comul", "frobalg.comul"),
    ("frobalg", "FrobeniusAlgebra.tensor", "frobalg.tensor"),
    ("frobalg", "FrobeniusAlgebra.handle_scalar", "frobalg.handle_scalar"),
    ("frobalg", "FrobeniusAlgebra.parse_element", "frobalg.parse_element"),
    ("frobalg", "TensorElement.__mul__", "frobalg.tensor_mul"),
    ("thetafoam", "ThetaTable.__init__", "thetafoam.build"),
    ("thetafoam", "lie_theta", "thetafoam.lie"),
    ("thetafoam", "mv_theta", "thetafoam.mv"),
    ("branchops", "LinearMap.__rshift__", "branchops.compose"),
    ("branchops", "LinearMap.__matmul__", "branchops.kron"),
    ("branchops", "LinearMap.__add__", "branchops.linear"),
    ("branchops", "LinearMap.__sub__", "branchops.linear"),
    ("branchops", "LinearMap.__eq__", "branchops.linear"),
    ("branchops", "LinearMap.scale", "branchops.linear"),
    ("branchops", "LinearMap.identity", "branchops.linear"),
    ("branchops", "LinearMap.to_strings", "branchops.linear"),
    ("branchops", "BranchContext.__init__", "branchops.context"),
    ("branchops", "BranchContext.linear_map", "branchops.tables"),
    ("branchops", "BranchContext.mul_by_map", "branchops.tables"),
    ("branchops", "BranchContext.bracket_basis", "branchops.tables"),
    ("branchops", "BranchContext.bracket", "branchops.bracket"),
    ("branchops", "BranchContext.cocomul", "branchops.cocomul"),
    ("lawsuite", "run_suite", "lawsuite.run_suite"),
    ("lawsuite", "check_antisymmetry", "lawsuite.antisymmetry"),
    ("lawsuite", "check_jacobi", "lawsuite.jacobi"),
    ("lawsuite", "check_cocomul_two_sided", "lawsuite.two_sided"),
    ("lawsuite", "check_skein_identities", "lawsuite.skein"),
    ("lawsuite", "check_theta_trace", "lawsuite.theta_trace"),
    ("lawsuite", "check_delta_one_resolution", "lawsuite.delta_one"),
    ("groupfoam", "group_ring", "groupfoam.build"),
    ("groupfoam", "derive_bialgebra_theta", "groupfoam.derive_theta"),
    ("groupfoam", "check_bialgebra", "groupfoam.bialgebra"),
    ("groupfoam", "hopf_delta", "groupfoam.hopf_delta"),
    ("foamlang", "parse", "foamlang.parse"),
    ("foamlang", "typecheck", "foamlang.typecheck"),
    ("foamlang", "compile_diagram", "foamlang.compile"),
    ("foamlang", "eval_closed", "foamlang.eval_closed"),
)

LAWS = ("antisymmetry", "jacobi", "two_sided", "skein", "theta_trace",
        "delta_one")


def _cases(reports) -> int:
    if not isinstance(reports, list):
        reports = [reports]
    return sum(r.to_dict()["cases"] for r in reports)


def _nodes(expr) -> int:
    parts = getattr(expr, "parts", None)
    return 1 + sum(_nodes(p) for p in parts) if parts is not None else 1


def _matrix_stats(m) -> tuple[int, int]:
    """(dense cells, nonzero cells) of a LinearMap, from its public shape and
    entries."""
    cells = m.n ** (m.in_order + m.out_order)
    rows = getattr(m, "rows", None)
    if rows is None:
        rows = m.to_strings()
        return cells, sum(1 for row in rows for e in row if e != "0")
    return cells, sum(1 for row in rows for e in row if e)


class Tracer:
    """Spans and counters for one pass of one child process."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._paused = False

    # -- recording -----------------------------------------------------------

    def _enter(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        outer = not self._depth[name]
        self._depth[name] += 1
        return sid, parent, outer

    def _leave(self, sid, parent, outer, name, start, end):
        self._depth[name] -= 1
        self._stack.pop()
        self.spans[sid] = (sid, parent, name, start, end, outer)

    def span_wrapper(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            sid, parent, outer = tracer._enter(name)
            start = end = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._leave(sid, parent, outer, name, start, end)
            if after is not None:
                after(fn, args, kwargs, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def tracer_span(self, name, fn, *args, **kwargs):
        """Run the tracer's own work in a `trace.*` span, with every wrapper
        passing straight through."""
        sid, parent, outer = self._enter(name)
        start = perf_counter()
        self._paused = True
        try:
            return fn(*args, **kwargs)
        finally:
            self._paused = False
            self._leave(sid, parent, outer, name, start, perf_counter())

    # -- installation ----------------------------------------------------------

    @staticmethod
    def _replace_function(modules, fn, wrapper):
        """Point every module-level reference to fn (its own module and any
        `from .x import fn`) at the wrapper."""
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)

    def install(self):
        package = importlib.import_module("foamalg")
        modules = {"foamalg": package}
        for layer in LAYERS:
            modules[layer] = importlib.import_module(f"foamalg.{layer}")
        after = self._after_hooks()
        for module, path, name in SPANS:
            owner = modules[module]
            *owner_path, attr = path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.missing.append(f"{module}.{path}")
                continue
            is_static = isinstance(fn, (classmethod, staticmethod))
            target = fn.__func__ if is_static else fn
            wrapper = self.span_wrapper(name, target, after.get(path))
            if owner_path:
                setattr(owner, attr, type(fn)(wrapper) if is_static else wrapper)
            else:
                self._replace_function(modules, fn, wrapper)
        self._install_poly_counters(modules["coeffring"])

    def _install_poly_counters(self, coeffring):
        poly = getattr(coeffring, "MultiPoly", None)
        if poly is None:
            self.missing.append("coeffring.MultiPoly")
            return
        tracer, counts = self, self.counts

        def counted(attr, key, extra=None):
            fn = poly.__dict__.get(attr)
            if fn is None:
                self.missing.append(f"coeffring.MultiPoly.{attr}")
                return

            def wrapper(*args, **kwargs):
                if not tracer._paused:
                    counts[key] += 1
                    if extra is not None:
                        extra(*args)
                return fn(*args, **kwargs)

            setattr(poly, attr, wrapper)

        def term_products(a, b):
            other = len(b.terms) if isinstance(b, poly) else (1 if b else 0)
            counts["coeffring.term_products"] += len(a.terms) * other

        counted("__init__", "coeffring.polys_built")
        counted("__add__", "coeffring.add_calls")
        counted("__radd__", "coeffring.add_calls")
        counted("__mul__", "coeffring.mul_calls", term_products)
        counted("__rmul__", "coeffring.mul_calls", term_products)

    def _after_hooks(self):
        counts = self.counts

        def rebuild(init, args, kwargs, result, seconds):
            """validate_s: build time minus a rebuild with validate=False."""
            signature = inspect.signature(init)
            if "validate" not in signature.parameters:
                return
            bound = signature.bind(*args, **kwargs)
            bound.arguments["self"] = object.__new__(type(args[0]))
            bound.arguments["validate"] = False

            def timed():
                start = perf_counter()
                init(*bound.args, **bound.kwargs)
                return perf_counter() - start

            plain = self.tracer_span("trace.rebuild", timed)
            counts["frobalg.validate_s"] += seconds - plain

        def inverse_path(fn, args, kwargs, result, seconds):
            mat = args[0]
            const = all(e.is_constant() for row in mat for e in row)
            counts["frobalg.inverse_const" if const else "frobalg.inverse_poly"] += 1

        def theta_entries(fn, args, kwargs, result, seconds):
            counts["thetafoam.entries"] += len(args[0].entries)

        def matrix(fn, args, kwargs, result, seconds):
            if result is NotImplemented:
                return
            cells, nonzeros = self.tracer_span("trace.count", _matrix_stats, result)
            counts["branchops.matrix_cells"] += cells
            counts["branchops.matrix_nonzeros"] += nonzeros

        def law(key):
            def hook(fn, args, kwargs, result, seconds):
                counts[f"{key}_cases"] += _cases(result)
            return hook

        def nodes(fn, args, kwargs, result, seconds):
            counts["foamlang.nodes"] += _nodes(result)

        hooks = {
            "FrobeniusAlgebra.__init__": rebuild,
            "unimodular_inverse": inverse_path,
            "ThetaTable.__init__": theta_entries,
            "LinearMap.__rshift__": matrix,
            "LinearMap.__matmul__": matrix,
            "check_bialgebra": law("groupfoam.bialgebra"),
            "parse": nodes,
        }
        names = {"check_antisymmetry": "antisymmetry", "check_jacobi": "jacobi",
                 "check_cocomul_two_sided": "two_sided",
                 "check_skein_identities": "skein",
                 "check_theta_trace": "theta_trace",
                 "check_delta_one_resolution": "delta_one"}
        for fn, key in names.items():
            hooks[fn] = law(f"lawsuite.{key}")
        return hooks

    # -- results -----------------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-name calls, outermost inclusive and self time; per-layer self
        time; the counters; and the wall time no span covers."""
        child, traced = Counter(), Counter()
        # Children have larger ids than their parents, so one backward sweep
        # totals the tracer's own spans below each span.
        for sid, parent, name, start, end, outer in reversed(self.spans):
            if parent >= 0:
                child[parent] += end - start
                own_work = end - start if name.startswith("trace.") else 0.0
                traced[parent] += traced[sid] + own_work
        calls, outer_s, self_s, layer_self = Counter(), Counter(), Counter(), Counter()
        covered = 0.0
        for sid, parent, name, start, end, outer in self.spans:
            own = end - start - child[sid]
            calls[name] += 1
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if outer:
                outer_s[name] += end - start - traced[sid]
            if parent < 0:
                covered += end - start
        return {
            "calls": dict(calls), "outer_s": dict(outer_s),
            "self_s": dict(self_s), "layer_self_s": dict(layer_self),
            "counts": dict(self.counts), "unattributed_s": wall_s - covered,
            "wall_s": wall_s, "spans": len(self.spans), "missing": self.missing,
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, _ in self.spans:
                fh.write(f"{self.pass_id}\t{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of one traced pass, by metric name."""
    calls, outer, own = summary["calls"], summary["outer_s"], summary["self_s"]
    counts = summary["counts"]
    out = {f"{layer}.self_s": summary["layer_self_s"].get(layer, 0.0)
           for layer in LAYERS}
    out["trace.tracer_s"] = summary["layer_self_s"].get("trace", 0.0)
    out["trace.unattributed_s"] = summary["unattributed_s"]
    out["trace.wall_s"] = summary["wall_s"]
    out["trace.spans"] = summary["spans"]
    out.update({
        "branchops.compose_s": outer.get("branchops.compose", 0.0),
        "branchops.kron_s": outer.get("branchops.kron", 0.0),
        "branchops.compose_calls": calls.get("branchops.compose", 0),
        "branchops.kron_calls": calls.get("branchops.kron", 0),
        "branchops.tables_s": outer.get("branchops.tables", 0.0),
        "branchops.bracket_calls": calls.get("branchops.bracket", 0),
        "branchops.cocomul_calls": calls.get("branchops.cocomul", 0),
    })
    for law in LAWS:
        out[f"lawsuite.{law}_s"] = outer.get(f"lawsuite.{law}", 0.0)
    out.update({
        "groupfoam.build_s": outer.get("groupfoam.build", 0.0),
        "groupfoam.derive_theta_s": outer.get("groupfoam.derive_theta", 0.0),
        "groupfoam.bialgebra_s": outer.get("groupfoam.bialgebra", 0.0),
        "frobalg.build_s": outer.get("frobalg.build", 0.0),
        "frobalg.inverse_s": outer.get("frobalg.inverse", 0.0),
        "frobalg.mul_calls": calls.get("frobalg.mul", 0),
        "frobalg.tensor_mul_calls": calls.get("frobalg.tensor_mul", 0),
        "coeffring.parse_s": outer.get("coeffring.parse", 0.0),
        "thetafoam.build_s": outer.get("thetafoam.build", 0.0),
        "foamlang.parse_s": outer.get("foamlang.parse", 0.0),
        "foamlang.typecheck_s": outer.get("foamlang.typecheck", 0.0),
        "foamlang.compile_s": outer.get("foamlang.compile", 0.0),
        "foamlang.eval_closed_s": outer.get("foamlang.eval_closed", 0.0),
        "cli.render_s": own.get("cli.main", 0.0),
    })
    for key in COUNTERS:
        out[key] = counts.get(key, 0)
    out["lawsuite.cases"] = sum(out[f"lawsuite.{law}_cases"] for law in LAWS)
    return out


COUNTERS = (
    "branchops.matrix_cells", "branchops.matrix_nonzeros",
    "groupfoam.bialgebra_cases",
    "frobalg.validate_s", "frobalg.inverse_const", "frobalg.inverse_poly",
    "coeffring.mul_calls", "coeffring.add_calls", "coeffring.polys_built",
    "coeffring.term_products", "thetafoam.entries", "foamlang.nodes",
) + tuple(f"lawsuite.{law}_cases" for law in LAWS)
