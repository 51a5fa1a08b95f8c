"""A textual planar string-diagram language compiled to exact linear maps.

Grammar (composition reads bottom to top):

    expr   = term { ";" term }          composition
    term   = factor { "*" factor }      side-by-side tensor
    factor = generator | "label" "(" elem ")" | "(" expr ")"

The primitive generators, with (inputs, outputs), are those of
`branchops.GENERATORS`:

    id (1,1)   swap (2,2)   mul (2,1)   unit (0,1)   counit (1,0)
    bmul (2,1)   theta (3,0)   delta_one (0,2)   aug (1,0)   diag (1,2)

and `label(elem)` (1,1).  The derived names comul, bcomul and
bcomul_skein, all (1,2), are diagrams of these, one table `DEFINITIONS`: a
derived name compiles as its definition and takes its definition's arity.
`theta` is the theta foam, the table as a 3 -> 0 map; `delta_one` is the
neck, sum_i y_i (x) e_i.  `aug` and `diag`, the augmentation and the
diagonal g -> g (x) g, exist on group rings only; any algebra parses and
typechecks them, and compiling them elsewhere raises ValueError.
`label(elem)` multiplies by a fixed algebra element; `elem` uses the
polynomial syntax extended with the algebra's basis symbols (X^k powers,
or group generator names).  `side` compiles the law suite's signed sums of
diagrams on the same column sources.  Both compile over a context's memo,
`BranchContext.memo`, so a subtree is compiled once per context however
many laws and diagrams read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Optional

from .branchops import GENERATORS, BranchContext, LinearMap
from .frobalg import _Kron, _column, _push
from .coeffring import MAX_EXPONENT, MultiPoly, name_degrees


GENERATOR_ARITIES = {name: (ins, outs)
                     for name, (_, ins, outs) in GENERATORS.items()}
GENERATOR_ARITIES["label"] = (1, 1)

# The derived names, each compiled as the diagram of its text.
DEFINITIONS = {
    "comul": "(delta_one * id) ; (id * mul)",
    "bcomul": "(id * delta_one) ; (bmul * id)",
    "bcomul_skein": "bcomul ; swap",
}


class ParseError(Exception):
    """Malformed diagram source; carries the (line, column) of the fault."""

    def __init__(self, message: str, pos: tuple[int, int], expected=()):
        self.message = message
        self.pos = pos
        self.expected = tuple(expected)
        location = f"line {pos[0]}, column {pos[1]}"
        detail = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at {location}{detail}")


class ArityError(Exception):
    """A well-formed expression whose arities do not chain."""

    def __init__(self, message: str, pos: Optional[tuple[int, int]]):
        self.message = message
        self.pos = pos
        location = f" at line {pos[0]}, column {pos[1]}" if pos else ""
        super().__init__(f"{message}{location}")


@dataclass
class Generator:
    name: str
    payload: Optional[str] = None
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


@dataclass
class Tensor:
    parts: list
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


@dataclass
class Compose:
    parts: list
    pos: Optional[tuple[int, int]] = field(default=None, compare=False)


DiagramExpr = Generator | Tensor | Compose


# -- lexer ---------------------------------------------------------------------


# The one-character tokens and their kinds.
_PUNCTUATION = {";": "SEMI", "*": "STAR", "(": "LPAREN", ")": "RPAREN"}


def _lex(src: str):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start = (line, col)
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            name = src[i:j]
            col += j - i
            i = j
            if name == "label":
                while i < n and src[i] in " \t":
                    col += 1
                    i += 1
                if i >= n or src[i] != "(":
                    raise ParseError("expected '(' after label", (line, col),
                                     expected=["("])
                i += 1
                col += 1
                j = i
                while j < n and src[j] not in ")\n":
                    j += 1
                if j >= n or src[j] != ")":
                    raise ParseError("unterminated label payload", start,
                                     expected=[")"])
                payload = src[i:j].strip()
                if not payload:
                    raise ParseError("empty label payload", (line, col))
                col += j - i + 1
                i = j + 1
                tokens.append(("LABEL", payload, start))
            else:
                tokens.append(("NAME", name, start))
        elif ch in _PUNCTUATION:
            tokens.append((_PUNCTUATION[ch], ch, start))
            i += 1
            col += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", start)
    tokens.append(("EOF", "", (line, col)))
    return tokens


# -- parser ---------------------------------------------------------------------


# Deepest parenthesis nesting `parse` accepts.  Parsing, type checking and
# compilation each recurse once per level, so this bound keeps every stage
# well inside Python's default recursion limit.
MAX_NESTING = 100


def parse(src: str) -> DiagramExpr:
    """Parse diagram source into an AST.

    Raises ParseError with the exact (line, column) on malformed input,
    including parentheses nested deeper than MAX_NESTING.
    """
    tokens = _lex(src)
    expected = sorted([*GENERATORS, *DEFINITIONS]) + ["label(...)", "("]
    pos = 0
    depth = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_factor():
        nonlocal depth
        kind, text, at = peek()
        if kind == "NAME":
            advance()
            if text not in GENERATORS and text not in DEFINITIONS:
                raise ParseError(f"unknown generator {text!r}", at,
                                 expected=expected)
            return Generator(text, pos=at)
        if kind == "LABEL":
            advance()
            return Generator("label", payload=text, pos=at)
        if kind == "LPAREN":
            if depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", at)
            advance()
            depth += 1
            inner = parse_expr()
            depth -= 1
            kind, text, at2 = peek()
            if kind != "RPAREN":
                raise ParseError("expected ')'", at2, expected=[")"])
            advance()
            return inner
        raise ParseError(
            f"expected a generator, found {text or 'end of input'!r}", at,
            expected=expected,
        )

    def parse_sequence(separator, node, parse_part):
        """One part, or a `node` of the parts that `separator` joins."""
        first = parse_part()
        parts = [first]
        while peek()[0] == separator:
            advance()
            parts.append(parse_part())
        if len(parts) == 1:
            return first
        return node(parts, pos=first.pos)

    parse_term = partial(parse_sequence, "STAR", Tensor, parse_factor)
    parse_expr = partial(parse_sequence, "SEMI", Compose, parse_term)

    expr = parse_expr()
    kind, text, at = peek()
    if kind != "EOF":
        raise ParseError(f"unexpected {text!r} after expression", at)
    return expr


def pretty(e: DiagramExpr) -> str:
    """Render an AST back to source; parse(pretty(e)) == e structurally."""
    return _keyed(e)[0]


def _keyed(e: DiagramExpr) -> tuple:
    """(pretty(e), e, the keyed parts of e): each subtree's text is made
    once, from its parts' texts, so a walk of the keyed tree reads every
    subtree's text without rendering it again."""
    if isinstance(e, Generator):
        return (f"label({e.payload})" if e.name == "label" else e.name), e, ()
    if isinstance(e, (Tensor, Compose)):
        parts = [_keyed(p) for p in e.parts]
        grouped = (Tensor, Compose) if isinstance(e, Tensor) else Compose
        text = (" * " if isinstance(e, Tensor) else " ; ").join(
            f"({t})" if isinstance(p, grouped) else t for t, p, _ in parts)
        return text, e, parts
    raise TypeError(f"not a diagram expression: {e!r}")


def typecheck(e: DiagramExpr) -> tuple[int, int]:
    """Return (in_arity, out_arity); raise ArityError if composition
    breaks."""
    return _shape(e)[:2]


def _shape(e: DiagramExpr) -> tuple[int, int, int]:
    """(inputs, outputs, w) of `e`, where w is the most legs that one column
    in flight through it has; raise ArityError, at the first composition
    whose arities do not chain, if any.  A tensor's columns are made from
    its parts' columns, so inside it only one part's legs are in flight at
    a time.  A derived name counts as a generator: the legs inside its
    definition are never counted."""
    if isinstance(e, Generator):
        ins, outs = _parsed(DEFINITIONS[e.name])[1] \
            if e.name in DEFINITIONS else GENERATOR_ARITIES[e.name]
        return ins, outs, max(ins, outs)
    if isinstance(e, Tensor):
        ins, outs, widths = zip(*map(_shape, e.parts))
        return sum(ins), sum(outs), max(sum(ins), sum(outs), *widths)
    if isinstance(e, Compose):
        first_in, prev_out, legs = _shape(e.parts[0])
        for p in e.parts[1:]:
            i, o, w = _shape(p)
            if i != prev_out:
                raise ArityError(
                    f"arity mismatch in composition: previous output {prev_out} "
                    f"does not match input {i}", p.pos,
                )
            prev_out, legs = o, max(legs, w)
        return first_in, prev_out, legs
    raise TypeError(f"not a diagram expression: {e!r}")


def _check_label_degrees(e: DiagramExpr) -> None:
    """Composing or tensoring labels multiplies their coefficients, so one
    diagram's labels share the MAX_EXPONENT bound: per name, the largest
    exponent sum over one payload's product terms, added over every label."""
    totals: dict[str, int] = {}
    stack = [e]
    while stack:
        node = stack.pop()
        if not isinstance(node, Generator):
            stack.extend(reversed(node.parts))
        elif node.name == "label":
            for name, d in name_degrees(node.payload).items():
                totals[name] = totals.get(name, 0) + d
                if totals[name] > MAX_EXPONENT:
                    where = (f" up to line {node.pos[0]}, column {node.pos[1]}"
                             if node.pos else "")
                    raise ValueError(
                        f"labels{where} raise {name!r} to degree "
                        f"{totals[name]}, which exceeds the maximum "
                        f"{MAX_EXPONENT} for one name in one diagram")


MAX_MATRIX_CELLS = 2 ** 20
"""Largest n^(i+w) that `compile_diagram` accepts at rank n, where i is the
diagram's inputs and w the most legs that one column in flight has
(`_shape`).  The diagram's n^i input columns are pushed through it, and a
column on k legs has at most n^k entries, so the bound covers the printed
matrix of an open diagram (`eval` prints all its n^(i+o) cells) and every
column in flight.  A tensor is never built whole, so `id * bmul`, with n^5
dense cells, is bounded only by the legs it carries: the closed theta
diagram has at most three legs in flight and evaluates up to rank 101.  On
`mv` (rank 3) 3^12 is accepted and 3^13 is not, so six inputs and six
outputs pass and `id*id*id*id*id*id*id` (seven and seven) is refused.  The
check runs before any map is built, so an oversized diagram fails at once
instead of exhausting memory."""


def _stage(factors: list):
    """The columns of the Kronecker product of `factors`: one factor's own
    (a map's stored columns, or a `_Chain`), or a `_Kron` of them."""
    return factors[0].cols if len(factors) == 1 else _Kron(*factors)


def _support(factors: list):
    """The input columns where the Kronecker product of `factors` can be
    nonzero, or None when every one can: the products of a map's stored
    columns and a chain's first stage's."""
    supports = [f.support() if isinstance(f, _Chain)
                else None if len(f.cols) == f.n ** f.in_order
                else f.cols.keys() for f in factors]
    if all(keys is None for keys in supports):
        return None
    out = None
    for f, keys in zip(factors, supports):
        width = f.n ** f.in_order
        keys = range(width) if keys is None else keys
        out = keys if out is None else {a * width + b for a in out
                                        for b in keys}
    return out


class _Chain:
    """A composition as a `_Kron` factor and its own column source, from its
    parts' factor lists: `make(j)` pushes input column j through the parts'
    stages in turn, and `get(j)` keeps it, so no column is made twice."""

    __slots__ = ("n", "in_order", "out_order", "make", "made", "first")

    def __init__(self, parts: list):
        self.n = parts[0][0].n
        self.in_order = sum(f.in_order for f in parts[0])
        self.out_order = sum(f.out_order for f in parts[-1])
        self.make = partial(_column, list(map(_stage, parts)))
        self.made: dict = {}
        self.first = parts[0]

    @property
    def cols(self):
        return self

    def get(self, j: int) -> dict:
        col = self.made.get(j)
        if col is None:
            col = self.made[j] = self.make(j)
        return col

    def support(self):
        return _support(self.first)


def _rotation(s: int, k: int, n: int):
    """c -> the flat index of the legs (x_s, ..., x_k-1, x_0, ..., x_s-1),
    for x the k legs at flat index c; the rotation by k - s inverts it."""
    low, high = n ** (k - s), n ** s
    return lambda c: c % low * high + c // low


class Side:
    """A signed sum of compiled diagrams as a column source: `get(c)` is
    column c, `support()` the set (or a dict's keys) of the columns that can
    be nonzero, or None when every one can, and `outputs` the diagrams'
    outputs.  A term is (coefficient, column function giving dicts,
    factors, the rotation of the factors' columns to the side's or None)."""

    def __init__(self, terms, gens, outputs):
        self.terms, self.outputs = terms, outputs
        fetches = [t[1] for t in terms]
        if len(terms) == 1 and terms[0][0] == 1:
            self.get = fetches[0]
        else:
            weights = [(k, MultiPoly.const(gens, t[0]))
                       for k, t in enumerate(terms)]
            self.get = lambda c: _push(
                {k: f(c) for k, f in enumerate(fetches)}, weights)

    def support(self):
        if len(self.terms) == 1 and self.terms[0][3] is None:
            return _support(self.terms[0][2])
        out = set()
        for _, _, factors, back in self.terms:
            keys = _support(factors)
            if keys is None:
                return None
            out.update(keys if back is None else map(back, keys))
        return out


@lru_cache(maxsize=256)
def _parsed(text: str):
    """(keyed tree, arity) of a diagram, parsed once; the keyed tree is
    `_keyed`'s, so its first item is the source as `pretty` prints it."""
    tree = parse(text)
    return _keyed(tree), typecheck(tree)


def factors(ctx: BranchContext, keyed) -> list:
    """The Kronecker factors over `ctx` of a well-typed tree, given keyed
    (`_keyed`): maps, or `_Chain`s for compositions; a derived name's are
    its definition's.  Identical subtrees are compiled once per context,
    keyed by their source text in `ctx.memo`."""
    key, node, parts = keyed
    if isinstance(node, Tensor):
        return [f for p in parts for f in factors(ctx, p)]
    if isinstance(node, Generator) and node.name in DEFINITIONS:
        return factors(ctx, _parsed(DEFINITIONS[node.name])[0])
    if key not in ctx.memo:
        ctx.memo[key] = [_make(ctx, node, parts)]
    return ctx.memo[key]


def _make(ctx: BranchContext, node, parts):
    """The one factor of a composition or a generator, from `node` and its
    keyed parts."""
    if isinstance(node, Compose):
        return _Chain([factors(ctx, p) for p in parts])
    if node.name == "label":
        return ctx.mul_by_map(ctx.algebra.parse_element(node.payload))
    return ctx.linear_map(node.name)


def side(ctx: BranchContext, terms) -> Side:
    """The column source over `ctx` of sum_t a_t * d_t(x_s, ..., x_k-1, x_0,
    ..., x_s-1), s = s_t, for `terms` of (a_t, s_t, source of d_t) on k
    input legs x: d_t takes the legs rotated by s_t (`_rotation`).  A term
    whose diagram is a composition makes each column it reads with its
    `_Chain.make` and keeps none, since a law's walk reads each column of a
    term once; `_Chain.made` keeps only the columns of compositions that
    other diagrams are built from."""
    parsed = [_parsed(text) for _, _, text in terms]
    n, out = ctx.algebra.rank, []
    for (a, s, _), (keyed, (k, _)) in zip(terms, parsed):
        parts = factors(ctx, keyed)
        source = _stage(parts)
        if isinstance(source, _Chain):
            fetch = source.make
        else:  # a map's columns or a `_Kron`: None for a zero column
            fetch = lambda c, get=source.get: get(c) or {}
        back = _rotation(k - s, k, n) if s else None
        if s:
            fetch = lambda c, f=fetch, r=_rotation(s, k, n): f(r(c))
        out.append((a, fetch, parts, back))
    return Side(out, ctx.algebra.gens, parsed[0][1][1] if parsed else None)


def compile_diagram(e: DiagramExpr, ctx: BranchContext) -> LinearMap:
    """Compile an expression to its exact matrix.

    Generators become their matrices; a tensor and a composition become
    column sources (`_stage`, `_Chain`) whose columns are made from their
    parts' columns when read, as Kronecker products or by pushing through
    the parts in turn, a composition's kept.  The result reads its n^in
    input columns, so nothing is made that they do not need: a closed
    diagram makes only what its one column passes through.  Subtrees are
    compiled once per context (`factors`).  Raises ArityError on an
    ill-typed expression and ValueError, before building anything, when the
    diagram exceeds MAX_MATRIX_CELLS.
    """
    A, (ins, outs, legs) = ctx.algebra, _shape(e)
    n = A.rank
    cells = n ** (ins + legs)
    if cells > MAX_MATRIX_CELLS:
        raise ValueError(
            f"diagram too large: {ins} inputs and a cut of {legs} legs, "
            f"{n}^{ins + legs} = {cells} matrix cells at rank {n}, more than "
            f"the maximum {MAX_MATRIX_CELLS}")
    _check_label_degrees(e)
    whole = _stage(factors(ctx, _keyed(e)))
    cols = {c: whole.get(c) for c in range(n ** ins)}
    return LinearMap._canonical(A.gens, n, ins, outs, cols)


def eval_closed(e: DiagramExpr, ctx: BranchContext) -> MultiPoly:
    """Evaluate a closed (0 -> 0) diagram to its scalar."""
    arity = typecheck(e)
    if arity != (0, 0):
        raise ArityError(
            f"expression is not closed: arity {arity}",
            getattr(e, "pos", None),
        )
    return compile_diagram(e, ctx).entry(0, 0)
