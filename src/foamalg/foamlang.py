"""A textual planar string-diagram language compiled to exact linear maps.

Grammar (composition reads bottom to top):

    expr   = term { ";" term }          composition
    term   = factor { "*" factor }      side-by-side tensor
    factor = generator | "label" "(" elem ")" | "(" expr ")"

Generators, with (inputs, outputs):

    id (1,1)   swap (2,2)   mul (2,1)    comul (1,2)   unit (0,1)
    counit (1,0)   bmul (2,1)   bcomul (1,2)   bcomul_skein (1,2)
    label(elem) (1,1)

`label(elem)` multiplies by a fixed algebra element; `elem` uses the
polynomial syntax extended with the algebra's basis symbols (X^k powers, or
group generator names).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

from .branchops import BranchContext, LinearMap
from .coeffring import MultiPoly


GENERATOR_ARITIES = {
    "id": (1, 1),
    "swap": (2, 2),
    "mul": (2, 1),
    "comul": (1, 2),
    "unit": (0, 1),
    "counit": (1, 0),
    "bmul": (2, 1),
    "bcomul": (1, 2),
    "bcomul_skein": (1, 2),
    "label": (1, 1),
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
        elif ch == ";":
            tokens.append(("SEMI", ";", start))
            i += 1
            col += 1
        elif ch == "*":
            tokens.append(("STAR", "*", start))
            i += 1
            col += 1
        elif ch == "(":
            tokens.append(("LPAREN", "(", start))
            i += 1
            col += 1
        elif ch == ")":
            tokens.append(("RPAREN", ")", start))
            i += 1
            col += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", start)
    tokens.append(("EOF", "", (line, col)))
    return tokens


# -- parser ---------------------------------------------------------------------


_FACTOR_EXPECTED = sorted(set(GENERATOR_ARITIES) - {"label"}) + ["label(...)", "("]

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
            if text not in GENERATOR_ARITIES or text == "label":
                raise ParseError(f"unknown generator {text!r}", at,
                                 expected=_FACTOR_EXPECTED)
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
            expected=_FACTOR_EXPECTED,
        )

    def parse_term():
        first = parse_factor()
        parts = [first]
        while peek()[0] == "STAR":
            advance()
            parts.append(parse_factor())
        if len(parts) == 1:
            return first
        return Tensor(parts, pos=first.pos)

    def parse_expr():
        first = parse_term()
        parts = [first]
        while peek()[0] == "SEMI":
            advance()
            parts.append(parse_term())
        if len(parts) == 1:
            return first
        return Compose(parts, pos=first.pos)

    expr = parse_expr()
    kind, text, at = peek()
    if kind != "EOF":
        raise ParseError(f"unexpected {text!r} after expression", at)
    return expr


def pretty(e: DiagramExpr) -> str:
    """Render an AST back to source; parse(pretty(e)) == e structurally."""
    if isinstance(e, Generator):
        if e.name == "label":
            return f"label({e.payload})"
        return e.name
    if isinstance(e, Tensor):
        parts = [
            f"({pretty(p)})" if isinstance(p, (Tensor, Compose)) else pretty(p)
            for p in e.parts
        ]
        return " * ".join(parts)
    if isinstance(e, Compose):
        parts = [
            f"({pretty(p)})" if isinstance(p, Compose) else pretty(p)
            for p in e.parts
        ]
        return " ; ".join(parts)
    raise TypeError(f"not a diagram expression: {e!r}")


def typecheck(e: DiagramExpr) -> tuple[int, int]:
    """Return (in_arity, out_arity); raise ArityError if composition breaks."""
    if isinstance(e, Generator):
        return GENERATOR_ARITIES[e.name]
    if isinstance(e, Tensor):
        ins, outs = 0, 0
        for p in e.parts:
            i, o = typecheck(p)
            ins += i
            outs += o
        return ins, outs
    if isinstance(e, Compose):
        first_in, prev_out = typecheck(e.parts[0])
        for p in e.parts[1:]:
            i, o = typecheck(p)
            if i != prev_out:
                raise ArityError(
                    f"arity mismatch in composition: previous output {prev_out} "
                    f"does not match input {i}", p.pos,
                )
            prev_out = o
        return first_in, prev_out
    raise TypeError(f"not a diagram expression: {e!r}")


_GENERATOR_MAPS = {
    "id": "identity",
    "swap": "swap",
    "mul": "mul",
    "comul": "comul",
    "unit": "unit_map",
    "counit": "counit_map",
    "bmul": "bracket",
    "bcomul": "cocomul",
    "bcomul_skein": "cocomul_skein",
}


def compile_diagram(e: DiagramExpr, ctx: BranchContext) -> LinearMap:
    """Compile a well-typed expression to its exact matrix.

    Generators become their matrices, tensoring becomes the Kronecker
    product, and composition becomes matrix product in bottom-to-top order.
    """
    typecheck(e)

    def build(node) -> LinearMap:
        if isinstance(node, Generator):
            if node.name == "label":
                u = ctx.algebra.parse_element(node.payload)
                return ctx.mul_by_map(u)
            return ctx.linear_map(_GENERATOR_MAPS[node.name])
        if isinstance(node, Tensor):
            return reduce(lambda a, b: a @ b, (build(p) for p in node.parts))
        if isinstance(node, Compose):
            return reduce(lambda a, b: a >> b, (build(p) for p in node.parts))
        raise TypeError(f"not a diagram expression: {node!r}")

    return build(e)


def eval_closed(e: DiagramExpr, ctx: BranchContext) -> MultiPoly:
    """Evaluate a closed (0 -> 0) diagram to its scalar."""
    arity = typecheck(e)
    if arity != (0, 0):
        raise ArityError(
            f"expression is not closed: arity {arity}",
            getattr(e, "pos", None),
        )
    return compile_diagram(e, ctx).entry(0, 0)
