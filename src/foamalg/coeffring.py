"""Exact arithmetic in the integer coefficient ring Z[g1, ..., gk].

A ring is fixed by an ordered tuple of generator names.  A polynomial is a
canonical sparse map from exponent vectors (one non-negative integer per
generator) to nonzero integer coefficients.  Coefficients are Python ints,
so arithmetic is arbitrary precision and never overflows.
"""

from __future__ import annotations

from typing import Sequence


class MultiPoly:
    """Sparse multivariate polynomial over Z in named generators.

    Values are immutable after construction and always canonical: no stored
    coefficient is zero, and equality is plain equality of the term maps.
    """

    __slots__ = ("gens", "terms", "_hash")

    def __init__(self, gens: Sequence[str], terms):
        """Build from a dict or (exponent vector, coefficient) pairs.

        Duplicate exponent vectors are summed; zero coefficients dropped.
        """
        gens = tuple(gens)
        width = len(gens)
        canon: dict[tuple[int, ...], int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != width:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, "
                    f"expected {width} for generators {gens}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = canon.get(exps, 0) + int(coeff)
            if c:
                canon[exps] = c
            elif exps in canon:
                del canon[exps]
        self.gens = gens
        self.terms = canon
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, gens) -> "MultiPoly":
        return cls(gens, [])

    @classmethod
    def const(cls, gens, value: int) -> "MultiPoly":
        gens = tuple(gens)
        return cls(gens, [((0,) * len(gens), int(value))])

    @classmethod
    def one(cls, gens) -> "MultiPoly":
        return cls.const(gens, 1)

    @classmethod
    def gen(cls, gens, name: str) -> "MultiPoly":
        gens = tuple(gens)
        if name not in gens:
            raise ValueError(f"unknown generator {name!r} (ring has {gens})")
        exps = tuple(1 if g == name else 0 for g in gens)
        return cls(gens, [(exps, 1)])

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.gens != self.gens:
                raise ValueError(
                    f"generator mismatch: {self.gens} vs {other.gens}"
                )
            return other
        if isinstance(other, int):
            return MultiPoly.const(self.gens, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        merged = dict(self.terms)
        for exps, c in other.terms.items():
            s = merged.get(exps, 0) + c
            if s:
                merged[exps] = s
            elif exps in merged:
                del merged[exps]
        return MultiPoly(self.gens, merged)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.gens, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return MultiPoly.zero(self.gens)
        if len(a) == 1 and len(b) == 1:
            (ea, ca), = a.items()
            (eb, cb), = b.items()
            exps = tuple(x + y for x, y in zip(ea, eb))
            return MultiPoly(self.gens, [(exps, ca * cb)])
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(exps, 0) + ca * cb
                if s:
                    out[exps] = s
                elif exps in out:
                    del out[exps]
        return MultiPoly(self.gens, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.one(self.gens)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- comparisons and helpers -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.gens, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.gens == other.gens and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.gens, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> int:
        """The integer value of a constant polynomial."""
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def is_unit(self) -> bool:
        """True iff the polynomial is 1 or -1 (the units of Z[g...])."""
        return self.is_constant() and self.constant_value() in (1, -1)

    def exact_div_int(self, k: int) -> "MultiPoly":
        """Divide every coefficient by the integer k, requiring exactness."""
        if k == 0:
            raise ZeroDivisionError("division by zero")
        out = {}
        for exps, c in self.terms.items():
            q, r = divmod(c, k)
            if r:
                raise ValueError(f"coefficient {c} not divisible by {k}")
            out[exps] = q
        return MultiPoly(self.gens, out)

    def embed(self, gens) -> "MultiPoly":
        """Reinterpret this polynomial in another ring, matching generators
        by name.  Generators actually used here must exist in the target."""
        gens = tuple(gens)
        if gens == self.gens:
            return self
        positions = []
        for i, g in enumerate(self.gens):
            pos = gens.index(g) if g in gens else -1
            positions.append(pos)
        out = {}
        for exps, c in self.terms.items():
            new = [0] * len(gens)
            for i, e in enumerate(exps):
                if not e:
                    continue
                if positions[i] < 0:
                    raise ValueError(
                        f"generator {self.gens[i]!r} not present in {gens}"
                    )
                new[positions[i]] = e
            out[tuple(new)] = c
        return MultiPoly(gens, out)

    # -- rendering ----------------------------------------------------------

    def _term_str(self, exps, coeff) -> str:
        factors = []
        for g, e in zip(self.gens, exps):
            if e == 1:
                factors.append(g)
            elif e > 1:
                factors.append(f"{g}^{e}")
        if not factors:
            return str(coeff)
        body = "*".join(factors)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{coeff}*{body}"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = [self._term_str(e, c)
                 for e, c in sorted(self.terms.items(), reverse=True)]
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"MultiPoly({str(self)!r})"


# -- textual syntax ----------------------------------------------------------
#
# expr   = ["+"|"-"] term { ("+"|"-") term }
# term   = factor { "*" factor }
# factor = INT | NAME [ "^" INT ]
#
# The same grammar serves ring elements (names are ring generators) and
# algebra elements (names may also be basis symbols such as X or group
# generators); the caller supplies how names and integers become values.


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("INT", src[i:j], col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("NAME", src[i:j], col))
            i = j
        elif ch in "+-*^":
            tokens.append((ch, ch, col))
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} at column {col}")
    tokens.append(("EOF", "", n + 1))
    return tokens


def parse_expression(src: str, *, constant, name_value):
    """Parse the signed-sum-of-products syntax and evaluate it.

    `constant(k)` turns an integer literal into a value; `name_value(name)`
    resolves a generator or symbol name (raising ValueError if unknown).
    Values must support +, -, * among themselves and ** with int exponents.
    """
    tokens = _tokenize(src)
    pos = 0

    def peek():
        return tokens[pos]

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise ValueError(
                f"expected {kind} at column {tok[2]}, found {tok[1] or 'end of input'!r}"
            )
        pos += 1
        return tok

    def parse_factor():
        kind, text, col = peek()
        if kind == "INT":
            take()
            value = constant(int(text))
        elif kind == "NAME":
            take()
            try:
                value = name_value(text)
            except ValueError as exc:
                raise ValueError(f"{exc} at column {col}") from None
        else:
            raise ValueError(
                f"expected a number or name at column {col}, "
                f"found {text or 'end of input'!r}"
            )
        if peek()[0] == "^":
            take()
            _, exp_text, _ = take("INT")
            value = value ** int(exp_text)
        return value

    def parse_term():
        value = parse_factor()
        while peek()[0] == "*":
            take()
            value = value * parse_factor()
        return value

    def parse_sum():
        sign = 1
        if peek()[0] in ("+", "-"):
            sign = -1 if take()[0] == "-" else 1
        value = parse_term()
        if sign < 0:
            value = -value
        while peek()[0] in ("+", "-"):
            op = take()[0]
            rhs = parse_term()
            value = value - rhs if op == "-" else value + rhs
        return value

    value = parse_sum()
    kind, text, col = peek()
    if kind != "EOF":
        raise ValueError(f"unexpected {text!r} at column {col}")
    return value


def parse_poly(src: str, gens) -> MultiPoly:
    """Parse a polynomial such as `a^2 + b`, `-3`, or `2*a*b`."""
    gens = tuple(gens)
    return parse_expression(
        src,
        constant=lambda k: MultiPoly.const(gens, k),
        name_value=lambda name: MultiPoly.gen(gens, name),
    )
