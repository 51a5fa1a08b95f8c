"""Exact arithmetic in the integer coefficient ring Z[g1, ..., gk].

A ring is fixed by an ordered tuple of generator names.  A polynomial is a
canonical sparse map from exponent vectors (one non-negative integer per
generator) to nonzero integer coefficients.  Coefficients are Python ints,
so arithmetic is arbitrary precision and never overflows.

Inside `MultiPoly` each exponent vector is packed into one int: every
generator owns a field of EXPONENT_BITS bits, the first generator the most
significant, so multiplying two monomials is one int addition, and packed
keys order exactly as their exponent tuples do (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).
"""

from __future__ import annotations

import heapq
import operator
from collections.abc import Mapping
from functools import cache, reduce
from types import MappingProxyType
from typing import Sequence

MAX_EXPONENT = 100
"""Largest power of one name that `parse_expression` accepts in one product
term, summed over the term's factors (a factor without `^` counts 1).  The
cost of a power grows fast with its exponent: in the `mv` algebra the
coefficients of X^100 have about 850 terms each and `eval` of
`label(X^100)` takes about 0.2 s in process (0.3 s with interpreter start-up;
Python 3.11 on a 2-vCPU VM), while X^200, at about 3400 terms a coefficient,
takes about a second and X^100000000 would never end."""

EXPONENT_BITS = 16
EXPONENT_LIMIT = 1 << (EXPONENT_BITS - 1)
"""Every stored exponent is below EXPONENT_LIMIT, so the top bit of each
packed field is clear and the sum of two packed keys can never carry into
the next field.  The public constructor rejects an exponent at the limit,
and a product with an exponent that reaches it raises ValueError."""

_FIELD_MASK = (1 << EXPONENT_BITS) - 1


def _pack(exps) -> int:
    """The packed key of an exponent vector whose entries are in range."""
    key = 0
    for e in exps:
        key = key << EXPONENT_BITS | e
    return key


def _unpack(key: int, width: int) -> tuple:
    return tuple(
        key >> shift & _FIELD_MASK
        for shift in range(EXPONENT_BITS * (width - 1), -1, -EXPONENT_BITS)
    )


@cache
def _fields(gens: tuple) -> tuple:
    """(name, shift) of each generator's field in a packed key."""
    last = EXPONENT_BITS * (len(gens) - 1)
    return tuple((g, last - EXPONENT_BITS * i) for i, g in enumerate(gens))


@cache
def _top_bits(width: int) -> int:
    """The top bit of every field of a packed key of `width` fields."""
    return _pack([EXPONENT_LIMIT] * width)


def _mul_into(terms: dict, a: dict, b: dict) -> None:
    """Add every term product of the packed term maps `a` and `b` into
    `terms`.

    Coefficients that cancel are left in place as zeros, and keys are not
    checked against EXPONENT_LIMIT; the caller does both once, through
    `MultiPoly._product`, after its last product.  A factor's constant term
    adds its multiple of the other factor's keys without building sums.
    """
    get = terms.get
    for ea, ca in a.items():
        if ea:
            for eb, cb in b.items():
                e = ea + eb
                terms[e] = get(e, 0) + ca * cb
        else:
            for eb, cb in b.items():
                terms[eb] = get(eb, 0) + ca * cb


def _is_one(terms: dict) -> bool:
    """True iff the packed term map is the constant polynomial 1."""
    return len(terms) == 1 and terms.get(0) == 1


def _power(base, k: int, unit):
    """base ** k by square-and-multiply, from `unit`, the one power loop of
    polynomials and algebra elements; the last square is never made."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = unit
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


class MultiPoly:
    """Sparse multivariate polynomial over Z in named generators.

    Values are immutable after construction and always canonical: no stored
    coefficient is zero, and equality is plain equality of the term maps.

    `MultiPoly(gens, terms)` is the one public constructor and checks its
    input.  Arithmetic results are canonical by construction (their keys
    are sums of valid ones and their zero coefficients are dropped), so
    they are wrapped by `_canonical` without re-checking; products also
    pass the EXPONENT_LIMIT check in `_product`.
    """

    __slots__ = ("gens", "_packed")

    def __init__(self, gens: Sequence[str], terms):
        """Build from a mapping or (exponent vector, coefficient) pairs.

        Duplicate exponent vectors are summed; zero coefficients dropped.
        """
        gens = tuple(gens)
        width = len(gens)
        canon: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(map(operator.index, exps))
            if len(exps) != width:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, "
                    f"expected {width} for generators {gens}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if any(e >= EXPONENT_LIMIT for e in exps):
                raise ValueError(
                    f"exponent in {exps} is not below the limit "
                    f"{EXPONENT_LIMIT}"
                )
            key = _pack(exps)
            c = canon.get(key, 0) + operator.index(coeff)
            if c:
                canon[key] = c
            elif key in canon:
                del canon[key]
        self.gens = gens
        self._packed = canon

    @classmethod
    def _canonical(cls, gens: tuple, packed: dict) -> "MultiPoly":
        """Wrap a packed term map that is already canonical: keys with every
        field below EXPONENT_LIMIT, one field per generator, and no zero
        coefficient.  Only values canonical by construction come here."""
        p = object.__new__(cls)
        p.gens = gens
        p._packed = packed
        return p

    @classmethod
    def _product(cls, gens: tuple, packed: dict) -> "MultiPoly":
        """Wrap a packed term map that `_mul_into` accumulated, which the
        caller hands over: drop the zeros that cancellation left (the map is
        copied only then), and refuse a key with a field at EXPONENT_LIMIT,
        on which the next product could carry."""
        if 0 in packed.values():
            packed = {e: c for e, c in packed.items() if c}
        if packed and reduce(operator.or_, packed) & _top_bits(len(gens)):
            raise ValueError(
                f"a product has an exponent of {EXPONENT_LIMIT} or more"
            )
        return cls._canonical(gens, packed)

    @property
    def terms(self) -> Mapping:
        """The term map {exponent tuple: coefficient}: a read-only view,
        built on each read."""
        width = len(self.gens)
        return MappingProxyType(
            {_unpack(e, width): c for e, c in self._packed.items()})

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, gens) -> "MultiPoly":
        return cls._canonical(tuple(gens), {})

    @classmethod
    def const(cls, gens, value: int) -> "MultiPoly":
        value = operator.index(value)
        return cls._canonical(tuple(gens), {0: value} if value else {})

    @classmethod
    def of(cls, gens, value) -> "MultiPoly":
        """`value` in Z[gens], the one conversion of an outside value: an int
        is made a constant, a polynomial must already be in this ring
        (ValueError), and anything else raises TypeError."""
        if not isinstance(value, MultiPoly):
            return cls.const(gens, value)
        if value.gens != tuple(gens):
            raise ValueError(f"generator mismatch: {value.gens} vs {gens}")
        return value

    @classmethod
    def one(cls, gens) -> "MultiPoly":
        return cls.const(gens, 1)

    @classmethod
    def gen(cls, gens, name: str) -> "MultiPoly":
        gens = tuple(gens)
        if name not in gens:
            raise ValueError(f"unknown generator {name!r} (ring has {gens})")
        return cls._canonical(gens, {_pack(int(g == name) for g in gens): 1})

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
        if not self._packed:
            return other
        if not other._packed:
            return self
        merged = dict(self._packed)
        for exps, c in other._packed.items():
            s = merged.get(exps, 0) + c
            if s:
                merged[exps] = s
            elif exps in merged:
                del merged[exps]
        return MultiPoly._canonical(self.gens, merged)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._canonical(
            self.gens, {e: -c for e, c in self._packed.items()}
        )

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
        a, b = self._packed, other._packed
        # MultiPoly is immutable, so a factor of exactly 1 returns the other.
        if _is_one(b):
            return self
        if _is_one(a):
            return other
        out: dict[int, int] = {}
        _mul_into(out, a, b)
        return MultiPoly._product(self.gens, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(self, k, MultiPoly.one(self.gens))

    # -- comparisons and helpers -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.gens, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.gens == other.gens and self._packed == other._packed

    def __hash__(self):
        """A constant hashes as its int, which it equals."""
        if self.is_constant():
            return hash(self._packed.get(0, 0))
        return hash((self.gens, frozenset(self._packed.items())))

    def __bool__(self):
        return bool(self._packed)

    def is_constant(self) -> bool:
        return not any(self._packed)

    def constant_value(self) -> int:
        """The integer value of a constant polynomial."""
        if not self._packed:
            return 0
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self._packed[0]

    def is_unit(self) -> bool:
        """True iff the polynomial is 1 or -1 (the units of Z[g...])."""
        return self.is_constant() and self.constant_value() in (1, -1)

    def exact_div(self, d) -> "MultiPoly":
        """self / d for an int or MultiPoly d dividing self, else ValueError.

        Leading-term division (the largest packed key leads).  If d divides
        self, each quotient term is one of the true quotient, so its fields
        stay below EXPONENT_LIMIT and adding d's keys never carries; a
        remainder key with a top bit set, or that borrows from a field of d's
        leading key, shows that d does not divide self."""
        d = self._coerce(d)
        if d is None:
            raise TypeError("exact_div needs an int or a MultiPoly divisor")
        if not d:
            raise ZeroDivisionError("division by zero")
        if d.is_unit():
            return self if d._packed[0] == 1 else -self
        top = _top_bits(len(self.gens))
        lead = max(d._packed)
        lead_c = d._packed[lead]
        rest = [(e, c) for e, c in d._packed.items() if e != lead]
        rem = dict(self._packed)
        heap = sorted(-e for e in rem)  # a sorted list is a heap
        out = {}
        while rem:
            k = -heapq.heappop(heap)
            q, r = divmod(rem.pop(k), lead_c)
            if not q and not r:
                continue
            diff = (k | top) - lead
            if r or k & top or diff & top != top:
                raise ValueError(f"{self} not divisible by {d}")
            e = diff ^ top
            out[e] = q
            for ed, cd in rest:
                key = e + ed
                if key not in rem:
                    heapq.heappush(heap, -key)
                rem[key] = rem.get(key, 0) - q * cd
        return MultiPoly._canonical(self.gens, out)

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

    def __str__(self):
        """Terms in descending key order, which is descending exponent-tuple
        order; each key's fields are read with shifts and masks."""
        packed = self._packed
        if not packed:
            return "0"
        fields = _fields(self.gens)
        parts = []
        for key in sorted(packed, reverse=True):
            c = packed[key]
            factors = [g if e == 1 else f"{g}^{e}" for g, shift in fields
                       if (e := key >> shift & _FIELD_MASK)] if key else ()
            if not factors:
                parts.append(str(c))
                continue
            body = "*".join(factors)
            parts.append(body if c == 1 else f"-{body}" if c == -1
                         else f"{c}*{body}")
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
# generators); `parse_expression` returns the product terms, and
# `parse_poly` and `FrobeniusAlgebra.parse_element` fold them into values.


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


def name_degrees(src: str) -> dict:
    """Per name, the largest exponent sum over the product terms of `src` (a
    factor without `^` counts 1), read from the tokens alone."""
    tokens, degrees, term = _tokenize(src), {}, {}
    for i, (kind, text, _) in enumerate(tokens):
        if kind == "NAME":
            power = tokens[i + 1][0] == "^" and tokens[i + 2][0] == "INT"
            k = int(tokens[i + 2][1]) if power else 1
            term[text] = term.get(text, 0) + k
        elif kind in ("+", "-", "EOF"):
            for name, d in term.items():
                degrees[name] = max(degrees.get(name, 0), d)
            term = {}
    return degrees


def parse_expression(src: str, *, check_name) -> list:
    """Parse the signed-sum-of-products syntax into its product terms.

    Returns [(coefficient, {name: exponent})], one pair per product term in
    source order: the coefficient is an int with the term's sign and its
    integer factors folded in, and the exponents of a name are summed over
    the term's factors.  Nothing is evaluated; each caller folds the terms
    into its own values.  `check_name(name)` raises ValueError for a name
    the caller does not know, and is called at each name's factor, in
    source order, so the first unknown name is reported with its column.
    A name whose exponents, summed over the factors of one product term,
    exceed MAX_EXPONENT raises ValueError once the term is read.
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
        """(integer or None for a name, name or None for an integer,
        exponent, column)."""
        kind, text, col = peek()
        if kind == "INT":
            take()
            value, name = int(text), None
        elif kind == "NAME":
            take()
            try:
                check_name(text)
            except ValueError as exc:
                raise ValueError(f"{exc} at column {col}") from None
            value, name = None, text
        else:
            raise ValueError(
                f"expected a number or name at column {col}, "
                f"found {text or 'end of input'!r}"
            )
        k = 1
        if peek()[0] == "^":
            take()
            _, exp_text, col = take("INT")
            k = int(exp_text)
        return value, name, k, col

    def parse_term(sign):
        factors = [parse_factor()]
        while peek()[0] == "*":
            take()
            factors.append(parse_factor())
        coeff, degrees = sign, {}
        for value, name, k, col in factors:
            total = k + degrees.get(name, 0) if name else k
            if total > MAX_EXPONENT:
                raise ValueError(
                    f"exponent {total} at column {col} exceeds the maximum "
                    f"{MAX_EXPONENT} for one name in one product term"
                )
            if name:
                degrees[name] = total
            else:
                coeff *= value ** k
        return coeff, degrees

    sign = 1
    if peek()[0] in ("+", "-"):
        sign = -1 if take()[0] == "-" else 1
    terms = [parse_term(sign)]
    while peek()[0] in ("+", "-"):
        terms.append(parse_term(-1 if take()[0] == "-" else 1))
    kind, text, col = peek()
    if kind != "EOF":
        raise ValueError(f"unexpected {text!r} at column {col}")
    return terms


def parse_poly(src: str, gens) -> MultiPoly:
    """Parse a polynomial such as `a^2 + b`, `-3`, or `2*a*b`.

    Each product term becomes one packed key, so no polynomial product is
    taken; the exponent bound of `parse_expression` keeps every field below
    EXPONENT_LIMIT."""
    gens = tuple(gens)
    shifts = dict(_fields(gens))

    def check_name(name):
        if name not in shifts:
            raise ValueError(f"unknown generator {name!r} (ring has {gens})")

    packed: dict[int, int] = {}
    for coeff, degrees in parse_expression(src, check_name=check_name):
        key = sum(k << shifts[name] for name, k in degrees.items())
        packed[key] = packed.get(key, 0) + coeff
    return MultiPoly._canonical(gens, {e: c for e, c in packed.items() if c})
