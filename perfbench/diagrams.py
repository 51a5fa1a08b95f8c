"""Seeded stream of well-typed diagrams for the `mv` algebra and theta table.

A diagram is kept as a small tree of tuples, so that the output gate can
evaluate it with element operations instead of the compiler:

    ("gen", name)                 a named generator (id, swap, mul, ...)
    ("label", terms)              multiplication by a fixed element
    ("tensor", (part, ...))       side-by-side
    ("compose", (part, ...))      bottom to top

A label's terms are (coefficient, a, b, c, X) exponent tuples, so the element
is the sum of coefficient * a^i * b^j * c^k * X^e.

Closed diagrams come from three templates whose value has a closed form:
the theta foam (`ThetaTable.eval`), the handle (`handle_scalar`) and the
counit of a label (`counit`).  Open diagrams are random layers of generators
with at most four legs at any cut and nesting depth three.
"""

from __future__ import annotations

import json
import random

ARITY = {
    "id": (1, 1), "swap": (2, 2), "mul": (2, 1), "comul": (1, 2),
    "unit": (0, 1), "counit": (1, 0), "bmul": (2, 1), "bcomul": (1, 2),
    "bcomul_skein": (1, 2),
}
MAX_LEGS = 4
MAX_CELLS = 300


def arity(node) -> tuple[int, int]:
    kind = node[0]
    if kind == "gen":
        return ARITY[node[1]]
    if kind == "label":
        return (1, 1)
    if kind == "tensor":
        parts = [arity(p) for p in node[1]]
        return sum(i for i, _ in parts), sum(o for _, o in parts)
    first = arity(node[1][0])
    return first[0], arity(node[1][-1])[1]


def render_payload(terms) -> str:
    """Polynomial syntax the program parses: a sign is its own token, never
    `+ -3*a`."""
    out = []
    for pos, (coef, *exps) in enumerate(terms):
        factors = []
        for name, e in zip(("a", "b", "c", "X"), exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coef)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        if pos == 0:
            out.append(("-" if coef < 0 else "") + body)
        else:
            out.append(("- " if coef < 0 else "+ ") + body)
    return " ".join(out)


def render(node) -> str:
    kind = node[0]
    if kind == "gen":
        return node[1]
    if kind == "label":
        return f"label({render_payload(node[1])})"
    if kind == "tensor":
        return " * ".join(
            f"({render(p)})" if p[0] in ("tensor", "compose") else render(p)
            for p in node[1]
        )
    return " ; ".join(
        f"({render(p)})" if p[0] == "compose" else render(p) for p in node[1]
    )


def _terms(rng: random.Random):
    """Two or three distinct monomials with nonzero coefficients, so the
    payload has as many terms as it shows."""
    count = rng.randint(2, 3)
    seen, terms = set(), []
    while len(terms) < count:
        exps = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1),
                rng.randint(0, 2))
        if exps in seen:
            continue
        seen.add(exps)
        coef = rng.choice((-1, 1)) * rng.randint(1, 5)
        terms.append((coef, *exps))
    return tuple(terms)


class _OpenMaker:
    """Random layers for one open diagram.  At most two labels per diagram:
    each label multiplies every later entry by a multi-term polynomial, and
    more of them make a few diagrams cost seconds."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.labels_left = 2

    def label(self):
        if not self.labels_left:
            return None
        self.labels_left -= 1
        return ("label", _terms(self.rng))

    def block(self, k: int):
        """A block taking k legs; compound blocks add one nesting level."""
        rng = self.rng
        if k == 0:
            label = self.label() if rng.random() < 0.5 else None
            return ("compose", (("gen", "unit"), label)) if label else ("gen", "unit")
        if k == 1:
            pick = rng.randrange(9)
            if pick < 5:
                return ("gen", ("id", "comul", "bcomul", "bcomul_skein", "counit")[pick])
            if pick < 7:
                return self.label() or ("gen", "id")
            if pick == 7:
                gen = ("gen", rng.choice(("comul", "bcomul")))
                label = self.label()
                return ("compose", (label, gen)) if label else gen
            return ("compose", (("gen", "bcomul_skein"), ("gen", "bmul")))
        pick = rng.randrange(5)
        if pick < 3:
            return ("gen", ("mul", "bmul", "swap")[pick])
        if pick == 3:
            return ("compose", (("gen", "swap"), ("gen", "bmul")))
        label = self.label()
        return ("compose", (("gen", "mul"), label)) if label else ("gen", "mul")

    def layer(self, legs: int):
        """A tensor of blocks taking `legs` inputs to between 1 and MAX_LEGS
        outputs."""
        rng = self.rng
        for _ in range(50):
            saved = self.labels_left
            parts, left = [], legs
            if left == 0 or (left < MAX_LEGS - 1 and rng.random() < 0.15):
                parts.append(self.block(0))
            while left:
                k = 2 if left >= 2 and rng.random() < 0.45 else 1
                parts.append(self.block(k))
                left -= k
            rng.shuffle(parts)
            outs = sum(arity(p)[1] for p in parts)
            if 1 <= outs <= MAX_LEGS:
                return parts[0] if len(parts) == 1 else ("tensor", tuple(parts))
            self.labels_left = saved
        return ("tensor", tuple(("gen", "id") for _ in range(legs)))

    def diagram(self):
        legs = self.rng.choice((0, 1, 1, 2, 2))
        layers = []
        for _ in range(self.rng.randint(2, 3)):
            layer = self.layer(legs)
            layers.append(layer)
            legs = arity(layer)[1]
        return ("compose", tuple(layers))


def _cells(tree) -> int:
    """Dense matrix cells of the layers of a compose chain, rank 3."""
    return sum(3 ** sum(arity(layer)) for layer in tree[1])


def _open(rng: random.Random):
    """An open diagram whose layer matrices stay small: the compiled cost
    grows with the cells and with polynomial degree along the chain, and a
    handful of large ones would make the latency tail the whole workload."""
    while True:
        tree = _OpenMaker(rng).diagram()
        if _cells(tree) <= MAX_CELLS:
            return tree


def _unit_label(rng):
    return ("compose", (("gen", "unit"), ("label", _terms(rng))))


def _closed(rng: random.Random):
    pick = rng.randrange(3)
    if pick == 0:
        inputs = ("tensor", tuple(_unit_label(rng) for _ in range(3)))
        return ("theta", ("compose", (
            inputs, ("tensor", (("gen", "id"), ("gen", "bmul"))),
            ("gen", "mul"), ("gen", "counit"),
        )))
    if pick == 1:
        middle = rng.choice((("gen", "mul"), ("compose", (("gen", "swap"), ("gen", "mul")))))
        return ("handle", ("compose", (
            ("gen", "unit"), ("gen", "comul"), middle, ("gen", "counit"),
        )))
    return ("counit", ("compose", (
        ("gen", "unit"), ("label", _terms(rng)), ("gen", "counit"),
    )))


def diagram_stream(seed: int, count: int):
    """`count` diagrams as (kind, tree, source text); kind is "open" or the
    closed template's name.  The same seed gives the same stream."""
    rng = random.Random(f"diagram-eval:{seed}")
    out = []
    for _ in range(count):
        if rng.random() < 0.25:
            kind, tree = _closed(rng)
        else:
            kind, tree = "open", _open(rng)
        out.append((kind, tree, render(tree)))
    return out


class DiagramOracle:
    """Expected value of a diagram on `mv`, from element operations only.

    Closed diagrams use the closed forms of their template.  An open
    diagram's column for a basis tuple is that tuple pushed layer by layer
    through `mul`, `comul`, `counit`, `bracket`, `cocomul` and products with
    the label elements.  Nothing here calls the diagram compiler or the
    payload parser; an expected value is compared with the printed one in
    the canonical polynomial rendering.
    """

    def __init__(self):
        from foamalg import BranchContext, MultiPoly, mv_algebra, mv_theta
        self.A = A = mv_algebra()
        self.ctx = BranchContext(A, mv_theta())
        self.poly = MultiPoly
        self.one = MultiPoly.one(A.gens)
        self.zero = MultiPoly.zero(A.gens)
        self.n = A.rank
        self._elements = {}
        self._images = {}
        self._verified = set()

    # -- values ------------------------------------------------------------------

    def element(self, terms):
        """sum of coefficient * a^i b^j c^k * X^e, with X^e a product of X."""
        if terms in self._elements:
            return self._elements[terms]
        A = self.A
        x = A.basis_element(1)
        acc = A.zero
        for coef, i, j, k, e in terms:
            power = A.unit
            for _ in range(e):
                power = A.mul(power, x)
            acc = acc + power.scale(self.poly(A.gens, {(i, j, k): coef}))
        self._elements[terms] = acc
        return acc

    def _vector(self, elem):
        return {(k,): c for k, c in enumerate(elem.coeffs) if c}

    def _generator(self, name, idx):
        A, ctx = self.A, self.ctx
        e = [A.basis_element(i) for i in idx]
        if name == "id":
            out = {idx: self.one}
        elif name == "swap":
            out = {(idx[1], idx[0]): self.one}
        elif name == "mul":
            out = self._vector(A.mul(e[0], e[1]))
        elif name == "bmul":
            out = self._vector(ctx.bracket(e[0], e[1]))
        elif name == "unit":
            out = self._vector(A.unit)
        elif name == "counit":
            value = A.counit(e[0])
            out = {(): value} if value else {}
        elif name == "comul":
            out = dict(A.comul(e[0]).coeffs)
        elif name == "bcomul":
            out = dict(ctx.cocomul(e[0]).coeffs)
        elif name == "bcomul_skein":
            out = dict(ctx.cocomul_skein(e[0]).coeffs)
        else:
            raise ValueError(f"unknown generator {name!r}")
        return out

    def image(self, node, idx):
        """Image of the basis tuple idx as {output tuple: coefficient}."""
        key = (node, idx)
        if key not in self._images:
            self._images[key] = self._image(node, idx)
        return self._images[key]

    def _image(self, node, idx):
        kind = node[0]
        if kind == "gen":
            return self._generator(node[1], idx)
        if kind == "label":
            u = self.A.mul(self.element(node[1]), self.A.basis_element(idx[0]))
            return self._vector(u)
        if kind == "tensor":
            value, pos = {(): self.one}, 0
            for part in node[1]:
                width = arity(part)[0]
                piece = self.image(part, idx[pos:pos + width])
                pos += width
                value = {a + b: ca * cb for a, ca in value.items()
                         for b, cb in piece.items()}
            return value
        value = {idx: self.one}
        for part in node[1]:
            out = {}
            for j, c in value.items():
                for k, d in self.image(part, j).items():
                    out[k] = out.get(k, self.zero) + c * d
            value = {k: v for k, v in out.items() if v}
        return value

    def closed_value(self, kind, tree):
        A = self.A
        if kind == "theta":
            u, v, w = (self.element(p[1][1][1]) for p in tree[1][0][1])
            return self.ctx.theta.eval(u, v, w)
        if kind == "handle":
            return A.handle_scalar()
        if kind == "counit":
            return A.counit(self.element(tree[1][1][1]))
        raise ValueError(f"unknown closed template {kind!r}")

    # -- the gate ------------------------------------------------------------------

    def _tuple(self, flat, order):
        idx = []
        for _ in range(order):
            flat, r = divmod(flat, self.n)
            idx.append(r)
        return tuple(reversed(idx))

    def check(self, kind, tree, code, out, err) -> bool:
        """True when `foamalg eval --format json` printed the right value."""
        if code != 0 or err:
            return False
        key = (tree, out)
        if key in self._verified:
            return True
        try:
            doc = json.loads(out)
            k, m = arity(tree)
            if doc.get("arity") != [k, m]:
                return False
            if kind != "open":
                ok = doc["value"] == str(self.closed_value(kind, tree))
            else:
                ok = self._check_matrix(tree, k, m, doc["matrix"])
        except (KeyError, TypeError, ValueError):
            return False
        if ok:
            self._verified.add(key)
        return ok

    def _check_matrix(self, tree, k, m, rows) -> bool:
        n = self.n
        if len(rows) != n ** m or any(len(r) != n ** k for r in rows):
            return False
        for col in range(n ** k):
            image = self.image(tree, self._tuple(col, k))
            for row in range(n ** m):
                want = image.get(self._tuple(row, m), self.zero)
                if rows[row][col] != str(want):
                    return False
        return True
