"""Sparse bivariate Laurent polynomials with exact coefficients.

A polynomial maps exponent pairs (i, j) to ints, floats, or :class:`KLinear`
values a + b*k, linear in the free parameter k.  Values are immutable by
convention, so they are safe to share between threads.  The module also
holds the expression parser (grammar in the README), monomial
substitutions, Newton polygons and the temperedness test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParseError

__all__ = [
    "KLinear",
    "LaurentPoly2",
    "NewtonPolygon",
    "Face",
    "parse_poly",
    "monomial_transform",
    "newton_polygon",
    "is_tempered",
    "cyclotomic",
]


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KLinear:
    """Integer-linear expression a + b*k in the symbolic parameter k."""

    a: int
    b: int

    def __add__(self, other):
        if isinstance(other, KLinear):
            return _knorm(self.a + other.a, self.b + other.b)
        if isinstance(other, int):
            return _knorm(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return KLinear(-self.a, -self.b)

    def __sub__(self, other):
        if not isinstance(other, (KLinear, int)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, KLinear):
            if self.b and other.b:
                raise ValueError("coefficient would have degree > 1 in k")
            if other.b == 0:
                return _knorm(self.a * other.a, self.b * other.a)
            return _knorm(self.a * other.a, self.a * other.b)
        if isinstance(other, int):
            return _knorm(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def substitute(self, k_value):
        return self.a + self.b * k_value

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        bpart = "k" if self.b == 1 else ("-k" if self.b == -1 else f"{self.b}*k")
        if self.a == 0:
            return bpart
        sign = "+" if self.b > 0 else "-"
        mag = abs(self.b)
        kterm = "k" if mag == 1 else f"{mag}*k"
        return f"({self.a}{sign}{kterm})"


def _knorm(a, b):
    """Collapse a KLinear with no k-part back to a plain int."""
    return a if b == 0 else KLinear(a, b)


def _c_mul(u, v):
    if isinstance(u, KLinear) or isinstance(v, KLinear):
        if isinstance(u, float) or isinstance(v, float):
            raise TypeError("cannot mix float coefficients with symbolic k")
        if not isinstance(u, KLinear):
            u, v = v, u
        return u * v
    return u * v


def _c_is_zero(u):
    if isinstance(u, KLinear):
        return u.a == 0 and u.b == 0
    return u == 0


def _c_value(u):
    """Numeric value of a coefficient; raises if k is still symbolic."""
    if isinstance(u, KLinear):
        raise ValueError("polynomial still contains the symbolic parameter k")
    return u


# ---------------------------------------------------------------------------
# the polynomial
# ---------------------------------------------------------------------------

class LaurentPoly2:
    """Bivariate Laurent polynomial, stored as {(i, j): coefficient}.

    Zero coefficients are never stored.  Treat instances as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (i, j), c in (terms or {}).items():
            if isinstance(c, KLinear):
                c = _knorm(c.a, c.b)
            if not _c_is_zero(c):
                clean[(int(i), int(j))] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i, j, c=1):
        return cls({(i, j): c})

    # -- predicates / views --------------------------------------------------

    def is_zero(self):
        return not self.terms

    @property
    def support(self):
        return sorted(self.terms)

    def has_symbolic_k(self):
        return any(isinstance(c, KLinear) for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, KLinear)):
            other = LaurentPoly2.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly2(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly2({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, KLinear)):
            other = LaurentPoly2.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, KLinear)):
            other = LaurentPoly2.const(other)
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, 0) + _c_mul(c1, c2)
        return LaurentPoly2(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent of a general expression must be a nonnegative integer")
        out = LaurentPoly2.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- evaluation / substitution --------------------------------------------

    def substitute_k(self, k_value):
        """Replace the symbolic parameter by a number."""
        out = {}
        for e, c in self.terms.items():
            out[e] = c.substitute(k_value) if isinstance(c, KLinear) else c
        return LaurentPoly2(out)

    def evaluate(self, x, y):
        """Value at nonzero complex (x, y)."""
        if x == 0 or y == 0:
            raise ZeroDivisionError("Laurent polynomials require nonzero arguments")
        total = 0j
        for (i, j), c in self.terms.items():
            total += _c_value(c) * (x ** i) * (y ** j)
        return total

    def eval_grid(self, tx, ty):
        """Values at x = exp(i*tx), y = exp(i*ty) for numpy arrays: the
        reference evaluator of the tests, one exponential per monomial."""
        total = np.zeros(np.broadcast(tx, ty).shape, dtype=complex)
        for (i, j), c in self.terms.items():
            total += _c_value(c) * np.exp(1j * (i * tx + j * ty))
        return total

    def y_coefficients(self):
        """Coefficients as a polynomial in y: {j: {i: coeff}}."""
        out = {}
        for (i, j), c in self.terms.items():
            out.setdefault(j, {})[i] = c
        return out

    # -- printing --------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in self.support:
            c = self.terms[(i, j)]
            mono = "*".join(
                s for s in (_fmt_var("x", i), _fmt_var("y", j)) if s)
            if isinstance(c, KLinear):
                sign = "+"
                if c.a == 0 and c.b < 0:
                    sign = "-"
                    c = -c
                cs = str(c)
                body = f"{cs}*{mono}" if mono else cs
                parts.append((sign, body))
            else:
                sign = "-" if (c < 0) else "+"
                mag = -c if c < 0 else c
                if mono and mag == 1:
                    body = mono
                else:
                    body = f"{mag}*{mono}" if mono else f"{mag}"
                parts.append((sign, body))
        sign0, body0 = parts[0]
        text = body0 if sign0 == "+" else f"-{body0}"
        for sign, body in parts[1:]:
            text += f"{sign}{body}"
        return text

    def __repr__(self):
        return f"LaurentPoly2({self})"


def _fmt_var(name, e):
    if e == 0:
        return ""
    if e == 1:
        return name
    return f"{name}^{e}"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOK_INT = "int"
_TOK_NAME = "name"
_TOK_OP = "op"
_TOK_END = "end"


def _tokenize(text):
    toks = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if "0" <= ch <= "9":    # not str.isdigit, which admits any Unicode digit
            start = pos
            while pos < n and "0" <= text[pos] <= "9":
                pos += 1
            try:
                value = int(text[start:pos])
            except ValueError:      # longer than int()'s digit limit
                raise ParseError("integer literal too long", start) from None
            toks.append((_TOK_INT, value, start))
            continue
        if ch.isalpha():
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            toks.append((_TOK_NAME, text[start:pos], start))
            continue
        if ch in "+-*^()":
            toks.append((_TOK_OP, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    toks.append((_TOK_END, None, n))
    return toks


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*,
    term := ['-'] factor ('*' factor)*, factor := atom ['^' ['-'] int],
    atom := int | 'x' | 'y' | 'k' | '(' expr ')'.
    """

    def __init__(self, text, k_value):
        self.toks = _tokenize(text)
        self.idx = 0
        self.k_value = k_value

    def peek(self):
        return self.toks[self.idx]

    def advance(self):
        tok = self.toks[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.advance()
        if kind != _TOK_OP or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != _TOK_END:
            raise ParseError("trailing input", pos)
        return value

    def expr(self):
        # the terms are added into one dict, as ``value + rhs`` would add
        # them: a coefficient that cancels is removed, and comes back at the end
        terms = dict(self.term().terms)
        while True:
            kind, val, _ = self.peek()
            if kind == _TOK_OP and val in "+-":
                self.advance()
                for e, c in self.term().terms.items():
                    c = terms.get(e, 0) + (c if val == "+" else -c)
                    if _c_is_zero(c):
                        terms.pop(e, None)
                    else:
                        terms[e] = c
            else:
                return LaurentPoly2(terms)

    def term(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == _TOK_OP and val == "-":
            self.advance()
            negate = True
        value = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == _TOK_OP and val == "*":
                self.advance()
                value = value * self.factor()
            else:
                break
        return -value if negate else value

    def factor(self):
        value, bare_var = self.atom()
        kind, val, _ = self.peek()
        if kind == _TOK_OP and val == "^":
            self.advance()
            sign = 1
            kind, val, pos = self.peek()
            if kind == _TOK_OP and val == "-":
                self.advance()
                sign = -1
            kind, val, pos = self.advance()
            if kind != _TOK_INT:
                raise ParseError("expected integer exponent", pos)
            e = sign * val
            if bare_var is not None:
                i, j = bare_var
                return LaurentPoly2.monomial(i * e, j * e)
            if e < 0:
                raise ParseError("negative exponent only allowed on a bare variable", pos)
            return value ** e
        return value

    def atom(self):
        """Returns (poly, bare_var), bare_var = unit exponent pair for x/y else None."""
        kind, val, pos = self.advance()
        if kind == _TOK_INT:
            return LaurentPoly2.const(val), None
        if kind == _TOK_NAME:
            if val == "x":
                return LaurentPoly2.monomial(1, 0), (1, 0)
            if val == "y":
                return LaurentPoly2.monomial(0, 1), (0, 1)
            if val == "k":
                if self.k_value is not None:
                    return LaurentPoly2.const(self.k_value), None
                return LaurentPoly2.const(KLinear(0, 1)), None
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == _TOK_OP and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner, None
        raise ParseError("expected a number, variable or '('", pos)


def parse_poly(text, k_value=None):
    """Parse an expression in x, y and optionally k into a LaurentPoly2.

    If the symbol k occurs and ``k_value`` is given it is substituted;
    otherwise coefficients carry k symbolically (linearly).  Malformed
    input, nesting too deep for the interpreter's recursion limit included,
    raises ``ParseError``.
    """
    parser = _Parser(text, k_value)
    try:
        return parser.parse()
    except RecursionError:
        pos = parser.toks[min(parser.idx, len(parser.toks) - 1)][2]
        raise ParseError("expression nested too deeply", pos) from None


# ---------------------------------------------------------------------------
# monomial substitutions
# ---------------------------------------------------------------------------

def monomial_transform(P, M, shift=(0, 0), scale=1):
    """Apply (x, y) -> (x^M11 * y^M21, x^M12 * y^M22) and multiply by
    scale * x^s * y^t.

    M must be an integer 2x2 matrix with nonzero determinant; such
    substitutions are coverings of the torus, so the Mahler measure is
    unchanged (this is exercised by tests rather than assumed).
    """
    (m11, m12), (m21, m22) = M
    for v in (m11, m12, m21, m22):
        if int(v) != v:
            raise ValueError("M must be an integer matrix")
    if m11 * m22 - m12 * m21 == 0:
        raise ValueError("M must be nonsingular")
    s, t = shift
    out = {}
    for (i, j), c in P.terms.items():
        e = (m11 * i + m12 * j + s, m21 * i + m22 * j + t)
        out[e] = out.get(e, 0) + _c_mul(c, scale)
    return LaurentPoly2(out)


# ---------------------------------------------------------------------------
# Newton polygon
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Face:
    """One edge of the polygon with the coefficients read along it."""

    start: tuple
    end: tuple
    coeffs: tuple  # coefficient at each lattice point from start to end


@dataclass(frozen=True)
class NewtonPolygon:
    vertices: tuple  # counterclockwise convex position
    faces: tuple


def _hull(points):
    """Andrew monotone chain; returns CCW vertex list (no interior edge points)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def newton_polygon(P):
    """Convex hull of the exponent support with face polynomials.

    Face coefficients are read along each edge in primitive lattice steps,
    zero where no term sits on the intermediate point.  A one-term polynomial
    has no faces; a two-term (or collinear) support yields a single face.
    """
    if P.is_zero():
        raise ValueError("Newton polygon of the zero polynomial")
    pts = list(P.terms)
    verts = _hull(pts)
    if len(verts) == 1:
        return NewtonPolygon((verts[0],), ())
    if len(verts) == 2:
        edges = [(verts[0], verts[1])]
    else:
        edges = [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]
    faces = []
    from math import gcd
    for a, b in edges:
        dx, dy = b[0] - a[0], b[1] - a[1]
        g = gcd(abs(dx), abs(dy))
        step = (dx // g, dy // g)
        coeffs = tuple(
            P.terms.get((a[0] + step[0] * m, a[1] + step[1] * m), 0)
            for m in range(g + 1))
        faces.append(Face(a, b, coeffs))
    return NewtonPolygon(tuple(verts), tuple(faces))


# ---------------------------------------------------------------------------
# cyclotomic factors and temperedness
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic(n):
    """Coefficients (ascending) of the n-th cyclotomic polynomial, exact ints."""
    if n < 1:
        raise ValueError("n must be positive")
    # t^n - 1 divided by the cyclotomics of the proper divisors
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _try_polydiv(num, cyclotomic(d))   # exact: Phi_d divides t^n - 1
    return tuple(num)


def _try_polydiv(num, den):
    """Divide integer coefficient lists (ascending); None if ``den`` is not
    an exact factor."""
    num = list(num)
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return None
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        q, r = divmod(num[i], den[dd])
        if r:
            return None
        out[i - dd] = q
        for m in range(dd + 1):
            num[i - dd + m] -= q * den[m]
    if any(num[:dd]):
        return None
    return out


_CYCLO_MAX_ORDER = 120


def _cyclotomic_split(c):
    """The orders n <= _CYCLO_MAX_ORDER of the cyclotomic polynomials Phi_n
    that divide the integer polynomial ``c`` (ascending coefficients), each
    listed as often as it divides, and the cofactor left, by exact
    division.  Only n <= 2 deg^2 can divide, since phi(n) >= sqrt(n/2)."""
    orders = []
    for n in range(1, min(_CYCLO_MAX_ORDER, 2 * (len(c) - 1) ** 2) + 1):
        while (q := _try_polydiv(c, cyclotomic(n))) is not None:
            orders.append(n)
            c = q
    return orders, list(c)


def _is_cyclotomic_product(coeffs):
    """True if an integer polynomial is +-t^m times a product of cyclotomics."""
    c = list(coeffs)
    while c and c[0] == 0:       # strip monomial factor
        c.pop(0)
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return False
    if c[-1] < 0:
        c = [-v for v in c]
    return _cyclotomic_split(c)[1] == [1]


def is_tempered(P):
    """Every face polynomial of the Newton polygon a cyclotomic product.

    A symbolic k is only tolerated when all k-carrying terms lie strictly
    inside the polygon (then no face sees them); otherwise a numeric k must
    be substituted first.
    """
    if P.is_zero():
        raise ValueError("temperedness of the zero polynomial")
    for c in P.terms.values():
        if isinstance(c, float):
            raise ValueError("temperedness requires integer coefficients")
    sym = [e for e, c in P.terms.items() if isinstance(c, KLinear)]
    if sym:
        poly = newton_polygon(LaurentPoly2({e: 1 for e in P.terms}))
        if len(poly.vertices) < 3:
            raise ValueError("symbolic k on a degenerate polygon; substitute a value")
        for e in sym:
            if not _strictly_inside(e, poly.vertices):
                raise ValueError(
                    "symbolic k on the polygon boundary; substitute a value first")
        P = LaurentPoly2({e: c for e, c in P.terms.items()
                          if not isinstance(c, KLinear)})
    poly = newton_polygon(P)
    return all(_is_cyclotomic_product(f.coeffs) for f in poly.faces)


def _strictly_inside(p, verts):
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross <= 0:           # CCW polygon: interior points have cross > 0
            return False
    return True
