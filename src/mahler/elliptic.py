"""Elliptic integrals of cubics and quartics under a square root.

Every period behind the family derivatives is one call of `period_integral`,
Carlson's DLMF 19.29.4: the integral of 1/sqrt(f1 f2 f3 f4) over an interval,
for linear factors f_i (real, or with one complex-conjugate pair; a cubic
takes 1 as f4), is 2 R_F(U12^2, U13^2, U14^2), built from the factor values
at the two ends.  Complete and incomplete periods are the same formula.

The quadrature routes below are independent oracles for `landen_check` and
the tests.  They never feed a bare inverse-square-root endpoint to the
quadrature rule: known root factors are removed analytically,

    int_r^s dv / sqrt((v-r)(s-v) H(v))  =  int dphi / sqrt(H(v)),
                                           v = (r+s)/2 + (s-r)/2 sin(phi),
    int_r^b dv / sqrt((v-r) H(v))       =  int 2 sqrt(b-r) cos(phi)
                                           / sqrt(H(v)) dphi,
                                           v = r + (b-r) sin^2(phi),

    int_{-inf}^a dv / sqrt((a-v) H(v))  =  int_0^inf 2 du / sqrt(H(a-u^2)),

with H the (smooth, positive) cofactor obtained by synthetic division, so
the transformed integrands are bounded and full double precision survives.

The module also hosts the Moebius involution that swaps the two period
intervals of the cubic -(v+12)(v^2+k^2 v-4k^2), and the Landen-type identity
equating a quartic period to a cubic one, checked through all intermediate
substitution forms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import RegimeBoundaryError
from .quad import _adaptive_gk, _tanh_sinh

__all__ = [
    "carlson_rf",
    "CubicPeriodSpec",
    "period_integral",
    "period_quadrature",
    "involution_v",
    "LandenResult",
    "landen_check",
    "cubic_roots_pq",
    "pq_radicand_coeffs",
    "root_interval_quadrature",
]

_ROOT_SNAP = 1e-9     # endpoint within this (relative) distance counts as a root


def carlson_rf(x, y, z):
    """Carlson symmetric integral R_F(x, y, z) of three nonnegative reals, or
    of one nonnegative real and a complex-conjugate pair; at most one zero.

    Duplication iteration: replacing each argument by (arg + lambda)/4 with
    lambda = sqrt(x y) + sqrt(y z) + sqrt(z x) quarters the spread; a fifth
    order Taylor expansion at the common limit finishes to ~1e-15 relative.
    The iteration runs in complex arithmetic with principal square roots,
    which keeps a conjugate pair conjugate, and returns the real part.
    """
    x, y, z = complex(x), complex(y), complex(z)
    if any(v.imag == 0 and v.real < 0 for v in (x, y, z)):
        raise ValueError("arguments must not be negative reals")
    if sum(1 for v in (x, y, z) if v == 0) > 1:
        raise ValueError("at most one argument may vanish")
    for _ in range(200):
        mu = (x + y + z) / 3.0
        if max(abs(x - mu), abs(y - mu), abs(z - mu)) < 1e-4 * abs(mu):
            break
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
    mu = (x + y + z) / 3.0
    dx = (mu - x) / mu
    dy = (mu - y) / mu
    dz = (mu - z) / mu
    e2 = dx * dy + dy * dz + dz * dx
    e3 = dx * dy * dz
    series = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0)
    return (series / cmath.sqrt(mu)).real


def period_integral(width, lower, upper):
    """int dt / sqrt(f1 f2 f3 f4) over an interval of length ``width``, from
    the values of the four linear factors at its lower and upper ends: by
    DLMF 19.29.4 it is 2 R_F(U12^2, U13^2, U14^2), U1j = (X1 Xj Yk Yl +
    Y1 Yj Xk Xl) / width for {j, k, l} = {2, 3, 4}, with X_i and Y_i the
    square roots of f_i at the upper and the lower end.  The factors are
    nonnegative on the interval, or f3, f4 a complex-conjugate pair; a cubic
    takes f4 = 1.  A root at an end is a zero value, so complete and
    incomplete periods are one formula.  The U are scaled to modulus <= 1
    before squaring (R_F is homogeneous of degree -1/2).  ValueError for a
    negative real factor value or a width that is not positive."""
    if not width > 0:
        raise ValueError("the interval width must be positive")
    roots = []
    for values in (lower, upper):
        values = [complex(v) for v in values]
        if any(v.imag == 0 and v.real < 0 for v in values):
            raise ValueError("factor values must not be negative reals")
        roots.append([cmath.sqrt(v) for v in values])
    (y1, y2, y3, y4), (x1, x2, x3, x4) = roots
    u = (x1 * x2 * y3 * y4 + y1 * y2 * x3 * x4,
         x1 * x3 * y2 * y4 + y1 * y3 * x2 * x4,
         x1 * x4 * y2 * y3 + y1 * y4 * x2 * x3)
    scale = max(abs(v) for v in u) or 1.0
    return 2.0 * width / scale * carlson_rf(*((v / scale) ** 2 for v in u))


# ---------------------------------------------------------------------------
# smooth-cofactor quadrature of singular intervals
# ---------------------------------------------------------------------------

def root_interval_quadrature(H, lo, hi, tol=1e-13, left_root=True,
                             right_root=True):
    """Integral of 1/sqrt(F) over (lo, hi) where F(v) = (v-lo)^{left_root} *
    (hi-v)^{right_root} * H(v) and H stays positive on the closed interval.
    The declared root factors are absorbed into the substitution exactly, so
    H is the only thing evaluated numerically.  At least one end must be
    declared a root; ValueError otherwise."""
    if not (left_root or right_root):
        raise ValueError("declare a root at one end at least")
    if hi <= lo:
        return 0.0
    if left_root and right_root:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)

        def g(phi):
            h = H(mid + half * math.sin(phi))
            return 1.0 / math.sqrt(h) if h > 0.0 else 0.0

        return _tanh_sinh(g, -0.5 * math.pi, 0.5 * math.pi, tol).value
    width = hi - lo
    rt = math.sqrt(width)

    def g(phi):
        s = math.sin(phi)
        v = lo + width * s * s if left_root else hi - width * s * s
        h = H(v)
        if h <= 0.0:
            return 0.0
        return 2.0 * rt * math.cos(phi) / math.sqrt(h)

    return _tanh_sinh(g, 0.0, 0.5 * math.pi, tol).value


def _deflate(coeffs, r):
    """Quotient coefficients of the cubic divided by (v - r), by one Horner
    pass; the remainder (the residual of r) is discarded."""
    c0, c1, c2, c3 = coeffs
    q2 = c3
    q1 = c2 + r * q2
    q0 = c1 + r * q1
    return q0, q1, q2


@dataclass(frozen=True)
class CubicPeriodSpec:
    """Integral of 1/sqrt(radicand) over (a, b), where the radicand is the
    cubic with the given ascending coefficients (c0, c1, c2, c3) and must be
    nonnegative on the open interval.  Endpoints may be +-inf."""

    coeffs: tuple       # (c0, c1, c2, c3), real, c3 != 0
    a: float
    b: float

    def radicand(self, v):
        c0, c1, c2, c3 = self.coeffs
        return ((c3 * v + c2) * v + c1) * v + c0


def _real_cubic_roots(coeffs):
    c0, c1, c2, c3 = coeffs
    roots = np.roots([c3, c2, c1, c0])
    scale = 1.0 + max(abs(r) for r in roots)
    out = sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-9 * scale)
    return out


def _near_root(point, roots):
    if math.isinf(point):
        return None
    for r in roots:
        if abs(point - r) <= _ROOT_SNAP * (1.0 + abs(r)):
            return r
    return None


def _check_sign(spec):
    """Radicand must be nonnegative at the midpoint and near both ends."""
    probes = []
    if math.isinf(spec.a) or math.isinf(spec.b):
        if math.isinf(spec.a):
            probes += [spec.b - 1.0, spec.b - 10.0]
        if math.isinf(spec.b):
            probes += [spec.a + 1.0, spec.a + 10.0]
    else:
        w = spec.b - spec.a
        probes += [spec.a + 0.5 * w, spec.a + 1e-3 * w, spec.b - 1e-3 * w]
    c3 = spec.coeffs[3]
    for p in probes:
        if spec.radicand(p) < -1e-9 * (1.0 + abs(p)) ** 3 * abs(c3):
            raise ValueError("radicand negative inside the interval")


def period_quadrature(spec, tol=1e-13):
    """Direct numerical evaluation of the period integral (the oracle route;
    no Carlson reduction).  Root endpoints are detected by proximity and
    their factors removed by synthetic division before substitution."""
    if spec.a == spec.b:
        return 0.0
    if not spec.a < spec.b:
        raise ValueError("need a < b")
    _check_sign(spec)
    roots = _real_cubic_roots(spec.coeffs)
    c3 = spec.coeffs[3]

    if math.isinf(spec.a) or math.isinf(spec.b):
        # only (-inf, lowest root] / [highest root, inf) converge for a cubic
        if math.isinf(spec.a):
            r = _near_root(spec.b, roots)
            if r is None:
                raise ValueError("integral from -inf must end at a root")
            q = _deflate(spec.coeffs, r)

            def h_of_u(u):
                v = r - u * u
                val = -(q[2] * v * v + q[1] * v + q[0])   # (r-v) absorbed
                return val
        else:
            r = _near_root(spec.a, roots)
            if r is None:
                raise ValueError("integral to +inf must start at a root")
            q = _deflate(spec.coeffs, r)

            def h_of_u(u):
                v = r + u * u
                return q[2] * v * v + q[1] * v + q[0]

        def g(w):
            den = 1.0 - w
            u = w / den
            h = h_of_u(u)
            if h <= 0.0:
                return 0.0
            return 2.0 / (math.sqrt(h) * den * den)

        return _tanh_sinh(g, 0.0, 1.0, tol).value

    ra = _near_root(spec.a, roots)
    rb = _near_root(spec.b, roots)
    if ra is not None and rb is not None:
        # radicand = c3 (v-r1)(v-r2)(v-r3); the endpoint factors rearrange to
        # (v-ra)(rb-v) > 0, leaving H = -c3 (v - third)
        third = [r for r in roots if r != ra and r != rb]
        if len(third) != 1:
            raise ValueError("complete interval endpoints must be two distinct roots")
        t0 = third[0]

        def H(v):
            return -c3 * (v - t0)

        return root_interval_quadrature(H, ra, rb, tol, True, True)
    if ra is not None or rb is not None:
        r = ra if ra is not None else rb
        q0, q1, q2 = _deflate(spec.coeffs, r)
        if ra is not None:
            def H(v):
                return q2 * v * v + q1 * v + q0
        else:
            def H(v):
                return -(q2 * v * v + q1 * v + q0)
        return root_interval_quadrature(H, spec.a, spec.b, tol,
                                        ra is not None, rb is not None)

    def f(v):
        rad = spec.radicand(v)
        return 1.0 / math.sqrt(rad) if rad > 0.0 else 0.0

    return _adaptive_gk(f, spec.a, spec.b, tol).value


# ---------------------------------------------------------------------------
# the cubic -(v+12)(v^2 + k^2 v - 4 k^2) and its involution
# ---------------------------------------------------------------------------

def cubic_roots_pq(k):
    """The three real roots of (v+12)(v^2+k^2 v-4k^2): -12 and
    -k(k -+ sqrt(k^2+16))/2, in closed form.  The positive quadratic root is
    recovered from the product -4k^2 to avoid cancellation at large k."""
    s = math.sqrt(k * k + 16.0)
    r_low = -0.5 * k * (k + s)
    r_high = -4.0 * k * k / r_low if r_low != 0 else 0.0   # = -k(k-s)/2
    return r_low, -12.0, r_high


def pq_radicand_coeffs(k):
    """Ascending coefficients of -(v+12)(v^2+k^2 v-4k^2)."""
    k2 = k * k
    return (48.0 * k2, -(8.0 * k2), -(k2 + 12.0), -1.0)


def involution_v(v, k):
    """The Moebius map v -> -4(3v + 4k^2)/(v + 12); an involution that swaps
    infinity with -12 and the two off--12 roots of the cubic with each other."""
    if v == -12.0:
        raise ValueError("the involution has a pole at v = -12")
    return -4.0 * (3.0 * v + 4.0 * k * k) / (v + 12.0)


# ---------------------------------------------------------------------------
# Landen-type identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LandenResult:
    lhs: float        # quartic-side period in c
    t_form: float     # trigonometric substitution form
    u_form: float     # u = t^2 form
    rhs: float        # cubic-side period in v
    diff: float       # max pairwise deviation along the chain


def landen_check(k, tol=1e-13):
    """Evaluate all four parametrisations of the Landen-type period identity
    and report the largest pairwise deviation.

    chain: c-integral int_0^1 dc/sqrt(c(1-c)(64c^2-48c+k^2))
        -> t-integral sqrt(2) int_{-1}^1 dt/sqrt((1-t^2)(A+B t^2))
        -> u-integral sqrt(2) int_0^1 du/sqrt(u(1-u)(A+B u))
        -> v-integral int dv/sqrt(-(v+12)(v^2+k^2v-4k^2)) between -12 (or the
           lower quadratic root) and the positive root,

    with A = k^2-24+k sqrt(k^2+16), B = 24-k^2+k sqrt(k^2+16).  For k < 3
    the radicands change sign inside the intervals; only the regions where
    they are nonnegative contribute (real-part convention), and the
    substitutions map those regions onto each other.  Every piece is
    integrated with its singular endpoint factors removed analytically.
    At k = 3 the identity degenerates and RegimeBoundaryError is raised;
    a k that is not positive and finite (NaN included) raises ValueError."""
    if not 0.0 < k < math.inf:
        raise ValueError("k must be positive and finite")
    if abs(k - 3.0) < 1e-12:
        raise RegimeBoundaryError("identity degenerates at k = 3")
    s = math.sqrt(k * k + 16.0)
    A = k * k - 24.0 + k * s
    B = 24.0 - k * k + k * s
    k2 = k * k

    def quartic(c):
        return (64.0 * c - 48.0) * c + k2

    if k > 3.0:
        lhs = root_interval_quadrature(quartic, 0.0, 1.0, tol)
        t_form = math.sqrt(2.0) * root_interval_quadrature(
            lambda t: A + B * t * t, -1.0, 1.0, tol)
        u_form = math.sqrt(2.0) * root_interval_quadrature(
            lambda u: A + B * u, 0.0, 1.0, tol)
        r_low, _, r_high = cubic_roots_pq(k)
        rhs = root_interval_quadrature(lambda v: v - r_low, -12.0, r_high, tol)
    else:
        rr = math.sqrt(9.0 - k2)
        c_a = (3.0 - rr) / 8.0
        c_b = (3.0 + rr) / 8.0
        # 64 c^2 - 48 c + k^2 = 64 (c - c_a)(c - c_b)
        lhs = (root_interval_quadrature(
                   lambda c: 64.0 * (1.0 - c) * (c_b - c), 0.0, c_a, tol)
               + root_interval_quadrature(
                   lambda c: 64.0 * c * (c - c_a), c_b, 1.0, tol))
        t_c = math.sqrt(-A / B)
        # (1-t^2)(A+B t^2) = (1-t)(1+t) B (t-t_c)(t+t_c)
        t_form = math.sqrt(2.0) * (
            root_interval_quadrature(
                lambda t: B * (1.0 - t) * (t_c - t), -1.0, -t_c, tol)
            + root_interval_quadrature(
                lambda t: B * (1.0 + t) * (t + t_c), t_c, 1.0, tol))
        u_c = -A / B
        u_form = math.sqrt(2.0) * root_interval_quadrature(
            lambda u: B * u, u_c, 1.0, tol)
        r_low, _, r_high = cubic_roots_pq(k)
        rhs = root_interval_quadrature(lambda v: v + 12.0, r_low, r_high, tol)

    forms = (lhs, t_form, u_form, rhs)
    diff = max(abs(p - q) for p in forms for q in forms)
    return LandenResult(lhs, t_form, u_form, rhs, diff)
