"""Elliptic integrals of cubics and quartics under a square root.

Every period in the package is one call of `period_integral`, Carlson's
DLMF 19.29.4, from factor values that the callers give in closed form, so
no gap between two nearby roots is formed by cancellation.  The module also
holds the cubic -(v+12)(v^2+k^2 v-4k^2) behind dp/dk and dq/dk, its
Moebius involution, and the Landen-type identity between a quartic period
and a cubic one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import RegimeBoundaryError

__all__ = [
    "carlson_rf",
    "period_integral",
    "involution_v",
    "LandenResult",
    "landen_check",
    "cubic_roots_pq",
]


def carlson_rf(x, y, z):
    """Carlson symmetric integral R_F(x, y, z) of three nonnegative reals, or
    of one nonnegative real and a complex-conjugate pair; at most one zero.

    The duplication iteration runs in complex arithmetic, forming each new
    argument as the product (sqrt x + sqrt y)(sqrt x + sqrt z), which does
    not cancel next to the negative real axis, and a fifth-order Taylor
    step at the common limit finishes to about 1e-15 relative.
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
        a, b, c = sx + sy, sy + sz, sz + sx
        x, y, z = 0.25 * a * c, 0.25 * a * b, 0.25 * b * c
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
    the values of the four linear factors at its lower and upper ends, by
    DLMF 19.29.4: 2 R_F(U12^2, U13^2, U14^2), U1j = (X1 Xj Yk Yl +
    Y1 Yj Xk Xl) / width, X_i and Y_i the square roots of f_i at the upper
    and lower end.  The factors are nonnegative on the interval, or f3, f4
    a conjugate pair; a cubic takes f4 = 1, and a root at an end is a zero
    value.  Raises ValueError for a negative real factor value or a width
    that is not positive."""
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


def _pq_period(k, from_cut=False):
    """int dv / sqrt(-(v+12)(v^2+k^2 v-4k^2)) up to the positive root r_high,
    from k(1-k) when ``from_cut`` (k < 4), else from r_low below k = 3 and
    from -12 above.  No gap cancels: with w = k + sqrt(k^2+16), r_high =
    8k/w, -r_low = kw/2 and r_low + 12 = 4(3-k)(3+k)/(3 + 2k/w).  Below
    k = 4 the period is taken in v/k, which divides the two small factors
    and the width by k, so that subnormal k loses no digits.  Above k = 3
    the factor v - r_low is divided by |r_low| instead (R_F homogeneity) and
    u = w/k - 1 = sqrt(1 + 16/k^2), so that no k^2 overflows."""
    if from_cut or k < 3.0:
        w = k + math.hypot(k, 4.0)
        span = 8.0 / w + 0.5 * w                   # (r_high - r_low)/k
        if from_cut:
            width = 0.5 * w - 1.0                  # (r_high - k(1-k))/k
            lower = ((4.0 - k) * (3.0 + k), 1.0 + 8.0 / w, width, 1.0)
        else:
            width = span
            lower = (4.0 * (3.0 - k) * (3.0 + k) / (3.0 + 2.0 * k / w), 0.0, width, 1.0)
        return period_integral(width, lower, (12.0 + 8.0 * k / w, span, 0.0, 1.0))
    u = math.hypot(1.0, 4.0 / k)
    r_high = 8.0 / (1.0 + u)
    root = math.sqrt(2.0 / (1.0 + u)) / k          # |r_low|^(-1/2)
    width = r_high + 12.0
    lower = (0.0, 8.0 * ((k - 3.0) / k) * ((k + 3.0) / k) / (3.0 * u + 5.0), width, 1.0)
    upper = (width, 1.0 + r_high * root * root, 0.0, 1.0)
    return root * period_integral(width, lower, upper)


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
    diff: float       # largest pairwise gap over |rhs|; inf if a form is not finite


def landen_check(k):
    """The four forms of the Landen-type period identity and their largest
    pairwise gap relative to the cubic period, inf if a form is not finite:

        c-integral int_0^1 dc/sqrt(c(1-c)(64c^2-48c+k^2))
        -> t-integral sqrt(2) int_{-1}^1 dt/sqrt((1-t^2)(A+B t^2))
        -> u-integral sqrt(2) int_0^1 du/sqrt(u(1-u)(A+B u))
        -> v-integral int dv/sqrt(-(v+12)(v^2+k^2v-4k^2)) (``_pq_period``),

    A = k^2-24+k sqrt(k^2+16), B = 24-k^2+k sqrt(k^2+16).  For k < 3 only
    the regions where the radicands are nonnegative contribute.  Raises
    RegimeBoundaryError at k = 3, where the identity degenerates, and
    ValueError for a k that is not positive and finite."""
    if not 0.0 < k < math.inf:
        raise ValueError("k must be positive and finite")
    if abs(k - 3.0) < 1e-12:
        raise RegimeBoundaryError("identity degenerates at k = 3")
    B = 24.0 + 16.0 / (1.0 + math.hypot(1.0, 4.0 / k))  # 24 + 16k/(s+k)
    if k > 3.0:
        e = math.sqrt(k - 3.0) * math.sqrt(k + 3.0)         # sqrt(k^2 - 9)
        c_b = complex(3.0, e) / 8.0
        c_a = c_b.conjugate()
        lhs = period_integral(1.0, (0.0, 1.0, -c_a, -c_b),
                              (1.0, 0.0, 1.0 - c_a, 1.0 - c_b))
        # A + B t^2 = A (1 + it/a)(1 - it/a), a = sqrt(A/B)
        a = 8.0 / B * e
        t_half = period_integral(1.0, (1.0, 1.0, 1.0, 1.0),
                                 (0.0, 2.0, complex(1.0, 1.0 / a), complex(1.0, -1.0 / a)))
        u_half = period_integral(1.0, (0.0, 1.0, 1.0, 1.0), (1.0, 0.0, 1.0 + (1.0 / a) ** 2, 1.0))
        root = math.sqrt(2.0 / B) / a                       # sqrt(2/A)
    else:
        d = math.sqrt(3.0 - k) * math.sqrt(3.0 + k)         # sqrt(9 - k^2) = 4(c_b - c_a)
        c_b = (3.0 + d) / 8.0
        c_a = (k / 8.0) * ((k / 8.0) / c_b)
        # (0, c_a) in c = c_a x, so that c_a ~ k^2/48 may underflow
        lhs = (period_integral(1.0, (0.0, 1.0, 1.0, c_b), (1.0, 0.0, 1.0 - c_a, 0.25 * d))
               + period_integral(1.0 - c_b, (c_b, 1.0 - c_b, 0.25 * d, 0.0),
                                 (1.0, 0.0, 1.0 - c_a, 1.0 - c_b)))
        # A + B t^2 = B (t - t_c)(t + t_c), A + B u = B (u - t_c^2); over (t_c, 1)
        # and (t_c^2, 1) the two factors that vanish at the ends are divided
        # by the width, which cancels (1 - t_c^2 ~ k/3 for small k)
        t_c = 8.0 * d / B
        t_half = period_integral(1.0, (1.0, 1.0 + t_c, 0.0, 2.0 * t_c), (0.0, 2.0, 1.0, 1.0 + t_c))
        u_half = period_integral(1.0, (t_c * t_c, 1.0, 0.0, 1.0), (1.0, 0.0, 1.0, 1.0))
        root = math.sqrt(2.0 / B)
    lhs /= 8.0
    t_form = 2.0 * root * t_half
    u_form = root * u_half
    rhs = _pq_period(k)
    forms = (lhs, t_form, u_form, rhs)
    diff = math.inf
    if all(map(math.isfinite, forms)):
        diff = (max(forms) - min(forms)) / abs(rhs)
    return LandenResult(lhs, t_form, u_form, rhs, diff)
