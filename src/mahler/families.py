"""The three parametric families and their closed-form measures and
derivatives.

    P_k = (x^2+x+1) y^2 + k x(x+1) y + x (x^2+x+1)
    Q_s = (x^2+x+1) y^2 + (x^4+s x^3+(2s-4) x^2+s x+1) y + x^2 (x^2+x+1)
    R_k = y^3 - y + x^3 - x + k x y

Monomial substitutions (``wt_family_poly``) make each fiber quadratic in y
with real coefficients, and Jensen's formula turns m into a one-dimensional
integral whose kinks are closed-form in k: c_pm(k) = (8+k^2 +- k
sqrt(16+k^2))/32 for p(k), and for r(k) below 16/(3 sqrt 3) the zeros
t_1 < t_2 of 8t^3-8t+k, t = 1/sqrt 2 below 2 sqrt 2, and the zeros of the
radicand.  dp/dk and dq/dk are periods of -(v+12)(v^2+k^2 v-4k^2), dr/dk
one of c(1-c)(64c^2-48c+k^2), each from ``elliptic.period_integral``.

P and R are even in k.  ``q_measure`` takes the subscript s itself, and
``q_derivative`` the offset k with s = k + 2.  The derivatives raise
RegimeBoundaryError within BOUNDARY_GUARD of k = 3 (P and Q) and of
16/(3 sqrt 3) (R).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import _pq_period, period_integral
from .errors import RegimeBoundaryError
from .lpoly import monomial_transform, parse_poly
from .measure import MeasureResult, mahler_jensen
from .quad import _tanh_sinh_pieces

__all__ = [
    "R_THRESHOLD",
    "BOUNDARY_GUARD",
    "CriticalRoots",
    "family_poly",
    "wt_family_poly",
    "regime_tag",
    "critical_roots",
    "branch_roots",
    "p_measure",
    "q_measure",
    "r_measure",
    "p_derivative",
    "q_derivative",
    "r_derivative",
]

_SQRT3 = math.sqrt(3.0)
R_THRESHOLD = 16.0 / (3.0 * _SQRT3)            # 3.0792..., correctly rounded
_R_THRESHOLD_LO = -1.1765797595680793e-16     # 16/(3 sqrt 3) - R_THRESHOLD
TWO_SQRT2 = 2.0 * math.sqrt(2.0)
BOUNDARY_GUARD = 1e-12

_TEMPLATES = {
    "P": "(x^2+x+1)*y^2+k*x*(x+1)*y+x*(x^2+x+1)",
    "Q": "(x^2+x+1)*y^2+(x^4+k*x^3+(2*k-4)*x^2+k*x+1)*y+x^2*(x^2+x+1)",
    "R": "y^3-y+x^3-x+k*x*y",
}


def family_poly(family, k=None):
    """The family polynomial; symbolic in k when no value is given.
    For Q the parameter is the polynomial subscript."""
    if family not in _TEMPLATES:
        raise ValueError("family must be one of P, Q, R")
    return parse_poly(_TEMPLATES[family], k)


def wt_family_poly(family, k=None):
    """The reduced (quadratic-fiber) forms obtained by monomial substitutions:

        P: P_k(x^2, x y) / x^4 = (x^2+x^-2+1) y^2 + k(x+x^-1) y + (x^2+x^-2+1)
        Q: Q_s(x, x y) / x^3   = (x+x^-1+1) y^2 + B y + (x+x^-1+1)
        R: -y^3 R_k(x/y, 1/(xy)) = (x+x^-1) y^2 - k y - (x^3+x^-3)
    """
    P = family_poly(family, k)
    if family == "P":
        P = monomial_transform(P, ((2, 0), (0, 1)))
        return monomial_transform(P, ((1, 1), (0, 1)), shift=(-4, 0))
    if family == "Q":
        return monomial_transform(P, ((1, 1), (0, 1)), shift=(-3, 0))
    return monomial_transform(P, ((1, -1), (-1, -1)), shift=(0, 3), scale=-1)


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------

def _positive_k(k):
    """k as a float; ValueError unless 0 < k < inf.  The families P and R
    are even in k and pass |k|."""
    k = float(k)
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be positive and finite, got {k!r}")
    return k


def regime_tag(family, k):
    """Regime label for positive k; boundaries follow the half-open
    conventions of the derivative formulas."""
    k = _positive_k(k)
    if family == "P":
        return "k<3" if k < 3.0 else "k>=3"
    if family == "Q":
        if k <= 3.0:
            return "0<k<=3"
        return "3<k<4" if k < 4.0 else "k>=4"
    if family == "R":
        if k < TWO_SQRT2:
            return "k<2sqrt2"
        return "2sqrt2<=k<16/3sqrt3" if k < R_THRESHOLD else "k>=16/3sqrt3"
    raise ValueError("family must be one of P, Q, R")


@dataclass(frozen=True)
class CriticalRoots:
    """c_minus, c_plus: roots of 16c^2-(8+k^2)c+1; t1 < t2: the roots of
    8t^3-8t+k inside (0, 1), present only below the threshold 16/(3 sqrt 3)."""

    c_minus: float
    c_plus: float
    t1: float | None = None
    t2: float | None = None


def _c_plus_minus(k):
    # ((2/w)^2, (w/8)^2), w = k + sqrt(k^2+16): no k^2, c_plus inf for huge k
    w = k + math.hypot(k, 4.0)
    return (2.0 / w) * (2.0 / w), (w / 8.0) * (w / 8.0)


def _t_roots(k):
    """Real zeros t1 < t2 of 8t^3-8t+k in (0, 1).  With t = 1/sqrt(3) + e the
    cubic reads 8e^3 + 8 sqrt(3) e^2 = delta, delta = 16/(3 sqrt 3) - k taken
    from a two-float constant (exact next to the threshold, where t1 and t2
    merge); t2 is its positive root, which Newton's method reaches from
    above, starting from sqrt(delta/(8 sqrt 3)), as the left side is convex.
    Deflating the cubic by t2 leaves t^2 + t2 t + t2^2 - 1, whose positive
    root is t1 = (k/(4 t2)) / (t2 + sqrt(4 - 3 t2^2)), since 1 - t2^2 =
    k/(8 t2)."""
    if not 0.0 < k < R_THRESHOLD:
        raise ValueError("t-roots exist only for 0 < k < 16/(3*sqrt(3))")
    delta = (R_THRESHOLD - k) + _R_THRESHOLD_LO
    e = math.sqrt(delta / (8.0 * _SQRT3))
    for _ in range(50):
        step = ((8.0 * e + 8.0 * _SQRT3) * e * e - delta) / ((24.0 * e + 16.0 * _SQRT3) * e)
        e -= step
        if step <= 4e-16 * e:
            break
    t2 = 1.0 / _SQRT3 + e
    return (k / (4.0 * t2)) / (t2 + math.sqrt(4.0 - 3.0 * t2 * t2)), t2


def critical_roots(k):
    """Critical values of the families at the parameter k > 0."""
    k = _positive_k(k)
    c_minus, c_plus = _c_plus_minus(k)
    t1 = t2 = None
    if k < R_THRESHOLD:
        t1, t2 = _t_roots(k)
    return CriticalRoots(c_minus, c_plus, t1, t2)


# ---------------------------------------------------------------------------
# root branches of the reduced quadratics
# ---------------------------------------------------------------------------

def branch_roots(family, k, theta):
    """The two y-roots of the reduced quadratic fiber at x = e^{i theta},
    |y1| >= |y2|: Python complex for a float theta, complex arrays for an
    array of angles, which match the float calls bit for bit.  For Q the
    parameter is the offset k (subscript k+2).  Raises ValueError unless
    every theta lies in (0, pi), and where the leading coefficient vanishes."""
    th = np.asarray(theta, dtype=float)
    if not ((0.0 < th) & (th < math.pi)).all():
        raise ValueError("theta must lie in (0, pi)")
    ct = np.cos(th)
    if family == "P":
        lead, b = 4.0 * ct * ct - 1.0, -(2.0 * k * ct)
    elif family == "Q":
        lead = 2.0 * ct + 1.0
        b = -(4.0 * ct * ct + (k + 2.0) * 2.0 * ct + 2.0 * (k - 1.0))
    elif family == "R":
        c = ct * ct
        lead, b, disc, den = ct, k, k * k - 16.0 * c * (3.0 - 4.0 * c), 4.0 * ct
    else:
        raise ValueError("family must be one of P, Q, R")
    if family != "R":      # the constant coefficient equals the lead
        disc, den = b * b - 4.0 * lead * lead, 2.0 * lead
    if (np.abs(lead) < 1e-12).any():
        raise ValueError("degenerate fiber: leading coefficient vanishes")
    sr, si = np.sqrt(np.maximum(disc, 0.0)), np.sqrt(np.maximum(-disc, 0.0))
    # 0.0 - si, as in Python's 0.0 - sqrt(disc): +0.0 for real roots, not -0.0
    y1, y2 = ((b + sr) / den, si / den), ((b - sr) / den, (0.0 - si) / den)
    swap = np.hypot(*y2) > np.hypot(*y1)
    return (_complex(*(np.where(swap, u, v) for u, v in zip(y2, y1))),
            _complex(*(np.where(swap, u, v) for u, v in zip(y1, y2))))


def _complex(re, im):
    """re + i im as a Python complex for 0-d parts, else a complex array."""
    if np.ndim(re) == 0:
        return complex(float(re), float(im))
    y = np.empty(np.shape(re), dtype=complex)
    y.real, y.imag = re, im
    return y


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def p_measure(k, tol=1e-12):
    """m(P_k) by the closed theta-integral of the dominant root branch:

        (1/pi) * int_0^pi Re log( k|cos t| + sqrt(-(16c^2-(8+k^2)c+1)) ) dt,

    c = cos^2 t, which is log|4c-1| where the radicand is negative.  The
    rule runs over (0, pi/2), cut at c = c_pm, and log k is taken out of
    the branch between them, so huge k does not overflow."""
    k = _positive_k(abs(k))
    c_minus, c_plus = _c_plus_minus(k)
    lo = math.acos(math.sqrt(c_plus)) if c_plus < 1.0 else 0.0
    hi = math.acos(math.sqrt(c_minus))

    def integrand(theta):
        ct = np.cos(theta)
        c = ct * ct
        with np.errstate(divide="ignore", over="ignore"):     # the branch not taken
            # between the kinks, less log k: -q/k^2 = c - ((4c-1)/k)^2
            a = (4.0 * c - 1.0) / k
            inside = np.log(ct + np.sqrt(np.maximum(c - a * a, 0.0)))
            outside = np.log(np.abs(4.0 * c - 1.0))
        return np.where((lo < theta) & (theta < hi), inside, outside)

    cuts = [lo, hi, 0.5 * math.pi]
    if c_plus < 1.0:
        cuts.insert(0, 0.0)
    r = _tanh_sinh_pieces(integrand, cuts, tol)
    value = math.log(k) * (2.0 * (hi - lo) / math.pi) + 2.0 * r.value / math.pi
    return MeasureResult(value, 2.0 * r.err_est / math.pi + 1e-14, "closed_form")


def q_measure(subscript, tol=1e-11):
    """m(Q_s) for the polynomial subscript s, via the generic Jensen engine
    on the reduced quadratic form (the family is not symmetric in s, so the
    value is computed exactly at the requested parameter)."""
    return mahler_jensen(wt_family_poly("Q", float(subscript)), tol=tol)


def r_measure(k, tol=1e-12):
    """m(R_k) = (2/pi) int_0^{pi/2} log(max(1,|y1|) max(1,|y2|)) dphi over
    the roots y = (k +- sqrt(rad)) / (4t), rad = k^2 - 16t^2(3-4t^2), of the
    reduced fiber at |cos theta| = t = sin(phi), which absorbs the
    1/sqrt(1-t^2) weight.  Where rad < 0, |y|^2 = 3 - 4t^2.  The cuts are
    the kinks of the module docstring; from 16/(3 sqrt 3) on, |y2| <= 1
    and log k is taken out of |y1|, so huge k does not overflow."""
    k = _positive_k(abs(k))
    if k >= R_THRESHOLD:
        log_k, cuts = math.log(k), []

        def integrand(phi):
            # log((k + sqrt(rad))/2) - log k
            t = np.sin(phi)
            x = 4.0 * t / k
            return np.log(0.5 * (1.0 + np.sqrt(np.maximum(1.0 - x * x * (3.0 - 4.0 * t * t),
                                                          0.0))))
    else:
        log_k, cuts = 0.0, list(_t_roots(k))
        if k < 3.0:
            rr = math.sqrt(9.0 - k * k)
            cuts += [math.sqrt((3.0 - rr) / 8.0), math.sqrt((3.0 + rr) / 8.0)]
        else:
            cuts.append(math.sqrt(3.0 / 8.0))       # near-degenerate dip at k ~ 3
        if k < TWO_SQRT2:
            cuts.append(1.0 / math.sqrt(2.0))

        def integrand(phi):
            t = np.sin(phi)
            rad = k * k - 16.0 * t * t * (3.0 - 4.0 * t * t)
            with np.errstate(invalid="ignore"):     # rad < 0: the conjugate pair
                sq = np.sqrt(rad)
            y1, y2 = np.abs(k + sq) / (4.0 * t), np.abs(k - sq) / (4.0 * t)
            real = np.maximum(1.0, y1) * np.maximum(1.0, y2)
            return np.log(np.where(rad >= 0.0, real, np.maximum(1.0, 3.0 - 4.0 * t * t)))

    cuts = [0.0] + sorted(math.asin(t) for t in cuts) + [0.5 * math.pi]
    r = _tanh_sinh_pieces(integrand, cuts, tol)
    return MeasureResult(log_k + 2.0 * r.value / math.pi, 2.0 * r.err_est / math.pi + 1e-14,
                         "closed_form")


# ---------------------------------------------------------------------------
# derivatives in k
# ---------------------------------------------------------------------------

def _guard(k, boundary, what):
    if abs(k - boundary) <= BOUNDARY_GUARD:
        raise RegimeBoundaryError(
            f"{what} is undefined within {BOUNDARY_GUARD:g} of the regime boundary k = {boundary}")


def p_derivative(k):
    """dp/dk as the complete period of -(v+12)(v^2+k^2v-4k^2) between -12
    (or the lower quadratic root, below k=3) and the positive root."""
    k = _positive_k(abs(k))
    _guard(k, 3.0, "dp/dk")
    return _pq_period(k) / math.pi


def q_derivative(k):
    """dq(k+2)/dk: the period of dp/dk's cubic from k(1-k) (or from -12, at
    and above k = 4) up to the positive root.  This is the complete period
    from -infinity less the piece from the arch's lower end to k(1-k)."""
    k = _positive_k(k)
    _guard(k, 3.0, "dq/dk")
    return _pq_period(k, from_cut=k < 4.0) / math.pi


def r_derivative(k):
    """dr/dk = (1/pi) int dc / sqrt(c(1-c)(64c^2-48c+k^2)) over (0, 1) above
    16/(3 sqrt 3), over (0, t1^2) and (t2^2, 1) below; 64c^2-48c+k^2 =
    64(c - c_a)(c - c_b), a conjugate pair above k = 3.  At k = 2 sqrt 2,
    t2^2 meets c_b; h(c) = 64c(c-1)^2 takes k^2 at t2^2, so t2^2 - c_b =
    -16 c_b (2c_b-1)^2 / (divided difference of h), and 1 - t^2 = k/(8t).
    The left period is taken in c/t1^2 and the right one in (1-c)/(1-t2^2),
    with c_a/t1^2 = (t2 (t1+t2))^2 / c_b (Vieta), so that t1^2 ~ k^2/64 may
    underflow and k may be subnormal."""
    k = _positive_k(abs(k))
    _guard(k, R_THRESHOLD, "dr/dk")
    d = cmath.sqrt(3.0 - k) * cmath.sqrt(3.0 + k)          # sqrt(9 - k^2)
    c_b = (3.0 + d) / 8.0
    c_a = (k / 8.0) * ((k / 8.0) / c_b)
    if k > R_THRESHOLD:
        return period_integral(1.0, (0.0, 1.0, -c_a, -c_b),
                               (1.0, 0.0, 1.0 - c_a, 1.0 - c_b)) / (8.0 * math.pi)
    t1, t2 = _t_roots(k)
    y1, y2 = t1 * t1, t2 * t2
    rho = (t2 * (t1 + t2)) ** 2 / c_b                      # c_a / y1
    left = period_integral(1.0, (0.0, 1.0, rho, c_b), (1.0, 1.0 - y1, rho - 1.0, c_b - y1))
    e = (TWO_SQRT2 - k) * (TWO_SQRT2 + k) / (4.0 * (1.0 + d))     # 2c_b - 1
    gap = -c_b * e * e / (4.0 * ((y2 * y2 + y2 * c_b + c_b * c_b) - 2.0 * (y2 + c_b) + 1.0))
    right = period_integral(1.0, (0.0, 1.0, 1.0 - c_a, 1.0 - c_b), (1.0, y2, y2 - c_a, gap))
    return (left + math.sqrt(k / (8.0 * t2)) * right) / (8.0 * math.pi)
