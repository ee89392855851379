"""The three parametric families and their closed-form integral machinery.

    P_k = (x^2+x+1) y^2 + k x(x+1) y + x (x^2+x+1)
    Q_s = (x^2+x+1) y^2 + (x^4+s x^3+(2s-4) x^2+s x+1) y + x^2 (x^2+x+1)
    R_k = y^3 - y + x^3 - x + k x y

Substituting x -> x^2, y -> xy (and dividing by x^4) turns P_k into a
Laurent polynomial quadratic in y with real fiber coefficients; Q and R have
analogous reductions.  On the reduced forms Jensen's formula collapses the
torus average to one-dimensional integrals with explicit piecewise structure
in the parameter:

* p(k) = m(P_k) has the closed theta-integral of the bracketed root branch,
  with kinks where cos^2(theta) crosses the critical values
  c_pm(k) = (8+k^2 +- k sqrt(16+k^2))/32.
* dp/dk, dq/dk are periods of the cubic -(v+12)(v^2+k^2 v-4k^2) up to its
  positive root: complete for P, from k(1-k) for Q below k = 4.
* r(k) = m(R_k) integrates the larger/smaller root branch over ranges
  bounded by the zeros t_1(k) < t_2(k) of 8t^3-8t+k, which is where a branch
  modulus crosses 1; dr/dk is the (in)complete period of
  c(1-c)(64c^2-48c+k^2).  Each derivative is one or two calls of
  `elliptic.period_integral` on closed-form factor values.

Parameter conventions: P and R are even in k, so negative k maps to |k| at
the interface.  The Q family is not symmetric; q_measure takes the polynomial
subscript itself (e.g. -1), while q_derivative takes the offset parameter k
with subscript k+2, matching the derivative regime splits {0<k<=3, 3<k<4,
k>=4}.  Derivatives reject parameters within BOUNDARY_GUARD of a boundary
where the formulas degenerate (k=3 for P and Q, 16/(3 sqrt 3) for R).
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
    ordered |y1| >= |y2|.  For Q the parameter is the offset one (polynomial
    subscript k+2).  Fibers where the leading coefficient vanishes raise."""
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie in (0, pi)")
    ct = math.cos(theta)
    if family == "P":
        lead = 4.0 * ct * ct - 1.0
        if abs(lead) < 1e-12:
            raise ValueError("degenerate fiber: leading coefficient vanishes")
        c1 = 2.0 * k * ct
        c0 = lead
    elif family == "Q":
        lead = 2.0 * ct + 1.0
        if abs(lead) < 1e-12:
            raise ValueError("degenerate fiber: leading coefficient vanishes")
        c1 = 4.0 * ct * ct + (k + 2.0) * 2.0 * ct + 2.0 * (k - 1.0)
        c0 = lead
    elif family == "R":
        if abs(ct) < 1e-12:
            raise ValueError("degenerate fiber: leading coefficient vanishes")
        c = ct * ct
        disc = k * k - 16.0 * c * (3.0 - 4.0 * c)
        sq = cmath.sqrt(complex(disc, 0.0))
        y1 = (k + sq) / (4.0 * ct)
        y2 = (k - sq) / (4.0 * ct)
        return _order_pair(y1, y2)
    else:
        raise ValueError("family must be one of P, Q, R")
    disc = c1 * c1 - 4.0 * lead * c0
    sq = cmath.sqrt(complex(disc, 0.0))
    y1 = (-c1 + sq) / (2.0 * lead)
    y2 = (-c1 - sq) / (2.0 * lead)
    return _order_pair(y1, y2)


def _order_pair(y1, y2):
    if abs(y2) > abs(y1):
        y1, y2 = y2, y1
    return complex(y1), complex(y2)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def _branch_integral(F, ranges, tol):
    """(value, err_est) of the integral of F over the ranges, each a list of
    cut points, in one call of ``_tanh_sinh_pieces``: each range's pieces
    between consecutive cuts are summed, then the ranges in order.  Each
    piece gets tol over its range's number of pieces, and a piece narrower
    than 1e-15 is left out."""
    a, b, tols, owner = [], [], [], []
    for i, cuts in enumerate(ranges):
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi - lo < 1e-15:
                continue
            a.append(lo)
            b.append(hi)
            tols.append(tol / (len(cuts) - 1))
            owner.append(i)
    sums = [[0.0, 0.0] for _ in ranges]
    for i, r in zip(owner, _tanh_sinh_pieces(F, a, b, tols)):
        sums[i][0] += r.value
        sums[i][1] += r.err_est
    total = 0.0
    err = 0.0
    for v, e in sums:
        total += v
        err += e
    return total, err


def p_measure(k, tol=1e-12):
    """m(P_k) by the closed theta-integral of the dominant root branch:

        (1/pi) * int_0^pi Re log( k|cos t| + sqrt(-(16c^2-(8+k^2)c+1)) ) dt,

    c = cos^2 t.  Where the radicand is negative the modulus collapses to
    |4c-1| (both branches sit on the unit circle and only the leading
    coefficient contributes).  Integrates over (0, pi/2) doubled, split at
    the square-root kinks c = c_pm; log k is taken out of the branch between
    them, so no k^2 is formed and huge k does not overflow."""
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
    total, err = _branch_integral(integrand, [cuts], tol)
    value = math.log(k) * (2.0 * (hi - lo) / math.pi) + 2.0 * total / math.pi
    return MeasureResult(value, 2.0 * err / math.pi + 1e-14, "closed_form")


def q_measure(subscript, tol=1e-11):
    """m(Q_s) for the polynomial subscript s, via the generic Jensen engine
    on the reduced quadratic form (the family is not symmetric in s, so the
    value is computed exactly at the requested parameter)."""
    return mahler_jensen(wt_family_poly("Q", float(subscript)), tol=tol)


def _r_branch_log(k, sign):
    """log|y| of the root y = (k + sign sqrt(rad)) / (4t) of the reduced R
    fiber, as a function of an array of phi with t = sin(phi) = |cos theta|;
    where the radicand is negative, the real-part convention."""

    def log_branch(phi):
        t = np.sin(phi)
        rad = k * k - 16.0 * t * t * (3.0 - 4.0 * t * t)
        with np.errstate(invalid="ignore"):     # the branch not taken
            real = np.log(np.abs(k + sign * np.sqrt(rad)) / (4.0 * t))
            pair = 0.5 * np.log(3.0 - 4.0 * t * t)
        return np.where(rad >= 0.0, real, pair)

    return log_branch


def r_measure(k, tol=1e-12):
    """m(R_k) from the regime-correct combination of branch integrals
    (2/pi) int log|branch| dt/sqrt(1-t^2) over the ranges where the branch
    modulus exceeds 1; cross-checked in tests against the generic engine.
    The substitution t = sin(phi) absorbs the 1/sqrt(1-t^2) weight exactly,
    so only bounded log-type integrands reach the quadrature rule."""
    k = _positive_k(abs(k))

    if k >= R_THRESHOLD:
        def integrand(phi):
            # log((k + sqrt(rad))/2) - log k, rad = k^2 - 16t^2(3-4t^2)
            t = np.sin(phi)
            x = 4.0 * t / k
            return np.log(0.5 * (1.0 + np.sqrt(np.maximum(1.0 - x * x * (3.0 - 4.0 * t * t),
                                                          0.0))))

        total, err = _branch_integral(integrand, [[0.0, 0.5 * math.pi]], tol)
        return MeasureResult(math.log(k) + 2.0 * total / math.pi,
                             2.0 * err / math.pi + 1e-14, "closed_form")

    t1, t2 = _t_roots(k)
    if k < 3.0:
        rr = math.sqrt(9.0 - k * k)
        t_a = math.sqrt((3.0 - rr) / 8.0)
        t_b = math.sqrt((3.0 + rr) / 8.0)
        rad_zeros = [t_a, t_b]
    else:
        rad_zeros = [math.sqrt(3.0 / 8.0)]      # near-degenerate dip at k ~ 3

    def cuts(lo, hi):
        return [math.asin(c) for c in [lo] + [z for z in rad_zeros if lo < z < hi] + [hi]]

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if k < TWO_SQRT2:
        ranges = ((1.0, 0.0, inv_sqrt2), (1.0, t2, 1.0), (-1.0, t1, inv_sqrt2))
    else:
        ranges = ((1.0, 0.0, 1.0), (-1.0, t1, t2))
    # one call per branch; the + ranges come first, so the ranges add up in order
    (v_plus, e_plus), (v_minus, e_minus) = (
        _branch_integral(_r_branch_log(k, sign),
                         [cuts(lo, hi) for s, lo, hi in ranges if s == sign], tol / len(ranges))
        for sign in (1.0, -1.0))
    return MeasureResult(2.0 * (v_plus + v_minus) / math.pi,
                         2.0 * (e_plus + e_minus) / math.pi + 1e-14, "closed_form")


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
