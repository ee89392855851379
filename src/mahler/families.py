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
* dp/dk, dq/dk are periods of the cubic -(v+12)(v^2+k^2 v-4k^2), complete or
  split into complete-plus-incomplete pieces depending on the regime.
* r(k) = m(R_k) integrates the larger/smaller root branch over ranges
  bounded by the zeros t_1(k) < t_2(k) of 8t^3-8t+k, which is where a branch
  modulus crosses 1; dr/dk is the (in)complete period of
  c(1-c)(64c^2-48c+k^2).

Parameter conventions: P and R are even in k, so negative k maps to |k| at
the interface.  The Q family is not symmetric; q_measure takes the polynomial
subscript itself (e.g. -1), while q_derivative takes the offset parameter k
with subscript k+2, matching the derivative regime splits {0<k<=3, 3<k<4,
k>=4}.  Derivatives reject parameters within the guard band of a boundary
where the formulas degenerate (k=3 for P and Q, 16/(3 sqrt 3) for R).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .elliptic import (
    CubicPeriodSpec,
    cubic_roots_pq,
    period_integral,
    pq_radicand_coeffs,
    root_interval_quadrature,
)
from .errors import RegimeBoundaryError
from .lpoly import monomial_transform, parse_poly
from .measure import MeasureResult, mahler_jensen
from .quad import SingularityHint, integrate

__all__ = [
    "R_THRESHOLD",
    "BOUNDARY_GUARD",
    "FamilyPoint",
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

R_THRESHOLD = 16.0 / (3.0 * math.sqrt(3.0))   # 3.0792...
TWO_SQRT2 = 2.0 * math.sqrt(2.0)
BOUNDARY_GUARD = 1e-12
# Near k = 3 the roots -12 and -k(k + sqrt(k^2+16))/2 of the dq/dk radicand
# merge, and the cubic root finder behind period_integral stops resolving
# them (it fails for |k - 3| up to ~1.5e-6); q_derivative refuses this band.
Q_MERGE_GUARD = 1e-5
# At k = 2 sqrt 2 the endpoint t2^2 = 1/2 of dr/dk's right piece falls on the
# root c = 1/2 of 64c^2 - 48c + k^2, and the piece loses accuracy without
# saying so (2.5e-9 at the boundary, 8.6e-12 at 1e-5 from it, below 4e-13
# from 3e-5 on); r_derivative refuses this band.
R_TOUCH_GUARD = 3e-5

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

_BOUNDARIES = {
    "P": (3.0,),
    "Q": (3.0, 4.0),
    "R": (TWO_SQRT2, R_THRESHOLD),
}


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
class FamilyPoint:
    """A family member located in its piecewise regime.  Construction rejects
    parameters within the guard band of a regime boundary, where the
    derivative formulas collide."""

    family: str
    k: float
    regime: str

    @classmethod
    def from_k(cls, family, k):
        regime = regime_tag(family, k)    # refuses the family or k first
        for b in _BOUNDARIES[family]:
            if abs(k - b) <= BOUNDARY_GUARD:
                raise RegimeBoundaryError(
                    f"family {family}: k = {k!r} sits on the regime boundary {b!r}")
        return cls(family, float(k), regime)


@dataclass(frozen=True)
class CriticalRoots:
    """c_minus, c_plus: roots of 16c^2-(8+k^2)c+1; t1 < t2: the roots of
    8t^3-8t+k inside (0, 1), present only below the threshold 16/(3 sqrt 3)."""

    c_minus: float
    c_plus: float
    t1: float | None = None
    t2: float | None = None


def _c_plus_minus(k):
    c_plus = (8.0 + k * k + k * math.sqrt(16.0 + k * k)) / 32.0
    return (1.0 / 16.0) / c_plus, c_plus   # product of the roots is 1/16


def _t_roots(k):
    """Real zeros of 8t^3-8t+k in (0, 1) by the trigonometric formula for a
    three-real-root depressed cubic, plus one Newton step where safe."""
    if not 0.0 < k < R_THRESHOLD:
        raise ValueError("t-roots exist only for 0 < k < 16/(3*sqrt(3))")
    phi = math.acos(max(-1.0, min(1.0, -3.0 * math.sqrt(3.0) * k / 16.0)))
    t2 = (2.0 / math.sqrt(3.0)) * math.cos(phi / 3.0)
    t1 = (2.0 / math.sqrt(3.0)) * math.cos(phi / 3.0 - 2.0 * math.pi / 3.0)

    def polish(t):
        f = ((8.0 * t * t) - 8.0) * t + k
        df = 24.0 * t * t - 8.0
        return t - f / df if abs(df) > 1e-3 else t

    return polish(t1), polish(t2)


def critical_roots(point):
    """Critical values for a FamilyPoint (or any object with .k)."""
    k = _positive_k(point.k if hasattr(point, "k") else point)
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

def _sum_pieces(f, edges, tol):
    total = 0.0
    err = 0.0
    n = max(len(edges) - 1, 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 1e-15:
            continue
        r = integrate(f, lo, hi, SingularityHint.inverse_sqrt_both(), tol / n)
        total += r.value
        err += r.err_est
    return total, err


def p_measure(k, tol=1e-12):
    """m(P_k) by the closed theta-integral of the dominant root branch:

        (1/pi) * int_0^pi Re log( k|cos t| + sqrt(-(16c^2-(8+k^2)c+1)) ) dt,

    c = cos^2 t.  Where the radicand is negative the modulus collapses to
    |4c-1| (both branches sit on the unit circle and only the leading
    coefficient contributes).  Integrates over (0, pi/2) doubled, split at
    the square-root kinks c = c_pm."""
    k = _positive_k(abs(k))
    c_minus, c_plus = _c_plus_minus(k)

    def integrand(theta):
        ct = math.cos(theta)
        c = ct * ct
        q = (16.0 * c - (8.0 + k * k)) * c + 1.0
        if q <= 0.0:
            return math.log(k * math.sqrt(c) + math.sqrt(-q))
        return math.log(abs(4.0 * c - 1.0))

    edges = [0.0]
    if c_plus < 1.0:
        edges.append(math.acos(math.sqrt(c_plus)))
    edges.append(math.acos(math.sqrt(c_minus)))
    edges.append(0.5 * math.pi)
    total, err = _sum_pieces(integrand, edges, tol)
    return MeasureResult(2.0 * total / math.pi, 2.0 * err / math.pi + 1e-14,
                         "closed_form")


def q_measure(subscript, tol=1e-11):
    """m(Q_s) for the polynomial subscript s, via the generic Jensen engine
    on the reduced quadratic form (the family is not symmetric in s, so the
    value is computed exactly at the requested parameter)."""
    return mahler_jensen(wt_family_poly("Q", float(subscript)), tol=tol)


def _r_branch_log(k, sign):
    """log|y| of the root y = (k + sign sqrt(rad)) / (4t) of the reduced R
    fiber, as a function of phi with t = sin(phi) = |cos theta|; where the
    radicand is negative, the real-part convention."""

    def log_branch(phi):
        t = math.sin(phi)
        rad = k * k - 16.0 * t * t * (3.0 - 4.0 * t * t)
        if rad >= 0.0:
            return math.log(abs(k + sign * math.sqrt(rad)) / (4.0 * t))
        return 0.5 * math.log(3.0 - 4.0 * t * t)

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
            t = math.sin(phi)
            rad = k * k - 16.0 * t * t * (3.0 - 4.0 * t * t)
            return math.log(0.5 * (k + math.sqrt(max(rad, 0.0))))

        total, err = _sum_pieces(integrand, [0.0, 0.5 * math.pi], tol)
        return MeasureResult(2.0 * total / math.pi, 2.0 * err / math.pi + 1e-14,
                             "closed_form")

    t1, t2 = _t_roots(k)
    i_plus, i_minus = _r_branch_log(k, 1.0), _r_branch_log(k, -1.0)
    if k < 3.0:
        rr = math.sqrt(9.0 - k * k)
        t_a = math.sqrt((3.0 - rr) / 8.0)
        t_b = math.sqrt((3.0 + rr) / 8.0)
        rad_zeros = [t_a, t_b]
    else:
        rad_zeros = [math.sqrt(3.0 / 8.0)]      # near-degenerate dip at k ~ 3

    def edges(lo, hi):
        cuts = [lo] + [z for z in rad_zeros if lo < z < hi] + [hi]
        return [math.asin(c) for c in cuts]

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    total = 0.0
    err = 0.0
    if k < TWO_SQRT2:
        for f, lo, hi in ((i_plus, 0.0, inv_sqrt2), (i_plus, t2, 1.0),
                          (i_minus, t1, inv_sqrt2)):
            v, e = _sum_pieces(f, edges(lo, hi), tol / 3.0)
            total += v
            err += e
    else:
        for f, lo, hi in ((i_plus, 0.0, 1.0), (i_minus, t1, t2)):
            v, e = _sum_pieces(f, edges(lo, hi), tol / 2.0)
            total += v
            err += e
    return MeasureResult(2.0 * total / math.pi, 2.0 * err / math.pi + 1e-14,
                         "closed_form")


# ---------------------------------------------------------------------------
# derivatives in k
# ---------------------------------------------------------------------------

def _guard(k, boundary, what, width=BOUNDARY_GUARD):
    if abs(k - boundary) <= width:
        raise RegimeBoundaryError(
            f"{what} is undefined within {width:g} of the regime boundary k = {boundary}")


def p_derivative(k):
    """dp/dk as the complete period of -(v+12)(v^2+k^2v-4k^2) between -12
    (or the lower quadratic root, below k=3) and the positive root."""
    k = _positive_k(abs(k))
    _guard(k, 3.0, "dp/dk")
    r_low, _, r_high = cubic_roots_pq(k)
    coeffs = pq_radicand_coeffs(k)
    lo = -12.0 if k > 3.0 else r_low
    return period_integral(CubicPeriodSpec(coeffs, lo, r_high)) / math.pi


def q_derivative(k):
    """dq(k+2)/dk, piecewise: a complete period from -infinity minus an
    incomplete piece ending at the ordinary point k(1-k) below k=4, the pure
    complete period at and above 4 (where k(1-k) reaches -12 and the
    incomplete piece vanishes).  Raises RegimeBoundaryError within
    Q_MERGE_GUARD of k = 3."""
    k = _positive_k(k)
    _guard(k, 3.0, "dq/dk", Q_MERGE_GUARD)
    r_low, _, _ = cubic_roots_pq(k)
    coeffs = pq_radicand_coeffs(k)
    if k >= 4.0:
        return period_integral(CubicPeriodSpec(coeffs, -math.inf, r_low)) / math.pi
    cut = k * (1.0 - k)
    if k < 3.0:
        complete = period_integral(CubicPeriodSpec(coeffs, -math.inf, -12.0))
        partial = period_integral(CubicPeriodSpec(coeffs, r_low, cut))
    else:
        complete = period_integral(CubicPeriodSpec(coeffs, -math.inf, r_low))
        partial = period_integral(CubicPeriodSpec(coeffs, -12.0, cut))
    return (complete - partial) / math.pi


def r_derivative(k, tol=1e-13):
    """dr/dk as the period of c(1-c)(64c^2-48c+k^2): complete over (0,1)
    above the threshold 16/(3 sqrt 3), the two incomplete pieces
    (0, t1^2) and (t2^2, 1) below it.  The singular endpoint factors c and
    1-c are absorbed into the substitution analytically.  Raises
    RegimeBoundaryError within R_TOUCH_GUARD of k = 2 sqrt 2, and
    ValueError when tol is not positive (NaN included)."""
    k = _positive_k(abs(k))
    if not tol > 0:
        raise ValueError("tol must be positive")
    _guard(k, R_THRESHOLD, "dr/dk")
    _guard(k, TWO_SQRT2, "dr/dk", R_TOUCH_GUARD)
    k2 = k * k

    def quartic(c):
        return (64.0 * c - 48.0) * c + k2

    if k > R_THRESHOLD:
        return root_interval_quadrature(quartic, 0.0, 1.0, tol) / math.pi

    t1, t2 = _t_roots(k)
    left = root_interval_quadrature(lambda c: (1.0 - c) * quartic(c),
                                    0.0, t1 * t1, tol,
                                    left_root=True, right_root=False)
    right = root_interval_quadrature(lambda c: c * quartic(c),
                                     t2 * t2, 1.0, tol,
                                     left_root=False, right_root=True)
    return (left + right) / math.pi
