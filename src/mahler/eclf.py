"""Elliptic-curve L-functions at desk scale.

Every a_p is a point count over F_p: at a good prime on the
completed-square model, and at a prime q of the conductor on the reduced
curve with its singular point counted, a_q = q + 1 - #E~(F_q).  With
Lambda(s) = N^{s/2} (2 pi)^{-s} Gamma(s) L(E, s) = eps Lambda(2-s), the
incomplete-gamma-smoothed series

  Lambda(s) = sum_n a_n [ n^{-s} N^{s/2} (2pi)^{-s} Gamma(s, 2 pi n theta/sqrt N)
            + eps n^{s-2} N^{(2-s)/2} (2pi)^{s-2} Gamma(2-s, 2 pi n/(theta sqrt N)) ]

holds for every theta > 0.  The root number eps is the sign that makes it
independent of theta at s = 1 and 2, where the incomplete gammas have
closed forms, and that probe's residual certifies the whole local data.
Since Gamma has a simple pole at 0, L'(E, 0) = Lambda(0) = eps Lambda(2).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError

__all__ = [
    "WeierstrassCurve",
    "CurveLData",
    "CURVE_224",
    "CURVE_210",
    "CURVE_15",
    "curve_ek",
    "ap_count",
    "ap_bruteforce",
    "resolve_bad_data",
    "lambda_completed",
    "lambda_with_error",
    "l_deriv_at_0",
    "exp_e1",
    "upper_gamma",
]

_EULER_GAMMA = 0.5772156649015328606065120900824024


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q.

    The conductor is supplied data, never computed here; ``label`` is a
    free-form database tag kept for bookkeeping only.
    """

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int | None = None
    label: str = ""

    def __post_init__(self):
        if self.discriminant() == 0:
            raise ValueError("singular curve (discriminant zero)")

    def b_invariants(self):
        b2 = self.a1 ** 2 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3 ** 2 + 4 * self.a6
        b8 = (self.a1 ** 2 * self.a6 + 4 * self.a2 * self.a6
              - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 ** 2
              - self.a4 ** 2)
        return b2, b4, b6, b8

    def discriminant(self):
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


CURVE_224 = WeierstrassCurve(0, 1, 0, -8, -8, conductor=224,
                             label="224a2 (224.a1)")
CURVE_210 = WeierstrassCurve(1, 1, 0, -3, -3, conductor=210,
                             label="210d1 (210.a3)")
CURVE_15 = WeierstrassCurve(1, 1, 1, 0, 0, conductor=15, label="15a8 (15.a7)")


def curve_ek(k):
    """y^2 = x^3 + (k^2-24) x^2 - 16 (k^2-9) x; elliptic for k != 0, +-3."""
    k = int(k)
    return WeierstrassCurve(0, k * k - 24, 0, -16 * (k * k - 9), 0,
                            label=f"E_{k}")


def _is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n == q:
            return True
        if n % q == 0:
            return False
    d = 37
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _legendre_ap(curve, p):
    """p + 1 - #E~(F_p) on the given model at an odd prime p < 2^20, good or
    bad, by summing Legendre symbols of the completed-square cubic
    g(x) = 4x^3 + b2 x^2 + 2 b4 x + b6 over x mod p; the singular point of
    a bad prime is counted.  g(x) < 5 p^3 with the b's reduced mod p, so
    int64 holds it."""
    b2, b4, b6, _ = curve.b_invariants()
    x = np.arange(p, dtype=np.int64)
    g = (((4 * x + b2 % p) * x + (2 * b4) % p) * x + b6 % p) % p
    is_sq = np.zeros(p, dtype=bool)
    is_sq[x * x % p] = True
    zeros = int(np.count_nonzero(g == 0))
    squares = int(np.count_nonzero(is_sq[g]))
    return p + zeros - 2 * squares


def ap_count(curve, p):
    """Trace of Frobenius a_p = p + 1 - #E(F_p) at an odd prime of good
    reduction below 2^20, by the Legendre-symbol sum of ``_legendre_ap``."""
    if p == 2 or not _is_prime(p):
        raise ValueError("p must be an odd prime")
    if p >= 1 << 20:
        raise ValueError("p must be below 2^20 for the int64 point count")
    if curve.discriminant() % p == 0:
        raise ValueError(f"p = {p} is a prime of bad reduction")
    return _legendre_ap(curve, p)


def ap_bruteforce(curve, p):
    """a_p by literally enumerating affine points of the general Weierstrass
    equation; any prime, O(p^2) - the oracle and the p = 2 route."""
    if not _is_prime(p):
        raise ValueError("p must be prime")
    count = 1  # point at infinity
    for x in range(p):
        rhs = (x * x * x + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
        for y in range(p):
            lhs = (y * y + curve.a1 * x * y + curve.a3 * y) % p
            if lhs == rhs:
                count += 1
    return p + 1 - count


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

def _local_data(curve, N, p_max):
    """The a_p of the good primes up to ``p_max`` and the a_q of the primes
    of N, each p + 1 - #E~(F_p) (``ap_bruteforce`` at 2).  A prime of N must
    divide the discriminant, which makes its a_q -1, 0 or 1, and a prime up
    to ``p_max`` that divides the discriminant must divide N."""
    disc = curve.discriminant()
    good_ap, bad_ap = {}, {}
    for p in range(2, max(N, p_max) + 1):
        if not _is_prime(p):
            continue
        if N % p == 0:
            if disc % p:
                raise ResolutionError(
                    f"curve has good reduction at {p} which divides N={N}; "
                    "wrong conductor")
            bad_ap[p] = (ap_bruteforce(curve, p) if p == 2
                         else _legendre_ap(curve, p))
        elif p <= p_max:
            if disc % p == 0:
                raise ResolutionError(
                    f"curve has bad reduction at {p} which does not divide "
                    f"N={N}; wrong conductor")
            good_ap[p] = (ap_bruteforce(curve, p) if p == 2
                          else ap_count(curve, p))
    return good_ap, bad_ap


def _an_list(good_ap, bad_ap, M):
    """Coefficients a_1..a_M (index 0 unused): at a prime power by the Hecke
    recurrence a_{p^{r+1}} = a_p a_{p^r} - c a_{p^{r-1}}, c = p at a good
    prime and 0 at a bad one, and multiplicatively otherwise.  Raises
    ValueError for a bad a_q outside {-1, 0, 1}."""
    for q, aq in bad_ap.items():
        if aq not in (-1, 0, 1):
            raise ValueError(f"a_{q} = {aq} at a bad prime; need -1, 0 or 1")
    spf = list(range(M + 1))
    for p in range(2, int(M ** 0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, M + 1, p):
                if spf[m] == m:
                    spf[m] = p
    a = [0.0, 1.0] + [0.0] * (M - 1)
    for n in range(2, M + 1):
        p = spf[n]
        if p == n:
            if p in bad_ap:
                ap, c = bad_ap[p], 0
            elif p in good_ap:
                ap, c = good_ap[p], p
            else:
                raise ResolutionError(f"a_{p} missing; increase P_max")
            prev2, prev1 = 1.0, float(ap)
            a[p] = prev1
            pe = p * p
            while pe <= M:
                prev2, prev1 = prev1, ap * prev1 - c * prev2
                a[pe] = prev1
                pe *= p
            continue
        pe = p
        while n % (pe * p) == 0:
            pe *= p
        if pe != n:
            a[n] = a[pe] * a[n // pe]
    return a


# ---------------------------------------------------------------------------
# incomplete gamma machinery
# ---------------------------------------------------------------------------

def _gamma_cf(s, x):
    """Gamma(s, x) = e^{-x} x^s / (x+1-s- 1(1-s)/(x+3-s- 2(2-s)/(...))), the
    continued fraction evaluated by the modified Lentz method; it converges
    fast for x >= s + 1.  At s = 0 it is E_1(x)."""
    tiny = 1e-300
    one_s = 1.0 - s
    b = x + one_s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for j in range(1, 300):
        an = j * (s - j)
        b = x + 2.0 * j + one_s
        d = b + an * d
        d = tiny if d == 0.0 else d
        c = b + an / c
        c = tiny if c == 0.0 else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x + s * math.log(x)) * h


def exp_e1(x):
    """Exponential integral E_1(x), x > 0: alternating series below 1, the
    continued fraction of Gamma(0, x) above (absolute error < 1e-14)."""
    if x <= 0:
        raise ValueError("need x > 0")
    if x < 1.0:
        total = -_EULER_GAMMA - math.log(x)
        term = 1.0
        for n in range(1, 40):
            term *= -x / n
            total -= term / n
            if abs(term) < 1e-18 * n:
                break
        return total
    return _gamma_cf(0.0, x)


def upper_gamma(s, x):
    """Upper incomplete Gamma(s, x) for real s, x > 0, with the closed forms
    Gamma(2, x) = (1+x) e^{-x}, Gamma(1, x) = e^{-x}, Gamma(0, x) = E_1(x)."""
    if x <= 0:
        raise ValueError("need x > 0")
    if abs(s - 2.0) < 1e-13:
        return (1.0 + x) * math.exp(-x)
    if abs(s - 1.0) < 1e-13:
        return math.exp(-x)
    if abs(s) < 1e-13:
        return exp_e1(x)
    if s < 0.0:
        # one step of Gamma(s, x) = (Gamma(s+1, x) - x^s e^{-x}) / s
        return (upper_gamma(s + 1.0, x) - x ** s * math.exp(-x)) / s
    if x >= s + 1.0:
        return _gamma_cf(s, x)
    # lower-gamma series
    total = 1.0 / s
    term = 1.0 / s
    for n in range(1, 400):
        term *= x / (s + n)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    lower = total * math.exp(-x + s * math.log(x))
    return math.gamma(s) - lower


# ---------------------------------------------------------------------------
# the completed L-function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveLData:
    """Everything needed to evaluate Lambda(s): good a_p table, root number,
    bad-prime local coefficients, and the consistency residual achieved
    during resolution."""

    curve: WeierstrassCurve
    conductor: int
    ap: dict
    root_number: int
    bad_ap: dict
    residual: float = 0.0


def _truncation_m(N, tol):
    return max(40, math.ceil(2.0 * math.sqrt(N) / (2.0 * math.pi)
                             * math.log(1.0 / tol)))


def _upper_gamma_row(s, x):
    """Gamma(s, x) over the array x.  Gamma(1, x) = e^{-x} and Gamma(2, x) =
    (1+x) e^{-x} are numpy expressions, Gamma(0, x) = E_1(x) runs the scalar
    ``exp_e1`` on Python floats, and every other order the scalar
    ``upper_gamma``."""
    if abs(s - 1.0) < 1e-13:
        return np.exp(-x)
    if abs(s - 2.0) < 1e-13:
        return (1.0 + x) * np.exp(-x)
    if abs(s) < 1e-13:
        return np.array([exp_e1(v) for v in x.tolist()])
    return np.array([upper_gamma(s, v) for v in x.tolist()])


def _smoothing_weights(N, s, theta, M):
    """Weights (A, B) over n = 1..M of the smoothed series at (s, theta):
    Lambda_theta(s) = A . a + eps B . a, for either root number eps."""
    rtn = math.sqrt(N)
    two_pi = 2.0 * math.pi
    fac1 = N ** (0.5 * s) * two_pi ** (-s)
    fac2 = N ** (0.5 * (2.0 - s)) * two_pi ** (s - 2.0)
    n = np.arange(1, M + 1, dtype=float)
    A = n ** (-s) * fac1 * _upper_gamma_row(s, two_pi * n * theta / rtn)
    B = (n ** (s - 2.0) * fac2
         * _upper_gamma_row(2.0 - s, two_pi * n / (theta * rtn)))
    return A, B


def _lambda_theta(N, an, eps, s, theta, M):
    """The smoothed series for Lambda(s) at cutoff theta over a_1..a_M: the
    weights of ``_smoothing_weights`` dotted with the coefficients."""
    A, B = _smoothing_weights(N, s, theta, M)
    a = np.asarray(an[1:M + 1], dtype=float)
    return float(A @ a + eps * (B @ a))


_THETA = 1.0                # the cutoff theta at which Lambda(s) is evaluated
_P_MAX = 1000               # point counts cover every prime up to here
_RESOLVE_THRESHOLD = 1e-8   # theta-consistency residual a resolution must meet


def lambda_with_error(data, s, tol=1e-11):
    """Lambda(s) with a crude bound on the truncation tail, at the cutoff
    theta = 1; tol sets the truncation length M, which stops at ``_P_MAX``,
    where the table of a_p ends.  The bound is that of the tail after the M
    reached, so it exceeds a tol the table cannot reach.  Raises ValueError
    unless tol is a positive finite number."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    N = data.conductor
    M = min(_truncation_m(N, tol), _P_MAX)
    an = _an_list(data.ap, data.bad_ap, M)
    val = _lambda_theta(N, an, data.root_number, s, _THETA, M)
    # |a_n| <= n; both gamma factors decay like e^{-2 pi n theta' / sqrt N},
    # theta' = min(theta, 1/theta)
    r = math.exp(-2.0 * math.pi * min(_THETA, 1.0 / _THETA) / math.sqrt(N))
    lead = (M + 1) ** 2 * r ** (M + 1) / max(1.0 - r, 1e-6)
    return val, 4.0 * lead


def lambda_completed(data, s, tol=1e-11):
    """Lambda(s) = N^{s/2} (2 pi)^{-s} Gamma(s) L(E, s) by the smoothed series."""
    return lambda_with_error(data, s, tol)[0]


def resolve_bad_data(curve, N=None):
    """The a_p, the bad a_q and the root number of ``curve`` at the conductor
    N (default ``curve.conductor``), an integer >= 1, as CurveLData.

    The a_p are point counts on the given model up to ``_P_MAX`` and at the
    primes of N.  Raises ResolutionError where a prime of N does not divide
    the discriminant, or the reverse below ``_P_MAX``, or where the
    theta-consistency residual exceeds ``_RESOLVE_THRESHOLD``, as it does
    on a model that is not minimal at a bad prime; ValueError for a missing
    or non-integer conductor."""
    if N is None:
        N = curve.conductor
    if N is None:
        raise ValueError("no conductor supplied")
    try:
        N = operator.index(N)
    except TypeError:
        raise ValueError(f"conductor must be an integer, not {N!r}") from None
    if N < 1:
        raise ValueError(f"conductor must be >= 1, not {N}")
    M = _truncation_m(N, 1e-11)
    if M > _P_MAX:
        raise ResolutionError("P_max too small for the truncation length")
    good_ap, bad_ap = _local_data(curve, N, _P_MAX)
    a = np.asarray(_an_list(good_ap, bad_ap, M)[1:])

    # Lambda_1(s) - Lambda_{5/4}(s) = dA . a + eps dB . a at each probe s
    diffs = []
    for s in (1.0, 2.0):
        (A1, B1), (A2, B2) = (_smoothing_weights(N, s, th, M)
                              for th in (1.0, 1.25))
        diffs.append((A1 - A2, B1 - B2))

    def residual(eps):
        return sum(abs(float(dA @ a + eps * (dB @ a))) for dA, dB in diffs)

    eps = min((1, -1), key=residual)
    resid = residual(eps)
    if resid > _RESOLVE_THRESHOLD:
        raise ResolutionError(
            f"theta-consistency residual {resid:.3e} above threshold; wrong "
            "conductor, a model not minimal at a bad prime, or "
            "insufficient P_max")
    return CurveLData(curve, N, good_ap, eps, bad_ap, resid)


def l_deriv_at_0(data):
    """L'(E, 0) = eps * Lambda(2) = eps * N * L(E, 2) / (4 pi^2); the trivial
    zero at s = 0 cancels the Gamma pole, so Lambda(0) is the derivative."""
    return data.root_number * lambda_completed(data, 2.0)
