"""Elliptic-curve L-functions at desk scale.

Good-prime coefficients a_p come from direct point counts over F_p on the
completed-square model.  Bad local factors and the root number are not taken
from reduction theory: they are pinned down by a finite consistency search,
exploiting that the incomplete-gamma-smoothed series for the completed
L-function carries a free cutoff parameter theta and only the correct
(root number, bad a_q) assignment makes the value theta-independent.

With Lambda(s) = N^{s/2} (2 pi)^{-s} Gamma(s) L(E, s) = eps Lambda(2-s), the
smoothed series reads

  Lambda(s) = sum_n a_n [ n^{-s} N^{s/2} (2pi)^{-s} Gamma(s, 2 pi n theta/sqrt N)
            + eps n^{s-2} N^{(2-s)/2} (2pi)^{s-2} Gamma(2-s, 2 pi n/(theta sqrt N)) ]

for every theta > 0.  The search probes s = 1 and s = 2, where the orders s
and 2 - s are 0, 1 or 2 and the incomplete gammas have closed forms:
Gamma(1, x) = e^{-x}, Gamma(2, x) = (1+x) e^{-x} and Gamma(0, x) = E_1(x).
Other orders, which only Lambda(s) at other s needs, use the standard
series / continued-fraction pair.  The series is linear in a_n and its
incomplete-gamma weights depend only on (N, s, theta, M), so they are built
once per (s, theta); the a_n are split into a part built once per search
and a fill of the bad prime powers, so a candidate assignment costs one
fill and a few dot products.

The derivative at 0 needs no extra machinery: Lambda is entire and Gamma has
a simple pole at 0, so L(E, 0) = 0 and L'(E, 0) = Lambda(0) = eps Lambda(2) =
eps N L(E, 2) / (4 pi^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

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


def ap_count(curve, p):
    """Trace of Frobenius a_p = p + 1 - #E(F_p) at an odd prime of good
    reduction, by summing Legendre symbols of the completed-square cubic
    (2y + a1 x + a3)^2 = g(x) = 4x^3 + b2 x^2 + 2 b4 x + b6 over x mod p.

    With the b's reduced mod p first, g(x) < 5 p^3 (below 5e9 for p <= 1000),
    so it is evaluated in int64 and reduced once, for p < 2^20; so are the
    squares x^2.  With z zeros of g and r values of g that are squares (zero
    included), the symbol sum is (r - z) - (p - r), and a_p is its negative."""
    if p == 2 or not _is_prime(p):
        raise ValueError("p must be an odd prime")
    if p >= 1 << 20:
        raise ValueError("p must be below 2^20 for the int64 point count")
    if curve.discriminant() % p == 0:
        raise ValueError(f"p = {p} is a prime of bad reduction")
    b2, b4, b6, _ = curve.b_invariants()
    x = np.arange(p, dtype=np.int64)
    g = (((4 * x + b2 % p) * x + (2 * b4) % p) * x + b6 % p) % p
    is_sq = np.zeros(p, dtype=bool)
    is_sq[x * x % p] = True
    zeros = int(np.count_nonzero(g == 0))
    squares = int(np.count_nonzero(is_sq[g]))
    return p + zeros - 2 * squares


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

def _good_ap_table(curve, N, p_max):
    bad = {p for p in range(2, max(N, 2) + 1) if N % p == 0 and _is_prime(p)}
    disc = abs(curve.discriminant())
    table = {}
    for p in range(2, p_max + 1):
        if not _is_prime(p) or p in bad:
            continue
        if disc % p == 0:
            raise ResolutionError(
                f"curve has bad reduction at {p} which does not divide N={N}; "
                "wrong conductor")
        table[p] = ap_bruteforce(curve, p) if p == 2 else ap_count(curve, p)
    return table, sorted(bad)


def _an_base(good_ap, bad_primes, M):
    """The part of a_1..a_M that does not depend on the bad a_q: the a_n with
    every bad a_q set to 1 (from the smallest-prime-factor sieve, the
    good-prime Hecke powers and the composite splits), and for each bad
    prime q the powers a_q^{v_q(n)} over n for a_q in {-1, 0, 1}, the only
    values a bad prime can take.  ``_an_fill`` completes it for one
    assignment of the bad a_q."""
    good = [1.0] * (M + 1)     # bad prime powers keep 1.0: _an_fill scales them
    spf = list(range(M + 1))
    for p in range(2, int(M ** 0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, M + 1, p):
                if spf[m] == m:
                    spf[m] = p
    powers = {}
    for q in bad_primes:
        v = np.zeros(M + 1, dtype=np.int64)
        qe = q
        while qe <= M:
            v[qe::qe] += 1
            qe *= q
        powers[q] = {c: float(c) ** v[1:] for c in (-1, 0, 1)}
    for p in range(2, M + 1):
        if spf[p] != p or p in powers:
            continue
        if p not in good_ap:
            raise ResolutionError(f"a_{p} missing; increase P_max")
        ap = good_ap[p]
        prev2, prev1 = 1.0, float(ap)
        good[p] = prev1
        pe = p * p
        while pe <= M:
            cur = ap * prev1 - p * prev2
            good[pe] = cur
            prev2, prev1 = prev1, cur
            pe *= p
    for n in range(2, M + 1):
        p = spf[n]
        if p == n:
            continue
        pe = p
        while n % (pe * p) == 0:
            pe *= p
        if pe != n:
            good[n] = good[pe] * good[n // pe]
    return np.asarray(good[1:]), powers


def _an_fill(base, bad_ap):
    """a_1..a_M as an array for one assignment of the bad a_q: the bad
    primes are completely multiplicative, so a_n = (good part of a_n) *
    prod_q a_q^{v_q(n)}.  Every a_n is an integer far below 2^53, so the
    products are exact in any order."""
    good, powers = base
    a = good.copy()
    for q, pw in powers.items():
        if bad_ap[q] not in pw:
            raise ValueError(f"a_{q} = {bad_ap[q]} at a bad prime; "
                             "need -1, 0 or 1")
        a *= pw[bad_ap[q]]
    return a


def _an_list(good_ap, bad_ap, M):
    """Coefficients a_1..a_M (index 0 unused) from multiplicativity and the
    Hecke recurrences a_{p^{r+1}} = a_p a_{p^r} - p a_{p^{r-1}} (good p),
    a_{p^r} = a_p^r (bad, a_p in {-1, 0, 1})."""
    base = _an_base(good_ap, sorted(bad_ap), M)
    return [0.0] + _an_fill(base, bad_ap).tolist()


# ---------------------------------------------------------------------------
# incomplete gamma machinery
# ---------------------------------------------------------------------------

def exp_e1(x):
    """Exponential integral E_1(x), x > 0: alternating series below 1, the
    classic continued fraction with a_j = j^2 above (absolute error < 1e-14)."""
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
    # modified Lentz on 1/(x+1- 1/(x+3- 4/(x+5- 9/(...))))
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for j in range(1, 200):
        an = -j * j
        b = x + 2.0 * j + 1.0
        d = b + an * d
        d = tiny if d == 0.0 else d
        c = b + an / c
        c = tiny if c == 0.0 else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x) * h


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
        # continued fraction (Lentz): Gamma(s,x) = e^-x x^s / (x+1-s- 1(1-s)/(x+3-s- ...))
        tiny = 1e-300
        b = x + 1.0 - s
        c = 1.0 / tiny
        d = 1.0 / b
        h = d
        for j in range(1, 300):
            an = -j * (j - s)
            b += 2.0
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
    Lambda_theta(s) = A . a + eps B . a.  They depend on neither the root
    number nor the a_n, so one build serves every candidate assignment.

    A needs Gamma(s, .) and B needs Gamma(2 - s, .); at s = 1 both are e^{-x},
    and at s = 2 they are (1+x) e^{-x} and E_1, so the probes of
    ``resolve_bad_data`` and Lambda(2) need no general-order incomplete
    gamma (see ``_upper_gamma_row``)."""
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


def lambda_with_error(data, s, theta=1.0, tol=1e-11):
    """Lambda(s) with a crude bound on the truncation tail."""
    N = data.conductor
    M = _truncation_m(N, tol)
    an = _an_list(data.ap, data.bad_ap, M)
    val = _lambda_theta(N, an, data.root_number, s, theta, M)
    # |a_n| <= n; both gamma factors decay like e^{-2 pi n theta' / sqrt N}
    r = math.exp(-2.0 * math.pi * min(theta, 1.0 / theta) / math.sqrt(N))
    lead = (M + 1) ** 2 * r ** (M + 1) / max(1.0 - r, 1e-6)
    return val, 4.0 * lead


def lambda_completed(data, s, theta=1.0, tol=1e-11):
    """Lambda(s) = N^{s/2} (2 pi)^{-s} Gamma(s) L(E, s) by the smoothed series."""
    return lambda_with_error(data, s, theta, tol)[0]


def resolve_bad_data(curve, N=None, p_max=1000, threshold=1e-8):
    """Fix the root number and the bad-prime coefficients by searching the
    finite set {eps = +-1} x {a_q in {-1,0,1}} for the assignment that makes
    the smoothed Lambda(s) independent of the cutoff theta (probed at
    s in {1, 2} with theta 1 and 5/4); accepts below ``threshold``.

    The probes sit at s = 1 and 2 because there the incomplete gammas have
    closed forms (e^{-x}, (1+x) e^{-x} and E_1), so the weights are numpy
    expressions; on 224, 210 and 15 they pin the same data as probes at
    s in {0.8, 1.3}, with every other candidate's residual above 1e-4.  The
    point counts cover every prime up to ``p_max``; a prime of bad reduction
    there that does not divide N raises ``ResolutionError``.

    The weight differences between the two thetas are built once per probe,
    and so is the part of the a_n that does not depend on the bad a_q; each
    of the 2 * 3^b candidates then costs one fill of the bad prime powers
    and four dot products."""
    if N is None:
        N = curve.conductor
    if N is None:
        raise ValueError("no conductor supplied")
    good_ap, bad_primes = _good_ap_table(curve, N, p_max)
    M = _truncation_m(N, 1e-11)
    if M > p_max:
        raise ResolutionError("P_max too small for the truncation length")

    # Lambda_1(s) - Lambda_{5/4}(s) = dA . a + eps dB . a at each probe s
    diffs = []
    for s in (1.0, 2.0):
        (A1, B1), (A2, B2) = (_smoothing_weights(N, s, th, M)
                              for th in (1.0, 1.25))
        diffs.append((A1 - A2, B1 - B2))
    base = _an_base(good_ap, bad_primes, M)
    best = None
    for eps in (1, -1):
        for combo in product((-1, 0, 1), repeat=len(bad_primes)):
            bad_ap = dict(zip(bad_primes, combo))
            a = _an_fill(base, bad_ap)
            resid = sum(abs(float(dA @ a + eps * (dB @ a))) for dA, dB in diffs)
            if best is None or resid < best[0]:
                best = (resid, eps, bad_ap)
    resid, eps, bad_ap = best
    if resid > threshold:
        raise ResolutionError(
            f"no consistent local data below threshold (best residual {resid:.3e}); "
            "wrong conductor or insufficient P_max")
    return CurveLData(curve, N, good_ap, eps, bad_ap, resid)


def l_deriv_at_0(data):
    """L'(E, 0) = eps * Lambda(2) = eps * N * L(E, 2) / (4 pi^2); the trivial
    zero at s = 0 cancels the Gamma pole, so Lambda(0) is the derivative."""
    return data.root_number * lambda_completed(data, 2.0)
