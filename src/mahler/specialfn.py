"""Bloch-Wigner dilogarithm, Hurwitz zeta, odd real Dirichlet characters and
their L-values, and the closed-form dilogarithm evaluation of
m(x^2 - x y + y^2 + x + y)."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "kronecker_symbol",
    "DirichletChar",
    "dirichlet_char",
    "bloch_wigner",
    "hurwitz_zeta",
    "dirichlet_l",
    "l_deriv_minus1",
    "m_A_dilog",
]


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact, shared by the dilogarithm and Euler-Maclaurin)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bernoulli(n):
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    total = Fraction(0)
    for j in range(n):
        total += Fraction(math.comb(n + 1, j)) * _bernoulli(j)
    return -total / (n + 1)


# ---------------------------------------------------------------------------
# Kronecker symbol and characters
# ---------------------------------------------------------------------------

def kronecker_symbol(a, n):
    """Kronecker symbol (a|n) for integers, extending the Jacobi symbol."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@dataclass(frozen=True)
class DirichletChar:
    """Real character chi_d(n) = (d|n) of modulus |d|, tabulated on residues.

    values[r] is chi(r) for r = 0..f-1.
    """

    discriminant: int
    modulus: int
    values: tuple

    def __call__(self, n):
        return self.values[n % self.modulus]

    def is_odd(self):
        return self.values[(self.modulus - 1) % self.modulus] == -1


def dirichlet_char(discriminant):
    """Character attached to a negative discriminant d (e.g. -3, -7, -15):
    the Kronecker symbol (d|.), which for such d is an odd real character of
    modulus |d|.  Raises ValueError unless d < 0 and d is 0 or 1 mod 4."""
    d = int(discriminant)
    if d >= 0:
        raise ValueError("expected a negative discriminant")
    if d % 4 not in (0, 1):
        raise ValueError("discriminant must be 0 or 1 mod 4")
    return DirichletChar(d, -d, tuple(kronecker_symbol(d, r) for r in range(-d)))


# ---------------------------------------------------------------------------
# Bloch-Wigner dilogarithm
# ---------------------------------------------------------------------------

def _bw_from_li2(li2, z):
    return li2.imag + cmath.phase(1.0 - z) * math.log(abs(z))

def _li2_direct(z):
    """Defining series, fast for |z| <= 1/2."""
    total = 0j
    term = z
    n = 1
    while n < 80:
        total += term / (n * n)
        term *= z
        n += 1
        if abs(term) < 1e-19 * n * n:
            break
    return total


def _li2_logseries(z):
    """Li2 through the expansion in w = -log(1-z); converges for |w| < 2 pi,
    which covers the closed unit disk with Re z <= 1/2."""
    w = -cmath.log(1.0 - z)
    total = 0j
    wpow = w                      # w^{n+1}
    fact = 1.0                    # (n+1)!
    for n in range(0, 64):
        fact *= (n + 1)
        b = _bernoulli(n)
        if b != 0:
            term = float(b) * wpow / fact
            total += term
            if abs(term) < 1e-19:
                break
        wpow *= w
    return total


def bloch_wigner(z):
    """D(z) = Im Li2(z) + arg(1-z) log|z|, real-analytic off {0, 1}, zero on
    the real axis.  Any argument is folded into the closed upper unit
    half-disk with Re z <= 1/2 by the antisymmetries D(1/z) = D(1-z) =
    D(conj z) = -D(z); the defining series is used for |z| <= 1/2 and the
    log-transformed series elsewhere in the disk.  Absolute error ~1e-14."""
    z = complex(z)
    if z.imag == 0.0:
        return 0.0
    sign = 1.0
    if z.imag < 0.0:
        z = z.conjugate()
        sign = -sign
    if abs(z) > 1.0:
        z = 1.0 / z
        sign = -sign
        if z.imag < 0.0:
            z = z.conjugate()
            sign = -sign
    if z.real > 0.5:
        z = 1.0 - z
        sign = -sign
        if z.imag < 0.0:
            z = z.conjugate()
            sign = -sign
    if abs(z) <= 0.5:
        li2 = _li2_direct(z)
    else:
        li2 = _li2_logseries(z)
    return sign * _bw_from_li2(li2, z)


# ---------------------------------------------------------------------------
# Hurwitz zeta and Dirichlet L-values
# ---------------------------------------------------------------------------

_N_DIRECT = 25       # terms of the Hurwitz zeta series summed directly
_N_BERNOULLI = 6     # Euler-Maclaurin corrections, through B_12


def hurwitz_zeta(s, a):
    """zeta(s, a) for s > 1, 0 < a <= 1, by Euler-Maclaurin: 25 direct terms,
    tail integral, and Bernoulli corrections through B_12 (absolute error well
    below 1e-13 for s up to ~10)."""
    if s <= 1.0:
        raise ValueError("need s > 1")
    if not 0.0 < a <= 1.0:
        raise ValueError("need 0 < a <= 1")
    total = 0.0
    for n in range(_N_DIRECT):
        total += (n + a) ** (-s)
    x = _N_DIRECT + a
    total += x ** (1.0 - s) / (s - 1.0)
    total += 0.5 * x ** (-s)
    rising = s                      # s (s+1) ... (s+2j-2)
    xpow = x ** (-s - 1.0)
    for j in range(1, _N_BERNOULLI + 1):
        b = float(_bernoulli(2 * j))
        total += b / math.factorial(2 * j) * rising * xpow
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        xpow *= x ** (-2.0)
    return total


def dirichlet_l(chi, s):
    """L(chi, s) = f^{-s} sum_a chi(a) zeta(s, a/f) for s > 1."""
    if s <= 1.0:
        raise ValueError("need s > 1")
    f = chi.modulus
    total = 0.0
    for a in range(1, f + 1):
        v = chi(a)
        if v:
            total += v * hurwitz_zeta(s, a / f)
    return f ** (-s) * total


def l_deriv_minus1(chi):
    """L'(chi, -1) for an odd real character of conductor f, through the
    closed conversion L'(chi,-1) = f^{3/2} L(chi, 2) / (4 pi)."""
    if not chi.is_odd():
        raise ValueError("character must be odd")
    f = chi.modulus
    return f ** 1.5 * dirichlet_l(chi, 2.0) / (4.0 * math.pi)


# ---------------------------------------------------------------------------
# the dilogarithm evaluation of m(A), A = x^2 - x y + y^2 + x + y
# ---------------------------------------------------------------------------

def _t1_point():
    s = math.sqrt(5.0 + 2.0 * math.sqrt(13.0))
    return complex(0.5, -0.5 * s)


def m_A_dilog():
    """m(A) = (1/pi) ( D((t1+1)/3) - 2 D((t1+1)/(z6+1)) - 2 D((t1+1)/(z6^-1+1)) )
    with t1 = (1 - i sqrt(5+2 sqrt 13))/2 and z6 = exp(i pi/3); the divisors
    z6 + 1 and z6^{-1} + 1 are taken in closed form 3/2 +- i sqrt(3)/2."""
    t1 = _t1_point()
    half_rt3 = 0.5 * math.sqrt(3.0)
    w = t1 + 1.0
    val = (bloch_wigner(w / 3.0)
           - 2.0 * bloch_wigner(w / complex(1.5, half_rt3))
           - 2.0 * bloch_wigner(w / complex(1.5, -half_rt3)))
    return val / math.pi
