"""Dilogarithm, Hurwitz zeta, characters, L-values, the m(A) evaluation."""

import cmath
import math
import random
import time

import mpmath
import numpy as np
import pytest

from mahler.families import family_poly
from mahler.lpoly import parse_poly
from mahler.measure import mahler_jensen, mahler_torus2
from mahler.specialfn import (
    DirichletChar,
    bloch_wigner,
    dirichlet_char,
    dirichlet_l,
    hurwitz_zeta,
    kronecker_symbol,
    l_deriv_minus1,
    _t1_point,
    m_A_dilog,
)

CATALAN = 0.9159655941772190   # sum of the defining series at z = i


def test_vanishes_on_reals():
    for x in (-5.0, -1.0, -0.3, 0.0, 0.2, 1.0, 7.0):
        assert bloch_wigner(x) == 0.0


def test_catalan_at_i():
    assert abs(bloch_wigner(1j) - CATALAN) < 1e-13


def test_defining_series_agreement_inside_disk():
    # direct partial sums of Im Li2 + arg log at |z| < 1/2
    rng = random.Random(11)
    for _ in range(25):
        z = cmath.rect(rng.uniform(0.05, 0.45), rng.uniform(-3.1, 3.1))
        if abs(z.imag) < 1e-12:
            continue
        li2 = sum(z ** n / (n * n) for n in range(1, 200))
        direct = li2.imag + cmath.phase(1 - z) * math.log(abs(z))
        assert abs(bloch_wigner(z) - direct) < 1e-13


def test_functional_equations():
    rng = random.Random(314159)
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 1e-2 or abs(z - 1) < 1e-2 or abs(z.imag) < 1e-9:
            continue
        d = bloch_wigner(z)
        assert abs(bloch_wigner(z.conjugate()) + d) < 1e-12
        assert abs(bloch_wigner(1.0 / z) + d) < 1e-12
        assert abs(bloch_wigner(1.0 - z) + d) < 1e-12


def test_five_term_relation():
    rng = random.Random(500)
    for _ in range(40):
        x = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        y = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if abs(1 - x * y) < 1e-2:
            continue
        total = (bloch_wigner(x) + bloch_wigner(y)
                 + bloch_wigner((1 - x) / (1 - x * y))
                 + bloch_wigner(1 - x * y)
                 + bloch_wigner((1 - y) / (1 - x * y)))
        assert abs(total) < 1e-11


def test_hurwitz_special_values():
    assert abs(hurwitz_zeta(2.0, 1.0) - math.pi ** 2 / 6.0) < 1e-13
    assert abs(hurwitz_zeta(2.0, 0.5) - math.pi ** 2 / 2.0) < 1e-13


def test_hurwitz_against_direct_sum():
    # one million direct terms plus the integral tail estimate
    n = np.arange(2_000_000, dtype=float)
    direct = float(np.sum((n + 1.0 / 3.0) ** -2.0))
    tail = 1.0 / (2_000_000 + 1.0 / 3.0)
    assert abs(hurwitz_zeta(2.0, 1.0 / 3.0) - (direct + tail)) < 1e-11


def test_hurwitz_domain():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 1.5)


def test_kronecker_multiplicative():
    rng = random.Random(8)
    for _ in range(200):
        d = rng.choice([-3, -7, -15])
        a, b = rng.randint(1, 200), rng.randint(1, 200)
        assert kronecker_symbol(d, a) * kronecker_symbol(d, b) == \
            kronecker_symbol(d, a * b)


def test_character_tables():
    chi3 = dirichlet_char(-3)
    assert chi3.values == (0, 1, -1)
    chi7 = dirichlet_char(-7)
    assert chi7.values == (0, 1, 1, -1, 1, -1, -1)
    chi15 = dirichlet_char(-15)
    assert chi15.modulus == 15
    assert chi15(1) == 1 and chi15(2) == 1 and chi15(7) == -1
    for chi in (chi3, chi7, chi15):
        assert chi.is_odd()
        assert sum(chi.values) == 0


def test_character_rejects_bad_discriminant():
    with pytest.raises(ValueError):
        dirichlet_char(5)
    with pytest.raises(ValueError):
        dirichlet_char(-5)     # -5 = 3 mod 4 is not a discriminant


def test_character_is_odd_real_character_for_every_discriminant():
    # dirichlet_char builds the Kronecker table without checking it; these
    # are the properties that make it an odd real character mod |d|
    for d in range(-200, 0):
        if d % 4 not in (0, 1):
            continue
        chi = dirichlet_char(d)
        f = chi.modulus
        v = np.array(chi.values)
        units = np.array([a for a in range(1, f) if math.gcd(a, f) == 1])
        assert (np.outer(v[units], v[units]) == v[np.outer(units, units) % f]).all(), d
        assert chi.is_odd(), d
        assert sum(chi.values) == 0, d


def test_character_table_is_linear_in_modulus():
    # the table once took time quadratic in |d|, about an hour at this d
    start = time.perf_counter()
    chi = dirichlet_char(-100003)
    assert time.perf_counter() - start < 1.0
    assert chi.modulus == 100003 and len(chi.values) == 100003


def test_dirichlet_l_against_direct_series():
    for d in (-3, -7, -15):
        chi = dirichlet_char(d)
        n = np.arange(1, 1_000_000)
        vals = np.array([chi(int(m)) for m in range(len(chi.values))])
        direct = float(np.sum(vals[n % chi.modulus] / n.astype(float) ** 2))
        assert abs(dirichlet_l(chi, 2.0) - direct) < 1e-10


def test_l_value_chi3():
    assert abs(dirichlet_l(dirichlet_char(-3), 2.0) - 0.7813024128964865) < 1e-12


def test_l_deriv_reproduces_p3():
    val = l_deriv_minus1(dirichlet_char(-15)) / 6.0
    assert abs(val - 0.99905183) < 1e-7


def test_l_deriv_matches_smyth_measure():
    engine = mahler_jensen(parse_poly("x+y-1"), tol=1e-12)
    val = l_deriv_minus1(dirichlet_char(-3))
    assert abs(val - engine.value) <= engine.err_est + 1e-11


# the L'-value error allowed: 8 eps |L'(chi, -1)|, against 1.3e-16 and
# 7.0e-16 measured for chi_-3 and chi_-15 (checked below against mpmath)
L_DERIV_ALLOWANCE = 8.0 * np.finfo(float).eps


@pytest.mark.parametrize("expr, d, divisor, engine, tol", [
    ("1+x+y", -3, 1.0, mahler_jensen, 1e-13),
    ("P_3", -15, 6.0, mahler_jensen, 1e-13),
    ("1+x+y", -3, 1.0, mahler_torus2, 1e-8),
    # not at tol 1e-7 or tighter: the rule exhausts n_max = 2^16 there
    ("P_3", -15, 6.0, mahler_torus2, 1e-6),
], ids=["smyth-jensen", "P_3-jensen", "smyth-torus", "P_3-torus"])
def test_l_value_identities_within_err_est(expr, d, divisor, engine, tol):
    # Smyth's m(1+x+y) = L'(chi_-3, -1) and m(P_3) = L'(chi_-15, -1) / 6
    chi = dirichlet_char(d)
    lval = l_deriv_minus1(chi)
    with mpmath.workdps(40):
        ref = (mpmath.mpf(chi.modulus) ** 1.5 * mpmath.dirichlet(2, [chi(j) for j in range(chi.modulus)])
               / (4 * mpmath.pi))
        assert abs(lval - ref) <= L_DERIV_ALLOWANCE * abs(lval)
    m = lval / divisor
    poly = family_poly("P", 3) if expr == "P_3" else parse_poly(expr)
    res = engine(poly, tol=tol)
    eps = np.finfo(float).eps
    assert abs(res.value - m) <= res.err_est + 4.0 * eps * abs(m) + L_DERIV_ALLOWANCE * abs(m)


def test_l_deriv_combination_consistency():
    # both sides of the Q_-1 combination through the same conversion factor
    chi7, chi15 = dirichlet_char(-7), dirichlet_char(-15)
    lhs = l_deriv_minus1(chi7) / 3.0 + l_deriv_minus1(chi15) / 6.0
    rhs = (7.0 * math.sqrt(7.0) / (12.0 * math.pi) * dirichlet_l(chi7, 2.0)
           + 5.0 * math.sqrt(15.0) / (8.0 * math.pi) * dirichlet_l(chi15, 2.0))
    assert abs(lhs - rhs) < 1e-14


def test_l_deriv_rejects_even_character():
    even = DirichletChar(5, 5, (0, 1, -1, -1, 1))
    with pytest.raises(ValueError):
        l_deriv_minus1(even)


def test_m_a_dilog_value():
    assert abs(m_A_dilog() - 0.68844794) < 1e-8


def test_m_a_dilog_matches_engine():
    engine = mahler_jensen(parse_poly("x^2-x*y+y^2+x+y"), tol=1e-12)
    assert abs(m_A_dilog() - engine.value) <= engine.err_est + 1e-11


def test_r3_decomposition():
    val = l_deriv_minus1(dirichlet_char(-3)) + m_A_dilog()
    assert abs(val - 1.01151388) < 1e-7


def test_x1_and_parametrisation():
    # the algebraic data behind m_A_dilog: the torus point
    # x1 = (3 + i sqrt(5+2 sqrt 13))/(1 + sqrt 13) is a unimodular root of
    # x^4+x^3-x^2+x+1, and x = (t-2)/(t^2-t+1), y = (-t-1)/(t^2-t+1) sends
    # t1 to (x1, 1/x1)
    s = math.sqrt(5.0 + 2.0 * math.sqrt(13.0))
    x1 = complex(3.0, s) / (1.0 + math.sqrt(13.0))
    assert abs((((x1 + 1.0) * x1 - 1.0) * x1 + 1.0) * x1 + 1.0) < 1e-12
    assert abs(abs(x1) - 1.0) < 1e-12
    t1 = _t1_point()
    den = t1 * t1 - t1 + 1.0
    assert abs((t1 - 2.0) / den - x1) < 1e-12
    assert abs((-t1 - 1.0) / den - 1.0 / x1) < 1e-12
    # Res_y(A, A*) = 3 x^2 (x^4+x^3-x^2+x+1) for A = y^2 + (1-x) y + (x^2+x)
    # and A* = x^2 y^2 A(1/x, 1/y) = (1+x) y^2 + (x^2-x) y + x^2, through the
    # 2x2 resultant (af - cd)^2 - (ae - bd)(bf - ce) of a y^2 + b y + c and
    # d y^2 + e y + f
    for x in (0.7 + 0.4j, -1.3 + 0.9j, 2.2 - 0.5j):
        a, b, c = 1.0, 1.0 - x, x * x + x
        d, e, f = 1.0 + x, x * x - x, x * x
        res = (a * f - c * d) ** 2 - (a * e - b * d) * (b * f - c * e)
        target = 3.0 * x * x * ((((x + 1.0) * x - 1.0) * x + 1.0) * x + 1.0)
        assert abs(res - target) < 1e-9 * max(1.0, abs(target))
