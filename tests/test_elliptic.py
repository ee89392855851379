"""Carlson R_F, period integrals, the involution, and the Landen identity."""

import math
import random

import mpmath
import pytest

from mahler.elliptic import (
    carlson_rf,
    cubic_roots_pq,
    involution_v,
    landen_check,
    period_integral,
)
from mahler.errors import RegimeBoundaryError
from mahler.quad import integrate


def test_rf_symmetric_point():
    assert abs(carlson_rf(4.0, 4.0, 4.0) - 0.5) < 1e-15


def test_rf_lemniscatic():
    assert abs(carlson_rf(0.0, 1.0, 1.0) - 0.5 * math.pi) < 1e-14


def test_rf_against_quadrature():
    # R_F(0,1,2) = (1/2) int_0^inf dt / sqrt(t (t+1) (t+2)); substituting
    # t = u^2 removes the origin singularity exactly; mpmath integrates it
    # at 30 digits
    with mpmath.workdps(30):
        ref = mpmath.quad(lambda u: 1 / mpmath.sqrt((u * u + 1) * (u * u + 2)),
                          [0, mpmath.inf])
    assert abs(carlson_rf(0.0, 1.0, 2.0) - float(ref)) < 1e-12


def test_rf_homogeneity():
    rng = random.Random(2718)
    for lam in (0.25, 4.0):
        for _ in range(15):
            x, y, z = (rng.uniform(0.1, 10.0) for _ in range(3))
            lhs = carlson_rf(lam * x, lam * y, lam * z)
            rhs = carlson_rf(x, y, z) / math.sqrt(lam)
            assert abs(lhs - rhs) < 1e-13 * abs(rhs)


def test_rf_rejects_two_zeros():
    with pytest.raises(ValueError):
        carlson_rf(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        carlson_rf(-1.0, 1.0, 1.0)


@pytest.mark.parametrize("x,z", [(0.0, 1.0 + 2.0j), (2.0, -1.0 + 0.5j),
                                 (0.5, 3.0 - 4.0j), (1e-3, 1e3 + 1e3j)])
def test_rf_conjugate_pair_matches_mpmath(x, z):
    ref = float(mpmath.elliprf(x, z, z.conjugate()).real)
    for args in ((x, z, z.conjugate()), (z.conjugate(), x, z)):
        assert abs(carlson_rf(*args) - ref) < 1e-14 * ref


def test_rf_conjugate_pair_refuses_negative_real():
    with pytest.raises(ValueError, match="negative"):
        carlson_rf(-1.0, 1.0 + 1.0j, 1.0 - 1.0j)


def _pq_factors(k, v):
    """Factor values (v+12, v-r_low, r_high-v, 1) of -(v+12)(v^2+k^2v-4k^2)."""
    r_low, _, r_high = cubic_roots_pq(k)
    return (v + 12.0, v - r_low, r_high - v, 1.0)


def _pq_radicand(k, v):
    return -(v + 12.0) * (v * v + k * k * v - 4.0 * k * k)


def _mp_pq_period(k):
    """40-digit int dv / sqrt(-(v+12)(v^2+k^2v-4k^2)) between the two largest
    roots a < b < c: 2 R_F(0, b-a, c-a)."""
    with mpmath.workdps(40):
        k = mpmath.mpf(k)
        s = mpmath.sqrt(k * k + 16)
        a, b, c = sorted([mpmath.mpf(-12), -k * (k + s) / 2, -k * (k - s) / 2])
        return 2 * mpmath.elliprf(0, b - a, c - a)


@pytest.mark.parametrize("k", [1.0, 2.0, 5.0, 10.0])
def test_complete_periods_carlson_vs_mpmath(k):
    r_low, _, r_high = cubic_roots_pq(k)
    lo = max(r_low, -12.0)
    carlson = period_integral(r_high - lo, _pq_factors(k, lo), _pq_factors(k, r_high))
    ref = _mp_pq_period(k)
    assert abs(carlson - ref) < 1e-13 * ref
    # the period from -infinity up to the lowest root is the same number
    with mpmath.workdps(30):
        kk = mpmath.mpf(k)
        lowest = min(-12, -kk * (kk + mpmath.sqrt(kk * kk + 16)) / 2)
        tail = mpmath.quad(lambda v: 1 / mpmath.sqrt(_pq_radicand(kk, v)),
                           [-mpmath.inf, lowest])
    assert abs(carlson - tail) < 1e-13 * ref


@pytest.mark.parametrize("k", [3.5, 5.0])
def test_conjugate_pair_period_vs_mpmath(k):
    # int_0^1 dc / sqrt(c (1-c) (64c^2-48c+k^2)), whose quadratic factor has
    # the conjugate roots (3 +- i sqrt(k^2-9))/8 above k = 3
    c_b = complex(3.0, math.sqrt(k * k - 9.0)) / 8.0
    c_a = c_b.conjugate()
    carlson = period_integral(1.0, (0.0, 1.0, -c_a, -c_b),
                              (1.0, 0.0, 1.0 - c_a, 1.0 - c_b)) / 8.0
    with mpmath.workdps(30):
        ref = mpmath.quad(lambda c: 1 / mpmath.sqrt(c * (1 - c) * ((64 * c - 48) * c + k * k)),
                          [0, 1])
    assert abs(carlson - ref) < 1e-14 * ref


def test_negative_radicand_rejected():
    # +(v+12)(v^2+25v-100) is negative between -12 and the positive root:
    # its factor v - r_high is negative there
    r_low, _, r_high = cubic_roots_pq(5.0)
    lower = (0.0, -12.0 - r_low, -12.0 - r_high, 1.0)
    upper = (r_high + 12.0, r_high - r_low, 0.0, 1.0)
    with pytest.raises(ValueError, match="negative"):
        period_integral(r_high + 12.0, lower, upper)


@pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
def test_period_width_must_be_positive(width):
    with pytest.raises(ValueError, match="width must be positive"):
        period_integral(width, _pq_factors(5.0, -12.0), _pq_factors(5.0, 0.0))


def test_incomplete_piece_matches_plain_quadrature():
    # root endpoint at r_low, ordinary endpoint inside the positive arch;
    # the black-box oracle is sqrt(eps)-limited, hence the loose tolerance
    k = 2.0
    r_low, _, _ = cubic_roots_pq(k)
    cut = k * (1.0 - k)
    val = period_integral(cut - r_low, _pq_factors(k, r_low), _pq_factors(k, cut))

    def f(v):
        rad = _pq_radicand(k, v)
        return 1.0 / math.sqrt(rad) if rad > 0 else 0.0

    oracle = integrate(f, r_low, cut, 1e-12)
    assert abs(val - oracle.value) < 1e-6
    assert abs(val - oracle.value) <= oracle.err_est + 1e-10


def test_involution_is_involutive():
    assert abs(involution_v(involution_v(7.0, 5.0), 5.0) - 7.0) < 1e-11


def test_involution_swaps_quadratic_roots():
    k = 5.0
    r_low, _, r_high = cubic_roots_pq(k)
    assert abs(involution_v(r_low, k) - r_high) < 1e-10
    assert abs(involution_v(r_high, k) - r_low) < 1e-10


def test_involution_pole():
    with pytest.raises(ValueError):
        involution_v(-12.0, 3.0)


def test_involution_fixed_points():
    # fixed points solve v^2 + 24 v + 16 k^2 = 0 (real for k <= 3)
    k = 2.0
    disc = math.sqrt(144.0 - 16.0 * k * k)
    for v in (-12.0 + disc, -12.0 - disc):
        assert abs(involution_v(v, k) - v) < 1e-9


def test_involution_maps_integrand_with_jacobian():
    # change of variables through the involution carries the measure
    # dv / sqrt(C(v)) from one period interval onto the other
    k = 5.0
    r_low = cubic_roots_pq(k)[0]
    for v in (r_low - 1.0, r_low - 5.0, r_low - 20.0):
        w = involution_v(v, k)
        jac = abs((16.0 * k * k - 144.0) / (v + 12.0) ** 2)
        lhs = jac / math.sqrt(_pq_radicand(k, w))
        rhs = 1.0 / math.sqrt(_pq_radicand(k, v))
        assert abs(lhs - rhs) < 1e-10 * rhs


@pytest.mark.parametrize("k", [1.0, 2.0, 10.0])
def test_landen_identity(k):
    res = landen_check(k)
    assert res.diff < 1e-10


def test_landen_near_degenerate():
    assert landen_check(3.0001).diff < 1e-10


@pytest.mark.parametrize("k", [1e-6, 1e-3, 0.5, 2.0, 2.999, 3.001, 3.5, 10.0, 1e4, 1e8])
def test_landen_forms_match_mpmath(k):
    # every form equals the cubic period
    ref = _mp_pq_period(k)
    res = landen_check(k)
    for form in (res.lhs, res.t_form, res.u_form, res.rhs):
        assert abs(form - ref) < 1e-14 * ref
    assert res.diff < 1e-10


# 40-digit mpmath values of 2 R_F(0, b-a, c-a) at the float k, where the
# forms' radicands have nearly double roots
@pytest.mark.parametrize("k,ref", [(3.0 - 1e-6, 4.502950806814378816),
                                   (3.0 + 1e-6, 4.5029497777460864743),
                                   (3.0 - 1e-9, 6.2865250153596168627),
                                   (3.0 + 1e-9, 6.2865250139024905166)])
def test_landen_next_to_k3(k, ref):
    res = landen_check(k)
    for form in (res.lhs, res.t_form, res.u_form, res.rhs):
        assert abs(form - ref) < 1e-14 * ref


@pytest.mark.parametrize("k,limit", [(1e-150, math.pi / math.sqrt(12.0)),
                                     (1e-300, math.pi / math.sqrt(12.0)),
                                     (5e-324, math.pi / math.sqrt(12.0)),
                                     (1e300, math.pi / 1e300), (1.7e308, math.pi / 1.7e308)])
def test_landen_forms_at_extreme_k(k, limit):
    # the period tends to pi/sqrt(12) as k -> 0 (c_a ~ k^2/48 underflows; the
    # piece over (0, c_a) is taken in c/c_a) and is pi/k + O(1/k^3) for huge k
    res = landen_check(k)
    for form in (res.lhs, res.t_form, res.u_form, res.rhs):
        assert abs(form - limit) < 1e-15 * limit
    assert res.diff < 1e-14    # relative, so it means the same at k = 1e300


def test_landen_rejects_k3():
    with pytest.raises(RegimeBoundaryError):
        landen_check(3.0)
    with pytest.raises(ValueError):
        landen_check(-1.0)


@pytest.mark.parametrize("k", [math.nan, math.inf])
def test_landen_rejects_non_finite(k):
    # NaN fails both k <= 0 and |k - 3| < 1e-12; NaN and inf returned a
    # zero chain, which passes
    with pytest.raises(ValueError, match="k must be positive and finite"):
        landen_check(k)
