"""Carlson R_F, period integrals, the involution, and the Landen identity."""

import math
import random

import mpmath
import pytest

from mahler.elliptic import (
    CubicPeriodSpec,
    carlson_rf,
    cubic_roots_pq,
    involution_v,
    landen_check,
    period_integral,
    period_quadrature,
    pq_radicand_coeffs,
    root_interval_quadrature,
)
from mahler.errors import RegimeBoundaryError
from mahler.quad import SingularityHint, integrate


def test_rf_symmetric_point():
    assert abs(carlson_rf(4.0, 4.0, 4.0) - 0.5) < 1e-15


def test_rf_lemniscatic():
    assert abs(carlson_rf(0.0, 1.0, 1.0) - 0.5 * math.pi) < 1e-14


def test_rf_against_quadrature():
    # R_F(0,1,2) = (1/2) int_0^inf dt / sqrt(t (t+1) (t+2)); substituting
    # t = u^2 removes the origin singularity exactly
    r = integrate(lambda u: 1.0 / math.sqrt((u * u + 1.0) * (u * u + 2.0)),
                  0.0, math.inf, SingularityHint.none(), 1e-13)
    assert abs(carlson_rf(0.0, 1.0, 2.0) - r.value) < 1e-12


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


@pytest.mark.parametrize("k", [1.0, 2.0, 5.0, 10.0])
def test_complete_periods_carlson_vs_quadrature(k):
    coeffs = pq_radicand_coeffs(k)
    r_low, _, r_high = cubic_roots_pq(k)
    lo = max(r_low, -12.0)
    carlson = period_integral(r_high - lo, _pq_factors(k, lo), _pq_factors(k, r_high))
    assert abs(carlson - period_quadrature(CubicPeriodSpec(coeffs, lo, r_high))) < 1e-11
    # the period from -infinity up to the lowest root is the same number
    spec_inf = CubicPeriodSpec(coeffs, -math.inf, min(r_low, -12.0))
    assert abs(carlson - period_quadrature(spec_inf)) < 1e-11


@pytest.mark.parametrize("k", [3.5, 5.0])
def test_conjugate_pair_period_vs_quadrature(k):
    # int_0^1 dc / sqrt(c (1-c) (64c^2-48c+k^2)), whose quadratic factor has
    # the conjugate roots (3 +- i sqrt(k^2-9))/8 above k = 3
    c_b = complex(3.0, math.sqrt(k * k - 9.0)) / 8.0
    c_a = c_b.conjugate()
    carlson = period_integral(1.0, (0.0, 1.0, -c_a, -c_b),
                              (1.0, 0.0, 1.0 - c_a, 1.0 - c_b)) / 8.0
    oracle = root_interval_quadrature(lambda c: (64.0 * c - 48.0) * c + k * k,
                                      0.0, 1.0, 1e-14)
    assert abs(carlson - oracle) < 1e-13


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
    coeffs = pq_radicand_coeffs(k)
    r_low, _, _ = cubic_roots_pq(k)
    cut = k * (1.0 - k)
    spec = CubicPeriodSpec(coeffs, r_low, cut)
    val = period_integral(cut - r_low, _pq_factors(k, r_low), _pq_factors(k, cut))

    def f(v):
        rad = spec.radicand(v)
        return 1.0 / math.sqrt(rad) if rad > 0 else 0.0

    oracle = integrate(f, r_low, cut, SingularityHint.inverse_sqrt_left(), 1e-12)
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
    coeffs = pq_radicand_coeffs(k)
    spec = CubicPeriodSpec(coeffs, -math.inf, cubic_roots_pq(k)[0])
    r_low = cubic_roots_pq(k)[0]
    for v in (r_low - 1.0, r_low - 5.0, r_low - 20.0):
        w = involution_v(v, k)
        jac = abs((16.0 * k * k - 144.0) / (v + 12.0) ** 2)
        lhs = jac / math.sqrt(spec.radicand(w))
        rhs = 1.0 / math.sqrt(spec.radicand(v))
        assert abs(lhs - rhs) < 1e-10 * rhs


@pytest.mark.parametrize("k", [1.0, 2.0, 10.0])
def test_landen_identity(k):
    res = landen_check(k)
    assert res.diff < 1e-10


def test_landen_near_degenerate():
    assert landen_check(3.0001).diff < 1e-8


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


def test_root_interval_quadrature_needs_a_root():
    with pytest.raises(ValueError, match="root at one end"):
        root_interval_quadrature(lambda v: 1.0, 0.0, 1.0, 1e-12,
                                 left_root=False, right_root=False)
