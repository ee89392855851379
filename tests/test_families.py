"""Family measures, piecewise derivatives, critical roots, branch lemmas."""

import math

import numpy as np
import pytest

from mahler.errors import RegimeBoundaryError
from mahler.families import (
    BOUNDARY_GUARD,
    CriticalRoots,
    FamilyPoint,
    R_THRESHOLD,
    R_TOUCH_GUARD,
    TWO_SQRT2,
    branch_roots,
    critical_roots,
    family_poly,
    p_derivative,
    p_measure,
    q_derivative,
    q_measure,
    r_derivative,
    r_measure,
    regime_tag,
    wt_family_poly,
)
from mahler.lpoly import parse_poly
from mahler.measure import mahler_jensen, roots_in_y


def central_difference(measure, k, h=1e-4):
    return (measure(k + h) - measure(k - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# construction and bookkeeping
# ---------------------------------------------------------------------------

def test_wt_forms_match_hand_reductions():
    assert wt_family_poly("P") == parse_poly(
        "(x^2+1+x^-2)*y^2+k*(x+x^-1)*y+(x^2+1+x^-2)")
    # for Q, the subscript s plays the role of k+2 in the middle coefficient
    assert wt_family_poly("Q") == parse_poly(
        "(x+x^-1+1)*y^2+(x^2+x^-2+k*(x+x^-1)+2*(k-2))*y+(x+x^-1+1)")
    assert wt_family_poly("R") == parse_poly("(x+x^-1)*y^2-k*y-(x^3+x^-3)")


def test_regime_tags():
    assert regime_tag("P", 2.0) == "k<3"
    assert regime_tag("P", 3.0) == "k>=3"
    assert regime_tag("Q", 3.0) == "0<k<=3"
    assert regime_tag("Q", 3.5) == "3<k<4"
    assert regime_tag("Q", 4.0) == "k>=4"
    assert regime_tag("R", 2.0) == "k<2sqrt2"
    assert regime_tag("R", 3.0) == "2sqrt2<=k<16/3sqrt3"
    assert regime_tag("R", 3.1) == "k>=16/3sqrt3"


def test_family_point_guard_band():
    with pytest.raises(RegimeBoundaryError):
        FamilyPoint.from_k("P", 3.0)
    with pytest.raises(RegimeBoundaryError):
        FamilyPoint.from_k("R", R_THRESHOLD)
    fp = FamilyPoint.from_k("P", 3.0 + 10 * BOUNDARY_GUARD)
    assert fp.regime == "k>=3"


def test_critical_roots_at_k3():
    cr = critical_roots(FamilyPoint.from_k("P", 3.0 + 1e-9))
    assert abs(cr.c_minus - 1.0 / 16.0) < 1e-9
    assert abs(cr.c_plus - 1.0) < 1e-8


def _bisect_root(f, lo, hi):
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (f(lo) < 0) != (f(mid) < 0):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_critical_roots_cubic_residual():
    cr = critical_roots(FamilyPoint.from_k("R", 1.0))
    for t in (cr.t1, cr.t2):
        assert abs(8.0 * t ** 3 - 8.0 * t + 1.0) < 1e-13
    assert 0.0 < cr.t1 < 1.0 / math.sqrt(3.0) < cr.t2 < 1.0
    # independent bisection oracle on the cubic
    cubic = lambda t: 8.0 * t ** 3 - 8.0 * t + 1.0
    third = 1.0 / math.sqrt(3.0)
    assert abs(cr.t1 - _bisect_root(cubic, 0.0, third)) < 1e-13
    assert abs(cr.t2 - _bisect_root(cubic, third, 1.0)) < 1e-13


def test_critical_roots_double_root_limit():
    cr = critical_roots(FamilyPoint.from_k("R", R_THRESHOLD - 1e-9))
    third = 1.0 / math.sqrt(3.0)
    assert abs(cr.t1 - third) < 1e-4
    assert abs(cr.t2 - third) < 1e-4
    assert cr.t1 <= third <= cr.t2


def test_critical_roots_absent_above_threshold():
    cr = critical_roots(FamilyPoint.from_k("R", 5.0))
    assert cr.t1 is None and cr.t2 is None
    assert isinstance(cr, CriticalRoots)


def test_c_roots_ordering_property():
    for k in (0.5, 2.0, 2.99, 3.01, 10.0, 1e4):
        cr = critical_roots(FamilyPoint.from_k("P", k) if abs(k - 3) > 1e-6
                            else FamilyPoint.from_k("P", k + 1e-3))
        assert 0.0 < cr.c_minus < cr.c_plus
        assert (cr.c_plus < 1.0) == (k < 3.0)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def test_p_measure_paper_value():
    res = p_measure(3.0, tol=1e-13)
    assert abs(res.value - 0.99905183) < 1e-7
    assert res.method == "closed_form"


def test_p_measure_matches_engine():
    closed = p_measure(4.0, tol=1e-13)
    engine = mahler_jensen(family_poly("P", 4), tol=1e-11)
    assert abs(closed.value - engine.value) <= closed.err_est + engine.err_est + 1e-11


def test_p_measure_large_k_asymptotics():
    res = p_measure(1e6, tol=1e-12)
    assert abs(res.value - math.log(1e6)) < 1e-9


def test_q_measure_equals_p_above_four():
    q = q_measure(6.0, tol=1e-12)
    p = p_measure(4.0, tol=1e-13)
    assert abs(p.value - q.value) <= p.err_est + q.err_est + 1e-10


def test_q_measure_lvalue_combination():
    from mahler.specialfn import dirichlet_char, dirichlet_l
    val = q_measure(-1.0, tol=1e-12).value
    target = (7.0 * math.sqrt(7.0) / (12.0 * math.pi)
              * dirichlet_l(dirichlet_char(-7), 2.0)
              + 5.0 * math.sqrt(15.0) / (8.0 * math.pi)
              * dirichlet_l(dirichlet_char(-15), 2.0))
    assert abs(val - target) < 1e-6


def test_q_measure_differs_from_p_below_four():
    q = q_measure(5.5, tol=1e-11)
    p = p_measure(3.5, tol=1e-12)
    assert abs(p.value - q.value) > 1e-4


def test_r_measure_paper_value():
    res = r_measure(3.0, tol=1e-13)
    assert abs(res.value - 1.01151388) < 1e-7


def test_r_measure_equals_p_at_four():
    r = r_measure(4.0, tol=1e-13)
    p = p_measure(4.0, tol=1e-13)
    assert abs(r.value - p.value) < 1e-12


def test_r_measure_lower_regime_vs_engine():
    closed = r_measure(1.0, tol=1e-13)
    engine = mahler_jensen(family_poly("R", 1), tol=1e-11)
    assert abs(closed.value - engine.value) <= closed.err_est + engine.err_est + 1e-10


def test_measures_even_in_k():
    assert abs(p_measure(-4.0).value - p_measure(4.0).value) < 1e-13
    assert abs(r_measure(-2.0).value - r_measure(2.0).value) < 1e-13


def test_measures_reject_zero():
    with pytest.raises(ValueError):
        p_measure(0.0)
    with pytest.raises(ValueError):
        r_measure(0.0)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2.0, 5.0])
def test_p_derivative_finite_difference(k):
    fd = central_difference(lambda v: p_measure(v, tol=1e-13).value, k)
    assert abs(p_derivative(k) - fd) < 1e-6


@pytest.mark.parametrize("k", [2.0, 3.5, 10.0])
def test_q_derivative_finite_difference(k):
    fd = central_difference(lambda v: q_measure(v + 2.0, tol=1e-12).value, k)
    assert abs(q_derivative(k) - fd) < 1e-6


@pytest.mark.parametrize("k", [1.0, 2.0, 3.0, 5.0, R_THRESHOLD + 0.01])
def test_r_derivative_finite_difference(k):
    fd = central_difference(lambda v: r_measure(v, tol=1e-13).value, k)
    assert abs(r_derivative(k) - fd) < 1e-6


@pytest.mark.parametrize("k", [4.0, 4.01, 5.0, 10.0, 33.0])
def test_derivative_coincidence_p_q(k):
    assert abs(p_derivative(k) - q_derivative(k)) < 1e-10


@pytest.mark.parametrize("k", [4.0, 10.0])
def test_derivative_coincidence_p_r(k):
    # p' reduces through Carlson, r' is direct quartic quadrature: the
    # agreement is the Landen identity again through an independent route
    assert abs(p_derivative(k) - r_derivative(k)) < 1e-10


def test_derivative_boundaries_rejected():
    with pytest.raises(RegimeBoundaryError):
        p_derivative(3.0)
    with pytest.raises(RegimeBoundaryError):
        q_derivative(3.0)
    with pytest.raises(RegimeBoundaryError):
        r_derivative(R_THRESHOLD)
    with pytest.raises(ValueError):
        q_derivative(-2.0)


@pytest.mark.parametrize("k", [3.0 + 1e-6, 3.0 - 1e-7, 3.0 + 1e-9])
def test_q_derivative_next_to_k3_raises_typed_error(k):
    # the radicand's roots -12 and -k(k+sqrt(k^2+16))/2 merge at k = 3; the
    # period evaluation used to fail here with an untyped ValueError
    with pytest.raises(RegimeBoundaryError):
        q_derivative(k)


@pytest.mark.parametrize("k", [TWO_SQRT2, TWO_SQRT2 - 1e-6, TWO_SQRT2 + 1e-6])
def test_r_derivative_next_to_two_sqrt2_raises(k):
    # the endpoint t2^2 = 1/2 meets the root c = 1/2 of 64c^2 - 48c + k^2
    with pytest.raises(RegimeBoundaryError):
        r_derivative(k)


# dr/dk at 2 sqrt 2 -+ 1e-4 from bench/refmath.r_theta(k, derivative=True)
@pytest.mark.parametrize("dk,ref", [(-1e-4, 0.36194178371514896),
                                    (1e-4, 0.3620017941412544)])
def test_r_derivative_outside_two_sqrt2_band(dk, ref):
    assert abs(dk) > R_TOUCH_GUARD
    assert abs(r_derivative(TWO_SQRT2 + dk) - ref) < 1e-12


# ---------------------------------------------------------------------------
# root branches and the magnitude lemmas
# ---------------------------------------------------------------------------

def test_branch_roots_r_vieta():
    theta = math.acos(math.sqrt(0.5))
    y1, y2 = branch_roots("R", 3.0, theta)
    assert abs(abs(y1 * y2) - 1.0) < 1e-12


def test_branch_roots_r_conjugate_pair():
    theta = math.acos(math.sqrt(3.0 / 8.0))
    y1, y2 = branch_roots("R", 2.9, theta)
    target = math.sqrt(abs(3.0 - 4.0 * (3.0 / 8.0)))
    assert abs(abs(y1) - target) < 1e-12
    assert abs(abs(y2) - target) < 1e-12
    assert abs(y1 - y2.conjugate()) < 1e-12


def test_branch_roots_p_vieta():
    # the reduced P fiber degenerates at theta = pi/3 (leading coefficient
    # 4 cos^2 - 1 vanishes); the original fiber does not, and both satisfy
    # |y1 y2| = 1
    fiber = roots_in_y(family_poly("P", 5), complex(math.cos(math.pi / 3),
                                                    math.sin(math.pi / 3)))
    assert abs(abs(fiber.roots[0] * fiber.roots[1]) - 1.0) < 1e-12
    y1, y2 = branch_roots("P", 5.0, 1.0)
    assert abs(abs(y1 * y2) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        branch_roots("P", 5.0, math.pi / 3)


def test_branch_roots_q_vieta():
    y1, y2 = branch_roots("Q", 4.0, 1.1)
    assert abs(abs(y1 * y2) - 1.0) < 1e-12
    assert abs(y1) >= abs(y2)


def _theta_grid(n=1000):
    grid = np.linspace(1e-6, math.pi - 1e-6, n)
    return grid[np.abs(np.cos(grid)) > 1e-6]


def test_lemma_roots_real_above_three():
    for k in (3.0, 5.0):
        for t in _theta_grid():
            y1, y2 = branch_roots("R", k, float(t))
            assert abs(y1.imag) < 1e-10 and abs(y2.imag) < 1e-10


def test_lemma_y1_outside_above_2sqrt2():
    for k in (TWO_SQRT2, 5.0):
        for t in _theta_grid():
            y1, _ = branch_roots("R", k, float(t))
            assert abs(y1) >= 1.0 - 1e-10


def test_lemma_y2_inside_above_threshold():
    for k in (R_THRESHOLD, 5.0):
        for t in _theta_grid():
            _, y2 = branch_roots("R", k, float(t))
            assert abs(y2) <= 1.0 + 1e-10


def test_lemma_unit_modulus_at_cubic_roots():
    for k in (1.0, 2.0, 3.0):
        cr = critical_roots(FamilyPoint.from_k("R", k))
        _, y2 = branch_roots("R", k, math.acos(cr.t1))
        assert abs(abs(y2) - 1.0) < 1e-10
        y1, y2 = branch_roots("R", k, math.acos(cr.t2))
        branch = y1 if k <= TWO_SQRT2 else y2
        assert abs(abs(branch) - 1.0) < 1e-10
