"""Family measures, piecewise derivatives, critical roots, branch lemmas."""

import math

import mpmath as mp
import numpy as np
import pytest

from mahler import elliptic, families, quad
from mahler.errors import RegimeBoundaryError
from mahler.families import (
    BOUNDARY_GUARD,
    CriticalRoots,
    R_THRESHOLD,
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
from mahler.measure import (
    _coeff_table,
    _coeffs_grid,
    _solve_fibers,
    _unit_y_coeffs,
    mahler_jensen,
)


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


def test_critical_roots_at_k3():
    cr = critical_roots(3.0 + 1e-9)
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
    cr = critical_roots(1.0)
    for t in (cr.t1, cr.t2):
        assert abs(8.0 * t ** 3 - 8.0 * t + 1.0) < 1e-13
    assert 0.0 < cr.t1 < 1.0 / math.sqrt(3.0) < cr.t2 < 1.0
    # independent bisection oracle on the cubic
    cubic = lambda t: 8.0 * t ** 3 - 8.0 * t + 1.0
    third = 1.0 / math.sqrt(3.0)
    assert abs(cr.t1 - _bisect_root(cubic, 0.0, third)) < 1e-13
    assert abs(cr.t2 - _bisect_root(cubic, third, 1.0)) < 1e-13


def test_critical_roots_double_root_limit():
    cr = critical_roots(R_THRESHOLD - 1e-9)
    third = 1.0 / math.sqrt(3.0)
    assert abs(cr.t1 - third) < 1e-4
    assert abs(cr.t2 - third) < 1e-4
    assert cr.t1 <= third <= cr.t2


def test_critical_roots_absent_above_threshold():
    cr = critical_roots(5.0)
    assert cr.t1 is None and cr.t2 is None
    assert isinstance(cr, CriticalRoots)


def test_c_roots_ordering_property():
    for k in (0.5, 2.0, 2.99, 3.01, 10.0, 1e4):
        cr = critical_roots(k)
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


_BAD_K = "k must be positive and finite"


@pytest.mark.parametrize("call,match", [
    (lambda: p_measure(math.nan), _BAD_K),
    (lambda: p_measure(math.inf), _BAD_K),
    (lambda: r_measure(math.nan), _BAD_K),
    (lambda: r_measure(-math.inf), _BAD_K),
    (lambda: p_derivative(math.nan), _BAD_K),
    (lambda: q_derivative(math.nan), _BAD_K),
    (lambda: q_derivative(math.inf), _BAD_K),
    (lambda: r_derivative(math.inf), _BAD_K),
    (lambda: regime_tag("P", math.nan), _BAD_K),
    (lambda: regime_tag("R", math.inf), _BAD_K),
    (lambda: critical_roots(math.nan), _BAD_K),
    (lambda: regime_tag("X", 1.0), "family must be one of"),
], ids=["p_measure-nan", "p_measure-inf", "r_measure-nan", "r_measure-minf",
        "p_derivative-nan", "q_derivative-nan", "q_derivative-inf",
        "r_derivative-inf", "regime_tag-nan", "regime_tag-inf",
        "critical_roots-nan", "regime_tag-unknown-family"])
def test_bad_family_parameter_is_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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


def _mp_period(lo, hi, others, lo_root, hi_root):
    """int_lo^hi dv / sqrt((v-lo)^lo_root (hi-v)^hi_root prod(g(v) for g in
    others)); v = (lo+hi)/2 + w sin(phi) with (v-lo)(hi-v) = (w cos phi)^2
    absorbs the inverse square roots at the ends."""
    w = (hi - lo) / 2

    def f(phi):
        s = mp.sin(phi)
        a, b = w * (1 + s), w * (1 - s)
        v = lo + a if s < 0 else hi - b
        den = 1
        for g in others:
            den *= g(v)
        return mp.sqrt((1 if lo_root else a) * (1 if hi_root else b) / den)

    return mp.quad(f, [-mp.pi / 2, 0, mp.pi / 2])


def mp_derivative(family, k):
    """dm/dk by mpmath quadrature of the defining period integrals, 40 digits:
    (1/pi) int dv / sqrt(-(v+12)(v-r_low)(v-r_high)) up to r_high, from r_low
    or -12 (P; Q at and above 4) or from k(1-k) (Q below 4), and
    (1/pi) int dc / sqrt(c(1-c)(64c^2-48c+k^2)) over (0, t1^2), (t2^2, 1)."""
    with mp.workdps(40):
        k = mp.mpf(k)
        if family in "PQ":
            s = mp.sqrt(k * k + 16)
            r_low, r_high = -k * (k + s) / 2, 8 * k / (k + s)
            if family == "Q" and k < 4:
                v = _mp_period(k * (1 - k), r_high,
                               [lambda v: v + 12, lambda v: v - r_low], False, True)
            elif k < 3:
                v = _mp_period(r_low, r_high, [lambda v: v + 12], True, True)
            else:
                v = _mp_period(mp.mpf(-12), r_high, [lambda v: v - r_low], True, True)
            return v / mp.pi
        if k < 3:
            d = mp.sqrt(9 - k * k)
            quartic = lambda c: 64 * (c - (3 - d) / 8) * (c - (3 + d) / 8)
        else:
            quartic = lambda c: (64 * c - 48) * c + k * k
        if k > 16 / (3 * mp.sqrt(3)):
            return _mp_period(mp.mpf(0), mp.mpf(1), [quartic], True, True) / mp.pi
        t1, t2 = sorted(mp.re(t) for t in mp.polyroots([8, 0, -8, k], maxsteps=100,
                                                      extraprec=200)
                        if 0 < mp.re(t) < 1)
        return (_mp_period(mp.mpf(0), t1 ** 2, [lambda c: 1 - c, quartic], True, False)
                + _mp_period(t2 ** 2, mp.mpf(1), [lambda c: c, quartic], False, True)) / mp.pi


_DERIVATIVES = {"P": p_derivative, "Q": q_derivative, "R": r_derivative}


def _assert_matches_mpmath(family, k):
    ref = mp_derivative(family, k)
    got = _DERIVATIVES[family](k)
    assert abs(got - ref) <= 1e-12 * abs(ref)


# next to k = 3 two roots of the cubic merge; next to k = 4 the end k(1-k)
# of the dq/dk period meets the root -12; at k = 1e-9 the period is short
@pytest.mark.parametrize("family,k", [
    ("P", 3.0 - 1e-6), ("P", 3.0 - 1e-9), ("P", 3.0 + 1e-9),
    ("Q", 1e-9), ("Q", 4.0 - 1e-9), ("Q", 4.0 - 1e-10), ("Q", 4.0 - 1e-12),
    ("Q", 2.999), ("Q", 3.001)])
def test_derivative_matches_mpmath(family, k):
    _assert_matches_mpmath(family, k)


@pytest.mark.parametrize("k", [3.0 + 1e-6, 3.0 - 1e-7, 3.0 + 1e-9])
def test_q_derivative_next_to_k3_matches_mpmath(k):
    # the radicand's roots -12 and -k(k+sqrt(k^2+16))/2 merge at k = 3, below
    # the interval of the dq/dk period
    _assert_matches_mpmath("Q", k)


@pytest.mark.parametrize("k", [TWO_SQRT2, TWO_SQRT2 - 1e-6, TWO_SQRT2 + 1e-6])
def test_r_derivative_next_to_two_sqrt2_matches_mpmath(k):
    # the endpoint t2^2 = 1/2 meets the root c = 1/2 of 64c^2 - 48c + k^2
    _assert_matches_mpmath("R", k)


# dr/dk at 2 sqrt 2 -+ 1e-4 from bench/refmath.r_theta(k, derivative=True)
@pytest.mark.parametrize("dk,ref", [(-1e-4, 0.36194178371514896),
                                    (1e-4, 0.3620017941412544)])
def test_r_derivative_outside_two_sqrt2_band(dk, ref):
    assert abs(r_derivative(TWO_SQRT2 + dk) - ref) < 1e-12


@pytest.mark.parametrize("k", [1e150, 1e155, 1e200, 1e300])
def test_huge_k(k):
    # m(P_k) and m(R_k) are log k - O(1/k^2); each derivative is 1/k + O(1/k^3)
    for measure in (p_measure, r_measure):
        res = measure(k)
        assert abs(res.value - math.log(k)) <= res.err_est
    for derivative in _DERIVATIVES.values():
        assert abs(k * derivative(k) - 1.0) <= 1e-12


@pytest.mark.parametrize("k", [1e-30, 1e-100, 1e-150, 1e-300, 1e-310, 5e-324])
def test_tiny_k(k):
    # p'(0) = sqrt(3)/6 and q'(0) = r'(0) = sqrt(3)/18; the next terms are
    # O(k) and O(sqrt k).  Below k ~ 1e-154 t1^2 underflows, and at
    # subnormal k 4/k overflows and k times anything loses digits
    for derivative, limit in ((p_derivative, math.sqrt(3.0) / 6.0),
                              (q_derivative, math.sqrt(3.0) / 18.0),
                              (r_derivative, math.sqrt(3.0) / 18.0)):
        assert abs(derivative(k) - limit) <= 1e-15 * limit
    # m(R_k) = m(R_0) + O(k), 30-digit bench/refmath.r_theta at k = 1e-300;
    # next to phi = 0 the root k/(2t) is huge, and no warning may escape
    res = r_measure(k, tol=1e-13)
    assert abs(res.value - 0.388747872041091706851179275291) <= res.err_est


def test_r_measure_below_threshold_is_one_rule_call(monkeypatch):
    # one integrand over one sorted cut list: every piece in one call
    calls = []
    pieces = families._tanh_sinh_pieces

    def recording(F, cuts, tol):
        calls.append(len(cuts) - 1)
        return pieces(F, cuts, tol)

    monkeypatch.setattr(families, "_tanh_sinh_pieces", recording)
    for k in (1e-9, 1.0, TWO_SQRT2 - 1e-6, TWO_SQRT2, 2.9, 3.0, 3.05, R_THRESHOLD - 1e-6):
        calls.clear()
        r_measure(k)
        assert len(calls) == 1 and calls[0] >= 3, (k, calls)


# 50-digit mpmath zeros of 8t^3 - 8t + k and dr/dk at k = 16/(3 sqrt 3) - dk,
# where t1 and t2 merge
@pytest.mark.parametrize("dk,t1,t2,dr", [
    (1e-6, 0.57708160586929348784, 0.57761889084328936891, 0.5016233795656789681036942),
    (1e-9, 0.57734177394771638495, 0.57735876438986847885, 0.5021492871391448887303442),
    (1e-12, 0.57735000055098473247, 0.57735053782822513108, 0.5021659507453767394701657)])
def test_t_roots_and_r_derivative_next_to_threshold(dk, t1, t2, dr):
    k = R_THRESHOLD - dk
    cr = critical_roots(k)
    assert abs(cr.t1 - t1) <= 1e-15 * t1 and abs(cr.t2 - t2) <= 1e-15 * t2
    assert abs(r_derivative(k) - dr) <= 1e-14 * dr


# m(P_k) ~ (sqrt 3 / 6) k; mpmath values of bench/refmath.p_theta
@pytest.mark.parametrize("k,ref", [(1e-6, 2.886751345948e-7),
                                   (1e-9, 2.88675134595e-10)])
def test_p_measure_small_k_within_err_est(k, ref):
    res = p_measure(k)
    assert abs(res.value - ref) <= res.err_est


def _accuracy_grid():
    ks = [1e-9, 1e-6, 0.3, 1.0, 2.0, 2.5, 3.5, 10.0, 1e4, 1e8]
    for b in (TWO_SQRT2, 3.0, 4.0, R_THRESHOLD):
        for e in (1e-3, 1e-6, 1e-9, 1e-12):
            ks += [b - e, b + e]
    return ks


def test_derivatives_use_no_quadrature_or_root_finder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a derivative called a quadrature rule or root finder")

    for owner, name in ((quad, "integrate"), (quad, "_tanh_sinh_pieces"),
                        (families, "_tanh_sinh_pieces"), (np, "roots")):
        monkeypatch.setattr(owner, name, refuse)
    for k in _accuracy_grid():
        for family, derivative in _DERIVATIVES.items():
            boundary = R_THRESHOLD if family == "R" else 3.0
            if abs(k - boundary) > BOUNDARY_GUARD:
                assert math.isfinite(derivative(k))
        assert elliptic.landen_check(k).diff < 1e-10


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
    cx = _unit_y_coeffs(family_poly("P", 5))[0]
    y1, y2 = _solve_fibers(_coeffs_grid(_coeff_table(cx), np.array([math.pi / 3])))[1][0]
    assert abs(abs(y1 * y2) - 1.0) < 1e-12
    y1, y2 = branch_roots("P", 5.0, 1.0)
    assert abs(abs(y1 * y2) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        branch_roots("P", 5.0, math.pi / 3)


def test_branch_roots_q_vieta():
    y1, y2 = branch_roots("Q", 4.0, 1.1)
    assert abs(abs(y1 * y2) - 1.0) < 1e-12
    assert abs(y1) >= abs(y2)


@pytest.mark.parametrize("family,k", [("P", 5.0), ("Q", 4.0), ("Q", -3.0), ("R", 2.9),
                                      ("R", R_THRESHOLD)])
def test_branch_roots_over_an_array_match_float_calls(family, k):
    # the array path gives the roots of the float calls bit for bit
    thetas = _theta_grid()
    thetas = thetas[np.abs(np.cos(thetas) ** 2 - 0.25) > 1e-6]
    y1, y2 = branch_roots(family, k, thetas)
    assert y1.shape == y2.shape == thetas.shape and y1.dtype == complex
    for t, a, b in zip(thetas.tolist(), y1.tolist(), y2.tolist()):
        s1, s2 = branch_roots(family, k, t)
        assert type(s1) is complex and type(s2) is complex
        assert [v.hex() for v in (a.real, a.imag, b.real, b.imag)] == \
            [v.hex() for v in (s1.real, s1.imag, s2.real, s2.imag)]


def test_branch_roots_array_refuses_any_bad_angle():
    with pytest.raises(ValueError, match="theta"):
        branch_roots("R", 3.0, np.array([1.0, math.pi]))
    with pytest.raises(ValueError, match="degenerate"):
        branch_roots("R", 3.0, np.array([1.0, math.pi / 2]))


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
        cr = critical_roots(k)
        _, y2 = branch_roots("R", k, math.acos(cr.t1))
        assert abs(abs(y2) - 1.0) < 1e-10
        y1, y2 = branch_roots("R", k, math.acos(cr.t2))
        branch = y1 if k <= TWO_SQRT2 else y2
        assert abs(abs(branch) - 1.0) < 1e-10
