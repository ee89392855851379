"""The generic Jensen engine and its 2D oracle."""

import cmath
import json
import math
import random
import time
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from mahler import measure, rootfind
from mahler.lpoly import LaurentPoly2, is_tempered, monomial_transform, parse_poly
from mahler.errors import QuadratureError
from mahler.measure import (
    _BAND,
    _MIRROR_REL,
    _POLISH_STEPS,
    _coeff_table,
    _coeffs_grid,
    _count_outside,
    _crossing_angles,
    _fiber_logplus,
    _newton_step,
    _polish_cells,
    _section_cells,
    _solve_1var,
    _solve_fibers,
    _torus_row_means,
    _torus_rows,
    _torus_terms,
    _unit_y_coeffs,
    MeasureResult,
    mahler_1var,
    mahler_jensen,
    mahler_torus2,
)
from mahler.families import family_poly, p_measure, q_measure, r_measure, wt_family_poly
from mahler.quad import _EPS, integrate_torus2
from mahler.rootfind import batch_roots, poly_roots
from test_quad import level_nodes
from torus_rows import row_means, torus2_reference, unmasked_row_means, unmasked_rows

SMYTH = 0.3230659472194505     # m(x+y-1) = L'(chi_-3, -1)
P4_MEASURE = 1.364073509190009716052902     # m(P_4), 25 digits

# generated integer polynomials (x-degree 2) with cubic and quartic fibers
CUBIC_QUARTIC_FIBERS = [
    "-2*y^2+1*x*y-2*x*y^2+2*x*y^3-1*x^2-2*x^2*y",
    "2+1*x+2*x*y-2*x^2*y+3*x^2*y^2+2*x^2*y^3",
    "-3+1*y+1*y^2-2*x*y-3*x*y^3+1*x^2+1*x^2*y+3*x^2*y^2+3*x^2*y^3",
    "3+3*y-3*y^2-3*x*y^3+1*x^2*y^3",
    "2+1*y+1*y^4-3*x+1*x*y+2*x*y^3-1*x*y^4-3*x^2-2*x^2*y+2*x^2*y^4",
    "-1+1*y-3*x-2*x*y-3*x*y^2+2*x*y^3+3*x*y^4-3*x^2",
    "-1+3*y+3*y^2-2*y^3-2*y^4-2*x-3*x*y^2+2*x^2+2*x^2*y^3",
    "-2*y^2-3*y^3+2*x*y+3*x*y^2-1*x*y^3+1*x*y^4+1*x^2+1*x^2*y-2*x^2*y^2",
]
A_POLY = "x^2-x*y+y^2+x+y"
# |a_0| = |a_m| on the whole circle, so no fiber's outside count can be
# read off its end coefficients
ALL_FLAGGED = "3-3*y^2+3*x+1*x*y^2-3*x*y^3-2*x^2*y-3*x^2*y^3"


SCAN_ENDS = (1e-9, math.pi - 1e-9)


def _y_coeff_polys(P):
    """The coefficient Laurent polynomials of y^0..y^d of P, unscaled, as
    the kernels below are tested on them (the engines take them from
    ``_unit_y_coeffs``, divided by a power of 2)."""
    ycof = P.y_coefficients()
    return [ycof.get(j, {}) for j in range(min(ycof), max(ycof) + 1)]


def _ext_table(coeff_table):
    """The coefficient table with the t-derivatives of its columns appended,
    as ``_polish_cells`` builds it: that of c_m w^m is i m c_m w^m."""
    mags, table = coeff_table
    return mags, np.concatenate([table, 1j * mags[:, None, None] * table], axis=2)


def _scan_grid(n_scan=1024):
    lo, hi = SCAN_ENDS
    return lo + (hi - lo) * np.arange(n_scan + 1) / n_scan


def _fiber_coeffs(P, thetas):
    """Coefficient rows of the fibers of P at x = e^{i thetas}, as the
    engine evaluates them."""
    return _coeffs_grid(_coeff_table(_y_coeff_polys(P)), np.asarray(thetas, dtype=float))


def test_wt_p_vieta_at_right_angle():
    # fiber of the reduced P-form at theta = pi/2: the root product has
    # modulus 1 (the two coefficients c0 and c2 coincide)
    y1, y2 = _solve_fibers(_fiber_coeffs(wt_family_poly("P", 3), [0.5 * math.pi]))[1][0]
    assert abs(abs(y1 * y2) - 1.0) < 1e-12


def test_wt_r_vieta_value():
    # y1 y2 = 3 - 4 cos^2(theta); at cos(theta) -> 0 the fiber degenerates
    # and the product tends to 3
    wt = wt_family_poly("R", 3)
    theta = 0.5 * math.pi - 1e-7
    y1, y2 = _solve_fibers(_fiber_coeffs(wt, [theta]))[1][0]
    c = math.cos(theta) ** 2
    assert abs(y1 * y2 - (3.0 - 4.0 * c)) < 1e-5


def test_vieta_battery_on_grid():
    rng = random.Random(5)
    thetas = np.array([rng.uniform(1e-3, math.pi - 1e-3) for _ in range(200)])
    for poly in (wt_family_poly("P", 5), wt_family_poly("Q", 7)):
        roots = _solve_fibers(_fiber_coeffs(poly, thetas))[1]
        assert np.abs(np.abs(roots[:, 0] * roots[:, 1]) - 1.0).max() < 1e-10
    roots = _solve_fibers(_fiber_coeffs(wt_family_poly("R", 2.5), thetas))[1]
    c = np.cos(thetas) ** 2
    assert np.abs(np.abs(roots[:, 0] * roots[:, 1]) - np.abs(3.0 - 4.0 * c)).max() < 1e-10


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_one_variable_measure_rejects_non_finite(c):
    with pytest.raises(QuadratureError, match="not finite"):
        mahler_1var({0: c, 1: 1})


@pytest.mark.parametrize("run", [
    lambda: p_measure(5.0), lambda: q_measure(6), lambda: r_measure(2.0),
    lambda: mahler_jensen(parse_poly("1+x+y")), lambda: mahler_torus2(parse_poly("1+x+y"))])
def test_results_are_python_floats(run):
    # p_measure's err_est was an np.float64, from the quadrature's epsilon floor
    res = run()
    assert type(res.value) is float
    assert type(res.err_est) is float


def test_one_variable_zero_polynomial():
    for coeffs in ({}, {0: 0}, {-1: 0, 2: 0.0}):
        with pytest.raises(ValueError, match="zero polynomial"):
            mahler_1var(coeffs)


def test_lead_coefficient_is_solved_once(monkeypatch):
    # the lead x^2 + x + 1 of P_3 is Phi_3: split off exactly, it gives
    # m(a_d) = 0 and the cut at fl(2 pi / 3), correctly rounded
    edges = []

    def recording(F, cuts, tol):
        edges.append(list(cuts))
        return pieces(F, cuts, tol)

    pieces = measure._tanh_sinh_pieces
    monkeypatch.setattr(measure, "_tanh_sinh_pieces", recording)
    res = mahler_jensen(family_poly("P", 3))
    with mpmath.workdps(40):
        cut = float(2 * mpmath.pi / 3)
    assert edges == [[0.0, cut, 2.636232143305636, math.pi]]
    assert res.value == 0.9990518315218821


LOG_10_400 = 921.034037197618273607196581874     # 400 log 10, 30 digits


# the torus oracle's err_est covers the rounding of its value; the others
# are allowed 4 eps |m| beyond theirs
@pytest.mark.parametrize("run, rounding", [
    (lambda: mahler_jensen(parse_poly("10^400*y+1")), 4.0 * _EPS * LOG_10_400),
    (lambda: mahler_jensen(parse_poly("10^400*y+x+3")), 4.0 * _EPS * LOG_10_400),
    (lambda: mahler_torus2(parse_poly("10^400*y+1")), 0.0),
    (lambda: MeasureResult(mahler_1var({0: 10**400, 1: 1}), 0.0, "jensen_1d"),
     4.0 * _EPS * LOG_10_400),
    (lambda: MeasureResult(mahler_1var({-3: 1, 5: -(10**400)}), 0.0, "jensen_1d"),
     4.0 * _EPS * LOG_10_400),
], ids=["jensen", "jensen-fiber", "torus", "1var", "1var-laurent"])
def test_integer_coefficient_beyond_float_range(run, rounding):
    # raised OverflowError("int too large to convert to float"): the check
    # and the scaling converted every int to a float first
    res = run()
    assert abs(res.value - LOG_10_400) <= res.err_est + rounding


@pytest.mark.parametrize("n", [1, 100, 500, 1000, 2000, 10**5, 10**8])
@pytest.mark.parametrize("c, value", [(2, math.log(2.0)), (-1, 0.0), (-3, math.log(3.0))],
                         ids=["plus-2", "minus-1", "minus-3"])
def test_lacunary_one_variable_polynomial(n, c, value):
    # x^n + 2 was solved as a dense polynomial of degree n: off by 5.0e-14
    # to 2.3e-12 at n = 100 to 2000 within a claimed 1e-15, taking up to
    # 36 s, and x^(10^8) + 1 ran out of memory.  m(f(x^g)) = m(f), exactly
    expr = f"x^{n}+{c}" if c > 0 else f"x^{n}{c}"
    start = time.perf_counter()
    res = mahler_jensen(parse_poly(expr))
    assert abs(res.value - value) <= res.err_est
    assert mahler_1var({-n: c, 0: 1}) == mahler_1var({0: c, n: 1}) == res.value
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("n", [20, 100, 300])
def test_one_variable_err_est_bounds_a_dense_lacunary_product(n):
    # (x^n + 2)(x + 3) has exponent gcd 1, so it is solved at degree n + 1:
    # off by 3.1e-15, 3.8e-13 and 8.4e-13, where err_est read 1e-15
    res = mahler_jensen(parse_poly(f"x^{n + 1}+3*x^{n}+2*x+6"))
    assert abs(res.value - math.log(6.0)) <= res.err_est <= 1e-8


def test_lacunary_exponents_divide_by_their_gcd():
    # 2 + x^g + 3 x^(2g) measures as 3 x^2 + x + 2, whose roots lie inside
    assert mahler_1var({5: 2, 5 + 10**8: 1, 5 + 2 * 10**8: 3}) == mahler_1var({0: 2, 1: 1, 2: 3})
    assert abs(mahler_1var({0: 2, 1: 1, 2: 3}) - math.log(3.0)) <= 4.0 * _EPS


@pytest.mark.parametrize("n", [300, 500, 1000])
def test_lacunary_lead_reduced_by_its_gcd(n):
    # the lead x^n + 3 was solved as a dense polynomial of degree n: off by
    # 2.7e-13 within a claimed 1e-13 at n = 300, taking 0.3 s
    start = time.perf_counter()
    res = mahler_jensen(parse_poly(f"(x^{n}+3)*y+1"))
    assert abs(res.value - math.log(3.0)) <= res.err_est
    assert time.perf_counter() - start < 0.1


def test_lead_with_too_many_circle_zeros_is_refused():
    # the lead x^g + 1 is solved as x + 1, and each of its g/2 zeros in
    # (0, pi) becomes a cut: g = 200 still runs; g = 10^8 ran without bound
    res = mahler_jensen(parse_poly("(x^200+1)*y+1"))
    assert abs(res.value - SMYTH) <= res.err_est
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="more than 512 zeros"):
        mahler_jensen(parse_poly("(x^100000000+1)*y+1"))
    assert time.perf_counter() - start < 1.0


def test_lacunary_lead_cofactor_zero_angles_map_back():
    # 5 x^4 - 6 x^2 + 5: no cyclotomic factor, its reduced roots lie on the
    # circle at +-acos(3/5), so its zeros in (0, pi) are half of that and pi
    # less it
    angles = sorted(_solve_1var({0: 5, 2: -6, 4: 5})[1])
    half = 0.5 * math.acos(0.6)
    assert np.allclose(angles, [half, math.pi - half], rtol=0.0, atol=1e-14)


def test_one_variable_measures():
    assert mahler_1var({0: 2}) == math.log(2.0)
    # cyclotomic products give exactly zero
    assert mahler_1var({0: 1, 1: 1, 2: 1}) == 0.0
    assert mahler_1var({-1: 1, 0: -1, 1: 1}) == 0.0       # Laurent shift
    assert abs(mahler_1var({0: -1, 1: 2}) - math.log(2.0)) < 1e-15


def test_one_variable_measure_with_a_near_vanishing_lead():
    # (x - 1)(x - 2) + 1e-200 x^3: log 1e-200 + log 2 + log 1e200 = log 2;
    # scaled to its huge root, the row lost the roots 1 and 2 (read log 3)
    assert abs(mahler_1var({0: 2, 1: -3, 2: 1, 3: 1e-200}) - math.log(2.0)) < 1e-13


def test_lead_cofactor_with_a_near_vanishing_lead():
    # the lead x^3 + 10^200 (x - 1)(x - 2) has the roots 1, 2 and -10^200
    # to within 1e-190, so its measure is log(10^200) + log 2 (mpmath, 80
    # digits); off by log(3/2) when its cofactor lost the roots 1 and 2
    res = mahler_jensen(parse_poly("(x^3+10^200*(x^2-3*x+2))*y+1"))
    assert abs(res.value - 461.21016577936908) <= res.err_est


def _expand(*factors):
    """Ascending coefficients of a product of ascending coefficient lists,
    as a dict for ``mahler_1var``."""
    c = [1]
    for f in factors:
        c = np.convolve(c, f).tolist()
    return dict(enumerate(c))


@pytest.mark.parametrize("coeffs, value", [
    (_expand([1, 1, 1], [1, 1, 1], [1, 1, 1]), 0.0),               # read 1.4e-5
    (_expand([-1, 1], [-1, 1], [-1, 1], [1, 1], [1, 1]), 0.0),     # read 4.5e-6
    (_expand([1, 1, 1, 1, 1], [1, 1, 1, 1, 1]), 0.0),              # read 2.3e-8
    ({-3: 0.5, -2: 1.0, -1: 1.5, 0: 1.0, 1: 0.5}, -math.log(2.0)),  # read 1.0e-8 off
], ids=["phi3-cubed", "phi1-cubed-phi2-squared", "phi5-squared", "dyadic-floats"])
def test_repeated_cyclotomic_factors_measure_exactly(coeffs, value):
    # the cyclotomic factors are divided out exactly before any root solve;
    # the last polynomial is (x^2+x+1)^2 / (2 x^3), in floats
    assert mahler_1var(coeffs) == value


@pytest.mark.parametrize("coeffs, turns, measure_of", [
    (_expand([1, 1, 1, 1, 1], [1, 1, 1], [1, 1, 1], [1, 3]), [(1, 5), (2, 5), (1, 3)],
     math.log(3.0)),
    # lacunary: the zeros of the polynomial reduced by the exponents' gcd,
    # on the whole circle and +-1 included, map back
    ({0: 1, 3: 1, 6: 1}, [(1, 9), (2, 9), (4, 9)], 0.0),      # Phi_3(x^3)
    ({0: -1, 4: 1}, [(1, 4)], 0.0),                            # Phi_1(x^4)
    ({2: 1, 5: 1}, [(1, 6)], 0.0),                             # x^2 Phi_2(x^3)
    ({0: 1, 10: 1}, [(1, 20), (3, 20), (5, 20), (7, 20), (9, 20)], 0.0),
], ids=["Phi_5-Phi_3^2-(3x+1)", "Phi_9", "x^4-1", "x^5+x^2", "x^10+1"])
def test_cyclotomic_lead_gives_correctly_rounded_cuts(coeffs, turns, measure_of):
    # the angles 2 pi j / n of the stripped factors come out correctly
    # rounded, and the cofactor adds its measure
    value, angles, _ = _solve_1var(coeffs)
    with mpmath.workdps(40):
        exact = sorted(float(2 * mpmath.pi * j / n) for j, n in turns)
    assert sorted(angles) == exact
    assert value == measure_of


@pytest.mark.parametrize("expr", ["(x^2+x+1)^2*(y+2)", "(x^2+x+1)^3*(y+2)"])
def test_repeated_cyclotomic_lead_within_err_est(expr):
    # read 1.0e-8 and 1.4e-5 off log 2, with err_est 1.3e-13, when the
    # lead's repeated roots came from the Aberth-Ehrlich iteration
    res = mahler_jensen(parse_poly(expr))
    assert abs(res.value - math.log(2.0)) <= res.err_est


def test_jensen_refuses_complex_coefficients():
    # the fold of the t-integral onto (0, pi) needs real coefficients: this
    # polynomial read 1.00332 with err_est 4.2e-12, against m = log 2
    P = LaurentPoly2({(0, 1): 1, (1, 0): 1, (0, 0): 2j})
    with pytest.raises(ValueError, match="real coefficients"):
        mahler_jensen(P)
    assert abs(mahler_torus2(P).value - math.log(2.0)) < 1e-5


def test_no_package_path_reaches_aberth_or_np_roots(monkeypatch):
    # every root solve goes through batch_roots; the scalar Aberth-Ehrlich
    # iteration and numpy's companion solver are test references only
    def refuse(*_args, **_kwargs):
        raise AssertionError("a package path called a reference root finder")

    monkeypatch.setattr(rootfind, "aberth_roots", refuse)
    monkeypatch.setattr(np, "roots", refuse)
    polys = [family_poly("P", 3), family_poly("R", 3), family_poly("Q", 6),
             parse_poly("(x^3-x-1)*y+1")]
    for P in polys:
        assert math.isfinite(mahler_jensen(P).value)
    assert mahler_1var({0: 1, 1: -2, 2: 3, 3: 1, 4: -1, 5: 2}) > 0.0
    assert is_tempered(family_poly("R")) and is_tempered(family_poly("R", 4))


def test_monomial_and_constant_measures():
    assert abs(mahler_jensen(parse_poly("2*x*y")).value - math.log(2.0)) < 1e-14
    assert abs(mahler_jensen(parse_poly("7")).value - math.log(7.0)) < 1e-14
    assert mahler_jensen(parse_poly("x^2+x+1")).value == 0.0


def test_smyth_value():
    res = mahler_jensen(parse_poly("x+y-1"), tol=1e-12)
    assert abs(res.value - SMYTH) < 2e-11
    assert res.method == "jensen_1d"


def test_p3_value():
    res = mahler_jensen(family_poly("P", 3), tol=1e-12)
    assert abs(res.value - 0.99905183) < 1e-7


def test_r3_value():
    res = mahler_jensen(family_poly("R", 3), tol=1e-11)
    assert abs(res.value - 1.01151388) < 1e-7


def test_measure_rejects_zero_and_symbolic():
    with pytest.raises(ValueError):
        mahler_jensen(LaurentPoly2({}))
    with pytest.raises(ValueError):
        mahler_jensen(family_poly("P"))


def test_k_symmetry():
    # m(P_k) = m(P_-k) and m(R_k) = m(R_-k)
    for fam, k in (("P", 2.5), ("R", 2.5)):
        a = mahler_jensen(family_poly(fam, k), tol=1e-11)
        b = mahler_jensen(family_poly(fam, -k), tol=1e-11)
        assert abs(a.value - b.value) <= a.err_est + b.err_est + 1e-10


def _random_int_poly(rng):
    terms = {}
    for _ in range(rng.randint(2, 5)):
        terms[(rng.randint(-2, 2), rng.randint(-2, 2))] = rng.randint(-3, 3)
    p = LaurentPoly2(terms)
    return p if not p.is_zero() else LaurentPoly2({(1, 1): 2})


_UNIMODULAR = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)),
               ((1, -1), (0, 1)), ((2, 1), (1, 1))]


def test_measure_invariant_under_unimodular_transform():
    rng = random.Random(20160128)
    checked = 0
    while checked < 20:
        p = _random_int_poly(rng)
        m = _UNIMODULAR[rng.randrange(len(_UNIMODULAR))]
        q = monomial_transform(p, m, shift=(rng.randint(-2, 2), rng.randint(-2, 2)))
        a = mahler_jensen(p, tol=1e-9)
        b = mahler_jensen(q, tol=1e-9)
        assert abs(a.value - b.value) <= a.err_est + b.err_est + 5e-9, str(p)
        checked += 1


def test_measure_invariant_under_power_substitution():
    p = parse_poly("x+y-1")
    q = monomial_transform(p, ((3, 0), (0, 1)))     # x -> x^3
    a = mahler_jensen(p, tol=1e-11)
    b = mahler_jensen(q, tol=1e-11)
    assert abs(a.value - b.value) < 1e-10


def test_torus2_constant_and_method():
    res = mahler_torus2(parse_poly("7"))
    assert abs(res.value - math.log(7.0)) < 1e-12
    assert res.method == "torus_2d"


def test_torus2_p3_paper_value():
    res = mahler_torus2(family_poly("P", 3), tol=1e-6, n_max=4096)
    assert abs(res.value - 0.99905183) < 1e-5


def test_torus2_smyth_cross_method():
    res2d = mahler_torus2(parse_poly("x+y-1"), tol=1e-6, n_max=4096)
    assert abs(res2d.value - SMYTH) < 1e-6


@pytest.mark.parametrize("fam,k", [("Q", 6.0), ("P", 4.0), ("R", 3.0)])
def test_torus2_agrees_with_jensen(fam, k):
    poly = family_poly(fam, k)
    res2d = mahler_torus2(poly, tol=1e-5, n_max=2048)
    res1d = mahler_jensen(poly, tol=1e-11)
    assert abs(res2d.value - res1d.value) <= res2d.err_est + res1d.err_est


def _eval_grid_log_abs(P):
    """The torus integrand through the per-monomial reference evaluator, as
    row means."""
    return row_means(lambda tx, ty: np.log(np.maximum(np.abs(P.eval_grid(tx, ty)), 1e-300)))


TORUS_INTEGRAND_POLYS = [family_poly("P", 3), family_poly("R", 3),
                         parse_poly(A_POLY), parse_poly("x^-2*y^-1+3*x*y^2-y+2")]


def _torus_grid(n):
    return (np.arange(n) + 0.5857864376269049) * (2.0 * math.pi / n)


@pytest.mark.parametrize("poly", TORUS_INTEGRAND_POLYS, ids=str)
def test_torus_integrand_matches_eval_grid(poly):
    t = _torus_grid(64)
    new = _torus_row_means(_y_coeff_polys(poly))([t])[0]
    ref = _eval_grid_log_abs(poly)([t])[0]
    assert new.shape == (64,)
    assert np.max(np.abs(new - ref)) < 1e-12


@pytest.mark.parametrize("poly", [family_poly("P", 3), parse_poly(A_POLY)], ids=str)
def test_torus2_matches_eval_grid_integrand(poly):
    # tol is out of reach, so both run every grid up to n = 1024, whose
    # 2^20 points go through integrate_torus2 in several row blocks
    res = mahler_torus2(poly, tol=1e-15, n_max=1024)
    ref = integrate_torus2(_eval_grid_log_abs(poly), tol=1e-15, n_max=1024)
    assert abs(res.value - ref.value) < 1e-13
    assert abs(res.err_est - ref.err_est) < 1e-13


def test_torus2_rejects_n_max_below_start():
    # a NaN n_max would run no grid, and an infinite one with a tol out of
    # reach would double the grid until memory runs out
    for n_max in (8, math.nan, math.inf):
        with pytest.raises(ValueError):
            mahler_torus2(parse_poly("1+x+y"), tol=1e-300, n_max=n_max)


def _per_point_log_abs(P):
    """The torus integrand point by point, as row means: the product of
    the fiber coefficients with the powers of y, the reference for the
    closed-form row sums."""
    coeff_table = _coeff_table(_y_coeff_polys(P))
    ypowers = np.arange(coeff_table[1].shape[-1])

    def f(tx, ty):
        vals = np.abs(_coeffs_grid(coeff_table, np.ravel(tx))
                      @ np.exp(1j * np.outer(ypowers, np.ravel(ty))))
        return np.log(np.maximum(vals, 1e-300))

    return row_means(f)


def _generated_fiber(degree, seed=5):
    """An integer polynomial with fibers of the given degree and negative
    exponents in x and y."""
    rng = random.Random(seed + degree)
    terms = {(i, j): rng.choice([-3, -2, -1, 1, 2, 3])
             for i in range(-2, 3) for j in range(-1, degree) if rng.random() < 0.5}
    terms[(rng.randint(-2, 2), -1)] = rng.choice([-1, 2])
    terms[(rng.randint(-2, 2), degree - 1)] = rng.choice([1, -3])
    return LaurentPoly2(terms)


_FLIP_THETA = _torus_grid(64)[5]


def _flip_row_poly():
    """A quadratic fiber whose lead (x - e^{i a})(x - e^{-i a}) vanishes at
    the x-angle a of row 5 of the 64-point grid."""
    return LaurentPoly2({(2, 2): 1.0, (1, 2): -2.0 * math.cos(_FLIP_THETA), (0, 2): 1.0,
                         (1, 1): 1.0, (0, 1): 2.0, (0, 0): 1.0, (1, 0): -3.0})


ROW_SUM_POLYS = (TORUS_INTEGRAND_POLYS + [parse_poly("1+x+y"), _flip_row_poly()]
                 + [_generated_fiber(d) for d in (1, 2, 3, 4)])


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512, 1024])
@pytest.mark.parametrize("poly", ROW_SUM_POLYS, ids=str)
def test_torus_row_sums_match_per_point(poly, n):
    # the level's sum within 1e-13; a single row mean loses more where the
    # row passes near the curve P = 0, in either evaluation (P_3 at n = 256:
    # 1.0e-12 against the product, which is itself 6e-13 from eval_grid)
    t = _torus_grid(n)
    got = _torus_row_means(_y_coeff_polys(poly))([t])[0]
    ref = _per_point_log_abs(poly)([t])[0]
    assert got.shape == (n,)
    assert abs(got.sum() - ref.sum()) / n < 1e-13
    assert np.max(np.abs(got - ref)) < 1e-11


def test_torus_row_of_a_vanishing_lead_matches_per_point():
    # the row of the vanishing lead, whose fiber has a huge root
    t = _torus_grid(64)
    poly = _flip_row_poly()
    coeffs = _coeffs_grid(_coeff_table(_y_coeff_polys(poly)), t)
    small_lead = np.abs(coeffs[:, -1]) < 1e-8 * np.abs(coeffs).max(axis=1)
    assert np.flatnonzero(small_lead).tolist() == [5]
    row_means = _torus_row_means(_y_coeff_polys(poly))([t])[0]
    assert abs(row_means[5] - _per_point_log_abs(poly)([t])[0][5]) < 1e-13


def test_torus_grid_point_on_the_curve_is_finite():
    # x - y vanishes on the diagonal tx = ty of every grid: the term of the
    # root r = e^{i tx} is the log of a rounding error, or the clamp where
    # r^n = w exactly, so the means stay finite, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (16, 1024):
            t = _torus_grid(n)
            assert np.all(np.isfinite(_torus_row_means(_y_coeff_polys(parse_poly("x-y")))([t])[0]))
        res = mahler_torus2(parse_poly("x-y"), n_max=1024)
    assert math.isfinite(res.value)


def test_torus2_q6_meets_tol():
    # a level costs O(n), so the default n_max (2^16) lets the oracle reach
    # tol 1e-5 at the singular zero (x, y) = (-1, 1) of Q_6
    poly = family_poly("Q", 6)
    res = mahler_torus2(poly, tol=1e-5)
    assert res.err_est <= 1e-5
    assert abs(res.value - mahler_jensen(poly).value) <= res.err_est


@pytest.mark.parametrize("poly", ROW_SUM_POLYS, ids=str)
def test_torus_row_means_batched_and_chunked_match_one_grid(poly, monkeypatch):
    # the 16368 rows of the grids 16 to 8192 in one call, solved 4096 at a
    # time across the grid boundaries, give each grid the row means of a
    # call of its own solved in one piece, bit for bit
    g = _torus_row_means(_y_coeff_polys(poly))
    grids = [_torus_grid(16 << k) for k in range(10)]
    together = g(grids)
    monkeypatch.setattr(measure, "_TORUS_ROWS", 1 << 20)
    for t, rows in zip(grids, together, strict=True):
        assert np.array_equal(rows, g([t])[0])


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [16 << k for k in range(9)])
@pytest.mark.parametrize("poly", [family_poly("P", 3), parse_poly(A_POLY), parse_poly("1+x+y"),
                                  family_poly("R", 3)], ids=["P_3", "A", "1+x+y", "R_3"])
def test_torus_row_means_match_every_term_evaluated(poly, n):
    # the terms of the roots with u < 2^-56 are skipped, which is what the
    # formula rounds them to: every row mean is the same, bit for bit
    cx = _unit_y_coeffs(poly)[0]
    t = _torus_grid(n)
    assert _same_bits(_torus_row_means(cx)([t])[0], unmasked_row_means(cx, t))


def _crafted_rows(special, seed=3):
    """Quadratic fibers with roots near the circle, so that some terms are
    evaluated, and the rows ``special`` among them, each taken at the grid
    sizes 16, 1024 and 65536."""
    rng = np.random.default_rng(seed)
    roots = (1.0 + rng.uniform(-0.05, 0.05, (12, 2))) * np.exp(1j * rng.uniform(-4, 4, (12, 2)))
    near = np.array([[r0 * r1, -(r0 + r1), 1.0] for r0, r1 in roots])
    rows = np.concatenate([near, np.asarray(special, dtype=complex)])
    rows = np.tile(rows, (3, 1))
    n = np.repeat([16.0, 1024.0, 65536.0], len(rows) // 3)
    return rows, n, n * 0.3


@pytest.mark.parametrize("special", [
    [[0.0, 1.0, 2.0], [0.0, 0.0, 1.0]],                  # zero roots
    [[1.0, 1e200, 1.0], [1e-200, 1.0, 1e-250]],          # |r| >= 1e200 and tiny roots
    [[1.0, 2.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.0]],  # vanishing leads
    [[1j, 2.0 - 1j, 0.5 + 0.5j], [1.0 + 1e-3j, -2.0, 1.0 - 1e-3j]],   # complex
], ids=["zero root", "huge root", "vanishing lead", "complex"])
def test_torus_rows_of_crafted_fibers_match_every_term_evaluated(special):
    rows, n, arg_w = _crafted_rows(special)
    with np.errstate(divide="ignore"):    # the zero fiber: log 0
        assert _same_bits(_torus_rows(rows, n, arg_w), unmasked_rows(rows, n, arg_w))


def test_torus_row_of_a_nan_root_is_not_finite():
    rows, n, arg_w = _crafted_rows([[1.0, np.nan, 1.0]])
    means = _torus_rows(rows, n, arg_w)
    nan_rows = np.isnan(rows).any(axis=1)
    assert not np.isfinite(means[nan_rows]).any()
    assert np.isfinite(means[~nan_rows]).all()


@pytest.mark.parametrize("m", range(1, 7))
def test_solve_fibers_is_batch_roots_when_no_lead_vanishes(m):
    rng = np.random.default_rng(m)
    rows = rng.standard_normal((200, m + 1)) + 1j * rng.standard_normal((200, m + 1))
    rows[::9, 0] = 0.0      # zero roots take batch_roots' own split
    lead, roots = _solve_fibers(rows)
    assert _same_bits(lead, rows[:, -1])
    assert _same_bits(roots, batch_roots(rows))
    table = _coeff_table(_unit_y_coeffs(family_poly("P", 3))[0])
    grid = _coeffs_grid(table, _torus_grid(4096))
    assert _same_bits(_solve_fibers(grid)[1], batch_roots(grid))


# the torus-oracle cases of the benchmark, inputs that stop at n = 64 and
# n = 128, and 2+x*y+y^2 at tol 1e-8, which runs every grid to 2^16
TORUS_RULE_CASES = [
    (parse_poly("1+x+y"), 1e-6), (parse_poly(A_POLY), 1e-5),
    (family_poly("P", 3), 1e-5), (family_poly("R", 3), 1e-5),
    (parse_poly("3+x+y"), 1e-6), (parse_poly("5+x^2*y+y^3+x"), 1e-10),
    (parse_poly("2+x*y+y^2"), 1e-8),
]


def _torus2_with_rule(poly, tol, rule, monkeypatch):
    """``mahler_torus2`` through the given 2D rule, and the rule's result."""
    results = []

    def recording(g, tol, n_max):
        results.append(rule(g, tol=tol, n_max=n_max))
        return results[-1]

    monkeypatch.setattr(measure, "integrate_torus2", recording)
    return mahler_torus2(poly, tol=tol), results[0]


@pytest.mark.parametrize("poly, tol", TORUS_RULE_CASES, ids=str)
def test_torus2_batched_grids_match_one_grid_per_call(poly, tol, monkeypatch):
    res, quad = _torus2_with_rule(poly, tol, integrate_torus2, monkeypatch)
    ref, ref_quad = _torus2_with_rule(poly, tol, torus2_reference, monkeypatch)
    assert res.value.hex() == ref.value.hex()
    assert res.err_est.hex() == ref.err_est.hex()
    # evals counts the grids of the first call past the stopping grid
    batch = sum((16 << k) ** 2 for k in range(5))
    assert quad.evals == max(ref_quad.evals, batch)


@pytest.mark.parametrize("poly, tol, solves, value", [
    (family_poly("P", 3), 1e-5, 5, 0.9990497110341514),
    (parse_poly(A_POLY), 1e-5, 4, 0.6884482126038521),
    (parse_poly("1+x+y"), 1e-6, 3, 0.3230659387985871),
    (family_poly("R", 3), 1e-5, 2, 1.0115178776043179),
], ids=["P_3", "A", "1+x+y", "R_3"])
def test_torus2_solve_fibers_calls_pinned(poly, tol, solves, value, monkeypatch):
    # one call for the grids 16 to 256 and one per larger grid: P_3 runs to
    # n = 4096, A to 2048, 1+x+y to 1024 and R_3 to 512 at the benchmark's
    # tols; one call per grid would make 9, 8, 7 and 6
    calls = []

    def counting(coeffs):
        calls.append(len(coeffs))
        return _solve_fibers(coeffs)

    monkeypatch.setattr(measure, "_solve_fibers", counting)
    assert mahler_torus2(poly, tol=tol).value == value
    assert len(calls) == solves
    assert calls[0] == 496


@pytest.mark.parametrize("poly", [
    family_poly("R", 3),
    parse_poly("2+y+y^4-3*x+x*y+2*x*y^3-x*y^4-3*x^2-2*x^2*y+2*x^2*y^4"),
], ids=["R_3", "quartic"])
def test_torus2_memory_peak_bounded_on_the_largest_grid(poly):
    # with a tol out of reach every grid to 2^16 runs; its rows are solved
    # 4096 at a time, so the peak stays a few grid-length arrays (about
    # 4.7 and 5.7 MB, against 29 and 45 MB solving the grid in one piece)
    tracemalloc.start()
    try:
        mahler_torus2(poly, tol=1e-300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300])
@pytest.mark.parametrize("engine", [mahler_jensen, mahler_torus2])
@pytest.mark.parametrize("expr", [A_POLY, "(x^2+x+1)*y^2+3*x*(x+1)*y+x*(x^2+x+1)"])
def test_quadratic_fibers_with_huge_and_tiny_coefficients(expr, engine, scale):
    # every coefficient of A or P_3 times 1e+-200 or 1e+-300: the squares of
    # the quadratic fibers, and of P_3's quadratic lead, would overflow or
    # underflow unscaled, and a lead near 1e-300 is no vanishing fiber
    poly = parse_poly(expr)
    scaled = LaurentPoly2({e: c * scale for e, c in poly.terms.items()})
    res, base = engine(scaled), engine(poly)
    assert abs(res.value - math.log(scale) - base.value) < 1e-12
    assert abs(res.err_est - base.err_est) < 1e-12


# y-degree 0 takes the one-variable path of mahler_jensen
@pytest.mark.parametrize("y_degree", [1, 0])
@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("engine", [mahler_jensen, mahler_torus2])
def test_non_finite_coefficient_raises(engine, c, y_degree):
    poly = LaurentPoly2({(0, 0): c, (1, 0): 1, (2, y_degree): 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="not finite"):
            engine(poly)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
@pytest.mark.parametrize("engine", [mahler_jensen, mahler_torus2])
def test_tol_must_be_positive(engine, tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        engine(parse_poly("1+x+y"), tol=tol)


@pytest.mark.parametrize("expr", CUBIC_QUARTIC_FIBERS)
def test_measure_invariant_under_swap_cubic_quartic_fibers(expr):
    # the swapped polynomial has fibers of degree <= 2 (quadratic closed
    # forms), the original cubic and quartic ones (Cardano, Ferrari): two
    # independent paths
    p = parse_poly(expr)
    swapped = monomial_transform(p, ((0, 1), (1, 0)))
    assert abs(mahler_jensen(p).value - mahler_jensen(swapped).value) < 1e-12


def _coeffs_at(cx, x):
    """Per-point reference for ``_coeffs_grid``: the fiber coefficients at
    one x as monomial sums."""
    return [sum(c * x ** i for i, c in cm.items()) if cm else 0j for cm in cx]


def _scalar_moduli(cx, theta):
    """Per-point reference for the fiber root moduli: one solve by the
    scalar Aberth-Ehrlich iteration, independent of ``batch_roots``."""
    coeffs = _coeffs_at(cx, cmath.exp(1j * theta))
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        return []
    if abs(coeffs[-1]) < 1e-8 * scale:
        return [1.0 / abs(z) for z in rootfind.aberth_roots(coeffs[::-1]) if abs(z) > 1e-300]
    return [abs(z) for z in rootfind.aberth_roots(coeffs)]


def _scalar_count_outside(cx, theta):
    """Per-point reference for the batched count."""
    return sum(1 for r in _scalar_moduli(cx, theta) if r > 1.0 + _BAND)


def _narrow_arc_poly(eps=0.0):
    # y - 1.0001 ((1+x^3)/2)^200 - eps x^2: 201 x-exponents, more than one
    # block, and with eps their gcd is 1
    terms = {(0, 1): 1.0, (2, 0): -eps}
    for j in range(201):
        terms[(3 * j, 0)] = -1.0001 * math.comb(200, j) / 2.0 ** 200
    return LaurentPoly2(terms)


@pytest.mark.parametrize("poly", [family_poly("P", 3)]
                         + [family_poly("R", k) for k in (1, 3, 5)]
                         + [parse_poly(A_POLY), _narrow_arc_poly()]
                         + [parse_poly(e) for e in CUBIC_QUARTIC_FIBERS + [ALL_FLAGGED]])
def test_batched_outside_count_matches_scalar(poly):
    cx = _y_coeff_polys(poly)
    grid = _scan_grid()
    batched = _count_outside(_coeff_table(cx), grid)
    assert batched.tolist() == [_scalar_count_outside(cx, t) for t in grid]


# lacunary and negative exponents, the negative side shorter, longer or
# absent, and complex coefficients (which the torus oracle takes)
HORNER_COEFFS = {
    "narrow-arc": _y_coeff_polys(_narrow_arc_poly()),
    "lacunary": [{0: 0.5, 7: -0.25, 30: 0.125, 31: 0.5}, {2: 1.0, 100: -0.75}],
    "negative": [{-5: 0.5, -2: -1.0, 3: 0.25, 11: 0.5j}, {0: 1.0}],
    "negative-longer": [{-40: 0.25, -3: 0.5}, {1: -1.0, 2: 0.5 - 0.5j}],
    "all-negative": [{-9: 0.5, -4: 1.0}, {-1: -0.25}],
}


@pytest.mark.parametrize("name", sorted(HORNER_COEFFS))
def test_coefficients_match_pointwise(name):
    cx = HORNER_COEFFS[name]
    grid = _scan_grid()
    table = _coeff_table(cx)
    rows = _coeffs_grid(table, grid)
    pointwise = np.array([_coeffs_at(cx, cmath.exp(1j * t)) for t in grid])
    assert rows.flags.f_contiguous
    assert np.abs(rows - pointwise).max() < 1e-13
    # i m times the w-form table on both sides is d/dt of each coefficient,
    # the x^{-m} side included, whose entries are stored conjugated
    ext = _coeffs_grid(_ext_table(table), grid)
    d_pointwise = np.array([[sum(1j * i * c * cmath.exp(1j * i * t) for i, c in cm.items())
                             for cm in cx] for t in grid])
    assert np.array_equal(ext[:, :len(cx)], rows)
    scale = max(abs(i) for cm in cx for i in cm)
    assert np.abs(ext[:, len(cx):] - d_pointwise).max() < 1e-13 * scale


# 30-digit mpmath values for _narrow_arc_poly(1e-5), where |y| > 1 on two
# arcs in (0, pi): (0, 6.985e-4) and the 1.3e-3 wide arc about 2 pi/3.  Each
# is (1/pi) times the integral of log|y| over its arc, whose ends findroot
# takes from those of the closed form at eps = 0, (2/3) acos(1.0001^(-1/200))
# from 0 and from 2 pi/3.
NARROW_ARC_AT_0 = 1.630406132704181649227447e-8
NARROW_ARC_AT_2PI_3 = 2.621291603054531732141466e-8


def test_narrow_arc_probe_that_no_lattice_reduction_widens():
    # a known miss, owned by ROADMAP item 1: the arc about 2 pi/3 lies inside
    # one scan cell, so it gets no cuts and the rule never sees it, and
    # err_est does not either.  The arc at 0 touches the edge of the scan
    # and is found.  Once the arc about 2 pi/3 is found, the value must
    # lie within err_est of the sum of both arcs.
    res = mahler_jensen(_narrow_arc_poly(1e-5), tol=1e-10)
    assert abs(res.value - NARROW_ARC_AT_0) <= res.err_est
    assert abs(res.value - (NARROW_ARC_AT_0 + NARROW_ARC_AT_2PI_3)) > 1e4 * res.err_est


def test_narrow_arc_scan_memory_bounded():
    # Horner's rule keeps a few arrays of the grid's length; the (angles x
    # exponents) outer product would take 3.3 MB (201 exponents)
    table = _coeff_table(_y_coeff_polys(_narrow_arc_poly()))
    grid = _scan_grid()
    _count_outside(table, grid)
    tracemalloc.start()
    try:
        _count_outside(table, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e5


def _wt_p3_quadrature_nodes(monkeypatch):
    nodes = []

    def recording(table, thetas):
        nodes.append(np.array(thetas))
        return _fiber_logplus(table, thetas)

    monkeypatch.setattr(measure, "_fiber_logplus", recording)
    mahler_jensen(wt_family_poly("P", 3))
    monkeypatch.undo()
    return np.concatenate(nodes)


@pytest.mark.parametrize("cx", [
    [{1: 1.0, -1: 1.0}, {0: 1.0}],
    [{7: 0.5, -7: 0.5}, {3: 1.0, -1: 2.0}],      # an asymmetric column beside it
    [{k: 1.0 / abs(k) for k in range(-6, 7) if k}, {0: -0.5, 2: 1.0, -2: 1.0}],
    _unit_y_coeffs(wt_family_poly("P", 3))[0],
    _unit_y_coeffs(wt_family_poly("Q", 6))[0],
], ids=["x+1/x", "x^7+x^-7", "sum", "wtP3", "wtQ6"])
def test_self_reciprocal_coefficients_exactly_real(cx, monkeypatch):
    # a real column with c_k = c_{-k} takes the same Horner sum on both
    # sides, so its value is real to the last bit; summed term by term it
    # kept imaginary parts of 3e-17 on wt Q_6
    thetas = np.concatenate([_scan_grid(), _wt_p3_quadrature_nodes(monkeypatch)])
    rows = _coeffs_grid(_coeff_table(cx), thetas)
    mirrored = [j for j, cm in enumerate(cx)
                if all(c.imag == 0 and cm.get(-i) == c for i, c in cm.items())]
    assert mirrored
    assert (rows[:, mirrored].imag == 0.0).all()


@pytest.mark.parametrize("tol", [1e-10, 1e-11, 1e-12, 1e-13])
@pytest.mark.parametrize("form", ["raw", "reduced"])
def test_q6_within_err_est(form, tol):
    # m(Q_6) = m(P_4) (Theorem 1); its node on the torus at (x, y) = (-1, 1)
    # once left it 1.5e-13 to 4.5e-12 off, beyond err_est, at these tols
    poly = family_poly("Q", 6) if form == "raw" else wt_family_poly("Q", 6)
    res = mahler_jensen(poly, tol=tol)
    assert abs(res.value - P4_MEASURE) <= res.err_est


def test_near_degenerate_quartic_fiber_within_err_est():
    # the leading coefficient 3 - 3x vanishes at x = 1; the reversed-
    # polynomial fibers near t = 0 once left an error of 1.6e-11 against
    # an err_est of 8.7e-12 (reference: mpmath, 25 digits)
    p = parse_poly("1+3*y+1*y^3+3*y^4-1*x+2*x*y-3*x*y^4-1*x^2*y+3*x^2*y^2-1*x^2*y^3")
    res = mahler_jensen(p)
    assert abs(res.value - 1.719225772673731618113995) <= res.err_est


def _scalar_fiber_roots(coeffs):
    if len(coeffs) > 3 and coeffs[-1] != 0:
        return batch_roots([coeffs])[0].tolist()
    return poly_roots(coeffs)


def _scalar_fiber_logplus(coeffs):
    """The per-node fiber integrand the Jensen engine used before its array
    kernel, as reference; it takes the coefficient row instead of
    evaluating it, so that both sides see the same fiber."""
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        return 0.0

    if len(coeffs) == 3 and max(abs(c.imag) for c in coeffs) <= 1e-13 * scale:
        c0, c1, c2 = coeffs[0].real, coeffs[1].real, coeffs[2].real
        if abs(c2) > 1e-12 * scale:
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc < 0.0:
                ratio = abs(c0 / c2)
                return math.log(ratio) if ratio > 1.0 else 0.0
            sq = math.sqrt(disc)
            q = -0.5 * (c1 + math.copysign(sq, c1)) if c1 != 0 else 0.5 * sq
            roots = []
            if q != 0.0:
                roots = [q / c2, c0 / q]
            total = 0.0
            for r in roots:
                ar = abs(r)
                if ar > 1.0:
                    total += math.log(ar)
            return total

    if abs(coeffs[-1]) >= 1e-8 * scale:
        roots = _scalar_fiber_roots(coeffs)
        total = 0.0
        for r in roots:
            ar = abs(r)
            if ar > 1.0:
                total += math.log(ar)
        return total

    rev = list(reversed(coeffs))
    roots = _scalar_fiber_roots(rev)
    total = 0.0
    for z in roots:
        az = abs(z)
        if az < 1e-300:
            continue
        if az < 1.0:
            total += -math.log(az)
    return total


def _jensen_edges(cx):
    table = _coeff_table(cx)
    cuts = sorted(set(_solve_1var(cx[-1])[1]) | set(_crossing_angles(table)))
    return [0.0] + [t for t in cuts if 1e-12 < t < math.pi - 1e-12] + [math.pi]


def _nodes_next_to_cuts(edges, levels=4):
    """Abscissae of the tanh-sinh nodes of the first levels of every piece;
    they run from the middle of a piece down to its ends."""
    xs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        for level in range(levels):
            for _, dist, _ in level_nodes(level):
                xs += [x for x in (lo + dist * half, hi - dist * half) if lo < x < hi]
    return np.array(xs)


# wt P_3 has real quadratic fibers, some with a complex root pair;
# the fourth has the lead (1-x)^2, whose fibers near t = 0 take the
# reversed-polynomial branch; the last has quartic fibers
KERNEL_POLYS = {
    "wtP3": wt_family_poly("P", 3),
    "R3": family_poly("R", 3),
    "A": parse_poly(A_POLY),
    "reversed": parse_poly("-1+y-2*x*y+2*x^2+x^2*y"),
    "quartic": parse_poly(CUBIC_QUARTIC_FIBERS[4]),
}


@pytest.mark.parametrize("name", sorted(KERNEL_POLYS))
def test_fiber_kernel_matches_scalar_reference(name):
    cx = _y_coeff_polys(KERNEL_POLYS[name])
    table = _coeff_table(cx)
    xs = _nodes_next_to_cuts(_jensen_edges(cx))
    rows = _coeffs_grid(table, xs)
    ref = np.array([_scalar_fiber_logplus(list(r)) for r in rows])
    assert np.abs(_fiber_logplus(table, xs) - ref).max() < 1e-13
    scale = np.abs(rows).max(axis=1)
    if name == "reversed":
        assert (np.abs(rows[:, -1]) < 1e-8 * scale).any()
    if name == "wtP3":
        c0, c1, c2 = rows.real.T
        assert (c1 * c1 - 4.0 * c2 * c0 < 0.0).any()


def _scan_cells(table, n_scan=1024):
    grid = _scan_grid(n_scan)
    counts = _count_outside(table, grid)
    cells = np.flatnonzero(counts[:-1] != counts[1:])
    return grid[cells], grid[cells + 1], counts[cells], counts[cells + 1]


@pytest.mark.parametrize("poly", [family_poly("P", 3), family_poly("R", 3),
                                  parse_poly(A_POLY), _narrow_arc_poly()]
                         + [parse_poly(e) for e in CUBIC_QUARTIC_FIBERS], ids=str)
def test_sectioned_cuts_near_polished_cuts(poly):
    # the section rule, run on every scan cell the torus polish settles
    # with an interior cut, lands where |y| = 1 + 1e-9, within 2.8e-8 of
    # that cut (20 cells in all; three of these polynomials have none)
    table = _coeff_table(_y_coeff_polys(poly))
    a, b, na, nb = _scan_cells(table)
    cuts, _ = _polish_cells(table, a, b, na, nb, *SCAN_ENDS)
    polished = ~np.isnan(cuts)
    sectioned = _section_cells(table, a[polished], b[polished], na[polished])[0]
    assert (np.abs(sectioned - cuts[polished]) <= 2.8e-8).all()


def _step_brackets(rng):
    """Disjoint brackets with a count that steps once inside each, at a
    random point, a point of the bracket's grid of 32 parts or next to an
    end; some brackets are narrower than 1e-12 from the start, some lie
    near 4e4, where floats are 7e-12 apart, and some are so wide (4e4 to
    3e6) that their steps lie where floats are further apart than 1e-12 or
    2^60 cannot narrow them to 1e-12.  In about half the brackets the count
    steps a second time, on in the same direction, between the first step
    and the right end.  Returns the brackets, the counts at their left
    ends, the steps (2, n), the second NaN where there is none, the counts
    at their right ends and the count."""
    starts = np.sort(rng.uniform(0.0, math.pi, 4))
    if rng.random() < 0.2:
        starts = starts + 4e4
    widths = rng.choice([1e-14, 1e-9, 3e-3, math.pi / 1024], size=4) * rng.uniform(0.5, 1.0, 4)
    a, b = starts, starts + np.minimum(widths, np.diff(starts, append=starts[-1] + 1.0))
    if rng.random() < 0.2:
        b[-1] = a[-1] + rng.choice([4e4, 1e6, 3e6])
    step = a + (b - a) * rng.choice([rng.random(), 0.5, 0.25, 0.75, 1e-9, 1.0 - 1e-9])
    na = rng.integers(0, 4, 4)
    nb = na + rng.choice([-1, 1, 2], size=4)
    twice = rng.random(4) < 0.5
    second = np.where(twice, step + (b - step) * rng.choice([rng.random(), 0.5, 1e-9, 1.0 - 1e-9]),
                      np.nan)
    nc = np.where(twice, nb + np.sign(nb - na), nb)

    def count(thetas):
        i = np.searchsorted(b, thetas)      # the bracket of each angle
        return np.where(thetas < step[i], na[i], np.where(thetas < second[i], nb[i], nc[i]))

    return a, b, na, np.array([step, second]), nc, count


def test_section_rule_on_step_counts(monkeypatch):
    # each result lies within 1e-12 of its step, but for brackets that
    # reach beyond 1e4, where floats near the step may lie further apart
    # than 1e-12: those stop after the 12th round, as close as the floats
    # there and 2^60 narrowings allow.  Where the count at the right end
    # of a result's bracket is not the bracket's right count, the rest is
    # sectioned again, as in ``_crossing_angles``, and that result lies at
    # the second step; after that every right count is reached
    rng = np.random.default_rng(2024)
    stopped = twice = 0
    for _ in range(300):
        a, b, na, steps, nc, count = _step_brackets(rng)
        calls = []

        def sectioned_count(table, thetas):
            calls.append(len(thetas))
            return count(thetas)

        monkeypatch.setattr(measure, "_count_outside", sectioned_count)
        rows, left, n_left = np.arange(len(a)), a, na
        for step in steps:
            calls.clear()
            got, end, n_end = _section_cells(None, left, b[rows], n_left)
            off = np.abs(got - step[rows])
            short = off > 1e-12
            assert not (short & (b[rows] < 1e4)).any()
            if short.any():
                stopped += 1
                assert len(calls) == 12
                bound = np.maximum(np.spacing(step[rows]), (b[rows] - left) / 2.0 ** 60)
                assert (off[short] <= bound[short]).all()
            assert len(calls) <= 12
            again = n_end != nc[rows]
            rows, left, n_left = rows[again], end[again], n_end[again]
            twice += len(rows)
        assert not len(rows)
    assert stopped >= 10 and twice >= 100


# (y - c1 (1+x)/2)(y - c2 (1+x)/2): both roots cross the circle in one scan
# cell (100, 500, 700), at t1 = a + 9e-4 and t1 + 1.2e-3, so its count steps
# by two; m = m(y - c1 (1+x)/2) + m(y - c2 (1+x)/2), the sum of two 30-digit
# mpmath integrals of log(c cos(t/2)) over (0, 2 acos(1/c)), over pi
@pytest.mark.parametrize("c1,c2,ref", [
    (1.0119524651687755, 1.012046812319017, 0.00156200089122547561556257128031),
    (1.3894868547379757, 1.3902918456138014, 0.219392662145997469145442461039),
    (2.09906042787728, 2.1013877356268513, 0.712187746364652068023456590619),
])
@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_scan_cell_whose_count_steps_by_two_gets_two_cuts(c1, c2, ref, tol):
    # with one cut the middle cell was off by 3.35e-11 within an err_est of
    # 1.88e-11 at tol 1e-10
    s, p = 0.5 * (c1 + c2), 0.25 * c1 * c2
    poly = LaurentPoly2({(0, 2): 1.0, (0, 1): -s, (1, 1): -s,
                         (0, 0): p, (1, 0): 2.0 * p, (2, 0): p})
    assert len(_crossing_angles(_coeff_table(_y_coeff_polys(poly)))) == 2
    res = mahler_jensen(poly, tol=tol)
    err = abs(res.value - ref)
    assert err <= res.err_est and err <= 1e-12


def test_section_count_calls_pinned(monkeypatch):
    # each scan cell sectioned alone: at most ceil(log_32(pi / 1024 / 1e-12))
    # = 7 count calls of 33 angles, and no one-row cubic or quartic solve
    # (one count call per halving made 32 one-row calls for a single
    # bracket)
    counts, shapes = [], []

    def counting_outside(table, thetas):
        counts.append(len(thetas))
        return _count_outside(table, thetas)

    def solving(coeffs):
        shapes.append(coeffs.shape)
        return batch_roots(coeffs)

    cells = []
    for expr in CUBIC_QUARTIC_FIBERS:
        table = _coeff_table(_y_coeff_polys(parse_poly(expr)))
        a, b, na, _ = _scan_cells(table)
        cells += [(table, a[i:i + 1], b[i:i + 1], na[i:i + 1]) for i in range(len(a))]
    assert len(cells) >= 10      # 19 scan cells
    monkeypatch.setattr(measure, "_count_outside", counting_outside)
    monkeypatch.setattr(measure, "batch_roots", solving)
    for cell in cells:
        counts.clear()
        _section_cells(*cell)
        assert 1 <= len(counts) <= 7
        assert set(counts) == {33}
    assert not [s for s in shapes if s[0] == 1 and s[1] >= 4]


def test_fold_free_newton_step_is_the_full_step_at_w_zero():
    rng = np.random.default_rng(7)
    F, Ft, Fp, Ftp, Fpp = (rng.normal(size=64) + 1j * rng.normal(size=64) for _ in range(5))
    Ft[:4] = 0.0     # singular Jacobians too
    with np.errstate(divide="ignore", invalid="ignore"):
        free = _newton_step(F, Ft, Fp)
        full = _newton_step(F, Ft, Fp, Ftp, Fpp, w=np.zeros(64))
    for u, v in zip(free, full):
        assert np.array_equal(u, v, equal_nan=True)
    # and the fold-free terms are the full terms without the second derivatives
    ext = _ext_table(_coeff_table(_y_coeff_polys(family_poly("R", 3))))
    t, phi = rng.uniform(0.0, math.pi, 16), rng.uniform(-math.pi, math.pi, 16)
    terms = _torus_terms(ext, t, phi, True)
    assert len(terms) == 5
    for u, v in zip(_torus_terms(ext, t, phi, False), terms[:3], strict=True):
        assert np.array_equal(u, v)


def _mp_torus_point(cx, t0, phi0, fold):
    """The torus point of P = 0 next to (t0, phi0), by mpmath.findroot at 30
    digits: Re, Im F = 0 in real (t, phi), or for a fold F = F_phi = 0 in
    complex (t, phi), whose solution then has vanishing imaginary parts."""
    terms = [(i, j, mpmath.mpf(c)) for j, cm in enumerate(cx) for i, c in cm.items()]

    def F(t, phi, dphi=0):
        return sum(c * (1j * j) ** dphi * mpmath.expj(i * t + j * phi) for i, j, c in terms)

    with mpmath.workdps(30):
        if fold:
            t, phi = mpmath.findroot(lambda t, phi: (F(t, phi), F(t, phi, 1)),
                                     (mpmath.mpc(t0), mpmath.mpc(phi0)))
            assert abs(t.imag) < 1e-20 and abs(phi.imag) < 1e-20
            return float(t.real)
        t, phi = mpmath.findroot(lambda t, phi: (F(t, phi).real, F(t, phi).imag),
                                 (mpmath.mpf(t0), mpmath.mpf(phi0)))
        return float(t)


# the last three have fold cells, where a root pair y, 1/conj(y) meets on
# the circle
POLISH_POLYS = ([family_poly("R", 3), parse_poly(A_POLY)]
                + [parse_poly(e) for e in CUBIC_QUARTIC_FIBERS]
                + [wt_family_poly("P", 3), wt_family_poly("Q", 6), family_poly("P", 3)])


@pytest.mark.parametrize("poly", POLISH_POLYS, ids=str)
def test_polished_cuts_are_torus_points(poly):
    cx = _y_coeff_polys(poly)
    table = _coeff_table(cx)
    a, b, na, nb = _scan_cells(table)
    cuts, _ = _polish_cells(table, a, b, na, nb, *SCAN_ENDS)
    for t in cuts[~np.isnan(cuts)]:
        roots = _solve_fibers(_coeffs_grid(table, np.array([t])))[1][0]
        near = roots[np.argsort(np.abs(np.log(np.abs(roots))))]
        fold = len(near) > 1 and abs(near[0] - near[1]) < 1e-4
        assert abs(_mp_torus_point(cx, t, cmath.phase(near[0]), fold) - t) < 1e-13
        if str(poly) == str(wt_family_poly("Q", 6)):
            assert fold


# P_3 and wt Q_6 have inner folds, settled by Gauss-Newton; P_3 also folds
# at t = 0, where Gauss-Newton halves its distance to the edge, following
# the root of the pair that is inside; wt P_3 (real self-reciprocal fibers)
# has two inner folds and two at the edges; in the last, a pair e^{+-i phi}
# crosses the circle at t = 0 and at t = pi, where Newton converges
@pytest.mark.parametrize("poly,dropped", [
    (family_poly("P", 3), [True, False]),
    (wt_family_poly("Q", 6), [False]),
    (wt_family_poly("P", 3), [True, False, False, True]),
    (parse_poly("1-1*y^2-3*x+2*x*y-3*x*y^2-2*x^2-1*x^2*y"), [True, True]),
], ids=str)
def test_polish_settles_folds_and_edges(poly, dropped):
    table = _coeff_table(_y_coeff_polys(poly))
    a, b, na, nb = _scan_cells(table)
    cuts, edge = _polish_cells(table, a, b, na, nb, *SCAN_ENDS)
    assert edge.tolist() == dropped
    assert not np.isnan(cuts[~edge]).any()


# the crossing of the first lies on the scan grid point pi / 2, the end of
# its cell, so the polish leaves the cell to the section rule; the second (a
# quartic of CUBIC_QUARTIC_FIBERS) touches the circle at t = 0 with the root
# y = 1, where the count with its 1e-9 band changed at t ~ 4.4e-5 and the
# section rule put a cut; references: bench/refs.json (mpmath, 25 digits)
@pytest.mark.parametrize("expr,ref,fallback,edge", [
    ("-1+1*y+2*x-2*x*y+2*x^2*y", 0.8703506533592053068, [False, True], [True, False]),
    (CUBIC_QUARTIC_FIBERS[4], 1.602191419081358131,
     [False] * 5, [True, False, False, False, False]),
])
def test_fallback_and_edge_touch_values(expr, ref, fallback, edge):
    poly = parse_poly(expr)
    table = _coeff_table(_y_coeff_polys(poly))
    a, b, na, nb = _scan_cells(table)
    cuts, dropped = _polish_cells(table, a, b, na, nb, *SCAN_ENDS)
    assert (np.isnan(cuts) & ~dropped).tolist() == fallback
    assert dropped.tolist() == edge
    # without the edge rule the section rule cuts next to t = 0
    assert 1e-5 < _section_cells(table, a[:1], b[:1], na[:1])[0][0] < 1e-4
    res = mahler_jensen(poly)
    assert abs(res.value - ref) <= max(res.err_est, 1e-14)


def test_polish_refuses_unconfirmed_cuts():
    # R_3 crosses at pi/3 with counts 1 before and 2 after; a cell whose
    # end counts disagree with the counts next to the torus point, and a
    # cell beside the crossing, keep no cut
    table = _coeff_table(_y_coeff_polys(family_poly("R", 3)))
    t_c, w = math.pi / 3, 0.003
    a = np.array([t_c - w / 3, t_c + 1e-4])
    cuts, dropped = _polish_cells(table, a, a + w, np.array([2, 1]), np.array([1, 2]),
                                  *SCAN_ENDS)
    assert np.isnan(cuts).all() and not dropped.any()
    cuts, _ = _polish_cells(table, a[:1], a[:1] + w, np.array([1]), np.array([2]),
                            *SCAN_ENDS)
    assert abs(cuts[0] - t_c) < 1e-15


@pytest.mark.parametrize("na,nb,drop", [(3, 4, True), (2, 3, False), (2, 4, False)])
def test_edge_rule_needs_the_counts(na, nb, drop):
    # the quartic's root y = 1 touches the circle at t = 0 from outside, and
    # the true counts of its first cell are 3 and 4: with a count at the
    # midpoint other than the inner end's, or a change of 2, the touch does
    # not account for the cell
    table = _coeff_table(_y_coeff_polys(parse_poly(CUBIC_QUARTIC_FIBERS[4])))
    a, b, _, _ = _scan_cells(table)
    _, dropped = _polish_cells(table, a[:1], b[:1], np.array([na]), np.array([nb]),
                               *SCAN_ENDS)
    assert dropped.tolist() == [drop]


def _near_touch_measure(s):
    """m of (1 + 2x^2) y - s (1 + 2x), s < 1, to 30 digits: log 2 plus the
    log+ of |y|^2 = s^2 (5 + 4 cos t) / (1 + 8 cos^2 t) between its two
    crossings, the roots of 8c^2 - 4 s^2 c + 1 - 5 s^2 in c = cos t."""
    with mpmath.workdps(30):
        s = mpmath.mpf(s)
        sq = mpmath.sqrt(16 * s ** 4 - 32 * (1 - 5 * s ** 2))
        t1, t2 = (mpmath.acos((4 * s ** 2 + sq) / 16), mpmath.acos((4 * s ** 2 - sq) / 16))

        def f(t):
            c = mpmath.cos(t)
            return mpmath.log(s) + mpmath.log((5 + 4 * c) / (1 + 8 * c * c)) / 2

        return float(mpmath.log(2) + mpmath.quad(f, [t1, t2]) / mpmath.pi), float(t1)


def test_edge_rule_needs_a_touch():
    # at s = sqrt(1 - 1e-7) the root nearly touches the circle at t = 0 but
    # crosses it at t = 3.9e-4: Newton's steps from the midpoint of the
    # first cell near halve there too, yet y = 1 is no root at t = 0, so the
    # cell keeps its cut
    s = math.sqrt(1.0 - 1e-7)
    ref, t1 = _near_touch_measure(s)
    poly = LaurentPoly2({(0, 1): 1.0, (2, 1): 2.0, (0, 0): -s, (1, 0): -2.0 * s})
    table = _coeff_table(_y_coeff_polys(poly))
    a, b, na, nb = _scan_cells(table)
    cuts, dropped = _polish_cells(table, a, b, na, nb, *SCAN_ENDS)
    assert not dropped.any()
    # sectioned: the count changes where |y| = 1 + 1e-9, 3.9e-6 past t1
    assert abs(min(measure._crossing_angles(table)) - t1) < 1e-5
    res = mahler_jensen(poly)
    assert abs(res.value - ref) <= res.err_est


def test_edge_rule_needs_the_root_outside():
    # the linear factor's root touches the circle at t = 0 from inside, and
    # y = 2 keeps the count at 1: told that the count rises across the first
    # cell, the polish follows the touching root, which does not account
    # for the rise, and keeps the cell
    table = _coeff_table(_y_coeff_polys(parse_poly("(y+2*x*y-1-2*x^2)*(y-2)")))
    grid = _scan_grid()
    _, dropped = _polish_cells(table, grid[:1], grid[1:2], np.array([0]), np.array([1]),
                               *SCAN_ENDS)
    assert not dropped.any()


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_polish_takes_extreme_coefficient_scales(scale):
    r3 = family_poly("R", 3)
    poly = LaurentPoly2({k: scale * v for k, v in r3.terms.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = mahler_jensen(poly).value - math.log(scale)
    assert abs(value - mahler_jensen(r3).value) < 1e-12


# F = y - 1 does not depend on t, and F = x y - 2 only on t + phi: the
# Jacobian is singular everywhere, and every Newton step divides by zero
# (0 / 0 for the first, a nonzero numerator and an infinite phi for the
# second); the cells at 0 and pi go through the edge rule
@pytest.mark.parametrize("expr", ["y-1", "x*y-2"])
@pytest.mark.parametrize("start", [1e-9, 1.0, math.pi - 1e-9 - 0.01])
def test_polish_singular_jacobian_without_runtime_warnings(expr, start):
    table = _coeff_table(_y_coeff_polys(parse_poly(expr)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cuts, dropped = _polish_cells(table, np.array([start]), np.array([start + 0.01]),
                                      np.array([0]), np.array([1]), *SCAN_ENDS)
    assert np.isnan(cuts).all() and not dropped.any()


def test_polish_vanishing_lead_without_runtime_warnings():
    # the lead 1 - x vanishes exactly at the cell midpoint t = 0
    table = _coeff_table(_y_coeff_polys(parse_poly("(1-x)*y^3+y^2+2*y+3")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _polish_cells(table, np.array([-0.01]), np.array([0.01]), np.array([2]),
                      np.array([3]), *SCAN_ENDS)



def _polish_reference(coeff_table, a, b, na, nb, lo, hi):
    """``_polish_cells`` as it was when every call ran the edge rules on
    every cell, with the rows at t = 0 and pi in its start call: the
    reference whose cuts and dropped mask it must reproduce bit for bit."""
    ext = _ext_table(coeff_table)
    n = len(a)
    mid = 0.5 * (a + b)
    width = b - a
    rows = _coeffs_grid(coeff_table, np.concatenate([mid, [0.0, math.pi]]))
    roots = _solve_fibers(rows[:n])[1]
    with np.errstate(divide="ignore"):
        order = np.argsort(np.abs(np.log(np.abs(roots))), axis=1)
    y0 = roots[np.arange(n), order[:, 0]]
    fold = np.zeros(n, dtype=bool)
    if roots.shape[1] > 1:
        y1 = roots[np.arange(n), order[:, 1]]
        fold = ((np.abs(y0 * np.conj(y1) - 1.0) <= _MIRROR_REL)
                | ((np.abs(np.abs(y0) - 1.0) <= _MIRROR_REL)
                   & (np.abs(np.abs(y1) - 1.0) <= _MIRROR_REL)))
    w = fold.astype(float)
    any_fold = fold.any()     # else the fold terms are all zero
    # the end of the scan a cell touches, NaN for inner cells
    edge = np.where(a == lo, 0.0, np.where(b == hi, math.pi, np.nan))

    t, phi = mid.copy(), np.angle(y0)
    converged = np.zeros(n, dtype=bool)
    last_dt = np.full(n, np.inf)
    ratios = np.zeros(n, dtype=int)       # steps in a row at ratio ~1/2
    live = np.arange(n)
    # a singular Jacobian divides by zero; its row is then lost below
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_POLISH_STEPS):
            if not len(live):
                break
            terms = _torus_terms(ext, t[live], phi[live], any_fold)
            dt, dp = _newton_step(*terms, w=w[live] if any_fold else None)
            d_old = np.abs(t[live] - edge[live])
            t[live] += dt
            phi[live] += dp
            step = np.abs(dt)
            done = (step <= 1e-14) & (np.abs(dp) <= 1e-11)
            converged[live[done]] = True
            # Newton's method halves the distance to a double solution
            ratio = np.abs(t[live] - edge[live]) / d_old
            ratios[live] = np.where((ratio > 0.35) & (ratio < 0.65), ratios[live] + 1, 0)
            lost = ~(np.isfinite(t[live]) & np.isfinite(phi[live])
                     & (np.abs(t[live] - mid[live]) < 4.0 * width[live])
                     & (step < last_dt[live]))
            last_dt[live] = step
            live = live[~(done | (ratios[live] >= 2) | lost)]

    halving = ratios >= 2     # nearing the edge, as at a double solution
    inside = converged & (t > a) & (t < b)
    # the count change an edge touch explains: a touching root counts
    # outside on the cell's inner side only
    inner = np.where(edge == 0.0, nb, na)
    outer = np.where(edge == 0.0, na, nb)
    # a real root y = +-1 on the circle at the edge, whose |y(t)| is even:
    # F(edge, 0) or F(edge, pi) vanishes; rows are the edges 0 and pi,
    # columns the roots 1 and -1
    ends = rows[n:]
    alternating = (-1.0) ** np.arange(ends.shape[1])
    at_pm1 = np.stack([ends.sum(axis=1), (ends * alternating).sum(axis=1)], axis=1)
    real_root = np.abs(at_pm1) <= 1e-13 * np.abs(ends).sum(axis=1)[:, None]
    with np.errstate(invalid="ignore"):     # phi of a lost iterate may be inf
        nearer_minus_one = ~(np.cos(phi) > 0.0)
    real_touch = real_root[np.where(edge == 0.0, 0, 1), nearer_minus_one.astype(int)]
    # converged on the edge, which lies lo beyond the scan: a fold, or a
    # pair e^{+-i phi} of which one root leaves the circle as the other
    # enters; or halving towards the edge: a fold, or a root y = +-1 that
    # touches the circle from outside
    at_edge = ((converged & (np.abs(t - edge) <= 2.0 * lo))
               | (halving & (fold | (real_touch & (np.abs(y0) > 1.0 + _BAND)))))
    at_edge &= inner - outer == 1
    ti = t[inside]
    delta = np.minimum(1e-6, 0.5 * np.minimum(ti - a[inside], b[inside] - ti))
    probe = np.concatenate([ti - delta, ti + delta, mid[at_edge]])
    counts = _count_outside(coeff_table, probe) if len(probe) else probe
    k = np.count_nonzero(inside)
    ok = (counts[:k] == na[inside]) & (counts[k:2 * k] == nb[inside])
    cuts = np.full(n, np.nan)
    cuts[np.flatnonzero(inside)[ok]] = ti[ok]
    dropped = np.zeros(n, dtype=bool)
    dropped[np.flatnonzero(at_edge)[counts[2 * k:] == inner[at_edge]]] = True
    return cuts, dropped


REFS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "refs.json").read_text())

# the polynomials of the edge rule tests, whose first or last scan cells
# hold crossings on the edge 0 or pi
EDGE_POLYS = ([parse_poly("1-1*y^2-3*x+2*x*y-3*x*y^2-2*x^2-1*x^2*y"),
               parse_poly("-1+1*y+2*x-2*x*y+2*x^2*y"),
               parse_poly("(y+2*x*y-1-2*x^2)*(y-2)")]
              + [parse_poly(e) for e in CUBIC_QUARTIC_FIBERS])
# the generated corpus and the paper's families on the benchmark's grid,
# as parsed and in the reduced forms (wt P_k, wt Q_s and P_k have
# self-reciprocal fold cells, some at the scan's ends)
FUZZ_POLYS = ([parse_poly(item["expr"]) for items in REFS["generated"].values()
               for item in items]
              + [family_poly("P", k) for k in (1, 2, 3, 4, 5, 8, 12, 33)]
              + [wt_family_poly("P", k) for k in (1, 2, 3, 4, 5, 8, 12, 33)]
              + [family_poly("R", k) for k in (1, 3, 4, 5)]
              + [wt_family_poly("Q", s) for s in (-1, 3, 6, 7, 12)]
              + [parse_poly("1+x+y"), parse_poly(A_POLY), _narrow_arc_poly()]
              + EDGE_POLYS)


def _same_polish(table, a, b, na, nb):
    cuts, dropped = _polish_cells(table, a, b, na, nb, *SCAN_ENDS)
    ref_cuts, ref_dropped = _polish_reference(table, a, b, na, nb, *SCAN_ENDS)
    assert cuts.tobytes() == ref_cuts.tobytes()
    assert dropped.tolist() == ref_dropped.tolist()
    return dropped


def test_polish_matches_reference_on_scan_cells():
    # every scan cell of the corpus, the families and the edge cases: 435
    # cells of 196 polynomials, 58 of them at the scan's ends, 49 dropped
    dropped = ends = 0
    for poly in FUZZ_POLYS:
        table = _coeff_table(_y_coeff_polys(poly))
        a, b, na, nb = _scan_cells(table)
        if len(a):
            dropped += np.count_nonzero(_same_polish(table, a, b, na, nb))
            ends += np.count_nonzero((a == SCAN_ENDS[0]) | (b == SCAN_ENDS[1]))
    assert dropped >= 40 and ends >= 50


def test_polish_matches_reference_on_random_brackets():
    # random sets of scan cells, count-changing or not, with the first and
    # last scan cells, and random brackets inside (0, pi), whose end counts
    # are the true ones or off by one
    rng = np.random.default_rng(23)
    grid = _scan_grid()
    picks = rng.choice(len(FUZZ_POLYS), 40, replace=False)
    for poly in [FUZZ_POLYS[i] for i in picks] + EDGE_POLYS:
        table = _coeff_table(_y_coeff_polys(poly))
        counts = _count_outside(table, grid)
        for _ in range(3):
            cells = np.unique(np.concatenate([[0, len(grid) - 2],
                                              rng.integers(0, len(grid) - 1, 6),
                                              np.flatnonzero(counts[:-1] != counts[1:])]))
            cells = rng.permutation(cells)
            a, b = grid[cells], grid[cells + 1]
            na, nb = counts[cells], counts[cells + 1]
            inner = rng.uniform(SCAN_ENDS[0], SCAN_ENDS[1], (2, 3))
            a = np.concatenate([a, inner.min(axis=0)])
            b = np.concatenate([b, inner.max(axis=0)])
            na = np.concatenate([na, _count_outside(table, a[-3:])])
            nb = np.concatenate([nb, _count_outside(table, b[-3:])])
            off = rng.random(len(a)) < 0.2
            na = na + off * rng.choice([-1, 1], len(a))
            _same_polish(table, a, b, na, nb)


def test_polish_without_end_cells_skips_the_edges(monkeypatch):
    # a call whose cells touch neither end of the scan evaluates no fiber
    # at t = 0 or pi; with the first cell it does
    angles = []

    def recording(table, thetas):
        angles.extend(np.ravel(thetas).tolist())
        return _coeffs_grid(table, thetas)

    table = _coeff_table(_y_coeff_polys(wt_family_poly("P", 3)))
    a, b, na, nb = _scan_cells(table)
    inner = (a != SCAN_ENDS[0]) & (b != SCAN_ENDS[1])
    assert 0 < np.count_nonzero(inner) < len(a)
    monkeypatch.setattr(measure, "_coeffs_grid", recording)
    _polish_cells(table, a[inner], b[inner], na[inner], nb[inner], *SCAN_ENDS)
    assert angles and not {0.0, math.pi} & set(angles)
    _polish_cells(table, a, b, na, nb, *SCAN_ENDS)
    assert {0.0, math.pi} <= set(angles)


def test_reversed_fiber_roots_do_not_overflow():
    # a defect (b) input whose reversed fibers, at the nodes of tol 1e-13,
    # have roots so small that their inverses overflowed, though they were
    # then set to 0; the value is not right (its lead (1-x)^2 cancels), so
    # only its finiteness is checked
    poly = parse_poly("3+3*y^2+1*y^3-2*x-2*x*y^3-3*x^2+1*x^2*y-3*x^2*y^2+1*x^2*y^3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = mahler_jensen(poly, tol=1e-13)
    assert math.isfinite(res.value) and math.isfinite(res.err_est)

COUNT_POLYS = ([family_poly("P", 3)] + [family_poly("R", k) for k in (1, 3, 5)]
               + [parse_poly(A_POLY), _narrow_arc_poly()]
               + [parse_poly(e) for e in CUBIC_QUARTIC_FIBERS + [ALL_FLAGGED]])


@pytest.mark.parametrize("poly", COUNT_POLYS, ids=str)
def test_count_at_every_probed_angle_matches_scalar(poly, monkeypatch):
    # the scan grid and, where there are crossings, the polish and section
    # probes next to them; the section rule converges onto an angle where a root
    # is within rounding of the band, and either count is right there
    cx = _y_coeff_polys(poly)
    table = _coeff_table(cx)
    angles, counts = [], []

    def recording(table, thetas):
        angles.append(np.array(thetas))
        counts.append(_count_outside(table, thetas))
        return counts[-1]

    monkeypatch.setattr(measure, "_count_outside", recording)
    _crossing_angles(table)
    thetas = np.concatenate(angles)
    moduli = [_scalar_moduli(cx, t) for t in thetas]
    decided = [min((abs(r - 1.0 - _BAND) for r in m), default=1.0) > 1e-12 for m in moduli]
    assert all(decided[:len(angles[0])])      # the scan grid
    expected = [sum(r > 1.0 + _BAND for r in m) for m in moduli]
    got = np.concatenate(counts)
    assert all(got[i] == expected[i] for i in range(len(thetas)) if decided[i])


KNOWN_ROOTS = [0.3 * np.exp(0.4j), 0.6, 1.7 * np.exp(2j), 2.5 * np.exp(-1j), 3.0,
               1.3 * np.exp(0.7j)]


def _constant_count(rows):
    """``_count_outside`` of fibers that do not depend on x, one per row of
    ascending coefficients: a one-rung, one-sided table."""
    return [_count_outside((np.zeros(1), np.array([[row]], dtype=complex)),
                           np.zeros(1))[0] for row in rows]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_count_outside_known_roots(n):
    subsets = [KNOWN_ROOTS[:n], KNOWN_ROOTS[-n:]]
    rows = [np.poly(r)[::-1] for r in subsets]
    assert _constant_count(rows) == [sum(abs(z) > 1.0 for z in r) for r in subsets]


def test_count_outside_at_the_band():
    rows = [np.poly([0.5, 1.0, 2.0])[::-1],             # a root on the circle
            np.poly([0.5, 1.0 + 2 * _BAND, 2.0])[::-1],  # just outside the band
            np.poly([0.5, 2.0, 3j])[::-1],              # y and 1/conj(y)
            np.poly([np.exp(1j), np.exp(2j), np.exp(-1j)])[::-1],
            [1.0, 3.0, 1.0]]                            # self-reciprocal
    assert _constant_count(rows) == [1, 2, 2, 0, 1]


def test_count_outside_extreme_magnitudes():
    row = np.poly(KNOWN_ROOTS[:5])[::-1]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert _constant_count([row * 1e200, row * 1e-200]) == [3, 3]


def test_exactly_vanishing_lead_is_counted_at_the_lower_degree():
    # at x = 1 the fiber is y^2 + 2y + 3, both roots of modulus sqrt 3; a
    # count at the formal degree 3 would put a third root at infinity
    table = _coeff_table(_y_coeff_polys(parse_poly("(1-x)*y^3+y^2+2*y+3")))
    assert _count_outside(table, np.array([0.0])).tolist() == [2]


def test_jensen_batch_call_count(monkeypatch):
    # outside the counts: the polish's start roots, the tanh-sinh first pass
    # through level 4 and one call per later level; the counts, of the scan
    # grid and of the polish's probes, one call each and one root solve
    # each; no section round
    calls = {False: 0, True: 0}     # batch_roots calls by whether a count made them
    counts = []
    in_count = []

    def counting(coeffs):
        calls[bool(in_count)] += 1
        return batch_roots(coeffs)

    def counting_outside(table, thetas):
        counts.append(len(thetas))
        in_count.append(True)
        try:
            return _count_outside(table, thetas)
        finally:
            in_count.pop()

    monkeypatch.setattr(measure, "batch_roots", counting)
    monkeypatch.setattr(measure, "_count_outside", counting_outside)
    mahler_jensen(family_poly("R", 3))
    assert calls[False] <= 6
    assert len(counts) <= 2
    assert calls[True] == len(counts)


@pytest.mark.parametrize("measure_of, solves, value", [
    (lambda: mahler_jensen(family_poly("R", 3)), 4, 1.0115138885104915),
    (lambda: mahler_jensen(family_poly("P", 3)), 4, 0.9990518315218821),
    (lambda: q_measure(6), 4, 1.364073509190006),
], ids=["R_3", "P_3", "Q_6"])
def test_jensen_batch_roots_calls_pinned(measure_of, solves, value, monkeypatch):
    # two counts, the polish's start roots and one tanh-sinh first pass
    # through level 4, where every piece of these three converges; one root
    # solve per level would make 8, 7 and 8 calls for the same values
    calls = []

    def counting(coeffs):
        calls.append(coeffs)
        return batch_roots(coeffs)

    monkeypatch.setattr(measure, "batch_roots", counting)
    assert measure_of().value == value
    assert len(calls) == solves


def _companion_route(coeffs):
    """``batch_roots`` as it was: the quadratic closed forms through degree
    2, the stacked companion eigenvalues beyond."""
    c = np.asarray(coeffs, dtype=complex)
    if c.shape[1] <= 3:
        return batch_roots(c)
    return rootfind._companion_roots(c[:, :-1] / c[:, -1:])


ROUTE_POLYS = ([parse_poly(e) for e in CUBIC_QUARTIC_FIBERS]
               + [family_poly("R", k) for k in (1, 3, 5)])


@pytest.mark.parametrize("poly", ROUTE_POLYS, ids=str)
def test_jensen_matches_the_companion_route(poly, monkeypatch):
    table = _coeff_table(_unit_y_coeffs(poly)[0])
    value, cuts = mahler_jensen(poly).value, _crossing_angles(table)
    monkeypatch.setattr(measure, "batch_roots", _companion_route)
    assert abs(mahler_jensen(poly).value - value) <= 1e-14
    assert len(_crossing_angles(table)) == len(cuts)


def _count_fallback_rows(monkeypatch):
    rows = []
    companion = rootfind._companion_roots

    def counting(monic):
        rows.append(len(monic))
        return companion(monic)

    monkeypatch.setattr(rootfind, "_companion_roots", counting)
    return rows


def test_torus_r3_takes_no_eigenvalues_and_matches_the_companion_route(monkeypatch):
    rows = _count_fallback_rows(monkeypatch)
    value = mahler_torus2(family_poly("R", 3), tol=1e-5).value
    assert rows == []
    monkeypatch.undo()
    monkeypatch.setattr(measure, "batch_roots", _companion_route)
    assert abs(mahler_torus2(family_poly("R", 3), tol=1e-5).value - value) <= 1e-14


def test_jensen_fallback_rows_pinned(monkeypatch):
    # every cubic and quartic fiber of these runs is solved in closed form,
    # the near-circle rows of the scan and the polish included
    rows = _count_fallback_rows(monkeypatch)
    for poly in ROUTE_POLYS:
        mahler_jensen(poly)
    assert sum(rows) == 0


SCALED_POLYS = {"1+x+y": parse_poly("1+x+y"), "A": parse_poly(A_POLY),
                "P_3": family_poly("P", 3), "R_3": family_poly("R", 3)}


@pytest.mark.parametrize("engine", [mahler_jensen, mahler_torus2])
@pytest.mark.parametrize("name", SCALED_POLYS)
def test_engines_normalise_the_coefficient_scale(name, engine):
    # a fiber coefficient is a sum of terms, which overflows or goes
    # subnormal although every term is finite, unless P is scaled first
    poly = SCALED_POLYS[name]
    base = engine(poly).value
    for scale, log_scale in [(2.0 ** 1022, 1022 * math.log(2.0)),
                             (2.0 ** 1023, 1023 * math.log(2.0)),
                             (2.0 ** -1060, -1060 * math.log(2.0)),
                             (1e308, math.log(1e308))]:
        terms = {e: c * scale for e, c in poly.terms.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not all(math.isfinite(c) for c in terms.values()):
                with pytest.raises(QuadratureError):    # 3 * 2^1023 is no float
                    engine(LaurentPoly2(terms))
                continue
            res = engine(LaurentPoly2(terms))
        err = abs(res.value - (log_scale + base))
        assert err <= 1.6e-13 and err <= res.err_est


def test_root_magnitudes_trim_flip_and_vanishing_rows():
    rows = np.array([[2.0, -3.0, 1.0],      # (y - 1)(y - 2)
                     [0.0, 1.0, 1e-10],     # a root 0 and a huge one
                     [0.0, 0.0, 0.0]],      # vanishing fiber
                    dtype=complex)
    mags = np.sort(np.abs(_solve_fibers(rows)[1]), axis=1)
    assert np.allclose(mags[0], [1.0, 2.0], rtol=1e-15)
    assert mags[1, 0] == 0.0 and abs(mags[1, 1] / 1e10 - 1.0) < 1e-15
    assert mags[2].tolist() == [0.0, 0.0]
