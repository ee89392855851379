"""The generic Jensen engine and its 2D oracle."""

import cmath
import math
import random

import numpy as np
import pytest

from mahler.lpoly import LaurentPoly2, monomial_transform, parse_poly
from mahler.errors import DegenerateFiberError
from mahler.measure import (
    _BAND,
    _coeff_table,
    _coeffs_at,
    _coeffs_grid,
    _count_outside,
    _y_coeff_polys,
    mahler_1var,
    mahler_jensen,
    mahler_torus2,
    roots_in_y,
)
from mahler.families import family_poly, wt_family_poly
from mahler.rootfind import poly_roots

SMYTH = 0.3230659472194505     # m(x+y-1) = L'(chi_-3, -1)

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


def _scan_grid(n_scan=1024):
    lo, hi = 1e-9, math.pi - 1e-9
    return lo + (hi - lo) * np.arange(n_scan + 1) / n_scan


def test_roots_single_linear():
    fiber = roots_in_y(parse_poly("y-5"), 1.0)
    assert len(fiber.roots) == 1
    assert abs(fiber.roots[0] - 5.0) < 1e-14
    assert not fiber.dropped


def test_roots_ordering():
    # (y - 3)(y - 1/2) at x = 1: descending magnitude
    fiber = roots_in_y(parse_poly("2*y^2-7*y+3"), 1.0)
    assert abs(fiber.roots[0]) >= abs(fiber.roots[1])
    assert abs(fiber.roots[0] - 3.0) < 1e-13


def test_wt_p_vieta_at_right_angle():
    # fiber of the reduced P-form at theta = pi/2: the root product has
    # modulus 1 (the two coefficients c0 and c2 coincide)
    wt = wt_family_poly("P", 3)
    fiber = roots_in_y(wt, 1j)
    prod = fiber.roots[0] * fiber.roots[1]
    assert abs(abs(prod) - 1.0) < 1e-12


def test_wt_r_vieta_value():
    # y1 y2 = 3 - 4 cos^2(theta); at cos(theta) -> 0 the fiber degenerates
    # and the product tends to 3
    wt = wt_family_poly("R", 3)
    theta = 0.5 * math.pi - 1e-7
    fiber = roots_in_y(wt, cmath.exp(1j * theta))
    c = math.cos(theta) ** 2
    assert abs(fiber.roots[0] * fiber.roots[1] - (3.0 - 4.0 * c)) < 1e-5
    exact = roots_in_y(wt, 1j)
    assert exact.dropped


def test_vieta_battery_on_grid():
    rng = random.Random(5)
    wtp = wt_family_poly("P", 5)
    wtq = wt_family_poly("Q", 7)
    wtr = wt_family_poly("R", 2.5)
    for _ in range(200):
        theta = rng.uniform(1e-3, math.pi - 1e-3)
        x = cmath.exp(1j * theta)
        for poly in (wtp, wtq):
            fiber = roots_in_y(poly, x)
            if fiber.dropped or len(fiber.roots) < 2:
                continue
            assert abs(abs(fiber.roots[0] * fiber.roots[1]) - 1.0) < 1e-10
        fiber = roots_in_y(wtr, x)
        if not fiber.dropped and len(fiber.roots) == 2:
            c = math.cos(theta) ** 2
            assert abs(abs(fiber.roots[0] * fiber.roots[1])
                       - abs(3.0 - 4.0 * c)) < 1e-10


def test_roots_requires_unit_circle():
    with pytest.raises(ValueError):
        roots_in_y(parse_poly("y-1"), 2.0)


def test_identically_zero_fiber_raises():
    # (x - 1) * y: at x = 1 every coefficient vanishes
    with pytest.raises(DegenerateFiberError):
        roots_in_y(parse_poly("x*y-y"), 1.0)


def test_one_variable_measures():
    assert mahler_1var({0: 2}) == math.log(2.0)
    # cyclotomic products give exactly zero
    assert mahler_1var({0: 1, 1: 1, 2: 1}) == 0.0
    assert mahler_1var({-1: 1, 0: -1, 1: 1}) == 0.0       # Laurent shift
    assert abs(mahler_1var({0: -1, 1: 2}) - math.log(2.0)) < 1e-15


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


@pytest.mark.parametrize("expr", CUBIC_QUARTIC_FIBERS)
def test_measure_invariant_under_swap_cubic_quartic_fibers(expr):
    # the swapped polynomial has fibers of degree <= 2 (closed forms), the
    # original runs the companion kernel: two independent paths
    p = parse_poly(expr)
    swapped = monomial_transform(p, ((0, 1), (1, 0)))
    assert abs(mahler_jensen(p).value - mahler_jensen(swapped).value) < 1e-12


def _scalar_count_outside(cx, theta):
    """Per-point reference for the batched count: one poly_roots solve."""
    coeffs = _coeffs_at(cx, cmath.exp(1j * theta))
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        return 0
    if abs(coeffs[-1]) < 1e-8 * scale:
        roots = [1.0 / z for z in poly_roots(coeffs[::-1]) if abs(z) > 1e-300]
    else:
        roots = poly_roots(coeffs)
    return sum(1 for r in roots if abs(r) > 1.0 + _BAND)


@pytest.mark.parametrize("poly", [family_poly("P", 3), family_poly("R", 3),
                                  family_poly("R", 5), parse_poly(A_POLY)]
                         + [parse_poly(e) for e in CUBIC_QUARTIC_FIBERS])
def test_batched_outside_count_matches_scalar(poly):
    cx = _y_coeff_polys(poly)
    grid = _scan_grid()
    batched = _count_outside(_coeff_table(cx), grid)
    assert batched.tolist() == [_scalar_count_outside(cx, t) for t in grid]


def test_blocked_coefficients_match_pointwise_on_narrow_arc():
    # y - 1.0001 ((1+x^3)/2)^200: 201 x-exponents, more than one block
    terms = {(0, 1): 1.0}
    for j in range(201):
        terms[(3 * j, 0)] = -1.0001 * math.comb(200, j) / 2.0 ** 200
    cx = _y_coeff_polys(LaurentPoly2(terms))
    grid = _scan_grid()
    blocked = _coeffs_grid(_coeff_table(cx), grid)
    pointwise = np.array([_coeffs_at(cx, cmath.exp(1j * t)) for t in grid])
    assert np.abs(blocked - pointwise).max() < 1e-13


def test_near_degenerate_quartic_fiber_within_err_est():
    # the leading coefficient 3 - 3x vanishes at x = 1; the reversed-
    # polynomial fibers near t = 0 once left an error of 1.6e-11 against
    # an err_est of 8.7e-12 (reference: mpmath, 25 digits)
    p = parse_poly("1+3*y+1*y^3+3*y^4-1*x+2*x*y-3*x*y^4-1*x^2*y+3*x^2*y^2-1*x^2*y^3")
    res = mahler_jensen(p)
    assert abs(res.value - 1.719225772673731618113995) <= res.err_est
