"""The generic Jensen engine and its 2D oracle."""

import cmath
import math
import random
import warnings

import numpy as np
import pytest

from mahler import measure
from mahler.lpoly import LaurentPoly2, monomial_transform, parse_poly
from mahler.errors import DegenerateFiberError, QuadratureError
from mahler.measure import (
    _BAND,
    _coeff_table,
    _coeffs_at,
    _coeffs_grid,
    _count_outside,
    _crossing_angles,
    _fiber_logplus,
    _root_magnitudes,
    _torus_log_abs,
    _unit_circle_angles,
    _y_coeff_polys,
    mahler_1var,
    mahler_jensen,
    mahler_torus2,
    roots_in_y,
)
from mahler.families import family_poly, wt_family_poly
from mahler.quad import _level_nodes, integrate_torus2
from mahler.rootfind import batch_roots, count_outside, poly_roots

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
# |a_0| = |a_m| on the whole circle: after the _BAND scaling the first Schur
# pivot gap is about 2m * 1e-9, so the outside count flags every row
ALL_FLAGGED = "3-3*y^2+3*x+1*x*y^2-3*x*y^3-2*x^2*y-3*x^2*y^3"


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


def _eval_grid_log_abs(P):
    """The torus integrand through the per-monomial reference evaluator."""
    def g(tx, ty):
        return np.log(np.maximum(np.abs(P.eval_grid(tx, ty)), 1e-300))
    return g


TORUS_INTEGRAND_POLYS = [family_poly("P", 3), family_poly("R", 3),
                         parse_poly(A_POLY), parse_poly("x^-2*y^-1+3*x*y^2-y+2")]


@pytest.mark.parametrize("poly", TORUS_INTEGRAND_POLYS, ids=str)
def test_torus_integrand_matches_eval_grid(poly):
    t = (np.arange(64) + 0.5857864376269049) * (2.0 * math.pi / 64)
    tx, ty = t[:, None], t[None, :]
    new = _torus_log_abs(poly)(tx, ty)
    ref = _eval_grid_log_abs(poly)(tx, ty)
    assert new.shape == (64, 64)
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
    with pytest.raises(ValueError):
        mahler_torus2(parse_poly("1+x+y"), n_max=8)


def _whole_block_log_abs(P):
    """The torus integrand as one whole-block product, with the y-powers
    built on every call: the reference for the row-sliced kernel."""
    coeff_table = _coeff_table(_y_coeff_polys(P))
    ypowers = np.arange(coeff_table[1].shape[1])

    def g(tx, ty):
        vals = np.abs(_coeffs_grid(coeff_table, np.ravel(tx))
                      @ np.exp(1j * np.outer(ypowers, np.ravel(ty))))
        return np.log(np.maximum(vals, 1e-300))

    return g


def _torus_grid(n):
    return (np.arange(n) + 0.5857864376269049) * (2.0 * math.pi / n)


# row counts that are not multiples of the slice (8 rows at n = 4096, 128
# at n = 256, 2 at n = 32768); 300 rows at n = 256 cross two slice
# boundaries, and 33 rows at n = 4096 and 5 at n = 32768 would end on a
# one-row slice, whose product numpy computes otherwise; 1 row is a
# one-row block
@pytest.mark.parametrize("n,rows", [(16, 1), (16, 5), (16, 37), (256, 5),
                                    (256, 37), (256, 300), (4096, 5),
                                    (4096, 33), (4096, 37), (32768, 5)])
@pytest.mark.parametrize("poly", TORUS_INTEGRAND_POLYS, ids=str)
def test_torus_kernel_matches_whole_block_product(poly, n, rows):
    t = _torus_grid(n)
    tx = np.resize(t, 3 + rows)[3:, None]
    got = _torus_log_abs(poly)(tx, t[None, :])
    assert got.shape == (rows, n)
    assert np.array_equal(got, _whole_block_log_abs(poly)(tx, t[None, :]))


def test_torus_kernel_rebuilds_y_powers_for_a_new_row():
    poly = parse_poly(A_POLY)
    tx = _torus_grid(64)[:7, None]
    row_a = _torus_grid(64)[None, :]
    row_b = _torus_grid(64)[None, :] + 0.25      # same length, other values
    row_c = _torus_grid(128)[None, :]
    g = _torus_log_abs(poly)
    for ty in (row_a, row_b, row_a, row_c, row_a):
        assert np.array_equal(g(tx, ty), _torus_log_abs(poly)(tx, ty))
    # a row changed in place after a call is still seen as new
    g = _torus_log_abs(poly)
    ty = row_a.copy()
    g(tx, ty)
    ty += 0.5
    assert np.array_equal(g(tx, ty), _torus_log_abs(poly)(tx, ty))


def test_torus_kernel_exact_zero_is_guarded():
    # x - y vanishes exactly on the diagonal tx = ty: both powers of the
    # same angle come from the same exp, and their difference is 0.0
    t = _torus_grid(64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = _torus_log_abs(parse_poly("x-y"))(t[:, None], t[None, :])
    assert np.all(np.isfinite(vals))
    assert np.all(vals.diagonal() == math.log(1e-300))


@pytest.mark.parametrize("poly", [parse_poly("1+x+y"), parse_poly(A_POLY),
                                  family_poly("P", 3), family_poly("R", 3)], ids=str)
def test_torus2_matches_whole_block_integrand(poly):
    # the four polynomials of the torus benchmark; tol is out of reach, so
    # every grid up to n = 1024 runs, in several row blocks at the last one
    res = mahler_torus2(poly, tol=1e-15, n_max=1024)
    ref = integrate_torus2(_whole_block_log_abs(poly), tol=1e-15, n_max=1024)
    assert res.value == ref.value
    assert res.err_est == ref.err_est


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


def _narrow_arc_poly():
    # y - 1.0001 ((1+x^3)/2)^200: 201 x-exponents, more than one block
    terms = {(0, 1): 1.0}
    for j in range(201):
        terms[(3 * j, 0)] = -1.0001 * math.comb(200, j) / 2.0 ** 200
    return LaurentPoly2(terms)


def test_blocked_coefficients_match_pointwise_on_narrow_arc():
    cx = _y_coeff_polys(_narrow_arc_poly())
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
    cuts = sorted(set(_unit_circle_angles(cx[-1])[0])
                  | set(_crossing_angles(table, 1024)))
    return [0.0] + [t for t in cuts if 1e-12 < t < math.pi - 1e-12] + [math.pi]


def _nodes_next_to_cuts(edges, levels=4):
    """Abscissae of the tanh-sinh nodes of the first levels of every piece;
    they run from the middle of a piece down to its ends."""
    xs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        for level in range(levels):
            for dist in _level_nodes(level)[1]:
                xs += [x for x in (lo + dist * half, hi - dist * half) if lo < x < hi]
    return np.array(xs)


# wt P_3 has real quadratic fibers (the negative-discriminant shortcut);
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


def _one_halving_per_call(cx, n_scan=1024):
    """Crossing bisection with one _count_outside call per halving, as
    reference for the three-halving trees."""
    table = _coeff_table(cx)
    grid = _scan_grid(n_scan)
    counts = _count_outside(table, grid)
    cells = np.flatnonzero(counts[:-1] != counts[1:])
    a, b, na = grid[cells], grid[cells + 1], counts[cells]
    live = np.arange(len(cells))
    for _ in range(60):
        if not len(live):
            break
        mid = 0.5 * (a[live] + b[live])
        same = _count_outside(table, mid) == na[live]
        a[live[same]] = mid[same]
        b[live[~same]] = mid[~same]
        live = live[b[live] - a[live] >= 1e-12]
    return (0.5 * (a + b)).tolist()


@pytest.mark.parametrize("poly", [family_poly("P", 3), family_poly("R", 3),
                                  parse_poly(A_POLY), _narrow_arc_poly()]
                         + [parse_poly(e) for e in CUBIC_QUARTIC_FIBERS], ids=str)
def test_crossing_trees_give_exact_cuts(poly):
    cx = _y_coeff_polys(poly)
    cuts = _crossing_angles(_coeff_table(cx), 1024)
    assert cuts == _one_halving_per_call(cx)


def _eigvals_count(table, thetas):
    """The outside count from root moduli alone, as reference for the
    Schur-Cohn count."""
    mags = _root_magnitudes(_coeffs_grid(table, thetas))
    return np.count_nonzero(mags > 1.0 + _BAND, axis=1)


SCHUR_POLYS = ([family_poly("P", 3)] + [family_poly("R", k) for k in (1, 3, 5)]
               + [parse_poly(A_POLY), _narrow_arc_poly()]
               + [parse_poly(e) for e in CUBIC_QUARTIC_FIBERS + [ALL_FLAGGED]])


@pytest.mark.parametrize("poly", SCHUR_POLYS, ids=str)
def test_schur_count_agrees_with_eigvals_where_decided(poly, monkeypatch):
    table = _coeff_table(_y_coeff_polys(poly))
    angles = []

    def recording(table, thetas):
        angles.append(np.array(thetas))
        return _eigvals_count(table, thetas)

    monkeypatch.setattr(measure, "_count_outside", recording)
    cuts = _crossing_angles(table, 1024)
    monkeypatch.undo()
    assert _crossing_angles(table, 1024) == cuts
    thetas = np.concatenate(angles)        # the scan grid, then the trees
    counts, undecided = count_outside(_coeffs_grid(table, thetas), 1.0 + _BAND)
    decided = ~undecided
    assert (counts[decided] == _eigvals_count(table, thetas)[decided]).all()


def test_all_flagged_polynomial_takes_the_eigvals_fallback():
    table = _coeff_table(_y_coeff_polys(parse_poly(ALL_FLAGGED)))
    grid = _scan_grid()
    assert count_outside(_coeffs_grid(table, grid), 1.0 + _BAND)[1].all()
    assert (_count_outside(table, grid) == _eigvals_count(table, grid)).all()


def test_exactly_vanishing_lead_is_counted_at_the_lower_degree():
    # at x = 1 the fiber is y^2 + 2y + 3, both roots of modulus sqrt 3; the
    # Schur-Cohn count would put the missing third root at infinity
    table = _coeff_table(_y_coeff_polys(parse_poly("(1-x)*y^3+y^2+2*y+3")))
    assert _count_outside(table, np.array([0.0])).tolist() == [2]


def test_jensen_batch_call_count(monkeypatch):
    # scan grid + bisection trees + one call per tanh-sinh level
    calls = []

    def counting(coeffs):
        calls.append(len(coeffs))
        return batch_roots(coeffs)

    monkeypatch.setattr(measure, "batch_roots", counting)
    mahler_jensen(family_poly("R", 3))
    assert len(calls) <= 20


def test_jensen_solves_few_cubic_rows(monkeypatch):
    # the Schur-Cohn count leaves only its undecided rows, and the
    # quadrature's nodes, to the eigenvalue solver
    rows = []

    def counting(coeffs):
        if np.shape(coeffs)[1] > 3:
            rows.append(len(coeffs))
        return batch_roots(coeffs)

    monkeypatch.setattr(measure, "batch_roots", counting)
    mahler_jensen(family_poly("R", 3))
    assert sum(rows) <= 400


def test_root_magnitudes_trim_flip_and_vanishing_rows():
    rows = np.array([[2.0, -3.0, 1.0],      # (y - 1)(y - 2)
                     [0.0, 1.0, 1e-10],     # flipped; reversed lead is 0
                     [0.0, 0.0, 0.0]],      # vanishing fiber
                    dtype=complex)
    mags = np.sort(_root_magnitudes(rows), axis=1)
    assert np.allclose(mags[0], [1.0, 2.0], rtol=1e-15)
    assert mags[1, 0] == 0.0 and abs(mags[1, 1] / 1e10 - 1.0) < 1e-15
    assert mags[2].tolist() == [0.0, 0.0]
