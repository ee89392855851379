"""The batched solver against the scalar Aberth-Ehrlich reference and
mpmath, and that reference against the companion-matrix oracle."""

import math
import random
import warnings

import mpmath
import numpy as np

import pytest

from mahler import rootfind
from mahler.rootfind import aberth_roots, batch_roots, poly_roots, residual_scale


def _match(mine, theirs, tol):
    mine = sorted(mine, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    theirs = sorted(theirs, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    assert len(mine) == len(theirs)
    for a, b in zip(mine, theirs):
        assert abs(a - b) < tol, (a, b)


def test_against_numpy_on_random_polynomials():
    rng = random.Random(1234)
    for _ in range(40):
        d = rng.randint(3, 8)
        coeffs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                  for _ in range(d + 1)]
        if abs(coeffs[-1]) < 0.3:
            coeffs[-1] += 1.0
        mine = aberth_roots(coeffs)
        oracle = list(np.roots(list(reversed(coeffs))))
        _match(mine, oracle, 1e-7)


def test_residuals_meet_contract():
    rng = random.Random(77)
    for _ in range(30):
        d = rng.randint(3, 6)
        coeffs = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                  for _ in range(d + 1)]
        if abs(coeffs[-1]) < 0.3:
            coeffs[-1] += 1.0
        for z in aberth_roots(coeffs):
            p = sum(c * z ** m for m, c in enumerate(coeffs))
            assert abs(p) <= 1e-13 * residual_scale(coeffs, z)


def test_zero_root_deflation():
    roots = aberth_roots([0, 0, -1, 1])     # z^2 (z - 1)
    zero_count = sum(1 for r in roots if abs(r) < 1e-14)
    assert zero_count == 2
    assert any(abs(r - 1.0) < 1e-12 for r in roots)


def test_small_degrees_closed_form():
    assert poly_roots([5]) == []
    assert abs(poly_roots([-6, 2])[0] - 3.0) < 1e-15
    roots = sorted(poly_roots([2, -3, 1]), key=lambda z: z.real)
    assert abs(roots[0] - 1.0) < 1e-14 and abs(roots[1] - 2.0) < 1e-14


def test_poly_roots_is_one_batch_row():
    # zero leading coefficients are trimmed before the one-row solve
    assert poly_roots([0, 0]) == []
    assert poly_roots([1, 2, 0, 0]) == [-0.5]
    row = [2.0, -1.0 + 1j, 0.5, 3.0, 1.0]
    assert poly_roots(row) == batch_roots([row])[0].tolist()


def test_quadratic_cancellation_resistance():
    # x^2 - 1e8 x + 1: naive formula loses the tiny root
    roots = sorted(poly_roots([1.0, -1e8, 1.0]), key=lambda z: abs(z))
    assert abs(roots[0] - 1e-8) < 1e-16
    assert abs(roots[1] - 1e8) < 1.0


def test_cyclotomic_roots_on_circle():
    # z^6 - 1
    roots = aberth_roots([-1, 0, 0, 0, 0, 0, 1])
    assert len(roots) == 6
    for r in roots:
        assert abs(abs(r) - 1.0) < 1e-12


def test_batch_roots_match_aberth_roots():
    rng = random.Random(4321)
    for d in range(1, 7):
        rows = []
        for _ in range(12):
            row = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(d + 1)]
            if abs(row[-1]) < 0.3:
                row[-1] += 1.0
            rows.append(row)
        rows.append([0.0] + [1.0] * d)          # a zero root
        rows.append([1e-20] + [1.0] * d)        # a tiny root
        rows.append([0.0, 0.0] + [1.0] * (d - 1) if d > 1 else [2.0, 1.0])
        batch = batch_roots(rows)
        assert batch.shape == (len(rows), d)
        for row, roots in zip(rows, batch):
            _match(list(roots), aberth_roots(row), 1e-9)


def test_batch_quadratic_cancellation_and_zero_root():
    roots = batch_roots([[1.0, -1e8, 1.0], [0.0, -2.0, 1.0]])
    assert abs(min(roots[0], key=abs) - 1e-8) < 1e-16
    assert sorted(abs(r) for r in roots[1]) == [0.0, 2.0]


def test_batch_quadratic_extreme_magnitudes():
    # rows near 1e+-200: unscaled, the discriminant overflows or underflows
    rows = np.array([[2.0 + 1j, -3.0, 1.0 - 0.5j], [1.0, 1e8, 1.0], [-0.0j, 2.0, 1.0]])
    plain = batch_roots(rows)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for scale in (2.0 ** 600, 2.0 ** -600):      # exact scalings
            assert np.array_equal(batch_roots(rows * scale), plain)
        for scale in (1e200, 1e-200):
            scaled, ref = np.sort(batch_roots(rows * scale)), np.sort(plain)
            assert np.all(np.abs(scaled - ref) <= 4e-16 * np.abs(ref))
            for row, roots in zip(rows * scale, ref):
                _match(poly_roots(row), list(roots), 4e-16 * np.abs(roots).max())


def test_batch_roots_rejects_zero_leading_coefficient():
    with pytest.raises(ValueError):
        batch_roots([[1.0, 2.0, 3.0, 0.0]])


def _fallback_calls(monkeypatch):
    """The monic rows of each call of the eigenvalue fallback, as it runs."""
    calls = []
    companion = rootfind._companion_roots

    def recording(monic):
        calls.append(np.array(monic))
        return companion(monic)

    monkeypatch.setattr(rootfind, "_companion_roots", recording)
    return calls


@pytest.mark.parametrize("m", range(1, 6))
def test_batch_roots_edge_contract(m, monkeypatch):
    # no rows give an (0, m) array; a non-finite coefficient gives NaN roots
    # at every degree, and its row never reaches the eigenvalue fallback
    assert batch_roots(np.zeros((0, m + 1))).shape == (0, m)
    calls = _fallback_calls(monkeypatch)
    good = [1.0, -2.0, 0.5j, 3.0, -1.0, 2.0][:m + 1]
    rows = np.array([good, good, good, good], dtype=complex)
    rows[1, 0] = np.nan
    rows[2, -1] = np.inf
    rows[3, m // 2] = complex(-np.inf, 1.0)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        roots = batch_roots(rows)
    assert roots.shape == (4, m)
    assert np.isnan(roots[1:]).all() and not np.isnan(roots[0]).any()
    assert np.array_equal(roots[0], batch_roots([good])[0])
    assert all(np.isfinite(monic).all() for monic in calls)


def _mp_roots(row):
    """Roots of the ascending ``row`` by ``mpmath.polyroots`` at 50 digits,
    plus the decades its nonzero coefficients span, so that a root far
    below the others is resolved too.  Exact zero roots are split off.  A
    row whose lead lies below 1e-100 of its largest coefficient has roots
    beyond 1e100, which the iteration, started near the unit circle, does
    not reach in its steps: its reversed row is solved and the roots are
    inverted at the working precision."""
    zeros = next(j for j, c in enumerate(row) if c != 0)
    row = row[zeros:]
    mags = [abs(c) for c in row if c != 0]
    extra = int(math.log10(max(mags) / min(mags))) + 1
    if len(row) == 2:
        return np.array([0j] * zeros + [-complex(row[0]) / complex(row[1])])
    flip = abs(row[-1]) < 1e-100 * max(mags)
    with mpmath.workdps(50 + extra):
        roots = mpmath.polyroots([mpmath.mpc(complex(c)) for c in (row if flip else row[::-1])],
                                 maxsteps=500, extraprec=100)
        roots = [1 / r if flip else r for r in roots]
    return np.array([0j] * zeros + [complex(r) for r in roots])


def _rel_errors(mine, ref):
    """|z - r| / |r| for each reference root r, matched to the nearest of
    ``mine`` left, the smallest r first (an exact zero root must come out
    exactly 0), and the matched roots, in that order."""
    left = list(mine)
    errs, matched = [], []
    for r in sorted(ref, key=abs):
        z = left.pop(int(np.argmin([abs(z - r) for z in left])))
        errs.append(abs(z - r) / abs(r) if r != 0 else (0.0 if z == 0 else math.inf))
        matched.append(z)
    return np.array(errs), np.array(matched)


def _condition(row, ref):
    """Relative condition number sum_j |c_j| |r|^j / (|r| |p'(r)|) of each
    root r, at least 1, in the order of ``_rel_errors``.  For |r| > 1 both
    sums are taken divided by r^m, which keeps them finite for a huge r."""
    ref = np.array(sorted(ref, key=abs))
    row = np.asarray(row)[:, None]
    j = np.arange(len(row))[:, None]
    big = np.abs(ref) > 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        powers = np.where(big, 1.0 / ref, ref) ** np.where(big, len(row) - 1 - j, j)
        scale = (np.abs(row) * np.abs(powers)).sum(axis=0)
        slope = np.abs((j * row * powers).sum(axis=0))      # |r p'(r)|, so divided
        return np.maximum(np.nan_to_num(scale / slope, nan=1.0), 1.0)


def _assert_accurate(rows, ulps=16):
    """Each root within ``ulps`` eps of relative error per unit of its
    condition number, against mpmath: the roots are those of a polynomial
    within a few ulps of each row.  Returns the reference roots of each
    row, ascending in modulus, and the roots matched to them."""
    rows = np.asarray(rows, dtype=complex)
    pairs = []
    for row, roots in zip(rows, batch_roots(rows)):
        ref = _mp_roots(row)
        errs, matched = _rel_errors(roots, ref)
        assert np.all(errs <= ulps * np.finfo(float).eps * _condition(row, ref)), (row, errs)
        pairs.append((np.array(sorted(ref, key=abs)), matched))
    return pairs


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_closed_form_random_rows_match_mpmath(m, real):
    rng = np.random.default_rng(7 + m)
    rows = rng.standard_normal((60, m + 1))
    if not real:
        rows = rows + 1j * rng.standard_normal((60, m + 1))
    _assert_accurate(rows)
    if real:    # a real row's roots come in conjugate pairs
        for roots in batch_roots(rows):
            assert _rel_errors(np.conj(roots), roots)[0].max() <= 1e-13


def _rows_from_roots(root_sets):
    return np.array([np.poly(r)[::-1] for r in root_sets])


@pytest.mark.parametrize("m", [3, 4])
def test_closed_form_roots_on_and_near_the_circle(m):
    rng = np.random.default_rng(11 * m)
    sets = []
    for off in (0.0, 1e-9, -1e-9):
        for _ in range(20):
            rho = 1.0 + off * np.where(np.arange(m) % 2, 1.0, -1.0)
            sets.append(rho * np.exp(1j * rng.uniform(-np.pi, np.pi, m)))
        for a, b in rng.uniform(0.1, 3.0, (20, 2)):
            # real rows: conjugate pairs on or next to the circle
            pair = [(1 + off) * np.exp(1j * a), (1 + off) * np.exp(-1j * a)]
            rest = [(1 - off) * np.exp(1j * b), (1 - off) * np.exp(-1j * b)] if m == 4 else [-1.0]
            sets.append(np.array(pair + rest))
    for ref, mine in _assert_accurate(_rows_from_roots(sets)):
        # the side of the circle, where the reference is more than 1e-12 off it
        sure = np.abs(np.abs(ref) - 1.0) > 1e-12
        assert np.array_equal(np.abs(mine[sure]) > 1.0, np.abs(ref[sure]) > 1.0)


@pytest.mark.parametrize("m", [3, 4])
def test_closed_form_clusters_no_worse_than_eigenvalues(m):
    rng = np.random.default_rng(5 * m)
    sets = []
    for _ in range(40):
        centre = rng.uniform(0.3, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        others = 2.0 * rng.standard_normal(m - 2) + 2j * rng.standard_normal(m - 2)
        sets.append(np.concatenate([[centre, centre + 1e-8 * np.exp(1j * rng.uniform(0, 7))],
                                    others]))
    rows = _rows_from_roots(sets)
    eig = rootfind._companion_roots(rows[:, :-1] / rows[:, -1:])
    for row, mine, theirs in zip(rows, batch_roots(rows), eig):
        ref = _mp_roots(row)
        assert _rel_errors(mine, ref)[0].max() <= 2.0 * _rel_errors(theirs, ref)[0].max()


TINY_ROWS = [
    [1e-300, 3.0, 0.0, 1.0],                    # y^3 + 3y + eps: one tiny root
    [5e-303, 3.0, 0.0, 1.0],
    [1e-17, 3.0, 0.0, 1.0],
    [-2e-200, 1.0 - 2.0j, 0.5, 1.0],
    [1e-300, 0.0, 1.0, 4.0, -3.0],              # -3y^4 + 4y^3 + y^2 + eps: two
    [1e-120j, 0.0, 1.0, 4.0, -3.0],
    [1e-17, 0.0, 1.0, 4.0, -3.0],
    [3e-250, 2e-125, 1.0, 4.0, -3.0],
    [1e-200, 1.0, 0.0, 1.0, 4.0],               # one tiny root of a quartic
    [1.0, 3.0, -2.0, 1e-7],                     # two, three roots far below
    [1.0, 1.0, 3.0, -2.0, 1e-7],                # the last one (a small lead)
    [0.0, 3.0, 0.0, 1.0],                       # exact zero roots
    [0.0, 0.0, 1.0, 1.0],
    [0.0, 2.0, 1.0, 4.0, -3.0],
    [0.0, 0.0, 1.0, 4.0, -3.0],
    [0.0, 0.0, 0.0, 1.0, 4.0],
]


@pytest.mark.parametrize("row", TINY_ROWS, ids=str)
def test_closed_form_tiny_and_zero_roots(row, monkeypatch):
    # the closed forms resolve them: no row goes to the eigenvalues
    monkeypatch.setattr(rootfind, "_companion_roots", None)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        batch_roots([row])
    _assert_accurate([row])


# (y - 1)(y - 2), (y - 1)(y - 2)(y - 3) and (y - 1)...(y - 4) with a lead
# far below: the huge root of each takes its size from the lead, and the
# small ones must survive it (a cubic keeps them down to a lead of about
# 1e-150 when it is solved as it is)
NEAR_VANISHING_LEADS = (
    [[2.0, -3.0, 1.0, lead] for lead in (1e-160, -1e-200, 3e-250, 1e-300)]
    + [low + [lead] for low in ([-6.0, 11.0, -6.0, 1.0], [24.0, -50.0, 35.0, -10.0, 1.0])
       for lead in (1e-120, -1e-160, 1e-200, 3e-250, 1e-300)])


@pytest.mark.parametrize("row", NEAR_VANISHING_LEADS, ids=str)
def test_near_vanishing_lead_keeps_every_root(row):
    # solved reversed, with its roots inverted: every root to the bound of
    # the closed forms, with no warning
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        batch_roots([row])
    _assert_accurate([row])


@pytest.mark.parametrize("row", [
    [1e-200, 1.0, -10.0, 35.0, -50.0, 24.0],            # one tiny root
    [1e-300, 0.0, 1.0, -10.0, 35.0, -50.0, 24.0],       # two, +-1e-150 i
    [3e-90, 1.0, -5.0, 2.0, 7.0, 1.0, -3.0],
    [1e-30, 1.0 - 1.0j, 2.0, 0.5j, 1.0, 1.5],
], ids=str)
def test_eigenvalue_rows_restart_tiny_roots(row):
    # the eigenvalues give a tiny root only to within rounding of the
    # largest, often as 0; it restarts from the low-order truncation
    _assert_accurate([row])


def test_row_small_at_both_ends_keeps_its_tiny_root():
    # 1 + 1e250 y + 1e250 y^2 + y^3 is not reversed, and its scaling by
    # 2^830 underflows the constant to 0: the root -1e-250 restarts from
    # the truncation 1 + 1e250 y
    roots = sorted(batch_roots([[1.0, 1e250, 1e250, 1.0]])[0], key=abs)
    for root, ref in zip(roots, [-1e-250, -1.0, -1e250], strict=True):
        assert abs(root - ref) <= 1e-15 * abs(ref)


def _newton_refined(row, z, steps=30):
    """The root of the ascending ``row`` that Newton's method reaches from
    ``z`` at 50 digits, where mpmath.polyroots does not converge for the
    spans of 500 decades below."""
    with mpmath.workdps(50):
        coeffs = [mpmath.mpc(complex(c)) for c in reversed(row)]
        z = mpmath.mpc(z)
        for _ in range(steps):
            p, dp = mpmath.polyval(coeffs, z, derivative=True)
            z -= p / dp
        return complex(z)


@pytest.mark.parametrize("row", [
    [1.0, 1e250, 1e250, 1e-10],                     # reversed as well
    [2.0 + 1.0j, 3e250, 1e250j, 1.0],
    [1e-200, 0.0, 1e250, 1e250, 1.0],               # two: +-1e-225 i
    [1.0, 1e250, 1e250, 1.0, 1.0, 1.0, 1.0],        # the eigenvalue rows
], ids=str)
def test_underflowed_monic_constant_restarts_small_roots(row):
    # every root within 1e-15 relative of the distinct root Newton's
    # method reaches from it
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        roots = batch_roots([row])[0]
    refined = [_newton_refined(row, z) for z in roots]
    assert len({(r.real, r.imag) for r in refined}) == len(row) - 1
    for z, r in zip(roots, refined):
        assert abs(z - r) <= 1e-15 * abs(r)


@pytest.mark.parametrize("m", [3, 4])
def test_closed_form_extreme_magnitudes(m):
    # the scalings of the quadratic test: 2^+-600 is exact, 1e+-200 rounds
    # the coefficients, which moves a root by its condition number in ulps
    sets = [[2.0 + 1j, -3.0, 1.0 - 0.5j, 0.25j][:m], [0.5, 3.0, -1.5j, 2.0 + 2j][:m]]
    rows = np.concatenate([_rows_from_roots(sets),
                           [[2.0 + 1j, -3.0, 1.0 - 0.5j, 1.0, 0.7][:m + 1],
                            [1e-17, 3.0, 0.0, 1.0, 2.0][:m + 1],
                            [1.0, 1e8, 1.0, 1.0, 1.0][:m + 1]]])
    plain = batch_roots(rows)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for scale in (2.0 ** 600, 2.0 ** -600):
            assert np.array_equal(batch_roots(rows * scale), plain)
        for scale in (1e200, 1e-200):
            for row, mine, ref in zip(rows, batch_roots(rows * scale), plain):
                errs = _rel_errors(mine, ref)[0]
                assert np.all(errs <= 4e-16 * _condition(row, ref))


def test_newton_check_rejects_two_roots_on_one():
    # w^3 - 6w^2 + 11w - 6 = (w - 1)(w - 2)(w - 3) from the starts 1, 1, 3:
    # every residual vanishes, but the roots sum to 5, not 6
    a = np.array([[-6.0], [11.0], [-6.0]], dtype=complex)
    w, ok = rootfind._newton_rows(a, np.array([[1.0], [1.0], [3.0]], dtype=complex))
    assert np.array_equal(w[:, 0], [1.0, 1.0, 3.0]) and not ok[0]
    assert rootfind._newton_rows(a, np.array([[1.0], [2.0], [3.0]], dtype=complex))[1][0]


def test_rejected_row_takes_the_eigenvalue_fallback(monkeypatch):
    # (y - 1)^3: Cardano's u is 0 at a triple root, so the row fails the
    # check; the row beside it is accepted and keeps its closed-form roots
    calls = _fallback_calls(monkeypatch)
    good = [2.0 + 1j, -3.0, 1.0 - 0.5j, 1.0]
    roots = batch_roots([[-1.0, 3.0, -3.0, 1.0], good])
    assert [len(monic) for monic in calls] == [1]
    assert np.abs(roots[0] - 1.0).max() < 1e-4      # a triple root: eps^(1/3)
    assert _rel_errors(roots[1], _mp_roots(good))[0].max() <= 1e-15

