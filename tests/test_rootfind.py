"""Aberth-Ehrlich root finder against the companion-matrix oracle, and the
Schur-Cohn outside count against known roots."""

import random
import warnings

import numpy as np

import pytest

from mahler.rootfind import aberth_roots, batch_roots, count_outside, poly_roots, residual_scale


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


def test_batch_roots_match_poly_roots():
    rng = random.Random(4321)
    for d in range(1, 7):
        rows = []
        for _ in range(12):
            row = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(d + 1)]
            if abs(row[-1]) < 0.3:
                row[-1] += 1.0
            rows.append(row)
        rows.append([0.0] + [1.0] * d)          # a zero root
        batch = batch_roots(rows)
        assert batch.shape == (len(rows), d)
        for row, roots in zip(rows, batch):
            _match(list(roots), poly_roots(row), 1e-9)


def test_batch_quadratic_cancellation_and_zero_root():
    roots = batch_roots([[1.0, -1e8, 1.0], [0.0, -2.0, 1.0]])
    assert abs(min(roots[0], key=abs) - 1e-8) < 1e-16
    assert sorted(abs(r) for r in roots[1]) == [0.0, 2.0]


def test_batch_roots_rejects_zero_leading_coefficient():
    with pytest.raises(ValueError):
        batch_roots([[1.0, 2.0, 3.0, 0.0]])


KNOWN_ROOTS = [0.3 * np.exp(0.4j), 0.6, 1.7 * np.exp(2j), 2.5 * np.exp(-1j), 3.0,
               1.3 * np.exp(0.7j)]


def _from_roots(roots):
    return np.poly(roots)[::-1]     # ascending coefficients


@pytest.mark.parametrize("radius", [1.0, 1.0 + 1e-9])
def test_count_outside_known_roots(radius):
    for n in range(3, 7):
        subsets = [KNOWN_ROOTS[:n], KNOWN_ROOTS[-n:]]
        counts, undecided = count_outside([_from_roots(r) for r in subsets], radius)
        assert counts.tolist() == [sum(abs(z) > radius for z in r) for r in subsets]
        assert not undecided.any()
    real_row = _from_roots([0.6, 3.0, 1.7 * np.exp(2j), 1.7 * np.exp(-2j)])
    assert np.abs(real_row.imag).max() < 1e-15
    counts, undecided = count_outside([real_row.real], radius)
    assert counts.tolist() == [3] and not undecided.any()


def test_count_outside_flags_undecidable_rows():
    rows = [_from_roots([0.5, 1.0, 2.0]),       # a root on the circle
            _from_roots([0.5, 2.0, 3j]),        # y and 1/conj(y): a later
                                                # transform is self-inversive
            [0.0, 0.0, 0.0, 0.0],               # a vanishing row
            [np.nan, 1.0, 2.0, 3.0]]            # a NaN never counts
    assert count_outside(rows, 1.0)[1].tolist() == [True] * 4
    assert count_outside([[1.0, 3.0, 1.0]], 1.0)[1].tolist() == [True]   # p* = p


def test_count_outside_extreme_magnitudes():
    row = _from_roots(KNOWN_ROOTS[:5])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        counts, undecided = count_outside([row * 1e200, row * 1e-200], 1.0)
    assert counts.tolist() == [3, 3] and not undecided.any()
