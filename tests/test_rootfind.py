"""Aberth-Ehrlich root finder against the companion-matrix oracle."""

import random

import numpy as np

import pytest

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
