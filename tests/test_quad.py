"""Quadrature: closed forms, hints, additivity, error-estimate behaviour."""

import math
import random

import numpy as np
import pytest

from mahler.errors import QuadratureError
from mahler.quad import (SingularityHint, _de_weight, _level_nodes, _tanh_sinh,
                         _tanh_sinh_pieces, integrate, integrate_torus2)


def test_constant():
    r = integrate(lambda x: 1.0, 0.0, 1.0, SingularityHint.none(), 1e-12)
    assert abs(r.value - 1.0) < 1e-14
    assert r.err_est < 1e-14
    assert r.evals > 0


def _arcsine_integrand():
    # distance-aware form of 1/sqrt(c(1-c)): the singular factor nearest the
    # endpoint is computed from the exact offset handed over by the rule
    def f(c, d):
        if d > 0:
            return 1.0 / math.sqrt(d * (1.0 - c))
        return 1.0 / math.sqrt(c * (-d))
    f.needs_endpoint_distance = True
    return f


def test_arcsine_integral():
    r = integrate(_arcsine_integrand(), 0.0, 1.0,
                  SingularityHint.inverse_sqrt_both(), 1e-12)
    assert abs(r.value - math.pi) < 1e-12


def test_arcsine_blackbox_error_is_reported():
    # a plain black-box integrand cannot beat ~sqrt(eps) here; the estimate
    # must own up to that
    r = integrate(lambda c: 1.0 / math.sqrt(c * (1.0 - c)), 0.0, 1.0,
                  SingularityHint.inverse_sqrt_both(), 1e-12)
    assert abs(r.value - math.pi) < 1e-6
    assert abs(r.value - math.pi) <= r.err_est


def test_landen_integrand_both_sides():
    # same identity the elliptic module verifies, here through the public
    # 1D interface at k = 10
    k = 10.0
    s = math.sqrt(k * k + 16.0)
    r_low = -0.5 * k * (k + s)
    r_high = -4.0 * k * k / r_low

    def lhs(c, d):
        cc = d if d > 0 else c
        omc = (1.0 - c) if d > 0 else -d
        q = (64.0 * c - 48.0) * c + k * k
        return 1.0 / math.sqrt(cc * omc * q)
    lhs.needs_endpoint_distance = True

    def rhs(v, d):
        va = d if d > 0 else (v + 12.0)
        vb = (r_high - v) if d > 0 else -d
        return 1.0 / math.sqrt(va * vb * (v - r_low))
    rhs.needs_endpoint_distance = True

    ra = integrate(lhs, 0.0, 1.0, SingularityHint.inverse_sqrt_both(), 1e-13)
    rb = integrate(rhs, -12.0, r_high, SingularityHint.inverse_sqrt_both(), 1e-13)
    assert abs(ra.value - rb.value) < 2e-10


def test_one_variable_jensen_is_zero():
    # int_0^pi log|2 cos t| dt = 0, log singularity declared at pi/2
    r = integrate(lambda t: math.log(abs(2.0 * math.cos(t))), 0.0, math.pi,
                  SingularityHint.log_interior(math.pi / 2), 1e-12)
    assert abs(r.value) < 1e-11


def test_infinite_intervals():
    r = integrate(lambda x: math.exp(-x), 0.0, math.inf,
                  SingularityHint.none(), 1e-12)
    assert abs(r.value - 1.0) < 1e-12
    r = integrate(lambda x: 1.0 / (1.0 + x * x), -math.inf, math.inf,
                  SingularityHint.none(), 1e-12)
    assert abs(r.value - math.pi) < 1e-11
    r = integrate(lambda x: math.exp(x), -math.inf, 0.0,
                  SingularityHint.none(), 1e-12)
    assert abs(r.value - 1.0) < 1e-12


def test_additivity_on_random_analytic_integrands():
    rng = random.Random(424242)
    for _ in range(10):
        a0, a1, a2 = (rng.uniform(-2, 2) for _ in range(3))
        w = rng.uniform(0.5, 3.0)

        def f(x, a0=a0, a1=a1, a2=a2, w=w):
            return a0 + a1 * math.sin(w * x) + a2 * math.exp(-x * x)

        a, b = -1.3, 2.1
        c = rng.uniform(a + 0.2, b - 0.2)
        whole = integrate(f, a, b, SingularityHint.none(), 1e-12)
        left = integrate(f, a, c, SingularityHint.none(), 1e-12)
        right = integrate(f, c, b, SingularityHint.none(), 1e-12)
        assert abs(whole.value - left.value - right.value) <= \
            whole.err_est + left.err_est + right.err_est + 1e-13


def test_err_est_monotone_under_tightening():
    corpus = [
        (lambda x: math.exp(-x * x), 0.0, 2.0, SingularityHint.none()),
        (lambda x: math.sin(3 * x) / (1 + x * x), -1.0, 4.0, SingularityHint.none()),
        (lambda x: math.log(x), 0.0, 1.0, SingularityHint.inverse_sqrt_left()),
    ]
    for f, a, b, hint in corpus:
        loose = integrate(f, a, b, hint, 1e-6)
        tight = integrate(f, a, b, hint, 1e-7)
        assert tight.err_est <= loose.err_est * (1.0 + 1e-12)


def test_nan_propagates_with_abscissa():
    def f(x):
        return math.nan if 0.4 < x < 0.6 else 1.0

    with pytest.raises(QuadratureError) as exc:
        integrate(f, 0.0, 1.0, SingularityHint.none(), 1e-10)
    assert exc.value.abscissa is not None


def test_bad_arguments():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0, SingularityHint.none(), 1e-10)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.0, 1.0, SingularityHint.none(), -1.0)
    with pytest.raises(ValueError, match="tol must be positive"):
        integrate(lambda x: x, 0.0, 1.0, SingularityHint.none(), math.nan)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.0, math.inf,
                  SingularityHint.inverse_sqrt_both(), 1e-10)


def test_torus2_constant():
    r = integrate_torus2(
        lambda tx, ty: np.full(np.broadcast(tx, ty).shape, math.log(2.0)),
        tol=1e-13)
    assert abs(r.value - math.log(2.0)) < 1e-13


def test_torus2_smooth_product():
    # mean of cos(tx)^2 * (2 + sin(ty)) over the periodic square = 1
    r = integrate_torus2(lambda tx, ty: np.cos(tx) ** 2 * (2.0 + np.sin(ty)),
                         tol=1e-12)
    assert abs(r.value - 1.0) < 1e-11


def test_torus2_integrand_constant_in_one_variable():
    # g may return its broadcastable shape: here one column per row block
    r = integrate_torus2(lambda tx, ty: np.cos(tx) ** 2, tol=1e-12)
    assert abs(r.value - 0.5) < 1e-12


def test_torus2_budget_exhaustion_reports_err():
    r = integrate_torus2(lambda tx, ty: np.log(np.abs(np.exp(1j * tx)
                                                      + np.exp(1j * ty) - 1.0)),
                         tol=1e-14, n_max=64)
    assert r.err_est > 1e-14       # could not converge, says so


def test_torus2_rejects_n_max_below_start():
    with pytest.raises(ValueError):
        integrate_torus2(lambda tx, ty: np.zeros(np.broadcast(tx, ty).shape),
                         n_max=8)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_torus2_rejects_tol_not_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        integrate_torus2(lambda tx, ty: np.zeros(np.broadcast(tx, ty).shape),
                         tol=tol)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_torus2_non_finite_integrand_raises(bad):
    def g(tx, ty):
        vals = np.zeros(np.broadcast(tx, ty).shape)
        vals[-1, -1] = bad
        return vals

    with pytest.raises(QuadratureError, match="not finite"):
        integrate_torus2(g)


def test_level_nodes_match_de_weight():
    for level in range(13):
        ts, dists, ws = _level_nodes(level)
        h = 0.5 ** level
        first, step = (0, 1) if level == 0 else (1, 2)
        assert list(ts) == [j * h for j in range(first, int(6.11 / h) + 1, step)]
        for t, dist, w in zip(ts, dists, ws):
            assert (dist, w) == _de_weight(t)


def _log_spike(x):
    # -inf within 1e-12 of the kink at 1/2: inside 1e-9 * half of that
    # endpoint, so both rules must skip it
    return -math.inf if abs(x - 0.5) < 1e-12 else math.log(abs(x - 0.5))


# (scalar integrand, edges): several pieces per call, converging at
# different levels
PIECE_CASES = {
    "smooth": (lambda x: math.exp(-x * x) * math.cos(3.0 * x),
               [-1.0, 0.0, 0.1, 2.5, 9.0]),
    "inverse_sqrt": (lambda x: 1.0 / math.sqrt(x * (1.0 - x)),
                     [0.0, 1e-3, 0.5, 1.0]),
    "log_spike": (_log_spike, [0.0, 0.5, 1.0, 4.0]),
}


@pytest.mark.parametrize("name", sorted(PIECE_CASES))
def test_pieces_rule_matches_scalar_rule(name):
    f, edges = PIECE_CASES[name]
    calls = []

    def F(xs):
        calls.append(len(xs))
        return np.array([f(x) for x in xs])

    pieces = _tanh_sinh_pieces(F, edges, 1e-11)
    assert len(pieces) == len(edges) - 1
    for r, lo, hi in zip(pieces, edges[:-1], edges[1:]):
        ref = _tanh_sinh(f, lo, hi, 1e-11)
        assert abs(r.value - ref.value) <= 1e-15 * abs(ref.value)
        assert abs(r.err_est - ref.err_est) <= 1e-15
        assert r.evals == ref.evals
    assert len({r.evals for r in pieces}) > 1        # different levels reached
    assert sum(calls) == sum(r.evals for r in pieces)
    assert len(calls) <= 13                          # one call per level
    if name == "inverse_sqrt":
        assert max(r.err_est for r in pieces) > 1e-8     # deepest-node cap


@pytest.mark.parametrize("edges", [[0.0, 1.0], [0.0, 0.45, 1.0]])
def test_pieces_rule_interior_nan_raises_with_abscissa(edges):
    def f(x):
        return math.nan if 0.4 < x < 0.6 else 1.0

    with pytest.raises(QuadratureError) as exc:
        _tanh_sinh_pieces(lambda xs: np.array([f(x) for x in xs]), edges, 1e-10)
    assert 0.4 < exc.value.abscissa < 0.6
    if len(edges) == 2:
        with pytest.raises(QuadratureError) as ref:
            _tanh_sinh(f, edges[0], edges[1], 1e-10)
        assert exc.value.abscissa == ref.value.abscissa
