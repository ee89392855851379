"""Point counts, coefficient tables, and the completed L-function."""

import itertools
import math
import random

import numpy as np
import pytest

from mahler.eclf import (
    CURVE_15,
    CURVE_210,
    CURVE_224,
    CurveLData,
    WeierstrassCurve,
    ap_bruteforce,
    ap_count,
    curve_ek,
    exp_e1,
    lambda_completed,
    lambda_with_error,
    l_deriv_at_0,
    resolve_bad_data,
    upper_gamma,
    _an_list,
    _lambda_theta,
    _smoothing_weights,
    _truncation_m,
)
from mahler.errors import ResolutionError
from mahler.quad import SingularityHint, integrate


def test_discriminants_factor_over_conductor_primes():
    assert CURVE_224.discriminant() == 25088         # 2^9 * 7^2
    assert CURVE_210.discriminant() == 1680          # 2^4 * 3 * 5 * 7
    assert CURVE_15.discriminant() == -15


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        WeierstrassCurve(0, 0, 0, 0, 0)


def test_a3_of_224_model_against_bruteforce():
    # oracle first: enumerate F_3 points of y^2 = x^3 + x^2 - 8x - 8
    assert ap_bruteforce(CURVE_224, 3) == -2
    assert ap_count(CURVE_224, 3) == -2


@pytest.mark.parametrize("curve", [CURVE_224, CURVE_210, curve_ek(4)])
def test_ap_matches_bruteforce(curve):
    disc = abs(curve.discriminant())
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        if disc % p == 0:
            continue
        assert ap_count(curve, p) == ap_bruteforce(curve, p)


def test_ap_count_rejects_bad_input():
    with pytest.raises(ValueError):
        ap_count(CURVE_224, 2)
    with pytest.raises(ValueError):
        ap_count(CURVE_224, 7)      # bad reduction
    with pytest.raises(ValueError):
        ap_count(CURVE_224, 9)      # not prime
    with pytest.raises(ValueError):
        ap_count(CURVE_224, 1048583)  # the first prime above 2^20: int64 bound


def test_hasse_bound():
    for curve in (CURVE_224, CURVE_210, CURVE_15):
        disc = abs(curve.discriminant())
        for p in range(3, 200):
            if disc % p == 0 or not all(p % q for q in range(2, p)):
                continue
            assert abs(ap_count(curve, p)) <= 2.0 * math.sqrt(p)


def test_e4_is_twist_of_224_model():
    # the two models share |a_p| at every good prime, with the sign ratio
    # given by a single quadratic character (recorded empirically)
    e4 = curve_ek(4)
    from mahler.specialfn import kronecker_symbol
    candidates = {1, -1, 2, -2, 7, -7, 14, -14}
    for p in range(3, 100):
        if not all(p % q for q in range(2, p)):
            continue
        if abs(e4.discriminant()) % p == 0 or abs(CURVE_224.discriminant()) % p == 0:
            continue
        a1 = ap_count(e4, p)
        a2 = ap_count(CURVE_224, p)
        assert abs(a1) == abs(a2), p
        if a2 != 0:
            ratio = a1 // a2
            candidates = {d for d in candidates
                          if kronecker_symbol(d, p) == ratio}
    assert candidates, "no quadratic character explains the sign pattern"


def test_resolution_224():
    data = resolve_bad_data(CURVE_224)
    assert data.bad_ap[2] == 0                 # additive at 2^5
    assert data.bad_ap[7] in (-1, 1)
    assert data.root_number == -1
    assert data.residual < 1e-8


def test_resolution_224_is_unique():
    data = resolve_bad_data(CURVE_224)
    M = _truncation_m(224, 1e-11)
    # every other assignment fails the theta-consistency probe badly
    for eps in (1, -1):
        for a2 in (-1, 0, 1):
            for a7 in (-1, 0, 1):
                if (eps, a2, a7) == (data.root_number, data.bad_ap[2],
                                     data.bad_ap[7]):
                    continue
                an = _an_list(data.ap, {2: a2, 7: a7}, M)
                resid = sum(
                    abs(_lambda_theta(224, an, eps, s, 1.0, M)
                        - _lambda_theta(224, an, eps, s, 1.25, M))
                    for s in (0.8, 1.3))
                assert resid > 1e-4


def _other_residuals(data, probes):
    """Theta-consistency residuals at ``probes`` of every assignment other
    than the resolved one, with the theta-differences of the weights built
    once: the 161 other assignments of 210 would cost ~0.5 s through
    _lambda_theta."""
    N = data.conductor
    M = _truncation_m(N, 1e-11)
    diffs = []
    for s in probes:
        (A1, B1), (A2, B2) = (_smoothing_weights(N, s, th, M)
                              for th in (1.0, 1.25))
        diffs.append((A1 - A2, B1 - B2))
    bad_primes = sorted(data.bad_ap)
    resolved = (data.root_number, tuple(data.bad_ap[q] for q in bad_primes))
    others = {}
    for eps in (1, -1):
        for combo in itertools.product((-1, 0, 1), repeat=len(bad_primes)):
            if (eps, combo) == resolved:
                continue
            an = _an_list(data.ap, dict(zip(bad_primes, combo)), M)
            a = np.asarray(an[1:], dtype=float)
            others[eps, combo] = sum(abs(dA @ a + eps * (dB @ a))
                                     for dA, dB in diffs)
    assert len(others) == 2 * 3 ** len(bad_primes) - 1
    return others


@pytest.mark.parametrize("curve", [CURVE_210, CURVE_15], ids=["210", "15"])
def test_resolution_is_unique(curve):
    # as test_resolution_224_is_unique, at the probes s in {0.8, 1.3} that
    # resolve_bad_data no longer uses: an independent check that the data
    # it pins are the only consistent ones.  Second-best residuals: 9.3e-4
    # (210), 2.4e-4 (15).
    others = _other_residuals(resolve_bad_data(curve), (0.8, 1.3))
    for key, resid in others.items():
        assert resid > 1e-4, (key, resid)


@pytest.mark.parametrize("curve", [CURVE_224, CURVE_210, CURVE_15],
                         ids=["224", "210", "15"])
def test_resolution_is_unique_at_closed_form_probes(curve):
    # the probes resolve_bad_data uses, s in {1, 2}: every other assignment
    # is far above the 1e-8 threshold.  Second-best residuals: 2.7e-2 (224),
    # 1.0e-3 (210), 2.6e-4 (15).
    data = resolve_bad_data(curve)
    assert data.residual < 1e-13
    others = _other_residuals(data, (1.0, 2.0))
    for key, resid in others.items():
        assert resid > 1e-4, (key, resid)


def _lambda_theta_loop(N, an, eps, s, theta, M):
    """The smoothed series term by term through the scalar upper_gamma."""
    rtn = math.sqrt(N)
    two_pi = 2.0 * math.pi
    fac1 = N ** (0.5 * s) * two_pi ** (-s)
    fac2 = N ** (0.5 * (2.0 - s)) * two_pi ** (s - 2.0)
    total = 0.0
    for n in range(1, M + 1):
        if an[n] == 0.0:
            continue
        t1 = n ** (-s) * fac1 * upper_gamma(s, two_pi * n * theta / rtn)
        t2 = (n ** (s - 2.0) * fac2
              * upper_gamma(2.0 - s, two_pi * n / (theta * rtn)))
        total += an[n] * (t1 + eps * t2)
    return total


@pytest.mark.parametrize("curve", [CURVE_224, CURVE_210], ids=["224", "210"])
def test_lambda_theta_matches_term_by_term_series(curve):
    data = resolve_bad_data(curve)
    N = curve.conductor
    M = _truncation_m(N, 1e-11)
    an = _an_list(data.ap, data.bad_ap, M)
    for s in (0.8, 1.0, 1.3, 2.0):
        for theta in (1.0, 1.25):
            for eps in (1, -1):
                ref = _lambda_theta_loop(N, an, eps, s, theta, M)
                val = _lambda_theta(N, an, eps, s, theta, M)
                if s == 1.0 and eps == data.root_number == -1:
                    # Lambda(1) = -Lambda(1) = 0 at every theta: both sums
                    # are rounding noise of terms of order 1
                    assert max(abs(val), abs(ref)) < 1e-14, (theta, val, ref)
                else:
                    assert abs(val - ref) <= 1e-13 * abs(ref), (s, theta, eps)


@pytest.mark.parametrize("N", [224, 210, 15])
def test_closed_form_weights_match_scalar_upper_gamma(N):
    # s = 1 and s = 2 take numpy closed forms and exp_e1 instead of the
    # scalar upper_gamma; each weight agrees with it to 1e-15 relative
    rtn = math.sqrt(N)
    two_pi = 2.0 * math.pi
    M = _truncation_m(N, 1e-11)
    for s in (1.0, 2.0):
        fac1 = N ** (0.5 * s) * two_pi ** (-s)
        fac2 = N ** (0.5 * (2.0 - s)) * two_pi ** (s - 2.0)
        for theta in (1.0, 1.25):
            A, B = _smoothing_weights(N, s, theta, M)
            for n in range(1, M + 1):
                a = n ** (-s) * fac1 * upper_gamma(s, two_pi * n * theta / rtn)
                b = (n ** (s - 2.0) * fac2
                     * upper_gamma(2.0 - s, two_pi * n / (theta * rtn)))
                assert abs(A[n - 1] - a) <= 1e-15 * abs(a), (s, theta, n)
                assert abs(B[n - 1] - b) <= 1e-15 * abs(b), (s, theta, n)


def _ap_legendre_reference(curve, p):
    """a_p as minus the Legendre-symbol sum, each step reduced mod p."""
    b2, b4, b6, _ = curve.b_invariants()
    x = np.arange(p, dtype=np.int64)
    g = (((4 * x + b2) % p * x + (2 * b4) % p) % p * x + b6 % p) % p
    is_sq = np.zeros(p, dtype=bool)
    is_sq[(x * x) % p] = True
    chi = np.where(g == 0, 0, np.where(is_sq[g], 1, -1))
    return -int(chi.sum())


@pytest.mark.parametrize("curve", [CURVE_224, CURVE_210, CURVE_15,
                                   curve_ek(4)],
                         ids=["224", "210", "15", "E_4"])
def test_ap_count_matches_legendre_sum(curve):
    disc = abs(curve.discriminant())
    checked = 0
    for p in range(3, 1001):
        if not all(p % q for q in range(2, int(p ** 0.5) + 1)) or disc % p == 0:
            continue
        assert ap_count(curve, p) == _ap_legendre_reference(curve, p), p
        checked += 1
    assert checked >= 160


def _an_list_reference(good_ap, bad_ap, M):
    """a_1..a_M built in one pass: sieve, prime powers, then products."""
    a = [0.0] * (M + 1)
    a[1] = 1.0
    spf = list(range(M + 1))
    for p in range(2, int(M ** 0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, M + 1, p):
                if spf[m] == m:
                    spf[m] = p
    for p in range(2, M + 1):
        if spf[p] != p:
            continue
        if p in bad_ap:
            pe = p
            while pe <= M:
                a[pe] = float(bad_ap[p]) ** round(math.log(pe, p))
                pe *= p
        else:
            ap = good_ap[p]
            prev2, prev1 = 1.0, float(ap)
            a[p] = prev1
            pe = p * p
            while pe <= M:
                cur = ap * prev1 - p * prev2
                a[pe] = cur
                prev2, prev1 = prev1, cur
                pe *= p
    for n in range(2, M + 1):
        p = spf[n]
        if p == n:
            continue
        pe = p
        while n % (pe * p) == 0:
            pe *= p
        if pe != n:
            a[n] = a[pe] * a[n // pe]
    return a


@pytest.mark.parametrize("curve", [CURVE_224, CURVE_210, CURVE_15],
                         ids=["224", "210", "15"])
def test_an_list_matches_one_pass_reference(curve):
    data = resolve_bad_data(curve)
    bad_primes = sorted(data.bad_ap)
    for M in (_truncation_m(curve.conductor, 1e-11), 500):
        for combo in itertools.product((-1, 0, 1), repeat=len(bad_primes)):
            bad_ap = dict(zip(bad_primes, combo))
            assert (_an_list(data.ap, bad_ap, M)
                    == _an_list_reference(data.ap, bad_ap, M)), (M, combo)


def test_an_list_rejects_bad_prime_value_outside_range():
    data = resolve_bad_data(CURVE_15)
    with pytest.raises(ValueError):
        _an_list(data.ap, {3: 2, 5: 1}, 50)


def test_bad_prime_above_200_is_wrong_conductor():
    # |disc| = 1435968 = 2^6 3^4 277: the bad prime 277 lies inside the
    # point-count range but does not divide N = 6
    curve = WeierstrassCurve(0, 0, 0, -30, -26)
    assert abs(curve.discriminant()) == 2 ** 6 * 3 ** 4 * 277
    with pytest.raises(ResolutionError, match="277"):
        resolve_bad_data(curve, N=6)


def test_resolution_210():
    data = resolve_bad_data(CURVE_210)
    assert all(data.bad_ap[q] in (-1, 1) for q in (2, 3, 5, 7))
    assert data.residual < 1e-8


def test_resolution_15():
    data = resolve_bad_data(CURVE_15)
    assert data.root_number == 1        # Lambda(1) != 0 for this curve
    assert data.residual < 1e-8


def test_wrong_conductor_rejected():
    with pytest.raises(ResolutionError):
        resolve_bad_data(CURVE_224, N=225)
    with pytest.raises(ResolutionError):
        resolve_bad_data(CURVE_224, N=448)


def test_functional_equation_residual_grid():
    data = resolve_bad_data(CURVE_224)
    for s in (0.6, 0.8, 1.0, 1.2, 1.4):
        lhs = lambda_completed(data, s)
        rhs = data.root_number * lambda_completed(data, 2.0 - s)
        assert abs(lhs - rhs) < 1e-9


def test_lambda_stable_under_longer_truncation():
    for data in (resolve_bad_data(CURVE_224), resolve_bad_data(CURVE_210)):
        a = lambda_completed(data, 2.0, tol=1e-11)
        b = lambda_completed(data, 2.0, tol=1e-14)    # roughly doubles M
        assert abs(a - b) < 1e-10
        val, bound = lambda_with_error(data, 2.0)
        assert abs(val - a) < 1e-12 and bound < 1e-8


def test_hecke_multiplicativity():
    data = resolve_bad_data(CURVE_224)
    M = 600
    an = _an_list(data.ap, data.bad_ap, M)
    rng = random.Random(55)
    checked = 0
    while checked < 50:
        m = rng.randint(2, 24)
        n = rng.randint(2, 24)
        if math.gcd(m, n) != 1 or m * n > M:
            continue
        assert an[m * n] == pytest.approx(an[m] * an[n], abs=1e-9)
        checked += 1
    # good-prime power recurrence: a_9 = a_3^2 - 3
    assert an[9] == pytest.approx(an[3] ** 2 - 3.0, abs=1e-12)
    # bad primes are completely multiplicative: a_4 = a_2^2
    assert an[4] == pytest.approx(an[2] ** 2, abs=1e-12)


def test_l_deriv_at_zero_sign_and_value():
    data = resolve_bad_data(CURVE_224)
    lp0 = l_deriv_at_0(data)
    assert lp0 == pytest.approx(data.root_number * lambda_completed(data, 2.0))
    assert -lp0 / 3.0 > 0.0          # the measure it predicts is positive
    data210 = resolve_bad_data(CURVE_210)
    assert math.isfinite(l_deriv_at_0(data210))


def test_e1_branches():
    # series vs continued fraction, both against quadrature
    for x in (0.3, 0.9, 1.0, 1.5, 4.0):
        r = integrate(lambda t, x=x: math.exp(-t) / t, x, math.inf,
                      SingularityHint.none(), 1e-13)
        assert abs(exp_e1(x) - r.value) < 1e-13


def test_upper_gamma_against_quadrature():
    for s in (0.7, 1.3, 2.0, 0.0):
        for x in (0.4, 1.1, 3.0):
            r = integrate(lambda t, s=s: t ** (s - 1.0) * math.exp(-t),
                          x, math.inf, SingularityHint.none(), 1e-13)
            assert abs(upper_gamma(s, x) - r.value) < 1e-12


def test_curve_ldata_is_frozen_record():
    data = resolve_bad_data(CURVE_15)
    assert isinstance(data, CurveLData)
    with pytest.raises(Exception):
        data.root_number = 1
