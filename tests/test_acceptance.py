"""Acceptance criteria.

Each test prints one line per criterion (run with -s to see them) and pins
the tolerance it must meet.  Several checks reproduce published reference
digits; the rest verify identities between independently computed routes.
"""

import math
import random
import time

import numpy as np

from mahler import eclf, specialfn
from mahler.elliptic import carlson_rf, landen_check
from mahler.families import (
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
)
from mahler.measure import mahler_jensen
from mahler.quad import integrate

M_P3 = 0.99905183
M_R3 = 1.01151388
M_A = 0.68844794


def _report(num, desc, passed, detail, started):
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] criterion {num:2d}: {desc} | {detail} "
          f"({time.perf_counter() - started:.1f}s)")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_01_p3_three_ways():
    started = time.perf_counter()
    engine = mahler_jensen(family_poly("P", 3), tol=1e-11).value
    closed = p_measure(3.0, tol=1e-13).value
    lvalue = specialfn.l_deriv_minus1(specialfn.dirichlet_char(-15)) / 6.0
    worst = max(abs(engine - closed), abs(engine - lvalue),
                abs(closed - lvalue))
    detail = (f"jensen {engine:.10f}, theta-integral {closed:.10f}, "
              f"L'-route {lvalue:.10f}, max pairwise {worst:.2e}")
    ok = worst < 1e-7 and abs(closed - M_P3) < 1e-7
    _report(1, "m(P_3) = 0.99905183 three independent ways", ok, detail,
            started)


def test_criterion_02_r3_two_ways_and_dilog():
    started = time.perf_counter()
    engine = mahler_jensen(family_poly("R", 3), tol=1e-11).value
    dilog = specialfn.l_deriv_minus1(specialfn.dirichlet_char(-3)) \
        + specialfn.m_A_dilog()
    ma = specialfn.m_A_dilog()
    ok = (abs(engine - dilog) < 1e-7 and abs(ma - M_A) < 1e-8
          and abs(engine - M_R3) < 1e-7)
    detail = (f"jensen {engine:.10f}, L'+D route {dilog:.10f}, "
              f"m(A) {ma:.10f}")
    _report(2, "m(R_3) = 1.01151388 two ways; m(A) = 0.68844794", ok, detail,
            started)


def test_criterion_03_theorem1():
    started = time.perf_counter()
    diffs = {}
    for k in (4.0, 5.5, 10.0, 33.0):
        p = p_measure(k, tol=1e-12).value
        q = q_measure(k + 2.0, tol=1e-11).value
        diffs[k] = abs(p - q)
    control = abs(p_measure(3.5, tol=1e-12).value
                  - q_measure(5.5, tol=1e-11).value)
    ok = all(d < 1e-7 for d in diffs.values()) and control > 1e-4
    detail = ("diffs " + ", ".join(f"k={k}: {d:.1e}" for k, d in diffs.items())
              + f"; control at k=3.5: {control:.2e}")
    _report(3, "m(P_k) = m(Q_{k+2}) for k in {4, 5.5, 10, 33}", ok, detail,
            started)


def test_criterion_04_theorem2():
    started = time.perf_counter()
    diffs = {}
    for k in (R_THRESHOLD + 0.01, 4.0, 10.0):
        p = p_measure(k, tol=1e-12).value
        r = r_measure(k, tol=1e-12).value
        diffs[k] = abs(p - r)
    control = abs(p_measure(3.0, tol=1e-13).value
                  - r_measure(3.0, tol=1e-13).value)
    ok = all(d < 1e-7 for d in diffs.values()) \
        and abs(control - 0.01246205) < 1e-6
    detail = ("diffs " + ", ".join(f"k={k:.4f}: {d:.1e}"
                                   for k, d in diffs.items())
              + f"; |m(P_3)-m(R_3)| = {control:.8f}")
    _report(4, "m(P_k) = m(R_k) above 16/(3 sqrt 3); k=3 control", ok, detail,
            started)


def test_criterion_05_landen_identity():
    started = time.perf_counter()
    diffs = {k: landen_check(k).diff for k in (1.0, 2.0, 3.5, 10.0)}
    ok = all(d < 1e-10 for d in diffs.values())
    detail = ", ".join(f"k={k}: {d:.1e}" for k, d in diffs.items())
    _report(5, "Landen chain (all four parametrisations) < 1e-10", ok,
            detail, started)


def test_criterion_06_derivative_formulas():
    started = time.perf_counter()
    h = 1e-4
    rows = []
    ok = True
    batteries = (
        ("P", p_derivative, lambda v: p_measure(v, tol=1e-13).value, (2.0, 5.0)),
        ("Q", q_derivative, lambda v: q_measure(v + 2.0, tol=1e-12).value,
         (2.0, 3.5, 10.0)),
        ("R", r_derivative, lambda v: r_measure(v, tol=1e-13).value,
         (1.0, 3.0, 5.0)),
    )
    for fam, deriv, meas, ks in batteries:
        for k in ks:
            fd = (meas(k + h) - meas(k - h)) / (2.0 * h)
            d = abs(deriv(k) - fd)
            rows.append(f"{fam}'({k}): {d:.1e}")
            ok &= d < 1e-6
    _report(6, "derivatives match central finite differences", ok,
            ", ".join(rows), started)


def test_criterion_07_derivative_coincidence():
    started = time.perf_counter()
    diffs = {k: abs(p_derivative(k) - q_derivative(k))
             for k in (4.01, 10.0, 33.0)}
    ok = all(d < 1e-10 for d in diffs.values())
    detail = ", ".join(f"k={k}: {d:.1e}" for k, d in diffs.items())
    _report(7, "dp/dk = dq(k+2)/dk for k in {4.01, 10, 33}", ok, detail,
            started)


def test_criterion_08_lemma_suites():
    started = time.perf_counter()
    grid = np.linspace(1e-6, math.pi - 1e-6, 1000)
    grid = [float(t) for t in grid if abs(math.cos(t)) > 1e-6]
    ok = True
    notes = []

    worst = max(max(abs(y.imag) for y in branch_roots("R", k, t))
                for k in (3.0, 5.0) for t in grid)
    ok &= worst < 1e-10
    notes.append(f"realness {worst:.1e}")

    low = min(abs(branch_roots("R", k, t)[0])
              for k in (TWO_SQRT2, 5.0) for t in grid)
    ok &= low >= 1.0 - 1e-10
    notes.append(f"min|y1| {low:.12f}")

    high = max(abs(branch_roots("R", k, t)[1])
               for k in (R_THRESHOLD, 5.0) for t in grid)
    ok &= high <= 1.0 + 1e-10
    notes.append(f"max|y2| {high:.12f}")

    for k in (1.0, 2.0, 3.0):
        cr = critical_roots(k)
        dev1 = abs(abs(branch_roots("R", k, math.acos(cr.t1))[1]) - 1.0)
        y1, y2 = branch_roots("R", k, math.acos(cr.t2))
        branch = y1 if k <= TWO_SQRT2 else y2
        dev2 = abs(abs(branch) - 1.0)
        ok &= dev1 < 1e-10 and dev2 < 1e-10
        notes.append(f"t-roots k={k}: {max(dev1, dev2):.1e}")
    _report(8, "root-magnitude lemmas on 1000-point grids", ok,
            "; ".join(notes), started)


def test_criterion_09_asymptotics():
    started = time.perf_counter()
    ok = True
    notes = []
    families = (
        ("P", lambda k: p_measure(k, tol=1e-12).value),
        ("Q", lambda k: q_measure(k + 2.0, tol=1e-11).value),
        ("R", lambda k: r_measure(k, tol=1e-12).value),
    )
    for fam, meas in families:
        gaps = [abs(meas(float(k)) - math.log(k)) for k in (100, 1000, 10000)]
        ok &= gaps[0] > gaps[1] > gaps[2]
        ok &= gaps[1] < 1e-3
        notes.append(f"{fam}: " + "/".join(f"{g:.1e}" for g in gaps))
    _report(9, "|m(F_k) - log k| decreasing along 1e2, 1e3, 1e4", ok,
            "; ".join(notes), started)


def test_criterion_10_conjecture_checks():
    started = time.perf_counter()
    chi7 = specialfn.dirichlet_char(-7)
    chi15 = specialfn.dirichlet_char(-15)
    combo = (7.0 * math.sqrt(7.0) / (12.0 * math.pi)
            * specialfn.dirichlet_l(chi7, 2.0)
            + 5.0 * math.sqrt(15.0) / (8.0 * math.pi)
            * specialfn.dirichlet_l(chi15, 2.0))
    d_qm1 = abs(q_measure(-1.0, tol=1e-12).value - combo)

    data = eclf.resolve_bad_data(eclf.CURVE_224)
    lp0 = eclf.l_deriv_at_0(data)
    d_r4 = abs(r_measure(4.0, tol=1e-13).value + lp0 / 3.0)
    ok = d_qm1 < 1e-6 and d_r4 < 1e-5
    detail = f"|m(Q_-1) - L-combination| = {d_qm1:.2e}, " \
             f"|m(R_4) + L'(E_224,0)/3| = {d_r4:.2e}"
    _report(10, "conjectural L-value identities at desk scale", ok, detail,
            started)


def test_criterion_11_property_suites():
    started = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    notes = []

    # Carlson homogeneity
    worst = 0.0
    for lam in (0.25, 4.0):
        for _ in range(10):
            x, y, z = (rng.uniform(0.1, 9.0) for _ in range(3))
            worst = max(worst, abs(carlson_rf(lam * x, lam * y, lam * z)
                                   - carlson_rf(x, y, z) / math.sqrt(lam)))
    ok &= worst < 1e-13
    notes.append(f"R_F homogeneity {worst:.1e}")

    # dilogarithm antisymmetries and the five-term relation
    worst = 0.0
    for _ in range(60):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) < 1e-2 or abs(z - 1) < 1e-2 or abs(z.imag) < 1e-6:
            continue
        d = specialfn.bloch_wigner(z)
        worst = max(worst,
                    abs(specialfn.bloch_wigner(z.conjugate()) + d),
                    abs(specialfn.bloch_wigner(1.0 / z) + d))
    ok &= worst < 1e-12
    notes.append(f"D antisymmetry {worst:.1e}")
    worst = 0.0
    for _ in range(30):
        x = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        y = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if abs(1 - x * y) < 1e-2:
            continue
        worst = max(worst, abs(
            specialfn.bloch_wigner(x) + specialfn.bloch_wigner(y)
            + specialfn.bloch_wigner((1 - x) / (1 - x * y))
            + specialfn.bloch_wigner(1 - x * y)
            + specialfn.bloch_wigner((1 - y) / (1 - x * y))))
    ok &= worst < 1e-11
    notes.append(f"five-term {worst:.1e}")

    # Hasse bound and Hecke multiplicativity
    data = eclf.resolve_bad_data(eclf.CURVE_224)
    hasse = all(abs(ap) <= 2.0 * math.sqrt(p) for p, ap in data.ap.items())
    ok &= hasse
    an = eclf._an_list(data.ap, data.bad_ap, 500)
    mult_ok = True
    checked = 0
    while checked < 50:
        m = rng.randint(2, 22)
        n = rng.randint(2, 22)
        if math.gcd(m, n) != 1 or m * n > 500:
            continue
        mult_ok &= abs(an[m * n] - an[m] * an[n]) < 1e-9
        checked += 1
    ok &= mult_ok
    notes.append(f"Hasse {hasse}, multiplicativity {mult_ok}")

    # functional-equation residual
    worst = max(abs(eclf.lambda_completed(data, s)
                    - data.root_number * eclf.lambda_completed(data, 2.0 - s))
                for s in (0.6, 0.9, 1.1, 1.25, 1.45))
    ok &= worst < 1e-9
    notes.append(f"Lambda residual {worst:.1e}")

    # quadrature closed-form corpus: the black-box arcsine integral is
    # sqrt(eps)-limited, and its err_est must say so
    arcsine = integrate(lambda c: 1.0 / math.sqrt(c * (1.0 - c)), 0.0, 1.0, 1e-12)
    q1 = abs(arcsine.value - math.pi)
    q2 = abs(sum(integrate(lambda t: math.log(abs(2.0 * math.cos(t))), lo, hi,
                           0.5e-12).value
                 for lo, hi in ((0.0, math.pi / 2), (math.pi / 2, math.pi))))
    q3 = abs(integrate(lambda u: -math.log(u), 0.0, 1.0, 1e-12).value - 1.0)
    ok &= q1 <= arcsine.err_est and q2 < 1e-11 and q3 < 1e-12
    notes.append(f"quad corpus {q1:.1e} (err_est {arcsine.err_est:.1e}), "
                 f"{max(q2, q3):.1e}")

    _report(11, "property suites all green", ok, "; ".join(notes), started)
