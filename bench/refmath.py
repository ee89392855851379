"""Reference values computed with mpmath and sympy alone.

Nothing here imports ``mahler``: every number the benchmark checks against
is computed by the code in this file, from the definitions, so that a fault
in the library cannot hide in its own reference.

* Generic measures use Jensen's formula in the variable y, with the cut
  angles taken from algebra: the unimodular roots of Res_y(P, P*), of the
  leading y-coefficient, and of Disc_y(P) when P shares a factor with P*.
  The fiber integrals run through ``mpmath.quad`` at ``DPS`` digits, with the
  fiber roots from ``mpmath.polyroots``.
* The families use the theta-integrals of the paper on their reduced
  quadratic fibers, cut at their algebraic kinks.  Their k-derivatives
  integrate the k-derivative of the same integrand (the integrand is
  continuous at the moving cuts, so no boundary term appears).
* Complete periods of the cubic -(v+12)(v^2+k^2 v-4k^2) use ``mpmath.elliprf``.
* Dirichlet L-values and L'(chi, -1) use ``mpmath.dirichlet``; L'(E, 0) of an
  elliptic curve uses naive point counts and the incomplete-gamma series of
  the completed L-function, with the root number fixed by the functional
  equation.
"""

from __future__ import annotations

import math

import mpmath as mp
from mpmath.libmp import NoConvergence
import sympy as sp

DPS = 30
X, Y = sp.symbols("x y")

# ---------------------------------------------------------------------------
# exact polynomial algebra (sympy)
# ---------------------------------------------------------------------------

def to_poly(expr):
    """Integer polynomial in x, y with the lowest powers of x and y cleared."""
    e = sp.expand(sp.sympify(expr))
    terms = sp.Poly(e * X ** 64 * Y ** 64, X, Y).terms()
    imin = min(m[0] for m, _ in terms)
    jmin = min(m[1] for m, _ in terms)
    return sp.Poly({(i - imin, j - jmin): c for (i, j), c in terms}, X, Y)


def _reciprocal(P):
    a, b = P.degree(X), P.degree(Y)
    return sp.Poly({(a - i, b - j): c for (i, j), c in P.terms()}, X, Y)


def _unimodular_roots(U):
    """Angles in [0, pi] of the unimodular roots of the univariate integer
    polynomial U, each with its multiplicity in U.  The squarefree factors
    are solved separately, so every root passed to the solver is simple."""
    out = []
    for factor, mult in sp.sqf_list(U)[1]:
        f = sp.Poly(factor, X)
        if f.degree() < 1:
            continue
        coeffs = [mp.mpf(int(c)) for c in f.all_coeffs()]
        with mp.workdps(3 * DPS):
            eps = mp.mpf(10) ** (-DPS)
            for r in mp.polyroots(coeffs, maxsteps=400, extraprec=6 * DPS):
                if abs(abs(r) - 1) < eps and mp.im(r) > -eps:
                    t = mp.arg(r)
                    if abs(t) < eps:
                        t = mp.mpf(0)
                    elif abs(t) > mp.pi - eps:
                        t = +mp.pi
                    out.append((+t, mult))
    return out


def algebraic_cuts(P):
    """Cut angles in [0, pi] of the Jensen integral of P in y.

    Returns (crossings, lead_zeros): unimodular roots, as (angle,
    multiplicity), of Res_y(F, F*) for each irreducible factor F of P -- or
    of Disc_y(F) when F divides F* up to a monomial, so that the resultant
    vanishes identically -- and of the leading y-coefficient of P.  A root of
    F can meet the unit circle only where Res_y(F, F*) vanishes, because
    P*(x, y) = x^a y^b conj(P(x, y)) on the torus."""
    if P.degree(Y) == 0:
        return [], []
    lead = sp.Poly(P.as_expr().coeff(Y, P.degree(Y)), X)
    crossings = []
    for factor, _ in sp.factor_list(P.as_expr())[1]:
        F = sp.Poly(factor, X, Y)
        if F.degree(Y) == 0:
            continue
        res = sp.Poly(sp.resultant(F.as_expr(), _reciprocal(F).as_expr(), Y), X)
        if res.is_zero:
            if F.degree(Y) == 1:
                continue
            res = sp.Poly(sp.discriminant(F.as_expr(), Y), X)
        crossings += _unimodular_roots(res)
    return crossings, _unimodular_roots(lead)


def excluded_by_rule(P, n_scan=1024):
    """Name of the written exclusion rule that P meets, or None.

    (b) a repeated unimodular zero of the leading y-coefficient;
    (c) a repeated root of Res_y(F, F*) at an angle strictly inside (0, pi)
        (at 0 and pi the multiplicity is even for every real polynomial);
    (a) two crossing candidates closer than two scan cells, 2 pi / n_scan."""
    crossings, lead_zeros = algebraic_cuts(P)
    if any(m > 1 for _, m in lead_zeros):
        return "b"
    if any(m > 1 and 0 < t < mp.pi for t, m in crossings):
        return "c"
    angles = sorted(set(float(t) for t, _ in crossings))
    if any(b - a < 2 * math.pi / n_scan for a, b in zip(angles, angles[1:])):
        return "a"
    return None


# ---------------------------------------------------------------------------
# generic Jensen reference
# ---------------------------------------------------------------------------

def _measure_1var(coeffs_desc):
    """log|lead| + sum log+|root| of an integer polynomial (descending)."""
    while coeffs_desc and coeffs_desc[-1] == 0:
        coeffs_desc = coeffs_desc[:-1]
    lead = abs(mp.mpf(int(coeffs_desc[0])))
    total = mp.log(lead)
    if len(coeffs_desc) > 1:
        for r in mp.polyroots([mp.mpf(int(c)) for c in coeffs_desc],
                              maxsteps=400, extraprec=4 * DPS):
            if abs(r) > 1:
                total += mp.log(abs(r))
    return total


def jensen_reference(expr):
    """m(P) to ~DPS digits for an integer polynomial given as an expression."""
    P = to_poly(expr)
    with mp.workdps(DPS):
        return _jensen(P)


def _roots(coeffs_desc):
    """mpmath.polyroots, retried with more steps and precision where a
    (nearly) double root slows the Durand-Kerner iteration."""
    try:
        return mp.polyroots(coeffs_desc, maxsteps=200, extraprec=4 * DPS)
    except NoConvergence:
        return mp.polyroots(coeffs_desc, maxsteps=4000, extraprec=30 * DPS)


def _jensen(P):
    d = P.degree(Y)
    ycoef = [sp.Poly(P.as_expr().coeff(Y, j), X) for j in range(d + 1)]
    if d == 0:
        return _measure_1var(ycoef[0].all_coeffs())
    lead_m = _measure_1var(ycoef[d].all_coeffs())
    crossings, lead_zeros = algebraic_cuts(P)
    cuts = sorted(set([mp.mpf(0), +mp.pi] + [t for t, _ in crossings + lead_zeros]))
    cx = [[mp.mpf(int(c)) for c in reversed(q.all_coeffs())] for q in ycoef]

    def fiber(t):
        x = mp.expjpi(t / mp.pi)
        coeffs = [mp.polyval(list(reversed(c)), x) if c else mp.mpc(0) for c in cx]
        while abs(coeffs[-1]) == 0:
            coeffs.pop()
        return sum((mp.log(abs(r)) for r in _roots(list(reversed(coeffs)))
                    if abs(r) > 1), mp.mpf(0))

    integral = mp.quad(fiber, cuts)
    return lead_m + integral / mp.pi


# ---------------------------------------------------------------------------
# family theta-integrals
# ---------------------------------------------------------------------------

def _quad_cut(f, lo, hi, cuts):
    pts = sorted(set([lo, hi] + [c for c in cuts if lo < c < hi]))
    return mp.quad(f, pts)


def _real_roots_in(coeffs_desc, lo, hi):
    """Real roots in (lo, hi) of a polynomial of degree <= 3 with mp
    coefficients (descending).  Quadratics use the closed form, so a double
    root at a regime boundary costs nothing; cubics use ``mpmath.polyroots``
    with extra precision, which resolves nearly double roots."""
    while coeffs_desc and coeffs_desc[0] == 0:
        coeffs_desc = coeffs_desc[1:]
    with mp.workdps(3 * DPS):
        if len(coeffs_desc) < 2:
            roots = []
        elif len(coeffs_desc) == 2:
            roots = [-coeffs_desc[1] / coeffs_desc[0]]
        elif len(coeffs_desc) == 3:
            a, b, c = coeffs_desc
            disc = b * b - 4 * a * c
            roots = [] if disc < 0 else [(-b + sg * mp.sqrt(disc)) / (2 * a)
                                         for sg in (1, -1)]
        else:
            roots = [mp.re(r) for r in
                     mp.polyroots(coeffs_desc, maxsteps=2000, extraprec=10 * DPS)
                     if abs(mp.im(r)) < mp.mpf(10) ** (-DPS)]
        return [+r for r in roots if lo < r < hi]


def p_theta(k, derivative=False):
    """m(P_k), or dm/dk, from the reduced fiber
    (4c-1) y^2 + 2k cos(t) y + (4c-1) on x = e^{it}, c = cos^2 t, whose
    roots are y and 1/y.  With q = 16c^2 - (8+k^2) c + 1, Jensen's formula
    with the leading coefficient inside the integral gives
    m = (2/pi) int_0^{pi/2} g dt, g = log(k sqrt c + sqrt(-q)) where q < 0
    (real roots) and g = log|4c-1| where q >= 0 (both roots on the circle)."""
    k = mp.mpf(k)
    with mp.workdps(DPS):
        def f(t):
            c = mp.cos(t) ** 2
            q = (16 * c - (8 + k * k)) * c + 1
            if q < 0:
                s = mp.sqrt(-q)
                if derivative:
                    return (mp.sqrt(c) + k * c / s) / (k * mp.sqrt(c) + s)
                return mp.log(k * mp.sqrt(c) + s)
            return mp.mpf(0) if derivative else mp.log(abs(4 * c - 1))

        roots_c = _real_roots_in([mp.mpf(16), -(8 + k * k), mp.mpf(1)], 0, 1)
        cuts = [mp.acos(mp.sqrt(c)) for c in roots_c] + [mp.pi / 3]
        return 2 * _quad_cut(f, mp.mpf(0), mp.pi / 2, cuts) / mp.pi


def q_theta(s, derivative=False):
    """m(Q_s), or dm/ds, from the reduced fiber L y^2 + B y + L with
    L = 2cos t + 1, B = 2cos 2t + 2s cos t + 2s - 4 (roots y, 1/y):
    m = (1/pi) int_0^pi log+ (|B| + sqrt(B^2 - 4L^2)) / (2|L|) dt."""
    s = mp.mpf(s)
    with mp.workdps(DPS):
        def parts(t):
            c = mp.cos(t)
            L = 2 * c + 1
            B = 2 * (2 * c * c - 1) + 2 * s * c + 2 * s - 4
            return c, L, B

        def f(t):
            c, L, B = parts(t)
            disc = B * B - 4 * L * L
            if disc <= 0:
                return mp.mpf(0)
            if derivative:
                return mp.sign(B) * (2 * c + 2) / mp.sqrt(disc)
            return mp.log((abs(B) + mp.sqrt(disc)) / (2 * abs(L)))

        # B -+ 2L as quadratics in c = cos t
        cuts = [mp.acos(mp.mpf(-1) / 2)]
        for sg in (1, -1):
            coeffs = [mp.mpf(4), 2 * s - sg * 4, 2 * s - 6 - sg * 2]
            cuts += [mp.acos(c) for c in _real_roots_in(coeffs, -1, 1)]
        return _quad_cut(f, mp.mpf(0), +mp.pi, cuts) / mp.pi


def r_theta(k, derivative=False):
    """m(R_k), or dm/dk, from the reduced fiber
    2cos(t) y^2 - k y - 2cos(3t) on x = e^{it}:
    m = (1/pi) int_0^pi sum log+|y_i| dt, where the roots are
    (k +- sqrt(k^2 - 16c(3-4c))) / (4 cos t), c = cos^2 t."""
    k = mp.mpf(k)
    with mp.workdps(DPS):
        def f(t):
            ct = mp.cos(t)
            c = ct * ct
            disc = k * k - 16 * c * (3 - 4 * c)
            if disc < 0:
                if derivative:
                    return mp.mpf(0)
                return max(mp.mpf(0), mp.log(abs(4 * c - 3)))
            sq = mp.sqrt(disc)
            outside = [sg for sg in (1, -1) if abs((k + sg * sq) / (4 * ct)) > 1]
            if not derivative:
                return sum((mp.log(abs((k + sg * sq) / (4 * ct))) for sg in outside),
                           mp.mpf(0))
            # the product of the two roots does not depend on k, so only a
            # lone outside root contributes to the derivative
            if len(outside) != 1:
                return mp.mpf(0)
            sg = outside[0]
            return (1 + sg * k / sq) / (k + sg * sq)

        # |y| = 1 where 8u^3 - 8u -+ k = 0 (u = cos t) for real roots, and
        # where |4c - 3| = 1 (c = 1/2) for complex ones; the radicand vanishes
        # where 64 c^2 - 48 c + k^2 = 0; cos t = 0 and cos t = +-sqrt(3)/2
        cuts = [mp.pi / 2, mp.pi / 6, 5 * mp.pi / 6, mp.pi / 4, 3 * mp.pi / 4]
        for sg in (1, -1):
            cuts += [mp.acos(u) for u in
                     _real_roots_in([mp.mpf(8), 0, mp.mpf(-8), sg * k], -1, 1)]
        for c in _real_roots_in([mp.mpf(64), mp.mpf(-48), k * k], 0, 1):
            u = mp.sqrt(c)
            cuts += [mp.acos(u), mp.acos(-u)]
        return _quad_cut(f, mp.mpf(0), +mp.pi, cuts) / mp.pi


def pq_period(k):
    """Complete period int dv / sqrt(-(v+12)(v^2+k^2 v-4k^2)) between the
    two largest roots, by Carlson's R_F: 2 R_F(0, b-a, c-a) for roots
    a < b < c."""
    k = mp.mpf(k)
    with mp.workdps(DPS):
        s = mp.sqrt(k * k + 16)
        a, b, c = sorted([mp.mpf(-12), -k * (k + s) / 2, -k * (k - s) / 2])
        return 2 * mp.elliprf(0, b - a, c - a)


def p_derivative_period(k):
    """dp/dk = period / pi (the paper's derivative formula)."""
    with mp.workdps(DPS):
        return pq_period(k) / mp.pi


# ---------------------------------------------------------------------------
# L-values
# ---------------------------------------------------------------------------

def _kronecker(d, a):
    """Kronecker symbol (d/a) for an odd discriminant d and a >= 0."""
    if a == 0:
        return 0
    result = 1
    while a % 2 == 0:
        a //= 2
        result *= 1 if d % 8 in (1, 7) else -1
    if a > 1:
        result *= int(sp.jacobi_symbol(d % a, a))
    return result


def character(d):
    """Values chi_d(0), ..., chi_d(|d|-1) of the character of discriminant d."""
    return [_kronecker(d, a) for a in range(abs(d))]


def dirichlet_l2(d):
    with mp.workdps(DPS):
        return mp.dirichlet(2, character(d))


def dirichlet_dl_minus1(d):
    with mp.workdps(DPS):
        return mp.dirichlet(-1, character(d), 1)


def smyth_1xy():
    """m(1+x+y) = (3 sqrt 3 / (4 pi)) L(chi_-3, 2)."""
    with mp.workdps(DPS):
        return 3 * mp.sqrt(3) / (4 * mp.pi) * dirichlet_l2(-3)


# ---------------------------------------------------------------------------
# elliptic curves
# ---------------------------------------------------------------------------

def ap_naive(a, p):
    """a_p = p + 1 - #E(F_p), counting every affine point of the Weierstrass
    model a = (a1, a2, a3, a4, a6) and the point at infinity.  At a prime of
    bad reduction the count includes the singular point, which gives a_p in
    {-1, 0, 1} for a model that is minimal there."""
    a1, a2, a3, a4, a6 = a
    count = 1
    for x in range(p):
        rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % p
        lin = (a1 * x + a3) % p
        count += sum(1 for y in range(p) if (y * y + lin * y - rhs) % p == 0)
    return p + 1 - count


def curve_an(a, N, M):
    """a_1..a_M of L(E, s) from naive a_p, multiplicativity and the Hecke
    recurrence a_{p^{r+1}} = a_p a_{p^r} - p a_{p^{r-1}} (a_p^r at p | N)."""
    ap = {p: ap_naive(a, p) for p in sp.primerange(2, M + 1)}
    an = [0] * (M + 1)
    an[1] = 1
    for n in range(2, M + 1):
        val = 1
        for p, e in sp.factorint(n).items():
            prev2, prev1 = 1, ap[p]
            for _ in range(e - 1):
                prev2, prev1 = prev1, ap[p] * prev1 - (0 if N % p == 0 else p) * prev2
            val *= prev1
        an[n] = val
    return an, ap


def _lambda_theta(an, N, eps, s, theta):
    """Lambda(s) = N^{s/2} (2pi)^{-s} Gamma(s) L(E, s) by splitting the Mellin
    integral of the modular form at theta:
    sum a_n [ (A/n)^s Gamma(s, n theta/A) + eps (A/n)^{2-s} Gamma(2-s, n/(theta A)) ],
    A = sqrt(N) / (2 pi).  Only the right eps makes it independent of theta."""
    A = mp.sqrt(N) / (2 * mp.pi)
    total = mp.mpf(0)
    for n in range(1, len(an)):
        if an[n]:
            u = A / n
            total += an[n] * (u ** s * mp.gammainc(s, theta / u)
                              + eps * u ** (2 - s) * mp.gammainc(2 - s, 1 / (theta * u)))
    return total


def curve_l_deriv_at_0(a, N):
    """(L'(E, 0), root number, functional-equation residual).

    L(E, 0) = 0 cancels the pole of Gamma at 0, so L'(E, 0) = Lambda(0)
    = eps Lambda(2); eps is the sign for which Lambda(1.3) agrees between
    the cutoffs theta = 1 and 5/4."""
    with mp.workdps(DPS):
        A = math.sqrt(N) / (2 * math.pi)
        M = int(A * 1.25 * (DPS + 5) * math.log(10)) + 10
        an, _ = curve_an(a, N, M)
        s = mp.mpf("1.3")
        resid = {eps: abs(_lambda_theta(an, N, eps, s, 1)
                          - _lambda_theta(an, N, eps, s, mp.mpf("1.25")))
                 for eps in (1, -1)}
        eps = min(resid, key=resid.get)
        return eps * _lambda_theta(an, N, eps, mp.mpf(2), 1), eps, resid[eps]
