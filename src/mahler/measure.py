"""Generic Mahler-measure computation via Jensen's formula.

For P(x, y) real-coefficient, write P(x, .) = a_d(x) y^d + ... after clearing
the lowest y-power.  Averaging log|P| over the torus gives

    m(P) = m(a_d) + (1/pi) * integral over (0, pi) of sum_i log+ |y_i(e^{i t})|

using conjugation symmetry in t, which holds for real coefficients only;
the leading-coefficient term is a one-variable measure.  Its cyclotomic
factors are divided out exactly and add 0; the cofactor's measure comes
from its roots.  The t-integrand is piecewise analytic: it has kinks where
a root magnitude crosses 1 and logarithmic spikes where a_d vanishes on the
circle.  Both kinds of points are located up front.  Spikes come from the
zeros of a_d on the circle, found after its exponents are divided by their
gcd: those of its cyclotomic factors Phi_n, at exact multiples of pi, and
the cofactor's roots within 1e-9 of the circle.
Crossings come from the number of roots outside the circle: the fiber
coefficients are evaluated at all angles of a uniform scan grid at once (by
Horner's rule in e^{it}, so memory does not grow with the x-degree), and
the roots outside are counted for the whole grid from the fiber roots,
solved in one ``batch_roots`` call.  Every cell where the count
changes holds a torus point of the curve P = 0, where the kink sits, and
all cells are polished together by Newton's method on the two real
equations Re, Im P(e^{it}, e^{i phi}) = 0, from the cell midpoint and the
argument of the fiber root nearest the circle there.  Where the two nearest
roots form a pair y, 1/conj(y), the pair meets on the circle (a fold, as at
the arc ends of the self-reciprocal families) and Gauss-Newton solves
P = dP/dphi = 0 instead.  A cut is kept only when the iteration converged
strictly inside its cell and the root count just either side of it is the
count at the cell's ends; a cell whose crossing sits on the edge t = 0 or pi
needs no cut.  Those edge rules concern only the two cells at the ends of
the scan, and a call without such a cell skips them.  A call whose cells
hold no fold takes the Newton step from F, F_t and F_phi alone, since the
fold terms would add exactly zero.  The few cells left over are cut by the
scan's own rule, all together, into 32 equal parts a round, each counted in
one call, keeping the first part whose count differs from the cell's left
end, down to a width of 1e-12.  Where the count at the right end of that
part is not the cell's right count, the rest of the cell is cut again, so a
cell whose count steps by two gets two cuts; a crossing pair inside one
scan cell changes no count and is missed.

The cuts, with 0 and pi, go to the double-exponential rule
``quad._tanh_sinh_pieces`` as one cut list with the total tolerance
pi tol; the rule splits it over the pieces and returns their sums.  Its
first call of the fiber kernel ``_fiber_logplus`` takes every node of
levels 0-4 of every piece, and each later level one call for the new nodes
of the pieces not yet converged, so the fibers of each call are solved in
one ``batch_roots`` call per degree, and the rule reduces the values of
each call in one pass.

Every fiber solve, of the scan and probe counts, the polish, the quadrature
levels and the torus rows below, goes through ``_solve_fibers`` to
``batch_roots``, as does the lead's cofactor, a one-row ``poly_roots``
call.  It solves through degree 4 in closed form
(Cardano's and Ferrari's formulas for the cubics and quartics, with a Newton
polish) and takes companion-matrix eigenvalues only for the rows that polish
rejects.  It also holds the one rule for a leading coefficient that nearly
vanishes, as a fiber's does next to a zero of a_d: from degree 3 on, such
a row is solved reversed and its roots inverted, for the fibers and the
lead's cofactor alike.
Both engines, and ``mahler_1var``, first divide P by the power of 2 that
puts its largest coefficient modulus in [0.5, 1) (``_unit_y_coeffs``) and
add its logarithm back, so a fiber coefficient, a sum of terms, neither
overflows nor goes subnormal, and an integer coefficient beyond float
range is taken exactly.

The direct two-dimensional torus average is kept as an independent,
lower-accuracy oracle.  It does not use Jensen's formula, the crossing
scan, the cuts or the tanh-sinh rule: it averages log|P| over trapezoid
grids of n x n points.  Each row of a grid is summed in closed form from
the roots of its fiber, since the n y-angles of a row are the n-th roots
of a fixed unimodular w, so a grid costs n fiber solves (``_solve_fibers``,
shared with the Jensen engine) and holds no n x n array.  The rows of
every grid up to n = 256 are solved in one batch, those of a larger grid
in batches of at most 4096 rows.  The sums are those of the finite grids,
not their limit.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import QuadratureError
from .lpoly import LaurentPoly2, _cyclotomic_split
from .quad import _EPS, _tanh_sinh_pieces, integrate_torus2
from .rootfind import batch_roots, poly_roots

__all__ = [
    "MeasureResult",
    "mahler_jensen",
    "mahler_torus2",
    "mahler_1var",
]

_UNIT_CLAMP = 1e-12        # |root| this close to 1 contributes log+ = 0 exactly


@dataclass(frozen=True)
class MeasureResult:
    value: float
    err_est: float
    method: str   # jensen_1d | torus_2d | closed_form


def _unit_y_coeffs(P):
    """The coefficient Laurent polynomials (dicts {i: c}) of y^0..y^d of P
    after clearing the lowest power of y, divided by the power of 2, 2^e,
    that puts their largest modulus in [0.5, 1), and e log 2, which the
    measure gains back.

    The division keeps a fiber coefficient, a sum of terms, from
    overflowing or going subnormal where every term is finite, as for P
    times 1e308 or 2^-1060.  It is exact for a float (``ldexp`` of the real
    and imaginary parts) and correctly rounded for an int, which may lie
    beyond float range: an int's e is its bit length, so it is never
    converted to a float first.  Every engine takes the coefficients from
    here, so this is where the zero polynomial and a symbolic k are
    refused, with ValueError, and a NaN or infinite coefficient, with
    ``QuadratureError``."""
    if P.is_zero():
        raise ValueError("measure of the zero polynomial")
    if P.has_symbolic_k():
        raise ValueError("substitute a numeric k first")
    if not all(isinstance(c, int) or cmath.isfinite(c) for c in P.terms.values()):
        raise QuadratureError("integrand is not finite")
    ycof = P.y_coefficients()
    big = max(abs(c) for c in P.terms.values())
    e = big.bit_length() if isinstance(big, int) else math.frexp(big)[1]
    cx = [{i: complex(c / (1 << e)) if isinstance(c, int)
           else complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e))
           for i, c in ycof.get(j, {}).items()}
          for j in range(min(ycof), max(ycof) + 1)]
    return cx, e * math.log(2.0)


def _unit_powers(angles):
    """e^{i angles} for a real array, from its cos and sin, which is faster
    than the complex exp of i angles and gives the same bits."""
    out = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def _coeff_table(cx):
    """The coefficients of ``cx`` in w-form for ``_coeffs_grid``: the
    magnitudes m_0 < ... < m_{K-1} of the x-exponents, one ladder, and a
    (K, sides, columns) array, one column per power of y.

    Side 0 holds the coefficients of x^{m_k}; when an exponent is negative,
    side 1 holds the conjugates of those of x^{-m_k}, so that their sum is
    the conjugate of a Horner sum in w = e^{i theta} like that of side 0.
    An entry whose term P lacks is zero."""
    mags = sorted({abs(i) for cm in cx for i in cm})
    sides = 2 if any(i < 0 for cm in cx for i in cm) else 1
    row = {m: r for r, m in enumerate(mags)}
    table = np.zeros((len(mags), sides, len(cx)), dtype=complex)
    for j, cm in enumerate(cx):
        for i, c in cm.items():
            c = complex(c)
            table[row[abs(i)], int(i < 0), j] = c.conjugate() if i < 0 else c
    return np.array(mags, dtype=float), table


def _with_t_derivatives(coeff_table):
    """``coeff_table`` with the t-derivatives of its columns appended: that
    of c_m w^m is i m c_m w^m, and in w-form that of the x^{-m} side is
    i m times its entries too."""
    mags, table = coeff_table
    return mags, np.concatenate([table, 1j * mags[:, None, None] * table], axis=2)


def _coeffs_grid(coeff_table, thetas):
    """Fiber coefficients at x = e^{i theta} for an array of angles: entry
    (n, j) is the coefficient of y^j at x = e^{i thetas[n]}.

    Horner's rule runs down the ladder of ``_coeff_table`` in w = e^{i theta}
    on both sides at once, and the x^{-m} side adds as the conjugate of its
    sum; each gap g between rungs takes w^g once, from the cos and sin of
    g theta.  A real coefficient c_k = c_{-k} thus adds a sum to its own
    conjugate, and its value is exactly real.  The rows come column-major,
    as ``_solve_fibers`` takes them."""
    mags, table = coeff_table
    mags = mags.tolist()
    rows = table[..., None]
    powers = {}

    def power(gap):
        if gap not in powers:
            powers[gap] = _unit_powers(thetas if gap == 1 else gap * thetas)
        return powers[gap]

    # rung i is reached by the gap m_i - m_{i-1}, with m_{-1} = 0; a zero
    # gap multiplies by exactly 1
    gaps = [hi - lo for hi, lo in zip(mags, [0.0] + mags)]
    acc = rows[-1] * power(gaps[-1])
    for i in range(len(mags) - 2, -1, -1):
        acc += rows[i]
        if gaps[i]:
            acc *= power(gaps[i])
    return (acc[0] + acc[1].conj() if len(acc) == 2 else acc[0]).T


# pi to 57 digits, so that float(_PI * 2j / n) is 2 pi j / n correctly rounded
_PI = Fraction("3.14159265358979323846264338327950288419716939937510582097")


def _solve_1var(coeffs):
    """Logarithmic Mahler measure of a one-variable Laurent polynomial
    {exponent: c} and the angles in (0, pi) of its zeros on the unit circle,
    in no order, generated as they are iterated.

    The exponents of its nonzero terms are shifted to start at 0 and
    divided by their gcd g, so that f(x) = x^low h(x^g).  Neither changes
    the measure, m(h(x^g)) = m(h), so x^n + 2 costs what x + 2 does.  A
    real h is then made an integer polynomial, exactly (every float is a
    dyadic rational, ``float.as_integer_ratio``), and every cyclotomic
    factor Phi_n, n <= ``_CYCLO_MAX_ORDER``, is divided out exactly
    (``lpoly._cyclotomic_split``).  The stripped factors are monic with
    all their roots on the circle, so they add exactly 0 to the measure.
    The cofactor is solved by ``poly_roots``.

    Each zero of h on the circle at angle phi, +-1 included, gives the
    zeros of f at (phi + 2 pi j) / g, j = 0..g-1, of which those in
    (0, pi) are kept.  A zero e^{2 pi i j / n} of Phi_n gives its angles
    as exact multiples of pi, correctly rounded; a root of the cofactor
    within 1e-9 of the circle gives them from its argument, 1e-12 clear of
    0 and pi.  They are generated lazily: a large g makes g/2 angles of
    each zero, and ``mahler_1var`` reads none."""
    terms = {e: v for e, v in coeffs.items() if v}
    if not terms:
        raise ValueError("measure of the zero polynomial")
    low = min(terms)
    g = math.gcd(*(e - low for e in terms)) or 1
    c = [complex(terms.get(low + g * i, 0)) for i in range((max(terms) - low) // g + 1)]
    turns = []    # the zero angles of the stripped factors over 2 pi
    if not any(v.imag for v in c):
        ratios = [v.real.as_integer_ratio() for v in c]
        den = max(q for _, q in ratios)
        orders, cofactor = _cyclotomic_split([p * (den // q) for p, q in ratios])
        c = [p / den for p in cofactor]
        turns = [Fraction(j, n) for n in set(orders) for j in range(n) if math.gcd(j, n) == 1]
    roots = poly_roots(c) if len(c) > 1 else []
    total = math.log(abs(c[-1]))
    for r in roots:
        ar = abs(r)
        if abs(ar - 1.0) > _UNIT_CLAMP and ar > 1.0:
            total += math.log(ar)
    phases = [cmath.phase(r) for r in roots if abs(abs(r) - 1.0) <= 1e-9]
    exact = (float(_PI * 2 * (q + j) / g) for q in turns for j in range(g) if 0 < q + j < g / 2)
    rounded = (t for phi in phases for t in ((phi + 2.0 * math.pi * j) / g for j in range(g))
               if 1e-12 <= t <= math.pi - 1e-12)
    return total, itertools.chain(exact, rounded)


def mahler_1var(coeffs):
    """Logarithmic Mahler measure of a one-variable Laurent polynomial.

    ``coeffs`` maps exponent -> real coefficient.  The coefficients are
    taken as the engines take theirs (``_unit_y_coeffs``), so a NaN or
    infinite one raises ``QuadratureError`` and an int beyond float range
    is scaled exactly.  Then ``_solve_1var``: the exponents are reduced by
    their gcd, which is exact, and the measure is log|lead| plus log+ of
    the root magnitudes, after the cyclotomic factors are divided out
    exactly, so products of cyclotomics, repeated factors included, give
    exactly 0.0; magnitudes within 1e-12 of 1 count as exactly 1.
    """
    (c,), log_scale = _unit_y_coeffs(LaurentPoly2({(i, 0): v for i, v in coeffs.items()}))
    return log_scale + _solve_1var(c)[0]


# ---------------------------------------------------------------------------
# the Jensen engine
# ---------------------------------------------------------------------------

_BAND = 1e-9   # families have whole arcs with |y| = 1 exactly; counting
               # "outside" with this margin keeps rounding noise from
               # flickering the count there (a sectioned crossing is pinned
               # where |y| = 1 + _BAND, a polished one on the circle)


def _solve_fibers(coeffs):
    """The leading coefficients and roots of the fibers in the rows of
    ``coeffs``, solved together by ``batch_roots``; returns
    ``(lead, roots)``.

    A fiber whose lead nearly vanishes keeps its huge root and its small
    ones by the rule of ``batch_roots``.  Zero leading coefficients, which
    a fiber has where its lead vanishes, are trimmed, one ``batch_roots``
    call per degree left: ``lead`` is the coefficient left on top (0 for a
    vanishing fiber), and the roots beyond a row's degree are 0, in place
    of the roots at infinity, which the measure of the lead accounts for.

    The rows are taken, and the roots returned, column-major: a reduction
    over each row's few entries then runs along contiguous columns, several
    times faster than over short C-order rows (CHANGES.md, "Batched Jensen
    engine").
    """
    coeffs = np.asfortranarray(coeffs)
    n, m = coeffs.shape[0], coeffs.shape[1] - 1
    lead = coeffs[:, -1]
    groups = {m: slice(None)} if m else {}
    if not lead.all():
        nonzero = coeffs != 0
        degree = np.where(nonzero.any(axis=1), m - nonzero[:, ::-1].argmax(axis=1), 0)
        lead = coeffs[np.arange(n), degree]
        groups = {deg: degree == deg for deg in range(1, m + 1) if (degree == deg).any()}
    roots = np.zeros((n, m), dtype=complex, order="F")
    for deg, rows in groups.items():
        roots[rows, :deg] = batch_roots(coeffs[rows, :deg + 1])
    return lead, roots


def _fiber_logplus(coeff_table, thetas):
    """sum_i log+ |y_i| at x = e^{i theta} for an array of angles, from the
    fiber roots, solved together by ``_solve_fibers``."""
    mags = np.abs(_solve_fibers(_coeffs_grid(coeff_table, thetas))[1])
    return np.log(np.maximum(mags, 1.0)).sum(axis=1)


def _count_outside(coeff_table, thetas):
    """Number of fiber roots with |y| > 1 + _BAND at each angle, from the
    fiber roots, solved together by ``_solve_fibers``."""
    mags = np.abs(_solve_fibers(_coeffs_grid(coeff_table, thetas))[1])
    return np.count_nonzero(mags > 1.0 + _BAND, axis=1)


_N_SCAN = 1024       # cells of the crossing scan over (0, pi)
_POLISH_STEPS = 8    # Newton / Gauss-Newton steps at most
_MIRROR_REL = 1e-6   # tolerance of the root pair test of a fold


def _torus_terms(ext_table, t, phi, fold):
    """F(t, phi) = sum_j c_j(e^{it}) e^{ij phi} at an array of points, with
    F_t and F_phi, and with F_t phi and F_phi phi when ``fold``.
    ``ext_table`` is the coefficient table with the t-derivatives of its
    columns appended, so that one ``_coeffs_grid`` call gives the c_j and
    their derivatives."""
    cc = _coeffs_grid(ext_table, t)
    j = np.arange(cc.shape[1] // 2)
    yp = _unit_powers(np.outer(phi, j))
    c = cc[:, :len(j)] * yp
    dc = cc[:, len(j):] * yp
    terms = (c.sum(axis=1), dc.sum(axis=1), (c * (1j * j)).sum(axis=1))
    if fold:
        terms += ((dc * (1j * j)).sum(axis=1), (c * (-j * j)).sum(axis=1))
    return terms


def _newton_step(F, Ft, Fp, Ftp=None, Fpp=None, w=None):
    """The Gauss-Newton step (dt, dphi) on (F, w F_phi) = 0, by the 2x2
    normal equations; without F_t phi, F_phi phi and w it is the Newton
    step on F = 0, the same step as with w = 0, whose terms in w add
    exactly zero."""
    uu = np.abs(Ft) ** 2
    vv = np.abs(Fp) ** 2
    uv = (np.conj(Ft) * Fp).real
    ug = (np.conj(Ft) * F).real
    vg = (np.conj(Fp) * F).real
    if w is not None:
        uu = uu + w * np.abs(Ftp) ** 2
        vv = vv + w * np.abs(Fpp) ** 2
        uv = uv + w * (np.conj(Ftp) * Fpp).real
        ug = ug + w * (np.conj(Ftp) * Fp).real
        vg = vg + w * (np.conj(Fpp) * Fp).real
    det = uu * vv - uv * uv
    return (uv * vg - vv * ug) / det, (uv * ug - uu * vg) / det


def _polish_cells(coeff_table, a, b, na, nb, lo, hi):
    """The torus point of P = 0 in each scan cell [a, b], by Newton's method
    on Re, Im F = 0 in (t, phi) from the cell midpoint and the argument of
    the fiber root nearest the circle there.

    Where the two roots nearest the circle at the midpoint form a pair
    y, 1/conj(y) (both on the circle, or mirrored in it), the crossing is a
    fold: the pair meets on the circle, the Jacobian of F is singular there,
    and (F, F_phi) = 0 is solved by Gauss-Newton instead.  A Newton step is
    the Gauss-Newton step of F alone, so both share one loop.  A cell stops
    early when its iterate goes non-finite or leaves the cell's neighbours,
    when its step stops shrinking, or, for a cell at an end of the scan
    (touching lo or hi), when it halves its distance to the edge 0 or pi
    twice in a row.

    Returns the cut of each cell, NaN where the cell is left to
    ``_section_cells``, and a mask of the cells whose cut falls on the edge
    0 or pi of the scan, which need none.  An interior cut is kept when the
    iteration converged strictly inside the cell and the counts at
    t* -/+ delta are the cell's end counts.  The edge rules
    (``_edge_touches``) apply to the cells at the ends of the scan only, so
    a call without such a cell skips them and the distances to the edges.
    """
    ext = _with_t_derivatives(coeff_table)
    n = len(a)
    mid = 0.5 * (a + b)
    width = b - a
    roots = _solve_fibers(_coeffs_grid(coeff_table, mid))[1]
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
    # the end of the scan a cell touches, NaN for inner cells; the edge
    # rules concern the cells at the ends only
    edge = np.where(a == lo, 0.0, np.where(b == hi, math.pi, np.nan))
    ends = np.flatnonzero(~np.isnan(edge))

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
            if len(ends):
                d_old = np.abs(t[live] - edge[live])
            t[live] += dt
            phi[live] += dp
            step = np.abs(dt)
            done = (step <= 1e-14) & (np.abs(dp) <= 1e-11)
            converged[live[done]] = True
            stop = done | ~(np.isfinite(t[live]) & np.isfinite(phi[live])
                            & (np.abs(t[live] - mid[live]) < 4.0 * width[live])
                            & (step < last_dt[live]))
            last_dt[live] = step
            if len(ends):
                # Newton's method halves the distance to a double solution
                ratio = np.abs(t[live] - edge[live]) / d_old
                ratios[live] = np.where((ratio > 0.35) & (ratio < 0.65), ratios[live] + 1, 0)
                stop |= ratios[live] >= 2
            live = live[~stop]

    inside = converged & (t > a) & (t < b)
    ti = t[inside]
    delta = np.minimum(1e-6, 0.5 * np.minimum(ti - a[inside], b[inside] - ti))
    probe = np.concatenate([ti - delta, ti + delta])
    if len(ends):
        touch, inner = _edge_touches(coeff_table, edge[ends], na[ends], nb[ends], t[ends],
                                     phi[ends], y0[ends], converged[ends],
                                     ratios[ends] >= 2, fold[ends], lo)
        ends, inner = ends[touch], inner[touch]
        probe = np.concatenate([probe, mid[ends]])
    counts = _count_outside(coeff_table, probe) if len(probe) else probe
    k = np.count_nonzero(inside)
    ok = (counts[:k] == na[inside]) & (counts[k:2 * k] == nb[inside])
    cuts = np.full(n, np.nan)
    cuts[np.flatnonzero(inside)[ok]] = ti[ok]
    dropped = np.zeros(n, dtype=bool)
    if len(ends):
        dropped[ends[counts[2 * k:] == inner]] = True
    return cuts, dropped


def _edge_touches(coeff_table, edge, na, nb, t, phi, y0, converged, halving, fold, lo):
    """The edge rules of ``_polish_cells`` for its cells at the ends of the
    scan, given each cell's edge (0 or pi), end counts and polish state
    (iterate, start root, whether it converged or was halving its distance
    to the edge, whether it is a fold).  Returns the mask of the cells whose
    crossing may sit on the edge, and the count each then needs at its
    midpoint.

    Where a root touches the circle at t = 0 or pi (|y(t)| is even there),
    a cell needs no cut when its iteration reaches the edge, converging
    there or halving its distance to it at each step as at a double
    solution, the root followed accounts for the count change, and the
    count at the midpoint is that of the cell's inner end, so no crossing
    shares the cell's inner half.
    """
    # the count change an edge touch explains: a touching root counts
    # outside on the cell's inner side only
    inner = np.where(edge == 0.0, nb, na)
    outer = np.where(edge == 0.0, na, nb)
    # a real root y = +-1 on the circle at the edge, whose |y(t)| is even:
    # F(edge, 0) or F(edge, pi) vanishes; rows are the edges 0 and pi,
    # columns the roots 1 and -1
    rows = _coeffs_grid(coeff_table, np.array([0.0, math.pi]))
    alternating = (-1.0) ** np.arange(rows.shape[1])
    at_pm1 = np.stack([rows.sum(axis=1), (rows * alternating).sum(axis=1)], axis=1)
    real_root = np.abs(at_pm1) <= 1e-13 * np.abs(rows).sum(axis=1)[:, None]
    with np.errstate(invalid="ignore"):     # phi of a lost iterate may be inf
        nearer_minus_one = ~(np.cos(phi) > 0.0)
    real_touch = real_root[np.where(edge == 0.0, 0, 1), nearer_minus_one.astype(int)]
    # converged on the edge, which lies lo beyond the scan: a fold, or a
    # pair e^{+-i phi} of which one root leaves the circle as the other
    # enters; or halving towards the edge: a fold, or a root y = +-1 that
    # touches the circle from outside
    touch = ((converged & (np.abs(t - edge) <= 2.0 * lo))
             | (halving & (fold | (real_touch & (np.abs(y0) > 1.0 + _BAND)))))
    return touch & (inner - outer == 1), inner


def _grid_counts(coeff_table, a, b, n):
    """The grids a + (b - a) j / n, j = 0..n, over the brackets [a, b], one
    row each and ending at b exactly, and the outside-circle root count at
    every point, from one ``_count_outside`` call."""
    grid = a[:, None] + (b - a)[:, None] * np.arange(n + 1) / n
    grid[:, -1] = b
    return grid, _count_outside(coeff_table, grid.ravel()).reshape(grid.shape)


def _section_cells(coeff_table, a, b, na):
    """The midpoints of brackets narrower than 1e-12 around the first
    crossing in each bracket [a, b], on whose ends the count differs (na at
    a), with the right ends of those brackets and the counts there.  Each
    round cuts every live bracket into 32 equal parts (``_grid_counts``)
    and keeps the first part whose right end counts other than na, for at
    most 12 rounds, as wide as 60 halvings leave it (32^12 = 2^60)."""
    a, b = a.copy(), b.copy()
    nb = np.empty_like(na)
    live = np.arange(len(a))
    for _ in range(12):
        if not len(live):
            break
        grid, counts = _grid_counts(coeff_table, a[live], b[live], 32)
        changed = counts[:, 1:] != na[live, None]
        changed[:, -1] = True     # b, where the count is not na
        part = changed.argmax(axis=1)
        rows = np.arange(len(live))
        a[live], b[live] = grid[rows, part], grid[rows, part + 1]
        nb[live] = counts[rows, part + 1]
        live = live[b[live] - a[live] >= 1e-12]
    return 0.5 * (a + b), b, nb


def _crossing_angles(coeff_table):
    """Angles in (0, pi) where a fiber root crosses the unit circle.

    The outside-circle root count on a grid of _N_SCAN equal cells
    (``_grid_counts``) brackets them: every cell where the count changes
    holds one.  ``_polish_cells`` puts each cut on the torus point of the
    curve P = 0 in its cell, or finds that the cell's crossing sits on the
    edge 0 or pi, where no cut is needed; the cells it cannot settle are
    cut by the same grid rule, 32 parts a round (``_section_cells``).
    Where the count at the right end of a sectioned bracket is not the
    cell's right count, the cell holds another crossing, and the rest of it
    is sectioned again, up to d cuts a cell for fibers of degree d, so a
    cell whose count steps by two gets two cuts.  A crossing pair inside
    one scan cell leaves the count unchanged at both ends and is missed.
    """
    lo = 1e-9
    hi = math.pi - 1e-9
    (grid,), (counts,) = _grid_counts(coeff_table, np.array([lo]), np.array([hi]), _N_SCAN)
    cells = np.flatnonzero(counts[:-1] != counts[1:])
    if not len(cells):
        return []
    a, b, na, nb = grid[cells], grid[cells + 1], counts[cells], counts[cells + 1]
    cuts, dropped = _polish_cells(coeff_table, a, b, na, nb, lo, hi)
    found = [cuts[~np.isnan(cuts) & ~dropped]]
    rest = np.flatnonzero(np.isnan(cuts) & ~dropped)
    start, n_start = a[rest], na[rest]
    for _ in range(coeff_table[1].shape[-1] - 1):     # d cuts a cell at most
        if not len(rest):
            break
        cut, start, n_start = _section_cells(coeff_table, start, b[rest], n_start)
        found.append(cut)
        again = n_start != nb[rest]
        rest, start, n_start = rest[again], start[again], n_start[again]
    return np.concatenate(found).tolist()


_LEAD_ZERO_CUTS = 512   # cuts at the lead's zeros at most: x^1000 + 1 has 500


def mahler_jensen(P, tol=1e-10):
    """Logarithmic Mahler measure of a real-coefficient Laurent polynomial.

    P is first divided by a power of 2, 2^e (``_unit_y_coeffs``), and
    e log 2 is added back, so P times 1e308, 2^-1060 or 10^400 works as P
    does.
    Raises ValueError for the zero polynomial, a symbolic k, a coefficient
    with a nonzero imaginary part (the fold of the t-integral onto (0, pi)
    holds for real coefficients only; ``mahler_torus2`` takes complex
    ones) or a tol that is not positive (NaN included), and
    QuadratureError for a NaN or infinite coefficient or a lead with more
    than _LEAD_ZERO_CUTS zeros on the circle in (0, pi)."""
    cx, log_scale = _unit_y_coeffs(P)
    if any(c.imag for cm in cx for c in cm.values()):
        raise ValueError("mahler_jensen needs real coefficients")
    if not tol > 0:
        raise ValueError("tol must be positive")
    d = len(cx) - 1
    if d == 0:
        return MeasureResult(log_scale + _solve_1var(cx[0])[0], 1e-15, "jensen_1d")

    lead_measure, degen = _solve_1var(cx[d])
    degen = list(itertools.islice(degen, _LEAD_ZERO_CUTS + 1))
    if len(degen) > _LEAD_ZERO_CUTS:
        raise QuadratureError(f"the leading coefficient has more than {_LEAD_ZERO_CUTS} "
                              "zeros on the unit circle in (0, pi), each a cut")
    coeff_table = _coeff_table(cx)
    crossings = _crossing_angles(coeff_table)

    cuts = sorted(set(degen) | set(crossings))
    edges = [0.0] + [t for t in cuts if 1e-12 < t < math.pi - 1e-12] + [math.pi]

    r = _tanh_sinh_pieces(lambda t: _fiber_logplus(coeff_table, t), edges, tol * math.pi)
    value = log_scale + lead_measure + r.value / math.pi
    return MeasureResult(value, r.err_est / math.pi + 1e-13, "jensen_1d")


_TORUS_ROWS = 4096   # rows of the torus grids solved and summed at a time


def _torus_row_means(cx):
    """The means of log|P(e^{i tx}, e^{i ty})| over the y-angles ty, one
    per x-angle tx, for the coefficient polynomials ``cx`` of P in y (see
    ``_unit_y_coeffs``; clearing the lowest y-power leaves |P| unchanged on
    the torus): the row means of the trapezoid grids, in the contract of
    ``integrate_torus2``, which passes a list of grids t, each the x-angles
    and the uniform y-angles ty_l = t_0 + 2 pi l / n, l = 0..n-1.

    Each row is summed in closed form from the roots of its fiber
    f = c_d prod_i (y - r_i), solved by ``_solve_fibers``: with
    w = e^{i n t_0}, prod_l (z - e^{i ty_l}) = (-1)^n (z^n - w) gives

        sum_l log|f(e^{i ty_l})| = n log|c_d| + sum_i log|r_i^n - w|,

    exactly, for every n: the sum of the finite grid, not its limit as
    n -> infinity (which is Jensen's formula).  With rho = |r|,
    u = min(rho^n, rho^-n) and phi = n arg r - arg w, the term is

        log|r^n - w| = n log+ rho + log((1 - u)^2 + 4 u sin^2(phi / 2)) / 2,

    which is log|1 - conj(w) r^n| for rho <= 1 and
    n log rho + log|1 - w r^-n| beyond: it neither overflows nor cancels
    where a root sits near the circle.  A zero lead (a vanishing fiber)
    counts as 1e-300, and the square under the last log is clamped at
    1e-300 (a grid point on the curve P = 0), so the mean stays finite.

    The rows of all the grids of a call are solved together, each with the
    n and n t_0 of its own grid, _TORUS_ROWS at a time, so that a call of
    many small grids costs one fiber solve and the temporaries of a grid of
    2^16 rows stay those of 4096.
    """
    coeff_table = _coeff_table(cx)

    def row_means(tx, n, arg_w):
        lead, roots = _solve_fibers(_coeffs_grid(coeff_table, tx))
        with np.errstate(divide="ignore"):    # a zero root: log rho = -inf, u = 0
            log_rho = np.log(np.abs(roots))
        decay = -n[:, None] * np.abs(log_rho)
        half_phi = 0.5 * (n[:, None] * np.angle(roots) - arg_w[:, None])
        gap = np.expm1(decay)
        terms = gap * gap + 4.0 * np.exp(decay) * np.sin(half_phi) ** 2
        np.log(np.maximum(terms, 1e-300), out=terms)
        return (np.log(np.where(lead == 0, 1e-300, np.abs(lead)))
                + np.maximum(log_rho, 0.0).sum(axis=1)
                + 0.5 * terms.sum(axis=1) / n)

    def g(grids):
        sizes = [len(t) for t in grids]
        tx = np.concatenate(grids)
        # n as floats, which it becomes in every product anyway, exactly
        n = np.repeat(np.array(sizes, dtype=float), sizes)
        arg_w = n * np.repeat([t[0] for t in grids], sizes)
        means = np.empty(len(tx))
        for s in range(0, len(tx), _TORUS_ROWS):
            rows = slice(s, s + _TORUS_ROWS)
            means[rows] = row_means(tx[rows], n[rows], arg_w[rows])
        return [means[end - size:end] for end, size in zip(itertools.accumulate(sizes), sizes)]

    return g


def mahler_torus2(P, tol=1e-5, n_max=1 << 16):
    """Direct torus-average definition; cross-validation oracle only.

    The trapezoid grids go through ``integrate_torus2``, whose integrand
    sums each row of a grid in closed form from the roots of its fiber (see
    ``_torus_row_means``): a grid of n x n points costs n fiber solves, not
    n^2 evaluations, and holds no n x n array.  That is why n_max can
    default to 2^16: Q_6, whose singular zero (x, y) = (-1, 1) slows the
    convergence, meets tol 1e-5 at n = 2^13.  The grids up to n = 256 are
    solved in one batch and each larger one in batches of at most 4096 rows.
    As in ``mahler_jensen``, P is divided by a power of 2 first and its
    logarithm added back; err_est is at least the rounding of the sum,
    4 eps |value|, as that of ``integrate_torus2`` is of its own.  Raises
    ValueError for the zero polynomial or a symbolic k, when n_max is not a
    finite number at least the starting grid size 16, or when tol is not
    positive (NaN included), and QuadratureError for a NaN or infinite
    coefficient."""
    cx, log_scale = _unit_y_coeffs(P)
    r = integrate_torus2(_torus_row_means(cx), tol=tol, n_max=n_max)
    value = log_scale + r.value
    return MeasureResult(value, max(r.err_est, 4.0 * _EPS * abs(value)), "torus_2d")
