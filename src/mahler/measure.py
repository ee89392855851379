"""Mahler measures of Laurent polynomials: the Jensen engine, the torus
oracle and the one-variable measure.

For P with real coefficients, P(x, y) = a_d(x) y^d + ... after clearing the
lowest power of y, Jensen's formula and the symmetry t -> -t give

    m(P) = m(a_d) + (1/pi) * integral over (0, pi) of sum_i log+|y_i(e^{it})|

over the fiber roots y_i.  m(a_d) is a one-variable measure: its exponents
are divided by their gcd, its cyclotomic factors are divided out exactly and
add 0, and its cofactor is solved.  The t-integrand has kinks where a root
crosses the unit circle and logarithmic spikes at the zeros of a_d on the
circle; both become cuts of the tanh-sinh rule ``quad._tanh_sinh_pieces``.
The crossings are bracketed by the outside-circle root count on a scan grid
of 1024 cells.  Each bracket is polished by Newton's method on
P(e^{it}, e^{i phi}) = 0, or by Gauss-Newton on P = dP/dphi = 0 at a fold,
where a root pair y, 1/conj(y) meets on the circle.  A bracket the polish
cannot settle is cut by the count rule down to 1e-12.  A pair of crossings
inside one scan cell changes no count and is missed.

Every fiber, of the scan, the polish, the quadrature and the torus rows, is
solved by ``_solve_fibers`` through ``rootfind.batch_roots``, and every
engine takes its coefficients from ``_unit_y_coeffs``, scaled by a power of
2 so that no fiber coefficient overflows or goes subnormal.

``mahler_torus2`` averages log|P| over n x n trapezoid grids, with no
Jensen formula, scan or cuts: each grid row is summed in closed form from
the roots of its fiber, so a grid costs n fiber solves.
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

_UNIT_CLAMP = 1e-12        # |root| this close to 1 adds log+ = 0: rounding, not a crossing


@dataclass(frozen=True)
class MeasureResult:
    value: float
    err_est: float
    method: str   # jensen_1d | torus_2d | closed_form


def _unit_y_coeffs(P):
    """The coefficients {i: c} of y^0..y^d of P, the lowest power of y
    cleared, divided by the power of 2, 2^e, that puts their largest
    modulus in [0.5, 1); and e log 2, which the measure adds back.

    Exact for a float and correctly rounded for an int, which may lie
    beyond float range.  Raises ValueError for the zero polynomial or a
    symbolic k, and QuadratureError for a NaN or infinite coefficient."""
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
    """e^{i angles} for a real array, from its cos and sin."""
    out = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def _coeff_table(cx):
    """The coefficients ``cx`` for ``_coeffs_grid``: the sorted magnitudes
    m_k of the x-exponents, and a (K, sides, powers of y) array whose side
    0 holds the coefficients of x^{m_k} and side 1, present when an exponent
    is negative, the conjugates of those of x^{-m_k}."""
    mags = sorted({abs(i) for cm in cx for i in cm})
    sides = 2 if any(i < 0 for cm in cx for i in cm) else 1
    row = {m: r for r, m in enumerate(mags)}
    table = np.zeros((len(mags), sides, len(cx)), dtype=complex)
    for j, cm in enumerate(cx):
        for i, c in cm.items():
            c = complex(c)
            table[row[abs(i)], int(i < 0), j] = c.conjugate() if i < 0 else c
    return np.array(mags, dtype=float), table


def _coeffs_grid(coeff_table, thetas):
    """The column-major array whose entry (n, j) is the coefficient of y^j
    at x = e^{i thetas[n]}, by Horner's rule in w = e^{i theta} on both
    sides of ``_coeff_table``; side 1 adds as the conjugate of its sum, so
    a real coefficient c_k = c_{-k} gives an exactly real value."""
    mags, table = coeff_table
    mags = mags.tolist()
    rows = table[..., None]
    powers = {}

    def power(gap):
        if gap not in powers:
            powers[gap] = _unit_powers(thetas if gap == 1 else gap * thetas)
        return powers[gap]

    # rung i is reached by the gap m_i - m_{i-1}, with m_{-1} = 0
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
    """The measure of a one-variable Laurent polynomial {exponent: c}, the
    angles in (0, pi) of its zeros on the unit circle, as a lazy iterator,
    and the coefficients and roots of the cofactor it solved.

    With f(x) = x^low h(x^g), g the gcd of the shifted exponents,
    m(f) = m(h).  A real h is made an integer polynomial exactly and its
    cyclotomic factors are divided out exactly; they add 0, and their zero
    angles are exact multiples of pi, correctly rounded.  The cofactor's
    roots within 1e-9 of the circle give the other angles.  Raises
    ValueError for the zero polynomial."""
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
    return total, itertools.chain(exact, rounded), (c, roots)


def _cofactor_error(c, roots):
    """A bound on the error of log|c_D| + sum_i log+|z_i| as ``_solve_1var``
    sums it over the computed roots z_i of ``c`` (ascending, degree D).

    A true root lies in |z - z_i| <= r_i, the Braess-Hadeler radius
    r_i = D (|c(z_i)| + 4 (D + 1) eps sum_j |c_j| |z_i|^j) / |c_D prod_{j != i} (z_i - z_j)|,
    the eps term bounding the rounding of c(z_i) and of c.  Its log+ is
    within r_i / max(1, |z_i| - r_i) of log+|z_i|.  The unit clamp adds
    the log|z_i| it drops, and the sum its rounding.  c(z_i) is taken from
    the reversed polynomial outside the circle, in logarithms, so nothing
    overflows.  Limit: the radii pair with the roots only while the disks
    are disjoint.  For m clustered roots they grow like eps^(1/m), and the
    bound is then of the error's size but not proved; an exactly repeated
    computed root gives inf."""
    D = len(c) - 1
    if D < 1:
        return 0.0
    c = np.asarray(c, dtype=complex)
    z = np.asarray(roots, dtype=complex)
    mod = np.abs(z)
    out = mod > 1.0
    w = np.where(out, 1.0 / z, z)
    aw = np.abs(w)
    p = np.zeros(D, dtype=complex)
    scale = np.zeros(D)
    for k in range(D, -1, -1):
        coef = np.where(out, c[D - k], c[k])
        p = p * w + coef
        scale = scale * aw + np.abs(coef)
    diff = np.abs(z[:, None] - z)
    np.fill_diagonal(diff, 1.0)
    with np.errstate(all="ignore"):
        log_r = (math.log(D) + np.log(np.abs(p) + 4.0 * (D + 1) * _EPS * scale)
                 + np.where(out, D * np.log(mod), 0.0)
                 - math.log(abs(c[-1])) - np.log(diff).sum(axis=1))
        r = np.exp(log_r)
        logplus = np.where(out, np.log(mod), 0.0)
        clamped = np.where(np.abs(mod - 1.0) <= _UNIT_CLAMP, logplus, 0.0)
        err = (r / np.maximum(1.0, mod - r)).sum() + clamped.sum()
    return float(err + (D + 2) * _EPS * (abs(math.log(abs(c[-1]))) + logplus.sum()))


def mahler_1var(coeffs):
    """Logarithmic Mahler measure of a one-variable Laurent polynomial,
    ``coeffs`` mapping exponent -> real coefficient.

    A product of cyclotomics gives exactly 0.0, and a root within 1e-12 of
    the circle counts as on it.  Raises ValueError for the zero polynomial
    and QuadratureError for a NaN or infinite coefficient."""
    (c,), log_scale = _unit_y_coeffs(LaurentPoly2({(i, 0): v for i, v in coeffs.items()}))
    return log_scale + _solve_1var(c)[0]


# ---------------------------------------------------------------------------
# the Jensen engine
# ---------------------------------------------------------------------------

_BAND = 1e-9   # "outside" margin: the families have whole arcs with |y| = 1


def _solve_fibers(coeffs):
    """``(lead, roots)`` of the fibers in the rows of ``coeffs`` (ascending
    in y), one ``batch_roots`` call per degree after zero leading
    coefficients are trimmed.  ``lead`` is the top nonzero coefficient, 0
    for a vanishing fiber, and the roots beyond a row's degree are 0.  Rows
    are taken and roots returned column-major, where reductions over a
    row's few entries run fastest."""
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
    """sum_i log+|y_i| of the fiber at each angle of ``thetas``."""
    mags = np.abs(_solve_fibers(_coeffs_grid(coeff_table, thetas))[1])
    return np.log(np.maximum(mags, 1.0)).sum(axis=1)


def _count_outside(coeff_table, thetas):
    """The number of fiber roots with |y| > 1 + _BAND at each angle."""
    mags = np.abs(_solve_fibers(_coeffs_grid(coeff_table, thetas))[1])
    return np.count_nonzero(mags > 1.0 + _BAND, axis=1)


_N_SCAN = 1024       # scan cells over (0, pi): an arc narrower than one may be missed
_POLISH_STEPS = 8    # polish steps at most; a cell left unsettled is sectioned
_MIRROR_REL = 1e-6   # root pair test of a fold, far above the roots' rounding


def _torus_terms(ext_table, t, phi, fold):
    """F(t, phi) = sum_j c_j(e^{it}) e^{ij phi}, F_t and F_phi at arrays of
    points, and F_t phi and F_phi phi when ``fold``; ``ext_table`` is the
    coefficient table with the t-derivatives of its columns appended."""
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
    """The Gauss-Newton step (dt, dphi) on (F, w F_phi) = 0; without w,
    the Newton step on F = 0, which is the same as with w = 0."""
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
    """The cut of each scan cell [a, b] whose ends count na and nb roots
    outside, NaN where the cell is left to ``_section_cells``, and the mask
    of the cells that need no cut.

    Each cell is polished from its midpoint and the argument of the fiber
    root nearest the circle there, by Gauss-Newton where that root and the
    next form a fold.  A cut is kept when the iteration converged inside
    the cell and the counts just either side of it are na and nb.  A cell
    at an end of the scan (a == lo or b == hi) needs no cut when a root
    touches the circle at that edge: the iteration converges on the edge,
    or halves its distance to it twice in a row, and the count at the
    midpoint is that of the inner end."""
    mags, table = coeff_table
    ext = mags, np.concatenate([table, 1j * mags[:, None, None] * table], axis=2)
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
    # the end of the scan a cell touches, NaN for inner cells
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
        # a touching root counts outside on the cell's inner side only
        at0 = edge[ends] == 0.0
        inner = np.where(at0, nb[ends], na[ends])
        outer = np.where(at0, na[ends], nb[ends])
        # F(edge, 0) or F(edge, pi) vanishes for a real root y = +-1 there;
        # rows are the edges 0 and pi, columns the roots 1 and -1
        rows = _coeffs_grid(coeff_table, np.array([0.0, math.pi]))
        alternating = (-1.0) ** np.arange(rows.shape[1])
        at_pm1 = np.stack([rows.sum(axis=1), (rows * alternating).sum(axis=1)], axis=1)
        real_root = np.abs(at_pm1) <= 1e-13 * np.abs(rows).sum(axis=1)[:, None]
        with np.errstate(invalid="ignore"):     # phi of a lost iterate may be inf
            nearer_minus_one = ~(np.cos(phi[ends]) > 0.0)
        real_touch = real_root[np.where(at0, 0, 1), nearer_minus_one.astype(int)]
        # converged on the edge, or halving towards it: a fold, or a root
        # y = +-1 that touches the circle from outside
        touch = ((converged[ends] & (np.abs(t[ends] - edge[ends]) <= 2.0 * lo))
                 | ((ratios[ends] >= 2)
                    & (fold[ends] | (real_touch & (np.abs(y0[ends]) > 1.0 + _BAND)))))
        touch &= inner - outer == 1
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


def _grid_counts(coeff_table, a, b, n):
    """The grids a + (b - a) j / n, j = 0..n, one row per bracket [a, b]
    and ending at b exactly, and the outside count at every point."""
    grid = a[:, None] + (b - a)[:, None] * np.arange(n + 1) / n
    grid[:, -1] = b
    return grid, _count_outside(coeff_table, grid.ravel()).reshape(grid.shape)


def _section_cells(coeff_table, a, b, na):
    """The midpoint, right end and right count of a bracket narrower than
    1e-12 around the first crossing in each bracket [a, b], whose left end
    counts na.  Each round cuts a bracket into 32 parts and keeps the first
    whose right end counts other than na; 12 rounds make 2^60 halvings."""
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
    """The angles in (0, pi) where a fiber root crosses the unit circle, as
    a list: a cut per scan cell whose count changes, and up to d cuts in a
    cell whose count steps by more than one, for fibers of degree d."""
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
    """Logarithmic Mahler measure of a real-coefficient Laurent polynomial,
    as a MeasureResult whose err_est is the rule's estimate plus 1e-13, or
    for a polynomial in x alone the root bound of ``_cofactor_error``.

    Raises ValueError for the zero polynomial, a symbolic k, a coefficient
    with a nonzero imaginary part (``mahler_torus2`` takes those) or a tol
    that is not positive, and QuadratureError for a NaN or infinite
    coefficient or a lead with more than _LEAD_ZERO_CUTS zeros on the
    circle in (0, pi)."""
    cx, log_scale = _unit_y_coeffs(P)
    if any(c.imag for cm in cx for c in cm.values()):
        raise ValueError("mahler_jensen needs real coefficients")
    if not tol > 0:
        raise ValueError("tol must be positive")
    d = len(cx) - 1
    if d == 0:
        value, _, (c, roots) = _solve_1var(cx[0])
        value += log_scale
        err = _cofactor_error(c, roots) + 2.0 * _EPS * (abs(log_scale) + abs(value))
        return MeasureResult(value, err, "jensen_1d")

    lead_measure, degen, _ = _solve_1var(cx[d])
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


_TORUS_ROWS = 4096   # rows solved at a time: bounds the temporaries of a large grid


def _torus_row_means(cx):
    """The row-means integrand of ``integrate_torus2`` for the coefficients
    ``cx`` of P in y.  With w = e^{i n t_0} for a row's y-angles
    t_0 + 2 pi l / n and f = c_d prod_i (y - r_i), the row sum is exactly
    n log|c_d| + sum_i log|r_i^n - w|, each term taken as

        n log+ rho + log((1 - u)^2 + 4 u sin^2(phi / 2)) / 2,

    rho = |r|, u = min(rho^n, rho^-n), phi = n arg r - arg w, which neither
    overflows nor cancels.  A zero lead and the square are clamped at 1e-300."""
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
        # n as floats, exactly
        n = np.repeat(np.array(sizes, dtype=float), sizes)
        arg_w = n * np.repeat([t[0] for t in grids], sizes)
        means = np.empty(len(tx))
        for s in range(0, len(tx), _TORUS_ROWS):
            rows = slice(s, s + _TORUS_ROWS)
            means[rows] = row_means(tx[rows], n[rows], arg_w[rows])
        return [means[end - size:end] for end, size in zip(itertools.accumulate(sizes), sizes)]

    return g


def mahler_torus2(P, tol=1e-5, n_max=1 << 16):
    """Mahler measure as the torus average of log|P|, an oracle for
    ``mahler_jensen``; P may have complex coefficients.  err_est is at
    least 4 eps |value|.

    Raises ValueError for the zero polynomial or a symbolic k, a tol that
    is not positive, or an n_max that is not a finite number at least 16,
    and QuadratureError for a NaN or infinite coefficient."""
    cx, log_scale = _unit_y_coeffs(P)
    r = integrate_torus2(_torus_row_means(cx), tol=tol, n_max=n_max)
    value = log_scale + r.value
    return MeasureResult(value, max(r.err_est, 4.0 * _EPS * abs(value)), "torus_2d")
