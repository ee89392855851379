"""Generic Mahler-measure computation via Jensen's formula.

For P(x, y) real-coefficient, write P(x, .) = a_d(x) y^d + ... after clearing
the lowest y-power.  Averaging log|P| over the torus gives

    m(P) = m(a_d) + (1/pi) * integral over (0, pi) of sum_i log+ |y_i(e^{i t})|

using conjugation symmetry in t; the leading-coefficient term is a
one-variable measure obtained exactly from its roots.  The t-integrand is
piecewise analytic: it has kinks where a root magnitude crosses 1 and
logarithmic spikes where a_d vanishes on the circle.  Both kinds of points
are located up front.  Spikes come from the unit-circle roots of a_d.
Crossings come from the number of roots outside the circle: the fiber
coefficients are evaluated at all angles of a uniform scan grid at once (in
blocks of angles, so memory does not grow with the x-degree times the grid
size), the fibers of the whole grid are solved in one ``batch_roots`` call,
and every cell where the count changes is bisected, all cells together,
down to a width of 1e-12.  Each bisection call counts the midpoints of the
next three halvings of every cell and then replays the halvings, so the
cuts are those of one halving per call.  A crossing pair inside one scan
cell leaves the count unchanged at both ends and is missed.

The pieces between the cuts are integrated together with the
double-exponential rule ``quad._tanh_sinh_pieces``: each level evaluates
the new nodes of all unconverged pieces with one call of the fiber kernel
``_fiber_logplus``, so the fibers of a whole level are solved in one
``batch_roots`` call.

The direct two-dimensional torus average is kept as an independent,
lower-accuracy oracle.  It does not use Jensen's formula, but it reuses the
scan's coefficient table: log|P| on each row block of the trapezoid grid is
the product of the fiber coefficients at the block's x-angles with the
powers of y at all y-angles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFiberError
from .quad import _tanh_sinh_pieces, integrate_torus2
from .rootfind import batch_roots, poly_roots

__all__ = [
    "FiberRoots",
    "MeasureResult",
    "roots_in_y",
    "mahler_jensen",
    "mahler_torus2",
    "mahler_1var",
]

_DROP_REL = 1e-12          # relative size below which a leading coeff counts as 0
_UNIT_CLAMP = 1e-12        # |root| this close to 1 contributes log+ = 0 exactly


@dataclass(frozen=True)
class MeasureResult:
    value: float
    err_est: float
    method: str   # jensen_1d | torus_2d | closed_form


@dataclass(frozen=True)
class FiberRoots:
    """Roots of P(x, .) at one circle point, ordered by descending modulus
    (ties by ascending argument), with the value of the leading coefficient.
    ``dropped`` flags a degenerate fiber where the top coefficient vanished."""

    roots: tuple
    lead: complex
    dropped: bool


def _y_coeff_polys(P):
    """Coefficient Laurent polynomials (dicts {i: c}) of y^0..y^d after
    clearing the lowest power of y."""
    ycof = P.y_coefficients()
    jmin = min(ycof)
    jmax = max(ycof)
    return [ycof.get(j, {}) for j in range(jmin, jmax + 1)]


def _coeffs_at(cx, x):
    return [sum(c * x ** i for i, c in cm.items()) if cm else 0j for cm in cx]


_BLOCK_ENTRIES = 4096   # angles times x-exponents per block of _coeffs_grid


def _coeff_table(cx):
    """The x-exponents present in ``cx`` and the matrix of their
    coefficients, one column per power of y."""
    exps = sorted({i for cm in cx for i in cm})
    row = {e: r for r, e in enumerate(exps)}
    table = np.zeros((len(exps), len(cx)), dtype=complex)
    for j, cm in enumerate(cx):
        for i, c in cm.items():
            table[row[i], j] = complex(c)
    return np.array(exps, dtype=float), table


def _coeffs_grid(coeff_table, thetas):
    """Fiber coefficients at x = e^{i theta} for an array of angles: row n
    is ``_coeffs_at(cx, e^{i thetas[n]})``.  The angles go in blocks, so that
    no temporary exceeds _BLOCK_ENTRIES entries whatever the x-degree; the
    product uses einsum, not BLAS, whose buffers would add to peak memory."""
    exps, table = coeff_table
    out = np.empty((len(thetas), table.shape[1]), dtype=complex)
    block = max(1, _BLOCK_ENTRIES // len(exps))
    for s in range(0, len(thetas), block):
        powers = np.exp(1j * np.outer(thetas[s:s + block], exps))
        out[s:s + block] = np.einsum("ij,jk->ik", powers, table)
    return out


def roots_in_y(P, x):
    """Solve P(x, y) = 0 in y at a fixed point x on the unit circle.

    Solves with ``rootfind.poly_roots``: closed forms through degree 2, the
    Aberth-Ehrlich finder beyond.  (The Jensen engine itself solves its
    fibers in batches with ``rootfind.batch_roots``.)
    A vanishing leading coefficient is reported via ``dropped`` and the
    lower-degree root set is returned; an identically-zero fiber raises.
    """
    if P.has_symbolic_k():
        raise ValueError("substitute a numeric k first")
    if abs(abs(x) - 1.0) > 1e-9:
        raise ValueError("x must lie on the unit circle")
    cx = _y_coeff_polys(P)
    coeffs = _coeffs_at(cx, x)
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        raise DegenerateFiberError("fiber polynomial vanishes identically")
    dropped = False
    while len(coeffs) > 1 and abs(coeffs[-1]) <= _DROP_REL * scale:
        coeffs.pop()
        dropped = True
    lead = coeffs[-1]
    roots = poly_roots(coeffs) if len(coeffs) > 1 else []
    roots.sort(key=lambda r: (-abs(r), cmath.phase(r)))
    return FiberRoots(tuple(roots), lead, dropped)


def mahler_1var(coeffs):
    """Logarithmic Mahler measure of a one-variable Laurent polynomial.

    ``coeffs`` maps exponent -> real coefficient.  Jensen: log|lead| plus
    log+ of the root magnitudes; magnitudes within 1e-12 of 1 count as
    exactly 1, so products of cyclotomics give exactly 0.0.
    """
    if not coeffs:
        raise ValueError("measure of the zero polynomial")
    emin = min(coeffs)
    emax = max(coeffs)
    c = [complex(coeffs.get(e, 0)) for e in range(emin, emax + 1)]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    while len(c) > 1 and c[0] == 0:
        c.pop(0)
    if len(c) == 1:
        return math.log(abs(c[0]))
    total = math.log(abs(c[-1]))
    for r in poly_roots(c):
        ar = abs(r)
        if abs(ar - 1.0) > _UNIT_CLAMP and ar > 1.0:
            total += math.log(ar)
    return total


# ---------------------------------------------------------------------------
# the Jensen engine
# ---------------------------------------------------------------------------

_BAND = 1e-9   # families have whole arcs with |y| = 1 exactly; counting
               # "outside" with this margin keeps rounding noise from
               # flickering the count there while pinning genuine crossings
               # to within ~_BAND of the true angle


def _root_magnitudes(coeffs):
    """Root moduli of the fibers in the rows of ``coeffs``, solved together
    by ``batch_roots``.

    Where the leading coefficient nearly vanishes (below 1e-8 of the
    largest) the reversed polynomial is solved instead, which keeps the huge
    root without feeding an ill-conditioned leading term to the solver, and
    its roots are inverted (a root below 1e-300 gives modulus 0).  Zero
    leading coefficients of the polynomial solved, which only a reversed or
    a vanishing fiber can have, are trimmed, one ``batch_roots`` call per
    degree left; the roots they drop are y = 0, modulus 0.

    The rows are taken, and the moduli returned, column-major: a reduction
    over each row's few entries then runs along contiguous columns, several
    times faster than over short C-order rows (55 against 7 us for the
    maximum over 1025 rows of 2).
    """
    coeffs = np.asfortranarray(coeffs)
    n, m = coeffs.shape[0], coeffs.shape[1] - 1
    scale = np.abs(coeffs).max(axis=1)
    flip = np.abs(coeffs[:, -1]) < 1e-8 * scale
    solve = np.where(flip[:, None], coeffs[:, ::-1], coeffs)
    groups = {m: slice(None)}
    if not solve[:, -1].all():
        nonzero = solve != 0
        degree = np.where(nonzero.any(axis=1), m - nonzero[:, ::-1].argmax(axis=1), 0)
        groups = {deg: degree == deg for deg in range(1, m + 1) if (degree == deg).any()}
    mags = np.zeros((n, m), order="F")
    for deg, rows in groups.items():
        roots = batch_roots(solve[rows, :deg + 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            mags[rows, :deg] = np.where(
                flip[rows, None],
                np.where(np.abs(roots) > 1e-300, np.abs(1.0 / roots), 0.0),
                np.abs(roots))
    return mags


def _fiber_logplus(coeff_table, thetas):
    """sum_i log+ |y_i| at x = e^{i theta} for an array of angles.

    The fibers are solved together by ``_root_magnitudes``.  For fibers
    with (numerically) real coefficients and degree 2, a negative
    discriminant means both roots share the modulus sqrt(|c0/c2|); such a
    pair contributes log+ |c0/c2| exactly, with no branch ambiguity, and
    is not solved.
    """
    coeffs = np.asfortranarray(_coeffs_grid(coeff_table, thetas))   # see _root_magnitudes
    out = np.zeros(len(coeffs))
    solve = np.ones(len(coeffs), dtype=bool)
    if coeffs.shape[1] == 3:
        scale = np.abs(coeffs).max(axis=1)
        c0, c1, c2 = coeffs.real.T
        shortcut = ((np.abs(coeffs.imag).max(axis=1) <= 1e-13 * scale)
                    & (np.abs(c2) > _DROP_REL * scale)
                    & (c1 * c1 - 4.0 * c2 * c0 < 0.0))
        out[shortcut] = np.log(np.maximum(np.abs(c0[shortcut] / c2[shortcut]), 1.0))
        solve = ~shortcut
    if solve.any():
        mags = _root_magnitudes(coeffs[solve])
        out[solve] = np.log(np.maximum(mags, 1.0)).sum(axis=1)
    return out


def _count_outside(coeff_table, thetas):
    """Number of fiber roots with |y| > 1 + _BAND at each angle, all angles
    solved together by ``_root_magnitudes``."""
    mags = _root_magnitudes(_coeffs_grid(coeff_table, thetas))
    return np.count_nonzero(mags > 1.0 + _BAND, axis=1)


def _unit_circle_angles(coeff_poly):
    """Angles in (0, pi) where a one-variable Laurent polynomial vanishes on
    the unit circle, plus flags for zeros at x = 1 and x = -1."""
    emin = min(coeff_poly)
    emax = max(coeff_poly)
    c = [complex(coeff_poly.get(e, 0)) for e in range(emin, emax + 1)]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    while len(c) > 1 and c[0] == 0:
        c.pop(0)
    if len(c) == 1:
        return [], False, False
    angles = []
    at_one = at_minus_one = False
    for r in poly_roots(c):
        if abs(abs(r) - 1.0) > 1e-9:
            continue
        t = cmath.phase(r)
        if abs(t) < 1e-12:
            at_one = True
        elif abs(abs(t) - math.pi) < 1e-12:
            at_minus_one = True
        elif t > 0:
            angles.append(t)
    return sorted(angles), at_one, at_minus_one


_TREE_DEPTH = 3   # bisection halvings counted per _count_outside call


def _crossing_angles(coeff_table, n_scan):
    """Bisection on the outside-circle root count over a uniform scan grid;
    all brackets are halved together until narrower than 1e-12, at most 60
    times.

    One ``_count_outside`` call counts the 7 midpoints of the next three
    halvings of every live bracket (the tree of both outcomes of each
    halving); the halvings are then replayed from those counts.  Each
    midpoint is 0.5 * (a + b) of the bracket it halves, and the 1e-12 stop
    is checked after each halving, so the cuts are those of one halving
    per call.
    """
    lo = 1e-9
    hi = math.pi - 1e-9
    grid = lo + (hi - lo) * np.arange(n_scan + 1) / n_scan
    counts = _count_outside(coeff_table, grid)
    cells = np.flatnonzero(counts[:-1] != counts[1:])
    a, b, na = grid[cells], grid[cells + 1], counts[cells]
    live = np.arange(len(cells))
    halvings = 0
    while len(live) and halvings < 60:
        depth = min(_TREE_DEPTH, 60 - halvings)
        # midpoints in heap order: node k halves a bracket whose halves are
        # the brackets of nodes 2k + 1 and 2k + 2
        brackets = [(a[live], b[live])]
        mids = []
        for _ in range(depth):
            nxt = []
            for lo_k, hi_k in brackets:
                m = 0.5 * (lo_k + hi_k)
                mids.append(m)
                nxt += [(lo_k, m), (m, hi_k)]
            brackets = nxt
        mids = np.array(mids)
        same = _count_outside(coeff_table, mids.ravel()).reshape(mids.shape) == na[live]
        node = np.zeros(len(live), dtype=int)
        going = np.arange(len(live))
        for _ in range(depth):
            br, k = live[going], node[going]
            m, s = mids[k, going], same[k, going]
            a[br[s]] = m[s]
            b[br[~s]] = m[~s]
            node[going] = 2 * k + np.where(s, 2, 1)
            going = going[b[br] - a[br] >= 1e-12]
        halvings += depth
        live = live[going]
    return (0.5 * (a + b)).tolist()


def mahler_jensen(P, tol=1e-10, n_scan=1024):
    """Logarithmic Mahler measure of a real-coefficient Laurent polynomial."""
    if P.is_zero():
        raise ValueError("measure of the zero polynomial")
    if P.has_symbolic_k():
        raise ValueError("substitute a numeric k first")
    cx = _y_coeff_polys(P)
    d = len(cx) - 1
    if d == 0:
        return MeasureResult(mahler_1var(cx[0]), 1e-15, "jensen_1d")

    lead_measure = mahler_1var(cx[d])
    degen, _, _ = _unit_circle_angles(cx[d])
    coeff_table = _coeff_table(cx)
    crossings = _crossing_angles(coeff_table, n_scan)

    cuts = sorted(set(degen) | set(crossings))
    edges = [0.0] + [t for t in cuts if 1e-12 < t < math.pi - 1e-12] + [math.pi]

    sub_tol = tol * math.pi / max(len(edges) - 1, 1)
    pieces = _tanh_sinh_pieces(lambda t: _fiber_logplus(coeff_table, t), edges, sub_tol)
    total = 0.0
    err = 0.0
    for r in pieces:
        total += r.value
        err += r.err_est

    value = lead_measure + total / math.pi
    return MeasureResult(value, err / math.pi + 1e-13, "jensen_1d")


def _torus_log_abs(P):
    """log|P(e^{i tx}, e^{i ty})| on the grid of a column of angles tx
    against a row of angles ty, as the product of the fiber coefficients
    c_j(e^{i tx}) (rows of ``_coeffs_grid``) with the powers e^{i j ty}.
    Clearing the lowest y-power in ``_y_coeff_polys`` leaves |P| unchanged
    on the torus."""
    coeff_table = _coeff_table(_y_coeff_polys(P))
    ypowers = np.arange(coeff_table[1].shape[1])

    def g(tx, ty):
        vals = np.abs(_coeffs_grid(coeff_table, np.ravel(tx))
                      @ np.exp(1j * np.outer(ypowers, np.ravel(ty))))
        return np.log(np.maximum(vals, 1e-300))

    return g


def mahler_torus2(P, tol=1e-5, n_max=4096):
    """Direct torus-average definition; cross-validation oracle only.

    The trapezoid grid goes through ``integrate_torus2`` in row blocks; each
    block of log|P| is one small product of the fiber-coefficient table that
    the crossing scan uses (``_coeffs_grid``) with the powers of y, so no
    full-grid exponential is formed per monomial.  Raises ValueError when
    n_max is below the starting grid size 16."""
    if P.is_zero():
        raise ValueError("measure of the zero polynomial")
    if P.has_symbolic_k():
        raise ValueError("substitute a numeric k first")
    r = integrate_torus2(_torus_log_abs(P), tol=tol, n_max=n_max)
    return MeasureResult(r.value, r.err_est, "torus_2d")
