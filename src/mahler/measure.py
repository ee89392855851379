"""Generic Mahler-measure computation via Jensen's formula.

For P(x, y) real-coefficient, write P(x, .) = a_d(x) y^d + ... after clearing
the lowest y-power.  Averaging log|P| over the torus gives

    m(P) = m(a_d) + (1/pi) * integral over (0, pi) of sum_i log+ |y_i(e^{i t})|

using conjugation symmetry in t; the leading-coefficient term is a
one-variable measure obtained exactly from its roots.  The t-integrand is
piecewise analytic: it has kinks where a root magnitude crosses 1 and
logarithmic spikes where a_d vanishes on the circle.  Both kinds of points
are located up front and the integral is summed piece by piece with the
double-exponential rule.  Spikes come from the unit-circle roots of a_d.
Crossings come from the number of roots outside the circle: the fiber
coefficients are evaluated at all angles of a uniform scan grid at once (in
blocks of angles, so memory does not grow with the x-degree times the grid
size), the fibers of the whole grid are solved in one ``batch_roots`` call,
and every cell where the count changes is bisected, all cells together with
one batched solve per halving, down to a width of 1e-12.  A crossing pair
inside one scan cell leaves the count unchanged at both ends and is missed.

The direct two-dimensional torus average is kept as an independent,
lower-accuracy oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFiberError
from .quad import SingularityHint, integrate, integrate_torus2
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
    Aberth-Ehrlich finder beyond.  (The Jensen engine itself solves fibers
    of degree >= 3 with the companion kernel ``rootfind.batch_roots``.)
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

def _fiber_roots(coeffs):
    """Roots of one fiber: closed forms through degree 2, the companion
    kernel as a batch of one beyond (a zero leading coefficient, which only
    the reversed polynomial can have, goes to ``poly_roots``, which trims it)."""
    if len(coeffs) > 3 and coeffs[-1] != 0:
        return batch_roots([coeffs])[0].tolist()
    return poly_roots(coeffs)


def _fiber_logplus(cx, theta):
    """sum_i log+ |y_i| at x = e^{i theta}, robust near degenerate fibers.

    Near-vanishing leading coefficients are handled by solving the reversed
    polynomial (roots become reciprocals), which keeps the huge root without
    feeding an ill-conditioned leading term to the solver.  For fibers with
    (numerically) real coefficients and degree 2, a negative discriminant
    means both roots share the modulus sqrt(|c0/c2|); the pair contributes
    log+ |c0/c2| with no branch ambiguity.
    """
    x = cmath.exp(1j * theta)
    coeffs = _coeffs_at(cx, x)
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        return 0.0

    if len(coeffs) == 3 and max(abs(c.imag) for c in coeffs) <= 1e-13 * scale:
        c0, c1, c2 = coeffs[0].real, coeffs[1].real, coeffs[2].real
        if abs(c2) > _DROP_REL * scale:
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc < 0.0:
                ratio = abs(c0 / c2)
                return math.log(ratio) if ratio > 1.0 else 0.0
            sq = math.sqrt(disc)
            q = -0.5 * (c1 + math.copysign(sq, c1)) if c1 != 0 else 0.5 * sq
            roots = []
            if q != 0.0:
                roots = [q / c2, c0 / q]
            total = 0.0
            for r in roots:
                ar = abs(r)
                if ar > 1.0:
                    total += math.log(ar)
            return total

    if abs(coeffs[-1]) >= 1e-8 * scale:
        roots = _fiber_roots(coeffs)
        total = 0.0
        for r in roots:
            ar = abs(r)
            if ar > 1.0:
                total += math.log(ar)
        return total

    # near-degenerate: reciprocal roots of the reversed polynomial
    rev = list(reversed(coeffs))
    roots = _fiber_roots(rev)
    total = 0.0
    for z in roots:
        az = abs(z)
        if az < 1e-300:
            continue
        if az < 1.0:
            total += -math.log(az)
    return total


_BAND = 1e-9   # families have whole arcs with |y| = 1 exactly; counting
               # "outside" with this margin keeps rounding noise from
               # flickering the count there while pinning genuine crossings
               # to within ~_BAND of the true angle


def _count_outside(coeff_table, thetas):
    """Number of fiber roots with |y| > 1 + _BAND at each angle, all angles
    in one ``batch_roots`` call.  Where the leading coefficient nearly
    vanishes the reversed polynomial is solved and its roots inverted, as
    in ``_fiber_logplus``."""
    coeffs = _coeffs_grid(coeff_table, thetas)
    scale = np.abs(coeffs).max(axis=1)
    flip = np.abs(coeffs[:, -1]) < 1e-8 * scale
    solve = np.where(flip[:, None], coeffs[:, ::-1], coeffs)
    solve[scale == 0.0, -1] = 1.0     # a vanishing fiber: all roots 0, none outside
    roots = batch_roots(solve)
    with np.errstate(divide="ignore", invalid="ignore"):
        mags = np.where(flip[:, None],
                        np.where(np.abs(roots) > 1e-300, np.abs(1.0 / roots), 0.0),
                        np.abs(roots))
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


def _crossing_angles(cx, n_scan):
    """Bisection on the outside-circle root count over a uniform scan grid;
    all brackets are halved together until narrower than 1e-12."""
    coeff_table = _coeff_table(cx)
    lo = 1e-9
    hi = math.pi - 1e-9
    grid = lo + (hi - lo) * np.arange(n_scan + 1) / n_scan
    counts = _count_outside(coeff_table, grid)
    cells = np.flatnonzero(counts[:-1] != counts[1:])
    a, b, na = grid[cells], grid[cells + 1], counts[cells]
    live = np.arange(len(cells))
    for _ in range(60):
        if not len(live):
            break
        mid = 0.5 * (a[live] + b[live])
        same = _count_outside(coeff_table, mid) == na[live]
        a[live[same]] = mid[same]
        b[live[~same]] = mid[~same]
        live = live[b[live] - a[live] >= 1e-12]
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
    crossings = _crossing_angles(cx, n_scan)

    cuts = sorted(set(degen) | set(crossings))
    edges = [0.0] + [t for t in cuts if 1e-12 < t < math.pi - 1e-12] + [math.pi]

    def integrand(t):
        return _fiber_logplus(cx, t)

    total = 0.0
    err = 0.0
    evals = 0
    sub_tol = tol * math.pi / max(len(edges) - 1, 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        r = integrate(integrand, lo, hi, SingularityHint.inverse_sqrt_both(),
                      tol=sub_tol)
        total += r.value
        err += r.err_est
        evals += r.evals

    value = lead_measure + total / math.pi
    return MeasureResult(value, err / math.pi + 1e-13, "jensen_1d")


def mahler_torus2(P, tol=1e-5, n_max=4096):
    """Direct torus-average definition; cross-validation oracle only."""
    if P.is_zero():
        raise ValueError("measure of the zero polynomial")
    if P.has_symbolic_k():
        raise ValueError("substitute a numeric k first")

    def g(tx, ty):
        vals = np.abs(P.eval_grid(tx, ty))
        return np.log(np.maximum(vals, 1e-300))

    r = integrate_torus2(g, tol=tol, n_max=n_max)
    return MeasureResult(r.value, r.err_est, "torus_2d")
