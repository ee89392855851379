"""Polynomial root finding.

Coefficients are ascending (c[0] + c[1] z + ... + c[d] z^d), complex allowed.
``batch_roots`` is the one solver: it takes many polynomials of one degree
at once and solves them by closed forms applied to whole arrays through
degree 2, Cardano's and Ferrari's formulas with a Newton polish for cubics
and quartics, and the eigenvalues of the stacked companion matrices in one
LAPACK call for the rows that polish rejects and for degree 5 and up.
``poly_roots`` solves one polynomial as a one-row ``batch_roots`` call.
Every generic root solve of the package goes through it: the fibers of the
Jensen engine, its root counts included, and of the torus oracle, and the
one-variable measures (the families and periods use their own closed
forms).  So the one rule for a leading coefficient that nearly vanishes
lives here too: from degree 3 on, such a row is solved reversed and its
roots inverted (``batch_roots``), for fibers and one-variable polynomials
alike.

``aberth_roots``, the simultaneous Aberth-Ehrlich iteration with its Horner
pass and residual scale, is kept as an independent scalar reference for
the tests; nothing in the package calls it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = ["aberth_roots", "batch_roots", "poly_roots", "residual_scale"]


def _horner2(coeffs, z):
    """p(z) and p'(z) by a single Horner pass."""
    p = 0j
    dp = 0j
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def residual_scale(coeffs, z):
    """Backward-error scale sum |c_m| |z|^m used in the convergence test."""
    az = abs(z)
    s = 0.0
    t = 1.0
    for c in coeffs:
        s += abs(c) * t
        t *= az
    return s


_ABERTH_TOL = 1e-14       # relative residual at which a root has converged
_ABERTH_MAX_ITER = 120


def aberth_roots(coeffs):
    """All complex roots of the polynomial with the given ascending coefficients.

    The leading coefficient must be nonzero.  Zero roots are deflated exactly
    first.  Remaining roots start on a circle sized from the coefficient
    magnitudes and move under the Aberth-Ehrlich correction
    w_i / (1 - w_i * sum_{j != i} 1/(z_i - z_j)), w_i = p(z_i)/p'(z_i).
    """
    coeffs = [complex(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    d = len(coeffs) - 1
    if d <= 0:
        return []
    if coeffs[-1] == 0:
        raise ValueError("leading coefficient is zero")

    zero_roots = []
    while coeffs[0] == 0:
        zero_roots.append(0j)
        coeffs.pop(0)
        d -= 1
    if d == 0:
        return zero_roots
    if d == 1:
        return zero_roots + [-coeffs[0] / coeffs[1]]

    lead = coeffs[-1]
    c = [v / lead for v in coeffs]
    cauchy = 1.0 + max(abs(v) for v in c[:-1])
    r0 = abs(c[0]) ** (1.0 / d) if c[0] != 0 else 0.5
    radius = min(max(r0, 1e-3), cauchy)
    z = [radius * cmath.exp(2j * math.pi * (j + 0.35) / d) * (1.0 + 0.05 * math.sin(3.0 * j))
         for j in range(d)]

    converged = False
    for _ in range(_ABERTH_MAX_ITER):
        moved = 0.0
        done = True
        for i in range(d):
            p, dp = _horner2(c, z[i])
            scale = residual_scale(c, z[i])
            if abs(p) > _ABERTH_TOL * scale:
                done = False
            if dp == 0:
                z[i] += 1e-6 * (1 + abs(z[i]))
                done = False
                continue
            w = p / dp
            s = 0j
            for j in range(d):
                if j != i:
                    diff = z[i] - z[j]
                    if diff == 0:
                        diff = 1e-14 * (1 + abs(z[i]))
                    s += 1.0 / diff
            den = 1.0 - w * s
            step = w if abs(den) < 1e-14 else w / den
            z[i] -= step
            moved = max(moved, abs(step))
        if done or moved < 1e-16 * (1.0 + max(abs(v) for v in z)):
            converged = True
            break
    if not converged:
        worst = max(abs(_horner2(c, zi)[0]) / max(residual_scale(c, zi), 1e-300)
                    for zi in z)
        if worst > 1e-10:
            z = list(np.roots(list(reversed(c))))  # stalled: companion fallback
    return zero_roots + [complex(v) for v in z]


def poly_roots(coeffs):
    """Roots of one polynomial, as a list: a one-row ``batch_roots`` call
    after the zero leading coefficients are trimmed."""
    c = [complex(v) for v in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return batch_roots([c])[0].tolist() if len(c) > 1 else []


def _quadratic_rows(c0, c1, c2):
    """Stable roots of c2 z^2 + c1 z + c0 over arrays of coefficients
    (c2 != 0): q = -(c1 +- sqrt(c1^2 - 4 c2 c0))/2 with the sign that does
    not cancel, and the roots q/c2 and c0/q."""
    sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
    q = -0.5 * np.where((np.conj(c1) * sq).real > 0.0, c1 + sq, c1 - sq)
    roots = np.stack([q / c2, c0 / q], axis=1)
    at_zero = c0 == 0      # q == 0 only happens here
    if at_zero.any():
        roots[at_zero, 0] = 0.0
        roots[at_zero, 1] = -c1[at_zero] / c2[at_zero]
    return roots


def _quadratic_batch(c):
    """``_quadratic_rows`` over the rows of an (n, 3) array of coefficients
    (c2 != 0 throughout).

    The rows are solved as they are, unless a product overflows or some
    lead lies below 2**-200, where the squares can underflow, as with
    coefficients near 1e+-200.  Then each row is scaled by the power of 2
    that puts its largest modulus in [0.5, 1) and solved again.  The
    scaling is exact (``ldexp`` of the real and imaginary parts, which
    keeps signed zeros) and the roots do not depend on it."""
    if np.abs(c[:, -1]).min() > 2.0 ** -200:
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="raise"):
                return _quadratic_rows(*c.T)
        except FloatingPointError:
            pass
    e = np.frexp(np.abs(c).max(axis=1))[1]
    parts = np.ascontiguousarray(c.T).view(float).reshape(3, len(e), 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _quadratic_rows(*np.ldexp(parts, -e[:, None]).view(complex)[..., 0])


_OMEGA = np.exp(2j * np.pi / 3.0 * np.arange(3))[:, None]   # the cube roots of 1
_OMEGA_BAR = np.conj(_OMEGA)


def _cubic_rows(a0, a1, a2):
    """Cardano's roots of the monic cubics w^3 + a2 w^2 + a1 w + a0 over
    arrays of coefficients, as a (3, n) array.

    With w = t - a2/3 the cubic is t^3 + p t + q, whose roots are
    omega^k u + omega^-k v (k = 0, 1, 2) for u^3 = -q/2 -+ sqrt(q^2/4 +
    p^3/27) and v = -p/(3u).  Of the two signs u^3 takes the one of larger
    modulus, which does not cancel.  u = 0 only at a triple root
    (p = q = 0), whose row comes out NaN."""
    s = a2 / 3.0
    p3 = (a1 - a2 * s) / 3.0
    h = 0.5 * a0 - s * (0.5 * a1 - s * s)     # q/2
    sq = np.sqrt(h * h + p3 * p3 * p3)
    sq *= np.copysign(1.0, (np.conj(h) * sq).real)
    u = (-h - sq) ** (1.0 / 3.0)
    return _OMEGA * u - _OMEGA_BAR * (p3 / u) - s


def _quartic_rows(a0, a1, a2, a3):
    """Ferrari's roots of the monic quartics w^4 + a3 w^3 + a2 w^2 + a1 w +
    a0 over arrays of coefficients, as a (4, n) array.

    With w = t - a3/4 the quartic is t^4 + p t^2 + q t + r.  For a root y
    of the resolvent cubic y^3 + p y^2 + (p^2/4 - r) y - q^2/8 and
    sigma = sqrt(2y) it factors as (t^2 - sigma t + p/2 + y + q/(2 sigma))
    (t^2 + sigma t + p/2 + y - q/(2 sigma)), whose roots ``_quadratic_rows``
    gives.  y is the resolvent root of largest modulus, which is 0 only at
    a quadruple root (p = q = r = 0), whose row comes out NaN."""
    n = len(a0)
    s = 0.25 * a3
    ss = s * s
    p = a2 - 6.0 * ss
    q = a1 - 2.0 * s * (a2 - 4.0 * ss)
    r = a0 - s * (a1 - s * (a2 - 3.0 * ss))
    ys = _cubic_rows(-0.125 * q * q, 0.25 * p * p - r, p)
    y = ys[np.abs(ys).argmax(axis=0), np.arange(n)]
    sigma = np.sqrt(2.0 * y)
    g = q / (2.0 * sigma)
    h = 0.5 * p + y
    t = _quadratic_rows(np.concatenate([h + g, h - g]), np.concatenate([-sigma, sigma]),
                        np.ones(2 * n))
    return t.reshape(2, n, 2).transpose(0, 2, 1).reshape(4, n) - s


_NEWTON_STEPS = 2
_ACCEPT = 8 * np.finfo(float).eps   # accepted relative residual and Vieta defect
_GAP = 1e4          # root modulus ratio above which the small roots restart


def _newton_rows(a, w, vieta=True):
    """Two Newton steps from the roots ``w`` (m, n) of the monic rows
    w^m + a[m-1] w^(m-1) + ... + a[0]; returns the roots and a mask of the
    rows they are accepted for.

    A row is accepted when, after the last step, every residual |p(w)| is
    within 8 ulps of sum_j |a_j| |w|^j, and, unless ``vieta`` is false,
    the roots sum to -a[m-1] within 8 ulps of sum |w| (Vieta), which
    catches two roots drawn to one.  NaN fails both.  The eigenvalue rows
    skip the Vieta test: their polish starts from the eigenvalues, each
    next to its own root, and the sum of the roots of an ill-conditioned
    row can miss 8 ulps by rounding alone (by 8.7 ulps for the reversed
    row of 24 - 50y + 35y^2 - 10y^3 + y^4 + 1e-120 y^5)."""
    w = w.copy()
    for _ in range(_NEWTON_STEPS):      # p and p' by Horner's rule, in place
        p = w + a[-1]
        dp = w + p
        p *= w
        p += a[-2]
        for c in a[-3::-1]:
            dp *= w
            dp += p
            p *= w
            p += c
        p /= dp
        w -= p
    p = w + a[-1]
    mod = np.abs(w)
    size = np.abs(a)
    scale = mod + size[-1]
    for c, s in zip(a[-2::-1], size[-2::-1]):
        p *= w
        p += c
        scale *= mod
        scale += s
    ok = ((np.abs(p) <= _ACCEPT * scale).all(axis=0)
          & ((np.abs(w.sum(axis=0) + a[-1]) <= _ACCEPT * mod.sum(axis=0)) | (not vieta)))
    return w, ok


def _low_roots(a, k):
    """Roots of the truncations a[0] + a[1] w + ... + a[k] w^k (k <= 3) of
    the rows ``a``, as a (k, n) array: to first order the k smallest roots
    of the rows, where they lie far below the others."""
    if k == 1:
        return -a[:1] / a[1]
    if k == 2:
        return _quadratic_rows(a[0], a[1], a[2]).T
    return _cubic_rows(a[0] / a[3], a[1] / a[3], a[2] / a[3])


def _restart_small_roots(a, w):
    """The roots ``w`` (m, n) of the monic rows ``a``, with the roots below
    the widest gap in modulus replaced by those of the truncation that has
    as many (``_low_roots``); a row with more than three below it keeps
    its roots."""
    m = len(a)
    mod = np.abs(w)
    order = np.argsort(-mod, axis=0)
    desc = np.take_along_axis(mod, order, axis=0)
    # a ratio 0/0, between two zero roots, is no gap
    small = m - 1 - np.nan_to_num(desc[:-1] / desc[1:], nan=1.0).argmax(axis=0)
    cols = np.arange(w.shape[1])
    for k in range(1, min(m, 4)):
        sel = small == k
        if sel.any():
            w[order[m - k:, sel], cols[sel]] = _low_roots(a[:, sel], k)
    return w


def _restart_spread_rows(a, w, ok, vieta=True):
    """The rows of the roots ``w`` (m, n) of the monic rows ``a`` that
    ``ok`` rejects and whose roots spread by more than _GAP in modulus,
    with their small roots restarted (``_restart_small_roots``) and
    polished again (``_newton_rows``, with or without its Vieta test);
    ``w`` and ``ok`` take the rows accepted, in place."""
    rows = np.flatnonzero(~ok)
    mod = np.abs(w[:, rows])
    rows = rows[mod.min(axis=0) * _GAP < mod.max(axis=0)]
    restarted, good = _newton_rows(a[:, rows], _restart_small_roots(a[:, rows], w[:, rows]), vieta)
    w[:, rows[good]] = restarted[:, good]
    ok[rows[good]] = True


def _closed_form_roots(a):
    """Roots of the monic cubics or quartics w^m + a[m-1] w^(m-1) + ... +
    a[0] (``a`` of shape (m, n), m = 3 or 4) by Cardano's or Ferrari's
    formula and ``_newton_rows``; returns the (m, n) roots and a mask of
    the rows they are accepted for.

    The formulas give each root to within a few ulps of the largest root
    modulus, so a root many orders of magnitude below the others comes out
    as rounding noise, which a Newton step reduces only by a factor eps,
    and its row fails; so do the small roots of a quartic with one huge
    root, which Ferrari's shift by -a3/4 swamps.  Where the roots of such
    a row spread by more than _GAP in modulus, the small ones restart from
    the low-order truncation, whose roots are theirs to first order in the
    modulus ratio (-a0/a1 for one tiny root, a quadratic for two, a cubic
    for three), and the row is polished again."""
    w, ok = _newton_rows(a, _cubic_rows(*a) if len(a) == 3 else _quartic_rows(*a))
    if not ok.all():
        _restart_spread_rows(a, w, ok)
    return w, ok


def _companion_roots(monic):
    """Roots of the monic rows z^m + monic[:, m-1] z^(m-1) + ... +
    monic[:, 0], as the eigenvalues of their stacked companion matrices in
    one ``np.linalg.eigvals`` call, which is backward stable (Edelman &
    Murakami, "Polynomial roots from companion matrix eigenvalues",
    Math. Comp. 64, 1995)."""
    n, m = monic.shape
    companion = np.zeros((n, m, m), dtype=complex)
    companion.reshape(n, m * m)[:, m::m + 1] = 1.0      # the subdiagonal
    companion[:, :, -1] = -monic
    return np.linalg.eigvals(companion)


_UNSCALED = 2.0 ** 32   # monic coefficient size up to which a row is not scaled
_FLIP_REL = 1e-8        # relative lead below which the reversed row is solved


def _monic_rows(c):
    """The rows of ``c`` (n, m + 1), m >= 3, with c0 and c_m nonzero, as
    monic polynomials in w = z / 2^e: returns the (m, n) array of their
    lower coefficients and the exponents e (None when every e is 0).

    A row whose largest monic coefficient modulus lies within 2^+-32 is
    taken as it is: its roots lie below 2^33, so no power in the closed
    forms overflows.  Any other row takes the 2^e within a factor 2 above
    its root size bound max_j |c_j / c_m|^(1/(m-j)), which puts every
    coefficient below 2 in modulus, and is scaled exactly (``ldexp`` of the
    real and imaginary parts).  Either way a power-of-2 scale of a row
    changes nothing."""
    m = c.shape[1] - 1
    a = np.ascontiguousarray((c[:, :m] / c[:, m:]).T)
    size = np.abs(a).max(axis=0)
    far = ~((size >= 1.0 / _UNSCALED) & (size <= _UNSCALED))
    if not far.any():
        return a, None
    cf = c[far]
    ex = np.frexp(np.abs(cf))[1]
    bound = np.where(cf[:, :m] != 0, (ex[:, :m] - ex[:, m:]) / np.arange(m, 0, -1), -np.inf)
    e = np.zeros(len(c), dtype=int)
    e[far] = np.ceil(bound.max(axis=1))
    shift = np.arange(-m, 1) * e[far, None] - ex[:, m:]
    scaled = np.empty_like(cf)
    scaled.real = np.ldexp(cf.real, shift)
    scaled.imag = np.ldexp(cf.imag, shift)
    a[:, far] = (scaled[:, :m] / scaled[:, m:]).T
    return a, e


def batch_roots(coeffs):
    """Roots of n polynomials of one degree m >= 1, solved together.

    ``coeffs`` holds n rows of m + 1 ascending coefficients, each row with a
    nonzero leading coefficient; the result is the (n, m) complex array of
    their roots, in no particular order within a row.  n may be 0; a row
    with a NaN or infinite coefficient gets NaN roots.

    Degrees 1 and 2 use closed forms (``_quadratic_batch``).  From degree 3
    on, zero roots are split off exactly.  A row whose leading coefficient
    lies below 1e-8 of its largest one (_FLIP_REL) and below its constant
    term is solved as the reversed row, and those roots are inverted: the
    huge roots of a nearly vanishing lead become small ones, which the
    solver keeps to full relative accuracy, where scaling the row to the
    size of its huge root would flush its low coefficients to zero and lose
    its small roots.  The reversed row's lead, the old constant term,
    exceeds its constant term, the old lead, so it is never reversed back.
    A root beyond the float range comes out as inf.  The rows are then made
    monic, in a variable scaled by a power of 2 where their size calls for
    it (``_monic_rows``).  Cubics and quartics are solved by Cardano's and
    Ferrari's formulas with a Newton polish, vectorised over the rows
    (``_closed_form_roots``).  The rows that polish does not accept, and
    every row of degree 5 and up, take the eigenvalues of their companion
    matrices (``_companion_roots``).  The eigenvalues give a root far below
    the others only to within rounding of the largest, often as 0, so
    where they spread by more than _GAP in modulus the small ones restart
    from the low-order truncation, as in ``_closed_form_roots``, and the
    row keeps its Newton-polished roots when every residual passes.
    """
    c = np.asarray(coeffs, dtype=complex)
    n, m = c.shape[0], c.shape[1] - 1
    lead = c[:, -1]
    if not lead.all():
        raise ValueError("leading coefficient is zero")
    if n == 0:
        return np.empty((0, m), dtype=complex)
    if not np.isfinite(c).all():
        finite = np.isfinite(c).all(axis=1)
        roots = np.full((n, m), np.nan, dtype=complex)
        if finite.any():
            roots[finite] = batch_roots(c[finite])
        return roots
    if m == 1:
        return (-c[:, 0] / lead)[:, None]
    if m == 2:
        return _quadratic_batch(c)
    zero = c[:, 0] == 0
    if zero.any():
        roots = np.zeros((n, m), dtype=complex)
        roots[zero, 1:] = batch_roots(c[zero, 1:])
        if not zero.all():
            roots[~zero] = batch_roots(c[~zero])
        return roots
    flip = np.abs(lead) < np.minimum(_FLIP_REL * np.abs(c).max(axis=1), np.abs(c[:, 0]))
    if flip.any():
        c = np.where(flip[:, None], c[:, ::-1], c)
    with np.errstate(all="ignore"):
        a, e = _monic_rows(c)
        if m <= 4:
            w, ok = _closed_form_roots(a)
        else:
            w, ok = np.empty((m, n), dtype=complex), np.zeros(n, dtype=bool)
        if not ok.all():
            w[:, ~ok] = _companion_roots(a[:, ~ok].T).T
            _restart_spread_rows(a, w, ok, vieta=False)
        if e is not None:
            w *= np.ldexp(1.0, e)
        if flip.any():
            w[:, flip] = 1.0 / w[:, flip]
    return w.T
