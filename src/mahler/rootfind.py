"""Polynomial root finding.

Coefficients are ascending (c[0] + c[1] z + ... + c[d] z^d), complex allowed.
``batch_roots`` is the package's one generic solver: it takes many
polynomials of one degree at once, solves them in closed form through
degree 2, by Cardano's and Ferrari's formulas with a Newton polish for
cubics and quartics, and by companion-matrix eigenvalues in one LAPACK call
for the rows that polish rejects and for degree 5 and up.  It also holds
the one rule for a leading coefficient that nearly vanishes.
``aberth_roots`` is an independent scalar reference for the tests.
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
    """The backward-error scale sum |c_m| |z|^m."""
    az = abs(z)
    s = 0.0
    t = 1.0
    for c in coeffs:
        s += abs(c) * t
        t *= az
    return s


_ABERTH_TOL = 1e-14       # relative residual at which a root has converged
_ABERTH_MAX_ITER = 120    # far beyond the cubic convergence from a fair start


def aberth_roots(coeffs):
    """All complex roots of the polynomial ``coeffs`` by the Aberth-Ehrlich
    iteration, zero roots deflated exactly; np.roots takes over a stalled
    run.  Raises ValueError for a zero leading coefficient."""
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
    """The roots of one polynomial, as a list, its zero leading
    coefficients trimmed."""
    c = [complex(v) for v in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return batch_roots([c])[0].tolist() if len(c) > 1 else []


def _quadratic_rows(c0, c1, c2):
    """The roots q/c2 and c0/q of c2 z^2 + c1 z + c0 (c2 != 0) over arrays,
    q = -(c1 +- sqrt(c1^2 - 4 c2 c0))/2 with the sign that does not cancel."""
    sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
    q = -0.5 * np.where((np.conj(c1) * sq).real > 0.0, c1 + sq, c1 - sq)
    roots = np.stack([q / c2, c0 / q], axis=1)
    at_zero = c0 == 0      # q == 0 only happens here
    if at_zero.any():
        roots[at_zero, 0] = 0.0
        roots[at_zero, 1] = -c1[at_zero] / c2[at_zero]
    return roots


def _quadratic_batch(c):
    """``_quadratic_rows`` over the rows of an (n, 3) array (c2 != 0).  Where
    a product overflows or a lead lies below 2**-200, each row is scaled
    exactly by the power of 2 that puts its largest modulus in [0.5, 1),
    which leaves its roots as they are."""
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
    arrays, as a (3, n) array; u^3 takes the sign that does not cancel, and
    a triple root comes out NaN."""
    s = a2 / 3.0
    p3 = (a1 - a2 * s) / 3.0
    h = 0.5 * a0 - s * (0.5 * a1 - s * s)     # q/2
    sq = np.sqrt(h * h + p3 * p3 * p3)
    sq *= np.copysign(1.0, (np.conj(h) * sq).real)
    u = (-h - sq) ** (1.0 / 3.0)
    return _OMEGA * u - _OMEGA_BAR * (p3 / u) - s


def _quartic_rows(a0, a1, a2, a3):
    """Ferrari's roots of the monic quartics w^4 + a3 w^3 + ... + a0 over
    arrays, as a (4, n) array, from the resolvent cubic's root of largest
    modulus; a quadruple root comes out NaN."""
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


_NEWTON_STEPS = 2   # the closed forms start within a few ulps of the largest root
_ACCEPT = 8 * np.finfo(float).eps   # accepted relative residual and Vieta defect
_GAP = 1e4          # modulus ratio beyond which the small roots are rounding noise


def _newton_rows(a, w, vieta=True):
    """Two Newton steps from the roots ``w`` (m, n) of the monic rows
    w^m + a[m-1] w^(m-1) + ... + a[0]; the roots and a mask of the rows
    accepted.  A row is accepted when every residual is within _ACCEPT of
    sum_j |a_j| |w|^j and, with ``vieta``, the roots sum to -a[m-1] within
    _ACCEPT of sum |w|, which catches two roots drawn to one.  Eigenvalue
    rows skip the Vieta test, which rounding alone can fail for them."""
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
    """The roots of the truncations a[0] + ... + a[k] w^k (k <= 3) of the
    rows ``a``, as a (k, n) array: the k smallest roots to first order."""
    if k == 1:
        return -a[:1] / a[1]
    if k == 2:
        return _quadratic_rows(a[0], a[1], a[2]).T
    return _cubic_rows(a[0] / a[3], a[1] / a[3], a[2] / a[3])


def _restart_small_roots(a, w):
    """``w`` with the roots below the widest modulus gap replaced by those
    of the truncation with as many, when there are at most three."""
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
    """Restarts the small roots of the rows that ``ok`` rejects and whose
    roots spread by more than _GAP, and polishes them again; ``w`` and
    ``ok`` take the rows accepted, in place."""
    rows = np.flatnonzero(~ok)
    mod = np.abs(w[:, rows])
    rows = rows[mod.min(axis=0) * _GAP < mod.max(axis=0)]
    restarted, good = _newton_rows(a[:, rows], _restart_small_roots(a[:, rows], w[:, rows]), vieta)
    w[:, rows[good]] = restarted[:, good]
    ok[rows[good]] = True


def _companion_roots(monic):
    """The roots of the monic rows z^m + monic[:, m-1] z^(m-1) + ... as the
    eigenvalues of their companion matrices, which is backward stable
    (Edelman & Murakami, Math. Comp. 64, 1995)."""
    n, m = monic.shape
    companion = np.zeros((n, m, m), dtype=complex)
    companion.reshape(n, m * m)[:, m::m + 1] = 1.0      # the subdiagonal
    companion[:, :, -1] = -monic
    return np.linalg.eigvals(companion)


_UNSCALED = 2.0 ** 32   # monic coefficient size up to which no closed-form power overflows
_FLIP_REL = 1e-8        # relative lead below which the reversed row is solved


def _monic_rows(c):
    """The rows of ``c`` (n, m + 1), m >= 3, c0 and c_m nonzero, as monic
    polynomials in w = z / 2^e: the (m, n) lower coefficients and the
    exponents e (None when all are 0).  A row whose monic coefficients lie
    within 2^+-32 keeps e = 0; any other takes the 2^e within a factor 2
    above its root bound max_j |c_j / c_m|^(1/(m-j)), applied exactly."""
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
    """The (n, m) complex roots of the n rows of ``coeffs``, each m + 1
    ascending coefficients of degree m >= 1, in no order within a row.

    n may be 0, and a row with a NaN or infinite coefficient gets NaN roots.
    Zero roots are split off exactly.  From degree 3 on, a row whose lead
    lies below _FLIP_REL of its largest coefficient and below its constant
    term is solved reversed and its roots inverted, so its small roots keep
    their relative accuracy; a root beyond float range comes out inf.
    Where the roots of a rejected row spread by more than _GAP, its small
    roots restart from the low-order truncation.  Raises ValueError for a
    zero leading coefficient.
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
            w, ok = _newton_rows(a, _cubic_rows(*a) if m == 3 else _quartic_rows(*a))
            if not ok.all():
                _restart_spread_rows(a, w, ok)
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
