"""Polynomial root finding.

Coefficients are ascending (c[0] + c[1] z + ... + c[d] z^d), complex allowed.
Three entry points:

* ``poly_roots`` solves one polynomial: closed forms through degree 2, the
  simultaneous Aberth-Ehrlich iteration beyond (if the iteration ever stalls
  the companion-matrix eigenvalues take over).  Degrees in this package are
  tiny (<= 8), so robustness beats speed.
* ``batch_roots`` solves many polynomials of one degree at once: the same
  closed forms applied to whole arrays through degree 2, and the eigenvalues
  of the stacked companion matrices in one LAPACK call beyond.  The Jensen
  engine's fiber solves go through it.
* ``count_outside`` counts, without solving, how many roots of each of many
  polynomials of one degree lie outside a circle, by the Schur-Cohn
  recursion; rows it cannot decide in floating point are flagged for a
  root solve.  The Jensen engine's crossing scan counts its cubic and
  quartic fibers with it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = ["aberth_roots", "batch_roots", "count_outside", "poly_roots", "residual_scale"]


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


def _quadratic_roots(c0, c1, c2):
    """Stable roots of c2 z^2 + c1 z + c0 (c2 != 0).  Coefficients whose
    largest modulus lies beyond 2**+-400, where the discriminant can over-
    or underflow, are first scaled by a power of 2, exactly, as in
    ``_quadratic_batch``."""
    big = max(abs(c0), abs(c1), abs(c2))
    if not 2.0 ** -400 < big < 2.0 ** 400:
        e = math.frexp(big)[1]
        c0, c1, c2 = (complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e))
                      for c in (c0, c1, c2))
    if c0 == 0:
        return [0j, -c1 / c2]
    disc = c1 * c1 - 4.0 * c2 * c0
    sq = cmath.sqrt(disc)
    if (c1.conjugate() * sq).real > 0.0:
        q = -0.5 * (c1 + sq)
    else:
        q = -0.5 * (c1 - sq)
    if q == 0:
        return [0j, 0j]
    return [q / c2, c0 / q]


def poly_roots(coeffs):
    """Roots by degree: closed forms through degree 2, Aberth-Ehrlich beyond."""
    coeffs = [complex(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    d = len(coeffs) - 1
    if d <= 0:
        return []
    if d == 1:
        return [-coeffs[0] / coeffs[1]]
    if d == 2:
        return _quadratic_roots(coeffs[0], coeffs[1], coeffs[2])
    return aberth_roots(coeffs)


def _quadratic_rows(c0, c1, c2):
    """The closed form of ``_quadratic_roots`` over arrays of coefficients."""
    sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
    q = -0.5 * np.where((np.conj(c1) * sq).real > 0.0, c1 + sq, c1 - sq)
    roots = np.stack([q / c2, c0 / q], axis=1)
    at_zero = c0 == 0      # q == 0 only happens here
    roots[at_zero, 0] = 0.0
    roots[at_zero, 1] = -c1[at_zero] / c2[at_zero]
    return roots


def _quadratic_batch(c):
    """``_quadratic_roots`` over the rows of an (n, 3) array of coefficients
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


def batch_roots(coeffs):
    """Roots of n polynomials of one degree m >= 1, solved together.

    ``coeffs`` holds n rows of m + 1 ascending coefficients, each row with a
    nonzero leading coefficient; the result is the (n, m) complex array of
    their roots, in no particular order within a row.  Degrees 1 and 2 use
    the closed forms of ``poly_roots``; degree 3 and up take the eigenvalues
    of the stacked companion matrices in one ``np.linalg.eigvals`` call,
    which is backward stable (Edelman & Murakami, "Polynomial roots from
    companion matrix eigenvalues", Math. Comp. 64, 1995).
    """
    c = np.asarray(coeffs, dtype=complex)
    n, m = c.shape[0], c.shape[1] - 1
    lead = c[:, -1]
    if not lead.all():
        raise ValueError("leading coefficient is zero")
    if m == 1:
        return (-c[:, 0] / lead)[:, None]
    if m == 2:
        return _quadratic_batch(c)
    companion = np.zeros((n, m, m), dtype=complex)
    companion.reshape(n, m * m)[:, m::m + 1] = 1.0      # the subdiagonal
    companion[:, :, -1] = -c[:, :m] / c[:, m:]
    return np.linalg.eigvals(companion)


_SCHUR_FLAG = 1e-8   # relative pivot gap at or below which a row is undecided


def count_outside(coeffs, radius):
    """Number of roots with |z| > radius of n polynomials of one degree m,
    and a mask of the rows the count is not trusted for.

    ``coeffs`` holds n rows of m + 1 ascending coefficients; the result is
    ``(counts, undecided)``, two arrays of length n.  No root is computed:
    row j is scaled by radius**j, so the question is about the unit circle,
    and the Schur transform T p = conj(a_0) p - a_k p*, where p* is p with
    reversed conjugated coefficients, lowers the degree k by one.  By
    Rouche's theorem on |z| = 1, T p has as many roots inside as p when
    d = |a_0|^2 - |a_k|^2 > 0, and k minus that many when d < 0 (Henrici,
    "Applied and Computational Complex Analysis" vol. 1, 1974, section
    6.8).  A formal degree whose top coefficients vanish counts its missing
    roots as outside.

    Each step first divides every row by its largest modulus, so no square
    overflows.  A row is undecided when some step has |d| at or below
    1e-8 (|a_0|^2 + |a_k|^2): a root on or near the circle, a root pair
    y, 1/conj(y) (a later transform is then self-inversive), a vanishing
    row or a non-finite coefficient.  Its count is then meaningless.
    """
    c = np.asarray(coeffs, dtype=complex)
    m = c.shape[1] - 1
    a = np.asfortranarray(c * float(radius) ** np.arange(m + 1))
    undecided = np.zeros(len(a), dtype=bool)
    inside = np.zeros(len(a), dtype=int)   # inside(p) = inside + sign * inside(T p)
    sign = np.ones(len(a), dtype=int)
    for k in range(m, 0, -1):
        scale = np.abs(a).max(axis=1)
        a *= (1.0 / np.where(scale > 0.0, scale, 1.0))[:, None]
        a0, ak = a[:, 0], a[:, k]
        p0, pk = a0.real ** 2 + a0.imag ** 2, ak.real ** 2 + ak.imag ** 2
        d = p0 - pk
        undecided |= ~(np.abs(d) > _SCHUR_FLAG * (p0 + pk))     # NaN is undecided
        flip = d < 0.0
        inside += np.where(flip, sign * k, 0)
        sign = np.where(flip, -sign, sign)
        a = np.conj(a0)[:, None] * a[:, :k] - ak[:, None] * np.conj(a[:, :0:-1])
    return m - inside, undecided
