"""Grid integrands for the row-mean contract of ``integrate_torus2``, the
rule as it was with one integrand call per grid, the reference for the
batched calls, and the torus row means with every root's term evaluated,
the reference for the terms ``measure._torus_rows`` skips."""

import math

import numpy as np

from mahler.errors import QuadratureError
from mahler.measure import _coeff_table, _coeffs_grid, _solve_fibers
from mahler.quad import QuadResult

_BLOCK = 1 << 18   # grid points per block of rows


def row_means(f):
    """The row-mean integrand of f(tx, ty), a function over grids that is
    called on a column of x-angles against the row of all y-angles (its
    value may be any shape that broadcasts to the block): each grid t of a
    call is evaluated in blocks of about _BLOCK points, and each block is
    averaged along its rows."""
    def grid_means(t):
        rows = max(1, _BLOCK // len(t))
        means = []
        for r in range(0, len(t), rows):
            block = t[r:r + rows, None]
            means.append(np.broadcast_to(f(block, t[None, :]),
                                         (len(block), len(t))).mean(axis=1))
        return np.concatenate(means)

    return lambda grids: [grid_means(t) for t in grids]


def torus2_reference(g, tol=1e-6, n_max=4096):
    """``integrate_torus2`` with one integrand call per grid, taking each
    grid's sum as it comes, as the rule did before its first call took
    every grid up to n = 256; ``evals`` counts the grids whose sums were
    taken."""
    offset = 0.5857864376269049
    sums = []
    evals = 0
    n = 16
    value = math.nan
    err = math.inf
    while n <= n_max:
        t = (np.arange(n) + offset) * (2.0 * math.pi / n)
        (rows,) = g([t])
        s = float(np.sum(rows)) / n
        if not math.isfinite(s):
            raise QuadratureError("integrand is not finite")
        evals += n * n
        sums.append(s)
        if len(sums) >= 3:
            d1 = sums[-2] - sums[-3]
            d2 = sums[-1] - sums[-2]
            if d2 != 0.0 and abs(d1) > abs(d2):
                p = math.log2(abs(d1) / abs(d2))
                p = min(max(p, 0.5), 4.0)
                extrap = sums[-1] + d2 / (2.0 ** p - 1.0)
                err = max(abs(extrap - sums[-1]), 3.0 * abs(d2))
                value = extrap
            else:
                value = sums[-1]
                err = abs(d2)
            if err <= tol:
                return QuadResult(value, max(err, 1e-16), evals)
        elif len(sums) == 2:
            value = sums[-1]
            err = abs(sums[-1] - sums[-2])
        else:
            value = s
        n *= 2
    return QuadResult(value, max(err, 1e-16), evals)


def unmasked_rows(coeffs, n, arg_w):
    """``measure._torus_rows`` with the term
    log((1 - u)^2 + 4 u sin^2(phi / 2)) / 2 evaluated for every root."""
    lead, roots = _solve_fibers(coeffs)
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


def unmasked_row_means(cx, t):
    """The row means of the grid of y-angles ``t`` for the coefficients
    ``cx`` of P in y, by ``unmasked_rows`` in one piece."""
    n = np.full(len(t), float(len(t)))
    return unmasked_rows(_coeffs_grid(_coeff_table(cx), t), n, n * t[0])
