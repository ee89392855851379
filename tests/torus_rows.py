"""Grid integrands for the row-mean contract of ``integrate_torus2``, and
the rule as it was with one integrand call per grid, the reference for the
batched calls."""

import math

import numpy as np

from mahler.errors import QuadratureError
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
