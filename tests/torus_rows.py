"""Grid integrands for the row-mean contract of ``integrate_torus2``."""

import numpy as np

_BLOCK = 1 << 18   # grid points per block of rows


def row_means(f):
    """The row-mean integrand of f(tx, ty), a function over grids that is
    called on a column of x-angles against the row of all y-angles (its
    value may be any shape that broadcasts to the block): the grid is
    evaluated in blocks of about _BLOCK points, and each block is averaged
    along its rows."""
    def g(tx, ty):
        rows = max(1, _BLOCK // len(ty))
        means = []
        for r in range(0, len(tx), rows):
            block = tx[r:r + rows, None]
            means.append(np.broadcast_to(f(block, ty[None, :]),
                                         (len(block), len(ty))).mean(axis=1))
        return np.concatenate(means)

    return g
