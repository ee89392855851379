"""Tanh-sinh quadrature on finite intervals with integrable endpoint
singularities, and the periodic trapezoid rule on the torus as an oracle.

The tanh-sinh rule of Takahasi & Mori ("Double exponential formulas for
numerical integration", Publ. RIMS 9, 1974) substitutes
x = tanh((pi/2) sinh t), so the weights decay doubly exponentially towards
the endpoints and inverse square roots and logarithms there cost little.
It is written once, as ``_tanh_sinh_pieces``: one cut list, one total tol,
and an integrand over arrays of abscissae.  Its levels are nested, so the
first call of the integrand takes every node of levels 0-4 of every piece
and each later level one call for the pieces not yet converged, and the
values of a call are reduced in one pass over a padded layout.  The
integrand is a black box never evaluated within one ulp of an endpoint, so
an inverse-square-root endpoint caps the accuracy near sqrt(eps), and the
error estimate says so.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

__all__ = ["QuadResult", "integrate", "integrate_torus2"]

_EPS = float(np.finfo(float).eps)   # a Python float, so no result turns np.float64


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_est: float
    evals: int


# ---------------------------------------------------------------------------
# tanh-sinh rule
# ---------------------------------------------------------------------------

def _de_weight(t):
    """The tanh-sinh node at t >= 0 as (distance from +-1, weight)."""
    u = 0.5 * math.pi * math.sinh(t)
    # 1 - tanh(u) = 2 / (exp(2u) + 1), computed without cancellation
    try:
        dist = 2.0 / (math.exp(2.0 * u) + 1.0)
    except OverflowError:
        dist = 0.0
    ch = math.cosh(u)
    w = 0.5 * math.pi * math.cosh(t) / (ch * ch)
    return dist, w


_T_MAX = 6.11      # beyond this the node distance underflows anyway
_MAX_LEVEL = 12    # the node budget: a piece unconverged at step 2^-12 reports its last change
_FIRST_LEVEL = 4   # levels of the first call: most engine pieces converge by 4


def integrate(f, a, b, tol=1e-12):
    """Tanh-sinh quadrature of the scalar f over the finite interval (a, b),
    the two-cut case of ``_tanh_sinh_pieces``.

    f may be called at nodes of levels the result never reaches, which
    ``QuadResult.evals`` does not count.  A non-finite value hugging an
    endpoint counts as an integrable singularity and is skipped; elsewhere
    it raises QuadratureError.  Raises ValueError unless a < b are finite
    and tol > 0.
    """
    def F(xs):
        return np.array([f(x) for x in xs.tolist()], dtype=float)

    return _tanh_sinh_pieces(F, [a, b], tol)


@functools.lru_cache(maxsize=None)
def _block_tables(first, last):
    """Levels first..last in the padded (levels, nodes, side) layout: the
    signed unit distances (+ on the left side, - on the right), the
    weights, the mask of real nodes and the step 2^-level of each level.

    A level's nodes take slots 1, 2, ... by increasing t, padded to the
    longest level.  Slot 0 holds level 0's center t = 0, with its weight on
    the left side only.  Slot 0 and the padding are no real node and hold
    the weight -0.0, which leaves every sum as it is.  Slot 0 has distance
    inf, so a side with no node taken has no deepest node.
    """
    levels = range(first, last + 1)
    steps = [(0.5 ** level, range(int(_T_MAX) + 1) if level == 0
              else range(1, int(_T_MAX * 2 ** level) + 1, 2)) for level in levels]
    width = max(len(js) + (level > 0) for level, (_, js) in zip(levels, steps))
    sdist = np.zeros((len(levels), width, 2))
    w = np.full((len(levels), width, 2), -0.0)
    real = np.zeros((len(levels), width, 2), dtype=bool)
    for i, (level, (h, js)) in enumerate(zip(levels, steps)):
        nodes = np.fromiter((v for j in js for v in _de_weight(j * h)), float, 2 * len(js))
        slots = slice(level > 0, (level > 0) + len(js))
        sdist[i, slots] = nodes[0::2, None] * [1.0, -1.0]
        w[i, slots] = nodes[1::2, None]
        real[i, slots] = True
    if first == 0:     # the center
        w[0, 0, 1] = -0.0
        real[0, 0] = False
    sdist[:, 0] = math.inf
    return sdist, w, real, 0.5 ** np.arange(first, last + 1)


def _tanh_sinh_pieces(F, cuts, tol):
    """The tanh-sinh rule over (cuts[0], cuts[-1]), cut at every cut, for F
    mapping an array of abscissae to an array of values; one QuadResult
    whose value, err_est and evals add those of the pieces in order.

    Each of the len(cuts) - 1 pieces gets tol / (len(cuts) - 1); an empty
    one is skipped.  Level 0 takes the center and the node pairs at
    t = 1..6, level L the new pairs at the odd multiples of 2^-L.  A piece
    converges at the first level L >= 1 whose change is at most
    max(tol, 4 eps |value|) / 2, or stops at _MAX_LEVEL; the change, at
    least eps |value|, is its err_est.  Where the values still grow like an
    inverse square root at the deepest node used, 1e-7 |f| sqrt(d) there
    bounds err_est from below.  A node that rounds onto its endpoint is not
    taken.  A non-finite value within 1e-9 of the half-width from an
    endpoint adds nothing; elsewhere it raises QuadratureError with its
    abscissa.  ``evals`` counts the center and every node taken on the
    levels reached.  Raises ValueError unless the cuts are finite and
    non-decreasing with cuts[0] < cuts[-1], and tol > 0.
    """
    cuts = np.asarray(cuts, dtype=float)
    if not np.isfinite(cuts).all():
        raise ValueError("endpoints must be finite")
    if not (len(cuts) > 1 and cuts[0] < cuts[-1] and (cuts[:-1] <= cuts[1:]).all()):
        raise ValueError("need non-decreasing cuts, the first below the last")
    if not tol > 0:
        raise ValueError("tol must be positive")
    tol = tol / (len(cuts) - 1)
    ends = np.array([cuts[:-1], cuts[1:]])
    ends = ends[:, ends[0] < ends[1]]      # an empty piece adds nothing
    n = ends.shape[1]
    halves = 0.5 * ends     # halved first, so b - a may overflow
    half = halves[1] - halves[0]
    value = np.zeros(n)
    err = np.zeros(n)
    # per piece, level and side: nodes taken, and the deepest node's distance and |f|
    taken = np.zeros((n, _MAX_LEVEL + 1, 2), dtype=int)
    depth = np.full((n, _MAX_LEVEL + 1, 2), math.inf)
    height = np.zeros((n, _MAX_LEVEL + 1, 2))
    ends = ends.T[:, None, None, :]

    live = np.arange(n)
    first, last = 0, _FIRST_LEVEL
    while len(live) and first <= _MAX_LEVEL:
        sdist, w, real, hs = _block_tables(first, last)
        hl = half[live]
        xd = hl[:, None, None, None] * sdist    # the signed node distances
        e = ends[live]
        x = e + xd
        take = (x != e) & real    # black-box cannot be evaluated closer than one ulp
        v = np.zeros(x.shape)
        if first == 0:      # the center of every piece, then the nodes
            center = halves[0] + halves[1]
            vals = F(np.concatenate([center, x[take]]))
            if not np.isfinite(vals[:n]).all():
                raise QuadratureError("integrand is not finite",
                                      float(center[np.argmin(np.isfinite(vals[:n]))]))
            v[:, 0, 0, 0] = vals[:n]
            v[take] = vals[n:]
        else:
            vals = F(x[take])
            v[take] = vals
        counts = take.sum(axis=2)
        # the place of the deepest node used on each level and side
        at = np.arange(len(live))
        deepest = at[:, None, None], np.arange(len(hs))[:, None], counts, [0, 1]
        bad = None if np.isfinite(vals).all() else ~np.isfinite(v)
        if bad is None:
            # the last node taken, slot 0 if none: a + d rounds onto a
            # monotonically as d shrinks, so the taken nodes are a prefix
            d_min = np.abs(xd[deepest])
        else:
            v[bad] = 0.0    # integrable endpoint blow-up, weight negligible
            dd = np.where(take & ~bad, np.abs(xd), math.inf)
            deepest = deepest[:2] + (dd.argmin(axis=2), [0, 1])
            d_min = dd[deepest]
        terms = w * v
        # the node pairs are added left to right
        add = np.cumsum(terms[:, :, :, 0] + terms[:, :, :, 1], axis=2)[:, :, -1]
        inc = add * hs * hl[:, None]
        after = np.empty_like(inc)      # the value after each level
        prev = value[live]
        for i in range(len(hs)):
            prev = after[:, i] = inc[:, i] if first + i == 0 else 0.5 * prev + inc[:, i]
        diffs = np.abs(after - np.concatenate([value[live][:, None], after[:, :-1]], axis=1))
        done = diffs <= np.maximum(tol, 4.0 * _EPS * np.abs(after)) * 0.5
        if first == 0:
            done[:, 0] = False      # level 0 only starts the recurrence
        stop = np.where(done.any(axis=1), done.argmax(axis=1), len(hs) - 1)
        reached = (np.arange(len(hs)) <= stop[:, None])[:, :, None]
        if bad is not None:
            interior = bad & reached[:, :, :, None] & (
                np.abs(xd) > 1e-9 * np.abs(hl)[:, None, None, None])
            if interior.any():
                level = interior.any(axis=(0, 2, 3)).argmax()
                raise QuadratureError("integrand is not finite",
                                      float(x[:, level][tuple(np.argwhere(interior[:, level])[0])]))
        value[live] = after[at, stop]
        err[live] = diffs[at, stop]
        block = slice(first, last + 1)
        taken[live, block] = counts * reached
        depth[live, block] = np.where(reached, d_min, math.inf)
        height[live, block] = np.abs(v[deepest])
        live = live[~done[at, stop]]
        first = last = last + 1
    # the deepest node used on each side, the earliest of equal depth
    deepest = np.arange(n)[:, None], depth.argmin(axis=1), [0, 1]
    deep_d, deep_f = depth[deepest], height[deepest]
    evals = taken.sum(axis=(1, 2)) + 1
    sing = (deep_f * np.sqrt(np.where(np.isfinite(deep_d), deep_d, 0.0))).max(axis=1)
    err = np.maximum(err, 1e-7 * sing)
    total = total_err = 0.0      # the pieces added in order
    for v, e in zip(value.tolist(), err.tolist()):
        total += v
        total_err += max(e, _EPS * abs(v))
    return QuadResult(total, total_err, int(evals.sum()))


# ---------------------------------------------------------------------------
# 2D periodic trapezoid oracle
# ---------------------------------------------------------------------------

_N_START = 16     # size of the first torus grid
_N_BATCH = 256    # grids up to this size share the first call, cheaper than one call each


def integrate_torus2(g, tol=1e-6, n_max=4096):
    """The average over [0, 2pi)^2 of an integrand given by its row means,
    by the trapezoid rule on doubling n x n grids with one Richardson step.

    At size n both angles are t_l = (l + 2 - sqrt(2)) 2pi/n, l = 0..n-1,
    offset so that the grid dodges symmetric zero sets.  g takes a list of
    grids t and returns, per grid, the mean of the integrand over the
    y-angles t at each x-angle t[k].  Its first call takes every grid up to
    n = 256, each later call one grid.  ``evals`` counts the n^2 points of
    every grid computed, and ``err_est`` is at least 4 eps |value| and
    1e-16.  Raises ValueError unless tol > 0 and n_max is finite and at
    least 16, and QuadratureError when a grid's sum is not finite.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not (n_max >= _N_START and math.isfinite(n_max)):
        raise ValueError(f"n_max ({n_max}) must be a finite number at least the first grid "
                         f"size {_N_START}")
    offset = 0.5857864376269049  # 2 - sqrt(2), fixed for determinism
    calls = [[]]
    n = _N_START
    while n <= n_max:
        if n > _N_BATCH:
            calls.append([])
        calls[-1].append(n)
        n *= 2
    sums = []
    evals = 0
    value = math.nan
    err = math.inf
    for sizes in calls:
        grids = [(np.arange(n) + offset) * (2.0 * math.pi / n) for n in sizes]
        evals += sum(n * n for n in sizes)
        for n, rows in zip(sizes, g(grids)):
            s = float(np.sum(rows)) / n
            if not math.isfinite(s):
                raise QuadratureError("integrand is not finite")
            sums.append(s)
            if len(sums) >= 3:
                d1 = sums[-2] - sums[-3]
                d2 = sums[-1] - sums[-2]
                if d2 != 0.0 and abs(d1) > abs(d2):
                    p = math.log2(abs(d1) / abs(d2))
                    p = min(max(p, 0.5), 4.0)
                    extrap = sums[-1] + d2 / (2.0 ** p - 1.0)
                    # integrands that are merely log-singular along curves have an
                    # irregular error expansion; the refinement deltas understate
                    # the remaining error, so claim a multiple of the last delta
                    err = max(abs(extrap - sums[-1]), 3.0 * abs(d2))
                    value = extrap
                else:
                    value = sums[-1]
                    err = abs(d2)
                if err <= tol:
                    return QuadResult(value, max(err, 4.0 * _EPS * abs(value), 1e-16), evals)
            elif len(sums) == 2:
                value = sums[-1]
                err = abs(sums[-1] - sums[-2])
            else:
                value = s
    return QuadResult(value, max(err, 4.0 * _EPS * abs(value), 1e-16), evals)
