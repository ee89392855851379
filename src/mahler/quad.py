"""One-dimensional tanh-sinh quadrature on finite intervals with integrable
endpoint singularities, plus the two-dimensional periodic trapezoid rule
used as an independent oracle.

The tanh-sinh (double exponential) rule of Takahasi & Mori ("Double
exponential formulas for numerical integration", Publ. RIMS 9, 1974)
substitutes x = tanh((pi/2) sinh t), which pushes the endpoints infinitely
far away in t, so node weights decay doubly exponentially and integrable
endpoint singularities (inverse square roots, logarithms) cost nothing.
It reports a conservative absolute error estimate; an err_est larger than
the requested tolerance means the node budget ran out and the value should
be treated as unreliable.

The rule is written once, as ``_tanh_sinh_pieces``: one integral, given
as a cut list and one total tolerance, with an integrand over arrays of
abscissae.  It splits the tolerance evenly over the pieces between the
cuts and returns their sums, so that is decided here only.  The nodes are
nested, so its first call of the integrand takes every node of levels 0-4
of every piece, and each later level one call for the pieces not yet
converged.  The values of a call are reduced in one pass over a padded
(pieces, levels, nodes, side) layout.  The Jensen engine and the family
measures pass it their cuts; :func:`integrate` is its two-cut case for a
scalar integrand.

The rule treats the integrand as a black box that is never evaluated
closer to an endpoint than one ulp.  An inverse-square-root endpoint then
caps the accuracy near sqrt(machine eps), because the integrand's own
endpoint subtraction cancels, and the error estimate says so.
"""

from __future__ import annotations

import functools
import math
from array import array
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
    """Unit-interval tanh-sinh node as (distance from +-1, weight) for t >= 0."""
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
_MAX_LEVEL = 12
_FIRST_LEVEL = 4   # _tanh_sinh_pieces evaluates levels 0.._FIRST_LEVEL in one call


@functools.lru_cache(maxsize=None)
def _level_nodes(level):
    """Nodes of one tanh-sinh level as sequences (t, distance, weight).

    Level 0 has step 1 and the nodes t = 0, 1, ..., 6; level L >= 1 has
    step 2^-L and only its new nodes, the odd multiples of the step up to
    _T_MAX.  The tables are built with ``_de_weight`` once per level.  They
    are ``array('d')``, filled node by node, which keeps them several times
    smaller than lists of floats (CHANGES.md, "Batched Jensen engine").
    """
    h = 0.5 ** level
    j, step = (0, 1) if level == 0 else (1, 2)
    ts, dists, ws = array("d"), array("d"), array("d")
    while j * h <= _T_MAX:
        dist, w = _de_weight(j * h)
        ts.append(j * h)
        dists.append(dist)
        ws.append(w)
        j += step
    return ts, dists, ws


def integrate(f, a, b, tol=1e-12):
    """Tanh-sinh quadrature of the scalar function f over the finite
    interval (a, b): the two-cut case of ``_tanh_sinh_pieces``, with f
    mapped over the abscissae of each call.  So the first call evaluates f
    at every node of levels 0-4 at once, and each later level at its new
    nodes; a value at a node of a level the result never reaches is
    ignored.  ``QuadResult.evals`` counts only the nodes of the levels
    used, so f can be called more often than it says.

    f is never evaluated exactly at a or b; nodes whose distance from an
    endpoint underflows are dropped (their weights are far below tolerance
    by then).  Non-finite values at interior abscissae raise
    QuadratureError; non-finite values hugging an endpoint are treated as a
    removable singular endpoint and skipped.

    f is a black box, so an inverse-square-root endpoint limits the result
    to roughly sqrt(machine eps) absolute accuracy: the integrand's own
    endpoint subtraction cancels.  When f still grows like an inverse square
    root at the deepest node reached, the error estimate is raised to that
    cap.

    Raises ValueError unless a and b are finite with a < b and tol > 0 (a
    NaN tol included).
    """
    def F(xs):
        return np.array([f(x) for x in xs.tolist()], dtype=float)

    return _tanh_sinh_pieces(F, [a, b], tol)


@functools.lru_cache(maxsize=None)
def _block_tables(first, last):
    """Levels first..last of the rule in the padded layout (levels, nodes,
    side) that ``_tanh_sinh_pieces`` reduces in one pass: the signed unit
    distances (+dist on the left side, -dist on the right), the weights,
    the mask of the real nodes and the step 2^-level of each level.

    A level's nodes take slots 1, 2, ... by increasing t, as in
    ``_level_nodes``, and padding up to the longest level follows.  Slot 0
    holds level 0's center t = 0, whose weight sits on the left side only,
    and is empty on the other levels.  Neither slot 0 nor the padding is a
    real node (the center's abscissa is no endpoint plus a distance): an
    empty place holds the value 0 and the weight -0.0, which adds -0.0 to a
    pair sum and so leaves every sum as it is.  Slot 0 has distance inf,
    so that a side with no node taken, whose last taken slot reads as 0,
    has no deepest node; the padding has distance 0.
    """
    levels = range(first, last + 1)
    tables = [_level_nodes(level) for level in levels]
    width = max(len(ts) + (level > 0) for level, (ts, _, _) in zip(levels, tables))
    sdist = np.zeros((len(levels), width, 2))
    w = np.full((len(levels), width, 2), -0.0)
    real = np.zeros((len(levels), width, 2), dtype=bool)
    for i, (level, (_, dists, ws)) in enumerate(zip(levels, tables)):
        lo = 1 if level else 0
        slots = slice(lo, lo + len(dists))
        sdist[i, slots] = np.frombuffer(dists)[:, None] * [1.0, -1.0]
        w[i, slots] = np.frombuffer(ws)[:, None]
        real[i, slots] = True
    if first == 0:     # the center
        w[0, 0, 1] = -0.0
        real[0, 0] = False
    sdist[:, 0] = math.inf
    return sdist, w, real, 0.5 ** np.arange(first, last + 1)


def _tanh_sinh_pieces(F, cuts, tol):
    """The tanh-sinh rule over (cuts[0], cuts[-1]), cut at every cut, for a
    black-box integrand F that maps an array of abscissae to an array of
    values.  The cuts are finite and non-decreasing, the first below the
    last.  tol is the total tolerance: each of the len(cuts) - 1 pieces
    between consecutive cuts gets tol / (len(cuts) - 1), and an empty
    piece, between two equal cuts, is skipped.  Returns one QuadResult:
    the values, the error estimates and the evaluation counts of the
    pieces, each added in the order of the pieces.

    Per piece: level 0 takes the center and the node pairs at t = 1..6,
    level L >= 1 the new node pairs at the odd multiples of h = 2^-L, and
    the value after level L is half that after level L - 1 plus h times the
    half-width times the weighted sum of the new nodes, the pairs added by
    increasing t, each left node before its right one.  The piece converges
    at the first level L >= 1 whose change from level L - 1 is at most
    max(tol, 4 eps |value|) / 2, or stops at level _MAX_LEVEL; the change is
    its error estimate, at least eps |value|.  A node that rounds onto its
    endpoint is not taken.  A non-finite value within 1e-9 of the
    half-width from an endpoint counts as an integrable endpoint blow-up
    and adds nothing; elsewhere it raises QuadratureError with its
    abscissa, the first in the order of levels, nodes and sides.  Where the
    values still grow like an inverse square root at the deepest node used
    on a side, |f| sqrt(d) there times 1e-7 bounds the error from below.
    ``evals`` counts the center and every node taken on the levels reached.

    The first call of F takes every node of levels 0.._FIRST_LEVEL of every
    piece; each later level calls F once, on the new nodes of the pieces
    that have not converged yet.  A value at a node of a level that its
    piece never reaches is ignored: it neither raises nor counts in
    ``evals``.  _FIRST_LEVEL is 4 because most pieces of the Jensen engine
    converge by level 4, and each of its calls of F costs a fixed root
    solve whatever its number of nodes.

    The values of one call are reduced in one pass over the padded layout
    (pieces, levels, nodes, side) of ``_block_tables``: the pair sums of
    every level by ``cumsum`` along the nodes, which adds left to right,
    the node counts and the deepest node of each side; only the recurrence
    from one level's value to the next runs level by level, on arrays over
    the pieces.  A level's taken nodes are a prefix of its slots, since
    ``a + d`` rounds monotonically onto ``a`` as d shrinks, so the deepest
    node taken is the last; where a value is not finite it is found among
    the nodes used instead.  The half-width and the center are formed from
    the halved ends, so that b - a may overflow.

    Raises ValueError unless the cuts are finite and non-decreasing with
    cuts[0] < cuts[-1], and tol > 0 (a NaN tol included).
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
    halves = 0.5 * ends
    half = halves[1] - halves[0]
    value = np.zeros(n)
    err = np.zeros(n)
    # per piece, level and side: the nodes taken, and the distance of the
    # deepest node used with |f| there
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
            d_min = np.abs(xd[deepest])      # the last node taken, slot 0 if none
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
_N_BATCH = 256    # the first integrand call takes every grid up to this size


def integrate_torus2(g, tol=1e-6, n_max=4096):
    """Average of a function of (theta_x, theta_y) over the periodic square
    [0, 2pi)^2.

    Uses the tensor trapezoid rule (spectrally accurate for smooth periodic
    integrands) on a doubling sequence of shifted grids, with one Richardson
    extrapolation step whose order is estimated from the last three sums.
    The grid carries a fixed irrational-ish offset so that lattice points
    dodge symmetric zero sets: at size n, both the x-angles and the
    y-angles are t_l = (l + 2 - sqrt(2)) 2pi/n, l = 0..n-1.

    g is called on a list of grids, each given by its array t, and returns
    one array of n row means per grid: entry k is the mean of the integrand
    over the y-angles t at x-angle t[k].  So g decides how a row is summed,
    and need not hold an n x n grid.  The first call takes every grid up to
    n = 256 (16 to 256, 496 rows, fewer under a smaller n_max) and each
    later call one grid, while the stopping test below still takes the sums
    one grid at a time, so the result is that of one call per grid.  A call
    of the torus measure has a fixed cost whatever its row count, so the
    first call costs less than the calls it replaces even for an integrand
    that stops at n = 64 (CHANGES.md, "Torus oracle in fiber batches").
    ``QuadResult.evals`` counts the n^2 grid points of every grid whose
    rows were computed, those of the first call past the stopping grid
    included.  ``err_est`` is at least the rounding of the value,
    4 eps |value|, and at least 1e-16.

    Raises ValueError unless tol > 0 (a NaN tol included) and n_max is a
    finite number at least the first grid size 16, and QuadratureError when
    the sum of the row means of a grid the stopping test reaches is not
    finite.
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
