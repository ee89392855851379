"""One-dimensional quadrature with endpoint-singularity handling, plus the
two-dimensional periodic trapezoid rule used as an independent oracle.

Two rules back :func:`integrate`:

* tanh-sinh (double exponential).  The substitution x = tanh((pi/2) sinh t)
  pushes the endpoints infinitely far away in t, so node weights decay
  doubly exponentially and integrable endpoint singularities (inverse square
  roots, logarithms) cost nothing.  Used whenever a singularity hint is
  present, and for compactified infinite intervals.

* adaptive Gauss-Kronrod 7/15.  Used for integrands declared smooth; panels
  are split greedily by their |K15 - G7| error estimate.

Both report a conservative absolute error estimate.  An err_est larger than
the requested tolerance means the budget ran out and the value should be
treated as unreliable.

The tanh-sinh rule (Takahasi & Mori, "Double exponential formulas for
numerical integration", Publ. RIMS 9, 1974) has two entry points that share
the node tables of ``_level_nodes``, built once per level, and nothing else:

* ``_tanh_sinh`` integrates one interval with a scalar integrand, one call
  per node.  ``integrate``, the family integrands and the elliptic periods
  use it.  They converge within 3-5 levels, where per-level numpy work costs
  as much as the scalar loop: a prototype that moved them onto the array
  rule took ``p_measure(2.5)`` from 0.45-0.73 to 0.80-0.88 ms and
  ``landen_check(2.5)`` from 0.89-1.16 to 1.44-1.53 ms (one BLAS thread,
  2-core x86 machine).
* ``_tanh_sinh_pieces`` integrates all pieces of a cut interval at once
  with an integrand over arrays of abscissae, one call per level for all
  unconverged pieces.  The Jensen engine uses it, because each of its
  integrand values costs a polynomial root solve, and a batch of them costs
  little more than one.  Given the same integrand values it returns the
  same results as ``_tanh_sinh`` piece by piece.
"""

from __future__ import annotations

import functools
import heapq
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

__all__ = ["QuadResult", "SingularityHint", "integrate", "integrate_torus2"]


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_est: float
    evals: int


@dataclass(frozen=True)
class SingularityHint:
    """Declared integrand behaviour: 'none', 'inverse_sqrt_left',
    'inverse_sqrt_right', 'inverse_sqrt_both' or 'log_interior' with the
    interior singular points."""

    kind: str = "none"
    points: tuple = ()

    @classmethod
    def none(cls):
        return cls("none")

    @classmethod
    def inverse_sqrt_left(cls):
        return cls("inverse_sqrt_left")

    @classmethod
    def inverse_sqrt_right(cls):
        return cls("inverse_sqrt_right")

    @classmethod
    def inverse_sqrt_both(cls):
        return cls("inverse_sqrt_both")

    @classmethod
    def log_interior(cls, *points):
        return cls("log_interior", tuple(sorted(points)))


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


@functools.lru_cache(maxsize=None)
def _level_nodes(level):
    """Nodes of one tanh-sinh level as sequences (t, distance, weight).

    Level 0 has step 1 and the nodes t = 0, 1, ..., 6; level L >= 1 has
    step 2^-L and only its new nodes, the odd multiples of the step up to
    _T_MAX.  The tables are built with ``_de_weight`` once per level and
    shared by both tanh-sinh rules.  They are ``array('d')``, filled node by
    node: all 13 levels take 0.6 MB, against 2.5 MB as lists of floats, and
    the scalar rule still reads Python floats from them.
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


def _tanh_sinh(f, a, b, tol, max_level=_MAX_LEVEL):
    """Tanh-sinh quadrature of f over the finite interval (a, b).

    f is never evaluated exactly at a or b; nodes whose distance from an
    endpoint underflows are dropped (their weights are far below tolerance
    by then).  Non-finite values at interior abscissae raise; non-finite
    values hugging an endpoint are treated as a removable singular endpoint
    and skipped.

    Black-box integrands with an inverse-square-root endpoint are limited to
    roughly sqrt(machine eps) absolute accuracy because the integrand's own
    endpoint subtraction cancels.  An integrand can opt out of that wall by
    carrying the attribute ``needs_endpoint_distance = True``: it is then
    called as f(x, d) where d is the exact signed distance to the nearest
    endpoint (positive: x = a + d, negative: x = b + d).
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    evals = 0
    pass_distance = getattr(f, "needs_endpoint_distance", False)
    deepest = [(math.inf, 0.0), (math.inf, 0.0)]   # per side: (d, |f|) at min d

    def node_pair(t, dist, w):
        """Contribution of the node pair at +-t (single node at t=0)."""
        nonlocal evals
        d = dist * half
        out = 0.0
        if t == 0.0:
            x = mid
            evals += 1
            v = f(x, half) if pass_distance else f(x)
            if not math.isfinite(v):
                raise QuadratureError("integrand is not finite", x)
            return w * v
        for side, (x, endpoint, sgn) in enumerate(((a + d, a, 1.0),
                                                   (b - d, b, -1.0))):
            if x == endpoint and not pass_distance:
                continue   # black-box cannot be evaluated closer than one ulp
            evals += 1
            v = f(x, sgn * d) if pass_distance else f(x)
            if not math.isfinite(v):
                if d <= 1e-9 * abs(half):
                    continue       # integrable endpoint blow-up, weight negligible
                raise QuadratureError("integrand is not finite", x)
            if d < deepest[side][0]:
                deepest[side] = (d, abs(v))
            out += w * v
        return out

    for level in range(max_level + 1):
        h = 0.5 ** level
        add = 0.0
        for node in zip(*_level_nodes(level)):
            add += node_pair(*node)
        if level == 0:
            value = add * h * half
            err = abs(value) + 1.0
            continue
        new_value = 0.5 * value + add * h * half
        err = abs(new_value - value)
        value = new_value
        if err <= max(tol, 4.0 * np.finfo(float).eps * abs(value)) * 0.5:
            break
    if not pass_distance:
        # black-box integrands stop one ulp short of the endpoints; if they
        # still show inverse-sqrt growth at the deepest reachable node, the
        # unreachable tail caps the accuracy at ~sqrt(eps) regardless of the
        # refinement level
        sing_coeff = max(fv * math.sqrt(d) for d, fv in deepest if math.isfinite(d))\
            if any(math.isfinite(d) for d, _ in deepest) else 0.0
        err = max(err, 1e-7 * sing_coeff)
    return QuadResult(value, max(err, np.finfo(float).eps * abs(value)), evals)


def _tanh_sinh_pieces(F, edges, tol):
    """``_tanh_sinh`` over every piece (edges[i], edges[i+1]) at once, for a
    black-box integrand F that maps an array of abscissae to an array of
    values.

    Each level calls F once, on the new nodes of all pieces that have not
    converged yet.  Per piece the nodes, the order in which node pairs are
    added, the stopping test, the endpoint rules, the deepest-node cap on
    the error and the evaluation count are those of ``_tanh_sinh``, so the
    same values of F give the same results.  Returns one QuadResult per
    piece.
    """
    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    half = 0.5 * (b - a)
    value = np.zeros(len(a))
    err = np.zeros(len(a))
    evals = np.zeros(len(a), dtype=int)
    deep_d = np.full((len(a), 2), math.inf)   # per piece and side: min d used
    deep_f = np.zeros((len(a), 2))            # and |f| there
    live = np.arange(len(a))
    for level in range(_MAX_LEVEL + 1):
        if not len(live):
            break
        _, dists, ws = _level_nodes(level)
        if level == 0:      # t = 0 is the single center node
            w0, dists, ws = ws[0], dists[1:], ws[1:]
        hl = half[live]
        d = np.outer(hl, dists)[:, :, None]
        ends = np.stack([a[live], b[live]], axis=1)[:, None, :]
        x = ends + np.concatenate([d, -d], axis=2)     # (pieces, nodes, side)
        take = x != ends    # black-box cannot be evaluated closer than one ulp
        center = 0.5 * (a[live] + b[live]) if level == 0 else np.zeros(0)
        vals = F(np.concatenate([center, x[take]]))
        evals[live] += take.sum(axis=(1, 2)) + (level == 0)
        fc = vals[:len(center)]
        if not np.isfinite(fc).all():
            raise QuadratureError("integrand is not finite",
                                  float(center[np.argmin(np.isfinite(fc))]))
        v = np.zeros(x.shape)
        v[take] = vals[len(center):]
        bad = take & ~np.isfinite(v)
        if bad.any():
            interior = bad & (d > 1e-9 * np.abs(hl)[:, None, None])
            if interior.any():
                raise QuadratureError("integrand is not finite",
                                      float(x[tuple(np.argwhere(interior)[0])]))
            v[bad] = 0.0       # integrable endpoint blow-up, weight negligible
        used = take & ~bad
        # the deepest node used on each side
        dd = np.where(used, d, math.inf)
        j = dd.argmin(axis=1)[:, None, :]
        d_min = np.take_along_axis(dd, j, axis=1)[:, 0, :]
        deeper = d_min < deep_d[live]
        deep_d[live] = np.where(deeper, d_min, deep_d[live])
        deep_f[live] = np.where(deeper, np.abs(np.take_along_axis(v, j, axis=1)[:, 0, :]),
                                deep_f[live])
        terms = np.where(used, np.asarray(ws)[None, :, None] * v, 0.0)
        pairs = terms[:, :, 0] + terms[:, :, 1]
        if level == 0:
            pairs = np.concatenate([(w0 * fc)[:, None], pairs], axis=1)
        # the node pairs are added left to right, as in _tanh_sinh
        add = np.cumsum(pairs, axis=1)[:, -1]
        h = 0.5 ** level
        if level == 0:
            value[live] = add * h * hl
            continue
        new_value = 0.5 * value[live] + add * h * hl
        err[live] = np.abs(new_value - value[live])
        value[live] = new_value
        limit = np.maximum(tol, 4.0 * np.finfo(float).eps * np.abs(new_value)) * 0.5
        live = live[~(err[live] <= limit)]
    sing = (deep_f * np.sqrt(np.where(np.isfinite(deep_d), deep_d, 0.0))).max(axis=1)
    err = np.maximum(err, 1e-7 * sing)
    return [QuadResult(float(v), max(float(e), np.finfo(float).eps * abs(float(v))), int(k))
            for v, e, k in zip(value, err, evals)]


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod 7/15
# ---------------------------------------------------------------------------

_XGK = (0.991455371120813, 0.949107912342759, 0.864864423359769,
        0.741531185599394, 0.586087235467691, 0.405845151377397,
        0.207784955007898, 0.0)
_WGK = (0.022935322010529, 0.063092092629979, 0.104790010322250,
        0.140653259715525, 0.169004726639267, 0.190350578064785,
        0.204432940075298, 0.209482141084728)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119,
       0.417959183673469)


def _gk15(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    if not math.isfinite(fc):
        raise QuadratureError("integrand is not finite", mid)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for i in range(7):
        dx = half * _XGK[i]
        f1 = f(mid - dx)
        f2 = f(mid + dx)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            raise QuadratureError("integrand is not finite",
                                  mid - dx if not math.isfinite(f1) else mid + dx)
        resk += _WGK[i] * (f1 + f2)
        if i % 2 == 1:
            resg += _WG[i // 2] * (f1 + f2)
    return resk * half, abs(resk - resg) * abs(half), 15


def _adaptive_gk(f, a, b, tol, max_panels=2000):
    value, err, evals = _gk15(f, a, b)
    heap = [(-err, a, b, value, err)]
    total, total_err = value, err
    while total_err > tol and len(heap) < max_panels:
        _, pa, pb, pv, pe = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if pm == pa or pm == pb:
            heapq.heappush(heap, (0.0, pa, pb, pv, pe))
            break
        v1, e1, n1 = _gk15(f, pa, pm)
        v2, e2, n2 = _gk15(f, pm, pb)
        evals += n1 + n2
        total += v1 + v2 - pv
        total_err += e1 + e2 - pe
        heapq.heappush(heap, (-e1, pa, pm, v1, e1))
        heapq.heappush(heap, (-e2, pm, pb, v2, e2))
    return QuadResult(total, max(total_err, np.finfo(float).eps * abs(total)), evals)


# ---------------------------------------------------------------------------
# public 1D entry point
# ---------------------------------------------------------------------------

def integrate(f, a, b, hint=SingularityHint.none(), tol=1e-12):
    """Integrate f over (a, b) honouring the declared singularity hint.

    Infinite endpoints are only allowed with the 'none' hint and are mapped
    to a finite interval by a rational substitution chosen so the compactified
    integrand keeps an integrable endpoint; the transformed integral then runs
    through the tanh-sinh rule.
    """
    if hint is None:
        hint = SingularityHint.none()
    if not (a < b):
        raise ValueError("need a < b")
    if not tol > 0:
        raise ValueError("tol must be positive")

    inf_a = math.isinf(a)
    inf_b = math.isinf(b)
    if inf_a or inf_b:
        if hint.kind != "none":
            raise ValueError("infinite endpoints require the 'none' hint")
        if inf_a and inf_b:
            def g(t):
                den = 1.0 - t * t
                x = t / den
                return f(x) * (1.0 + t * t) / (den * den)
            return _tanh_sinh(g, -1.0, 1.0, tol)
        if inf_b:
            def g(t):
                den = 1.0 - t
                x = a + t / den
                return f(x) / (den * den)
            return _tanh_sinh(g, 0.0, 1.0, tol)

        def g(t):
            den = 1.0 - t
            x = b - t / den
            return f(x) / (den * den)
        return _tanh_sinh(g, 0.0, 1.0, tol)

    if hint.kind == "none":
        return _adaptive_gk(f, a, b, tol)
    if hint.kind in ("inverse_sqrt_left", "inverse_sqrt_right", "inverse_sqrt_both"):
        return _tanh_sinh(f, a, b, tol)
    if hint.kind == "log_interior":
        cuts = [p for p in hint.points if a < p < b]
        if sorted(cuts) != cuts:
            cuts = sorted(cuts)
        edges = [a] + cuts + [b]
        value = 0.0
        err = 0.0
        evals = 0
        sub_tol = tol / max(len(edges) - 1, 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            r = _tanh_sinh(f, lo, hi, sub_tol)
            value += r.value
            err += r.err_est
            evals += r.evals
        return QuadResult(value, err, evals)
    raise ValueError(f"unknown hint kind {hint.kind!r}")


# ---------------------------------------------------------------------------
# 2D periodic trapezoid oracle
# ---------------------------------------------------------------------------

_TORUS_BLOCK = 1 << 18   # grid points per call of g in integrate_torus2


def integrate_torus2(g, tol=1e-6, n_start=16, n_max=4096):
    """Average of g(theta_x, theta_y) over the periodic square [0, 2pi)^2.

    Uses the tensor trapezoid rule (spectrally accurate for smooth periodic
    integrands) on a doubling sequence of shifted grids, with one Richardson
    extrapolation step whose order is estimated from the last three sums.
    g must accept numpy arrays elementwise.  It is called on row blocks of
    the n x n grid, a column of theta_x values against the row of all n
    theta_y values, about _TORUS_BLOCK points at a time, so the whole grid
    is never held; the block sums are added with ``math.fsum``.  The grid
    carries a fixed irrational-ish offset so that lattice points dodge
    symmetric zero sets.  The same row array of theta_y values goes with
    every block of a grid, so g may keep work that depends only on it.

    Raises ValueError unless tol > 0 (a NaN tol included), and
    QuadratureError when the sum of a block is not finite.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if n_max < n_start:
        raise ValueError(f"n_max ({n_max}) must be at least n_start ({n_start})")
    offset = 0.5857864376269049  # 2 - sqrt(2), fixed for determinism
    sums = []
    evals = 0
    n = n_start
    value = math.nan
    err = math.inf
    while n <= n_max:
        h = 2.0 * math.pi / n
        t = (np.arange(n) + offset) * h
        rows = max(1, _TORUS_BLOCK // n)
        block_sums = []
        for r in range(0, n, rows):
            tx = t[r:r + rows, None]
            vals = np.broadcast_to(g(tx, t[None, :]), (len(tx), n))
            block_sum = float(vals.sum())
            if not math.isfinite(block_sum):
                raise QuadratureError("integrand is not finite")
            block_sums.append(block_sum)
        evals += n * n
        s = math.fsum(block_sums) / (n * n)
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
                return QuadResult(value, max(err, 1e-16), evals)
        elif len(sums) == 2:
            value = sums[-1]
            err = abs(sums[-1] - sums[-2])
        else:
            value = s
        n *= 2
    return QuadResult(value, max(err, 1e-16), evals)
