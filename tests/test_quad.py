"""Quadrature: closed forms, endpoint singularities, additivity,
error-estimate behaviour."""

import math
import random

import numpy as np
import pytest

from mahler.errors import QuadratureError
from mahler.quad import (_EPS, _FIRST_LEVEL, _MAX_LEVEL, QuadResult, _block_tables,
                         _de_weight, _tanh_sinh_pieces, integrate, integrate_torus2)
from torus_rows import row_means, torus2_reference


def level_nodes(level):
    """The nodes (t, distance, weight) of one tanh-sinh level, from
    ``_de_weight``: t = 0, 1, ..., 6 on level 0, and the odd multiples of
    2^-level up to 6.11 on a later level."""
    h = 0.5 ** level
    first, step = (0, 1) if level == 0 else (1, 2)
    return [(j * h, *_de_weight(j * h)) for j in range(first, int(6.11 / h) + 1, step)]


def _integrate_reference(f, a, b, tol):
    """The tanh-sinh rule one node at a time, level by level, for a scalar
    f on one interval: the oracle of each piece of the array rule
    ``_tanh_sinh_pieces``, which must give the same value, err_est and
    evals from the same values of f.  Evaluates f only at the nodes of the
    levels it reaches."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    evals = 0
    deepest = [(math.inf, 0.0), (math.inf, 0.0)]   # per side: (d, |f|) at min d

    def node_pair(t, dist, w):
        """Contribution of the node pair at +-t (single node at t=0)."""
        nonlocal evals
        d = dist * half
        out = 0.0
        if t == 0.0:
            x = mid
            evals += 1
            v = f(x)
            if not math.isfinite(v):
                raise QuadratureError("integrand is not finite", x)
            return w * v
        for side, (x, endpoint) in enumerate(((a + d, a), (b - d, b))):
            if x == endpoint:
                continue   # black-box cannot be evaluated closer than one ulp
            evals += 1
            v = f(x)
            if not math.isfinite(v):
                if d <= 1e-9 * abs(half):
                    continue       # integrable endpoint blow-up, weight negligible
                raise QuadratureError("integrand is not finite", x)
            if d < deepest[side][0]:
                deepest[side] = (d, abs(v))
            out += w * v
        return out

    for level in range(_MAX_LEVEL + 1):
        h = 0.5 ** level
        add = 0.0
        for node in level_nodes(level):
            add += node_pair(*node)
        if level == 0:
            value = add * h * half
            err = abs(value) + 1.0
            continue
        new_value = 0.5 * value + add * h * half
        err = abs(new_value - value)
        value = new_value
        if err <= max(tol, 4.0 * _EPS * abs(value)) * 0.5:
            break
    # if f still shows inverse-sqrt growth at the deepest reachable node, the
    # unreachable tail caps the accuracy at ~sqrt(eps) regardless of the
    # refinement level
    sing_coeff = max((fv * math.sqrt(d) for d, fv in deepest if math.isfinite(d)),
                     default=0.0)
    err = max(err, 1e-7 * sing_coeff)
    return QuadResult(value, max(err, _EPS * abs(value)), evals)


def _cut_reference(f, cuts, tol):
    """``_integrate_reference`` on each nonempty piece between the cuts, at
    tol over the number of pieces: the pieces ``_tanh_sinh_pieces`` sums."""
    n = len(cuts) - 1
    return [_integrate_reference(f, lo, hi, tol / n)
            for lo, hi in zip(cuts[:-1], cuts[1:]) if lo < hi]


def _in_order(pieces):
    """The QuadResult of ``pieces`` added in order, as the rule adds them."""
    value = err = 0.0
    for r in pieces:
        value += r.value
        err += r.err_est
    return QuadResult(value, err, sum(r.evals for r in pieces))


def _assert_sums(r, f, cuts, tol, refs):
    """r is the rule's result on the cut list: the pieces of the scalar
    reference ``refs`` summed, to the rounding of the pieces, and exactly
    the sum of ``integrate`` on each piece in order."""
    n = len(cuts) - 1
    scale = sum(abs(p.value) for p in refs)
    assert r.evals == sum(p.evals for p in refs), (cuts, tol)
    assert abs(r.value - math.fsum(p.value for p in refs)) <= (1e-15 + n * _EPS) * scale, \
        (cuts, tol)
    assert abs(r.err_est - math.fsum(p.err_est for p in refs)) <= n * (
        1e-15 + _EPS * max(p.err_est for p in refs)), (cuts, tol)
    assert r == _in_order([integrate(f, lo, hi, tol / n)
                           for lo, hi in zip(cuts[:-1], cuts[1:]) if lo < hi]), (cuts, tol)


def test_constant():
    r = integrate(lambda x: 1.0, 0.0, 1.0, 1e-12)
    assert abs(r.value - 1.0) < 1e-14
    assert r.err_est <= 1e-12
    assert r.evals > 0


def test_arcsine_blackbox_error_is_reported():
    # a plain black-box integrand cannot beat ~sqrt(eps) here; the estimate
    # must own up to that
    r = integrate(lambda c: 1.0 / math.sqrt(c * (1.0 - c)), 0.0, 1.0, 1e-12)
    assert abs(r.value - math.pi) < 1e-6
    assert abs(r.value - math.pi) <= r.err_est


def test_one_variable_jensen_is_zero():
    # int_0^pi log|2 cos t| dt = 0, split at the log singularity pi/2
    def f(t):
        return math.log(abs(2.0 * math.cos(t)))

    total = sum(integrate(f, lo, hi, 0.5e-12).value
                for lo, hi in ((0.0, math.pi / 2), (math.pi / 2, math.pi)))
    assert abs(total) < 1e-11


def test_additivity_on_random_analytic_integrands():
    rng = random.Random(424242)
    for _ in range(10):
        a0, a1, a2 = (rng.uniform(-2, 2) for _ in range(3))
        w = rng.uniform(0.5, 3.0)

        def f(x, a0=a0, a1=a1, a2=a2, w=w):
            return a0 + a1 * math.sin(w * x) + a2 * math.exp(-x * x)

        a, b = -1.3, 2.1
        c = rng.uniform(a + 0.2, b - 0.2)
        whole = integrate(f, a, b, 1e-12)
        left = integrate(f, a, c, 1e-12)
        right = integrate(f, c, b, 1e-12)
        assert abs(whole.value - left.value - right.value) <= \
            whole.err_est + left.err_est + right.err_est + 1e-13


def test_err_est_monotone_under_tightening():
    corpus = [
        (lambda x: math.exp(-x * x), 0.0, 2.0),
        (lambda x: math.sin(3 * x) / (1 + x * x), -1.0, 4.0),
        (lambda x: math.log(x), 0.0, 1.0),
    ]
    for f, a, b in corpus:
        loose = integrate(f, a, b, 1e-6)
        tight = integrate(f, a, b, 1e-7)
        assert tight.err_est <= loose.err_est * (1.0 + 1e-12)


def test_nan_propagates_with_abscissa():
    def f(x):
        return math.nan if 0.4 < x < 0.6 else 1.0

    with pytest.raises(QuadratureError) as exc:
        integrate(f, 0.0, 1.0, 1e-10)
    assert exc.value.abscissa is not None


def test_bad_arguments():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0, 1e-10)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.0, 1.0, -1.0)
    with pytest.raises(ValueError, match="tol must be positive"):
        integrate(lambda x: x, 0.0, 1.0, math.nan)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                  (-math.inf, math.inf), (math.nan, 1.0),
                                  (0.0, math.nan)])
def test_non_finite_endpoints_raise(a, b):
    with pytest.raises(ValueError, match="endpoints must be finite"):
        integrate(lambda x: 1.0, a, b, 1e-10)


def test_torus2_constant():
    r = integrate_torus2(row_means(
        lambda tx, ty: np.full(np.broadcast(tx, ty).shape, math.log(2.0))),
        tol=1e-13)
    assert abs(r.value - math.log(2.0)) < 1e-13


def test_torus2_smooth_product():
    # mean of cos(tx)^2 * (2 + sin(ty)) over the periodic square = 1
    r = integrate_torus2(row_means(lambda tx, ty: np.cos(tx) ** 2 * (2.0 + np.sin(ty))),
                         tol=1e-12)
    assert abs(r.value - 1.0) < 1e-11


def test_torus2_integrand_constant_in_one_variable():
    # the grid integrand may return its broadcastable shape: here one
    # column per row block
    r = integrate_torus2(row_means(lambda tx, ty: np.cos(tx) ** 2), tol=1e-12)
    assert abs(r.value - 0.5) < 1e-12


def test_torus2_budget_exhaustion_reports_err():
    r = integrate_torus2(row_means(lambda tx, ty: np.log(np.abs(np.exp(1j * tx)
                                                                + np.exp(1j * ty) - 1.0))),
                         tol=1e-14, n_max=64)
    assert r.err_est > 1e-14       # could not converge, says so


def test_torus2_rejects_n_max_below_start():
    with pytest.raises(ValueError):
        integrate_torus2(row_means(lambda tx, ty: np.zeros(np.broadcast(tx, ty).shape)),
                         n_max=8)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_torus2_rejects_tol_not_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        integrate_torus2(row_means(lambda tx, ty: np.zeros(np.broadcast(tx, ty).shape)),
                         tol=tol)


def test_torus2_row_mean_contract():
    # the first call takes every grid through n = 256, each later call one
    # grid, every grid on the offset grid with n row means back; evals still
    # counts the n^2 grid points
    calls = []

    def g(grids):
        # the sums 1/2 + 1/n never meet the tol, and extrapolate to 1/2
        calls.append([t.copy() for t in grids])
        return [np.cos(t) ** 2 + 1.0 / len(t) for t in grids]

    r = integrate_torus2(g, tol=1e-300, n_max=4096)
    assert [[len(t) for t in grids] for grids in calls] == [
        [16, 32, 64, 128, 256], [512], [1024], [2048], [4096]]
    for grids in calls:
        for t in grids:
            n = len(t)
            assert np.allclose(t, (np.arange(n) + 2.0 - math.sqrt(2.0)) * 2.0 * math.pi / n,
                               rtol=0.0, atol=1e-15)
    assert r.evals == sum((16 << k) ** 2 for k in range(9))
    assert abs(r.value - 0.5) < 1e-15


@pytest.mark.parametrize("n_max", [16, 64, 100, 256, 300])
def test_torus2_n_max_caps_the_first_call(n_max):
    calls = []

    def g(grids):
        calls.append([len(t) for t in grids])
        return [np.cos(t) ** 2 + 1.0 / len(t) for t in grids]

    r = integrate_torus2(g, tol=1e-300, n_max=n_max)
    sizes = [16 << k for k in range(5) if 16 << k <= n_max]
    assert calls == [sizes]
    assert r.evals == sum(n * n for n in sizes)


def _cos2_bad_at(n_bad, drift=0.0):
    """The row means of cos(tx)^2 + drift / n, whose sums are 1/2 from
    n = 16 on when drift is 0 (so the rule stops at n = 64) and never meet a
    tol otherwise, with one NaN row in the grid of size n_bad."""
    def g(grids):
        out = [np.cos(t) ** 2 + drift / len(t) for t in grids]
        for rows in out:
            if len(rows) == n_bad:
                rows[3] = math.nan
        return out

    return g


@pytest.mark.parametrize("n_bad", [128, 256])
def test_torus2_unconsumed_non_finite_grid_does_not_raise(n_bad):
    # the sums of 16, 32 and 64 meet the tol, so the first call's larger
    # grids are computed but never summed
    r = integrate_torus2(_cos2_bad_at(n_bad), tol=1e-12)
    assert abs(r.value - 0.5) < 1e-15
    assert r.evals == sum((16 << k) ** 2 for k in range(5))
    assert torus2_reference(_cos2_bad_at(n_bad), tol=1e-12).evals == 16 ** 2 + 32 ** 2 + 64 ** 2


@pytest.mark.parametrize("drift", [0.0, 1.0])
@pytest.mark.parametrize("n_bad", [16, 32, 64, 128, 256, 512, 1024])
def test_torus2_consumed_non_finite_grid_raises_as_one_grid_per_call(n_bad, drift):
    # a non-finite grid raises exactly when the one-grid-per-call rule
    # reaches it: without drift the rule stops at n = 64
    outcomes = []
    for rule in (integrate_torus2, torus2_reference):
        try:
            outcomes.append(rule(_cos2_bad_at(n_bad, drift), tol=1e-12, n_max=1024).value)
        except QuadratureError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    raises = drift != 0.0 or n_bad <= 64
    assert (outcomes[0] == "integrand is not finite") == raises


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_torus2_non_finite_integrand_raises(bad):
    def g(tx, ty):
        vals = np.zeros(np.broadcast(tx, ty).shape)
        vals[-1, -1] = bad
        return vals

    with pytest.raises(QuadratureError, match="not finite"):
        integrate_torus2(row_means(g))


def test_block_tables_match_de_weight():
    for level in range(_MAX_LEVEL + 1):
        nodes = level_nodes(level)
        sdist, w, real, hs = _block_tables(level, level)
        assert hs.tolist() == [0.5 ** level]
        assert sdist.shape == (1, len(nodes) + (level > 0), 2)
        # slot 0 holds level 0's center, on the left side only, and no node
        if level == 0:
            assert w[0, 0, 0] == nodes[0][2] and not real[0, 0].any()
            nodes = nodes[1:]
        assert sdist[0, 1:, 0].tolist() == [d for _, d, _ in nodes]
        assert sdist[0, 1:, 1].tolist() == [-d for _, d, _ in nodes]
        assert w[0, 1:, 0].tolist() == w[0, 1:, 1].tolist() == [w for _, _, w in nodes]
        assert real[0, 1:].all()
        assert sdist[0, 0].tolist() == [math.inf, math.inf]
        assert w[0, 0, 1] == 0.0 and math.copysign(1.0, w[0, 0, 1]) == -1.0
    # a block of levels is the single levels, padded to the longest
    sdist, w, real, _ = _block_tables(0, _FIRST_LEVEL)
    for level in range(_FIRST_LEVEL + 1):
        one = _block_tables(level, level)
        cols = one[0].shape[1]
        assert np.array_equal(sdist[level, :cols], one[0][0])
        assert np.array_equal(w[level, :cols], one[1][0])
        assert not real[level, cols:].any() and (w[level, cols:] == 0.0).all()


def _log_spike(x):
    # -inf within 1e-12 of the kink at 1/2: inside 1e-9 * half of that
    # endpoint, so both rules must skip it
    return -math.inf if abs(x - 0.5) < 1e-12 else math.log(abs(x - 0.5))


# (scalar integrand, edges): several pieces per call, converging at
# different levels
PIECE_CASES = {
    "smooth": (lambda x: math.exp(-x * x) * math.cos(3.0 * x),
               [-1.0, 0.0, 0.1, 2.5, 9.0]),
    "inverse_sqrt": (lambda x: 1.0 / math.sqrt(x * (1.0 - x)),
                     [0.0, 1e-3, 0.5, 1.0]),
    "log_spike": (_log_spike, [0.0, 0.5, 1.0, 4.0]),
}


def _node_counts(lo, hi):
    """Per level, the nodes of (lo, hi) that ``integrate`` evaluates: the
    center and every node that does not round onto its endpoint."""
    half = 0.5 * (hi - lo)
    counts = []
    for level in range(_MAX_LEVEL + 1):
        counts.append(sum((lo + d * half != lo) + (hi - d * half != hi) if t else 1
                          for t, d, _ in level_nodes(level)))
    return counts


def _expected_calls(edges, pieces):
    """The lengths of the calls of F: all nodes of levels 0.._FIRST_LEVEL of
    every piece, then the new nodes of each later level of the pieces that
    reach it, the last level of a piece read off its ``evals``."""
    counts = [_node_counts(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    last = [next(level for level in range(_MAX_LEVEL + 1)
                 if sum(c[:level + 1]) == r.evals) for c, r in zip(counts, pieces)]
    return ([sum(sum(c[:_FIRST_LEVEL + 1]) for c in counts)]
            + [sum(c[level] for c, top in zip(counts, last) if top >= level)
               for level in range(_FIRST_LEVEL + 1, max(last) + 1)])


@pytest.mark.parametrize("name", sorted(PIECE_CASES))
def test_pieces_rule_matches_scalar_rule(name):
    f, edges = PIECE_CASES[name]
    calls = []

    def F(xs):
        calls.append(len(xs))
        return np.array([f(x) for x in xs])

    r = _tanh_sinh_pieces(F, edges, 1e-11)
    pieces = _cut_reference(f, edges, 1e-11)
    assert len(pieces) == len(edges) - 1
    _assert_sums(r, f, edges, 1e-11, pieces)
    assert len({p.evals for p in pieces}) > 1        # different levels reached
    # one first pass through level _FIRST_LEVEL, then one call per level
    assert calls == _expected_calls(edges, pieces)
    assert len(calls) <= _MAX_LEVEL + 1 - _FIRST_LEVEL
    if name == "inverse_sqrt":
        assert r.err_est > 1e-8     # deepest-node cap


@pytest.mark.parametrize("edges", [[0.0, 1.0], [0.0, 0.45, 1.0]])
def test_pieces_rule_interior_nan_raises_with_abscissa(edges):
    def f(x):
        return math.nan if 0.4 < x < 0.6 else 1.0

    with pytest.raises(QuadratureError) as exc:
        _tanh_sinh_pieces(lambda xs: np.array([f(x) for x in xs]), edges, 1e-10)
    assert 0.4 < exc.value.abscissa < 0.6
    if len(edges) == 2:
        with pytest.raises(QuadratureError) as ref:
            _integrate_reference(f, edges[0], edges[1], 1e-10)
        with pytest.raises(QuadratureError) as one:
            integrate(f, edges[0], edges[1], 1e-10)
        assert exc.value.abscissa == ref.value.abscissa == one.value.abscissa


@pytest.mark.parametrize("edges", [[0.5, 2.0], [0.5, 2.0, 2.0 + 8 * _EPS, 4.0]])
def test_pieces_rule_ignores_unreached_first_pass_nodes(edges):
    # at tol 1e-3 a constant converges at level 2, and a piece four ulps
    # wide, whose nodes mostly round onto its endpoints, at level 1: F
    # returns NaN at every node the scalar rule does not evaluate, which
    # must neither raise nor change a result
    used = set()

    def f(x):
        used.add(x)
        return 2.0

    tol = 1e-3 * (len(edges) - 1)       # 1e-3 a piece
    refs = _cut_reference(f, edges, tol)
    assert all(r.evals < sum(_node_counts(lo, hi)[:_FIRST_LEVEL + 1])
               for r, lo, hi in zip(refs, edges[:-1], edges[1:]))
    nans = []

    def F(xs):
        nans.append(sum(x not in used for x in xs))
        return np.array([2.0 if x in used else math.nan for x in xs])

    assert _tanh_sinh_pieces(F, edges, tol) == _in_order(refs)
    assert len(nans) == 1 and nans[0] > 0


def _first_node(lo, hi, level, side):
    """The abscissa of the node t = 2^-level of (lo, hi) on the left (0) or
    right (1) side."""
    d = level_nodes(level)[1 if level == 0 else 0][1] * (0.5 * (hi - lo))
    return lo + d if side == 0 else hi - d


def _flat_right(x):
    # at tol 1e-3, piece (0, 1) reaches level 5 and piece (1, 2), where f is
    # constant, stops at level 2; at tol 1e-11, (0, 1) reaches level 7
    return 1.0 / (1.0 + 100.0 * (x - 0.5) ** 2) if x < 1.0 else 2.0


# NaN at the level-3 nodes of (1, 2), which that piece never reaches
UNREACHED = {_first_node(1.0, 2.0, 3, side) for side in (0, 1)}


@pytest.mark.parametrize("level,side,tol", [(1, 0, 1e-3), (2, 1, 1e-3), (3, 0, 1e-3),
                                            (_FIRST_LEVEL, 1, 1e-11),
                                            (_FIRST_LEVEL + 1, 0, 1e-11)])
def test_pieces_rule_non_finite_at_reached_level_raises(level, side, tol):
    # an interior NaN at a level piece (0, 1) reaches, in the first pass or
    # after it, raises with the scalar rule's abscissa: the first in the
    # order of levels, nodes and sides, before a NaN at level 3 on the
    # other side, and whatever lies at the nodes of levels another piece
    # never reaches (at tol 1e-11, piece (1, 2) reaches level 3)
    bad = {_first_node(0.0, 1.0, level, side)}
    if tol == 1e-3:
        bad |= UNREACHED | {_first_node(0.0, 1.0, 3, 1 - side)}

    def f(x):
        return math.nan if x in bad else _flat_right(x)

    with pytest.raises(QuadratureError) as ref:
        _integrate_reference(f, 0.0, 1.0, tol)
    with pytest.raises(QuadratureError) as exc:      # tol a piece
        _tanh_sinh_pieces(lambda xs: np.array([f(x) for x in xs]), [0.0, 1.0, 2.0], 2.0 * tol)
    assert exc.value.abscissa == ref.value.abscissa == _first_node(0.0, 1.0, level, side)


def test_pieces_rule_non_finite_at_unreached_level_is_ignored():
    seen = []

    def f(x):
        return math.nan if x in UNREACHED else _flat_right(x)

    def F(xs):
        seen.extend(x for x in xs if x in UNREACHED)
        return np.array([f(x) for x in xs])

    refs = _cut_reference(f, [0.0, 1.0, 2.0], 2e-3)     # 1e-3 a piece
    assert _tanh_sinh_pieces(F, [0.0, 1.0, 2.0], 2e-3) == _in_order(refs)
    assert sorted(seen) == sorted(UNREACHED)     # in the first pass, with level 3 of (0, 1)


def _refuse(xs):
    raise AssertionError("F called on refused input")


@pytest.mark.parametrize("edges", [[1.0, 0.0], [1.0, 1.0], [2.0, 2.0, 2.0], [0.0],
                                   [0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 0.5],
                                   [0.0, math.nan], [-math.inf, 0.0], [0.0, 1.0, math.inf]])
def test_pieces_rule_refuses_bad_edges(edges):
    # a descending pair gave negative node distances and a RuntimeWarning
    # from np.sqrt; integrate refuses the same intervals with the same errors
    finite = all(math.isfinite(e) for e in edges)
    with pytest.raises(ValueError, match="need non-decreasing cuts" if finite
                       else "endpoints must be finite"):
        _tanh_sinh_pieces(_refuse, edges, 1e-10)
    if len(edges) == 2:
        with pytest.raises(ValueError):
            integrate(_refuse, *edges, 1e-10)


@pytest.mark.parametrize("edges, tol", [([0.0, 1.0, 1.0], 1e-10), ([0.0, 0.0, 1.0], 1e-10),
                                       ([0.0, 0.5, 0.5, 0.5, 1.0], 1e-10),
                                       ([0.0, 1.0, 1.0, 1.0, 1.0], 4e-7)])
def test_pieces_rule_skips_empty_pieces(edges, tol):
    # two equal cuts make an empty piece, which adds nothing but still
    # counts in the split of tol (p_measure's hi rounds onto pi/2 at huge k):
    # (0, 1) takes twice the nodes at tol 1e-7, a quarter of 4e-7, as at
    # 4e-7 itself
    def f(x):
        return math.exp(-x * x) * math.cos(3.0 * x)

    r = _tanh_sinh_pieces(lambda xs: np.array([f(x) for x in xs]), edges, tol)
    _assert_sums(r, f, edges, tol, _cut_reference(f, edges, tol))
    if tol == 4e-7:
        assert r.evals == integrate(f, 0.0, 1.0, 1e-7).evals > integrate(f, 0.0, 1.0, tol).evals


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
def test_pieces_rule_refuses_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        _tanh_sinh_pieces(_refuse, [0.0, 1.0], tol)


@pytest.mark.parametrize("end", [1e308, np.finfo(float).max])
def test_huge_finite_ends_do_not_overflow(end):
    # 0.5 * (b - a) overflowed: value inf, err_est nan after 50,053 evaluations
    r = integrate(lambda x: 1e-10, -end, end)
    assert abs(r.value - 2e-10 * end) <= r.err_est <= 1e-15 * r.value
    assert r.evals < 200
    assert _tanh_sinh_pieces(lambda xs: np.full(len(xs), 1e-10), [-end, end], 1e-12) == r


def _fuzz_case(rng):
    """Edges of 1-4 pieces, a tenth of them a few ulps wide; a log or
    inverse-square-root singularity at one edge, or a smooth integrand, as
    a scalar f and an array F of the same values; a tol in (1e-13, 1e-6)."""
    edges = [rng.uniform(-2.0, 2.0)]
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.1:
            edges.append(edges[-1] + rng.randint(2, 16) * math.ulp(edges[-1]))
        else:
            edges.append(edges[-1] + 10.0 ** rng.uniform(-6.0, 0.5))
    s = rng.choice(edges)
    c = rng.uniform(0.5, 4.0)
    tol = 10.0 ** rng.uniform(-13.0, -6.0)
    kind = rng.randrange(3)
    if kind == 1:
        # correctly rounded in both forms, so F may be numpy's; most of these
        # pieces refine to the last level next to the singular edge, where
        # the scalar loop would double the test's time
        return (lambda x: 1.0 / math.sqrt(abs(x - s)),
                lambda xs: 1.0 / np.sqrt(np.abs(xs - s)), edges, tol)
    if kind == 0:
        def f(x):
            return math.log(abs(x - s))
    else:
        def f(x):
            return math.exp(-x * x) * math.cos(c * x)
    return f, (lambda xs: np.array([f(x) for x in xs])), edges, tol


def test_pieces_rule_matches_scalar_rule_fuzz():
    # 200 random cuts: 514 pieces, 55 of them a few ulps wide
    rng = random.Random(1974)
    for _ in range(200):
        f, F, edges, tol = _fuzz_case(rng)
        _assert_sums(_tanh_sinh_pieces(F, edges, tol), f, edges, tol,
                     _cut_reference(f, edges, tol))
