"""Inputs of the four workloads.

The generated polynomials come from one fixed seed (``POOL_SEED``), so their
references can be computed once and stored.  Every round of a workload runs
the same set of operations and the benchmark's ``--seed`` sets their order:
the spread between seeds then measures the machine, not a changing mix of
cheap and expensive inputs.  Inputs are written as expression strings in the
library's grammar (``^`` for powers).
"""

from __future__ import annotations

import math
import random

POOL_SEED = 7
POOL_PER_DEGREE = 40          # generated candidates per fiber degree
ROUND_PER_DEGREE = 16         # kept polynomials per fiber degree in a round
FIBER_DEGREES = (1, 2, 3, 4)

R_THRESHOLD = 16.0 / (3.0 * math.sqrt(3.0))
TWO_SQRT2 = 2.0 * math.sqrt(2.0)
BOUNDARIES = (TWO_SQRT2, 3.0, R_THRESHOLD, 4.0)

FAMILY_TEMPLATES = {
    "P": "(x^2+x+1)*y^2+k*x*(x+1)*y+x*(x^2+x+1)",
    "Q": "(x^2+x+1)*y^2+(x^4+k*x^3+(2*k-4)*x^2+k*x+1)*y+x^2*(x^2+x+1)",
    "R": "y^3-y+x^3-x+k*x*y",
}
A_POLY = "x^2-x*y+y^2+x+y"

# jensen-corpus: the paper's polynomials on a fixed k grid
JENSEN_P_K = (1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 12.0, 33.0)
JENSEN_R_K = (1.0, 3.0, 4.0, 5.0)
JENSEN_Q_S = (-1.0, 3.0, 6.0, 7.0, 12.0)

# fault (a): the crossing scan misses narrow arcs.  P = y - a ((1+x^3)/2)^N
# has |y| > 1 only on arcs of half-width ~6.7e-4, narrower than a scan cell.
NARROW_ARC_A = 1.0001
NARROW_ARC_N = 200

# torus-oracle: (name, expression, tol)
TORUS_CASES = (
    ("1+x+y", "1+x+y", 1e-6),
    ("A", A_POLY, 1e-5),
    ("P_3", FAMILY_TEMPLATES["P"].replace("k", "3"), 1e-5),
    ("R_3", FAMILY_TEMPLATES["R"].replace("k", "3"), 1e-5),
)

# paper-verify: the CLI invocations
VERIFY_SUITES = ("theorem1", "theorem2", "landen", "derivatives", "lemmas",
                 "conjecture_R4", "conjecture_Qminus1", "asymptotics")
LVALUE_TARGETS = ("curve:224", "curve:210", "curve:15", "chi:-3", "chi:-7",
                  "chi:-15")
CURVES = {  # Weierstrass coefficients (a1, a2, a3, a4, a6) and conductor
    "224": ((0, 1, 0, -8, -8), 224),
    "210": ((1, 1, 0, -3, -3), 210),
    "15": ((1, 1, 1, 0, 0), 15),
}


def generate_candidates(n_per_degree=POOL_PER_DEGREE, seed=POOL_SEED):
    """Random integer polynomials, ``n_per_degree`` for each fiber degree d.

    Each has x-degree at most 2 and y-degree exactly d; every monomial
    x^i y^j (i <= 2, j <= d) is present with probability 0.6 and carries a
    coefficient in {-3..3} \\ {0}.  The leading and constant y-coefficients
    are nonzero and the polynomial involves x."""
    rng = random.Random(seed)
    out = {d: [] for d in FIBER_DEGREES}
    for d in FIBER_DEGREES:
        while len(out[d]) < n_per_degree:
            terms = {}
            for i in range(3):
                for j in range(d + 1):
                    if rng.random() < 0.6:
                        terms[(i, j)] = rng.choice((-3, -2, -1, 1, 2, 3))
            if not any(j == d for _, j in terms) or not any(j == 0 for _, j in terms):
                continue
            if not any(i > 0 for i, _ in terms):
                continue
            expr = poly_str(terms)
            if expr not in out[d]:
                out[d].append(expr)
    return out


def poly_str(terms):
    parts = []
    for (i, j), c in sorted(terms.items()):
        mono = "*".join(v if e == 1 else f"{v}^{e}"
                        for v, e in (("x", i), ("y", j)) if e)
        parts.append(f"{c}*{mono}" if mono else str(c))
    return "+".join(parts).replace("+-", "-")


def left_out(k):
    """Grid points the sweep leaves out, each for a fault named in README.md:
    within 0.01 of k = 3 (but not 3 itself) p_derivative and q_derivative
    lose accuracy, and q_derivative raises ValueError at 3 + 1e-6; within
    1e-5 of k = 2 sqrt 2, r_derivative is off by up to 2.5e-9."""
    return 0 < abs(k - 3.0) < 0.01 or abs(k - TWO_SQRT2) < 1e-5


EXACT_BOUNDARY_KS = tuple(b for b in BOUNDARIES if not left_out(b))


def family_grid():
    """The family-sweep pool: a dense grid in k that crosses every regime
    boundary (2 sqrt 2, 3, 16/(3 sqrt 3), 4), points 1e-3 and 1e-6 from each
    boundary, and a geometric tail up to k = 1e4; without the boundaries
    themselves and without the points ``left_out`` names."""
    ks = [round(0.05 * i, 10) for i in range(1, 121)]              # 0.05 .. 6
    ks += [round(6.0 * 1.07 ** i, 10) for i in range(1, 106)]        # 6 .. ~7e3
    ks += [1e4]
    for b in BOUNDARIES:
        ks += [b - 1e-3, b - 1e-6, b + 1e-6, b + 1e-3]
    return sorted(k for k in set(ks) - set(BOUNDARIES) if not left_out(k))


def sweep_ks(seed):
    """k values of one family-sweep round: the whole pool and the exact
    boundaries, in an order set by ``seed``."""
    ks = family_grid() + list(EXACT_BOUNDARY_KS)
    random.Random(seed).shuffle(ks)
    return ks
