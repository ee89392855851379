"""Every stored reference of the benchmark that a library result can be
checked against with its own ``err_est``.

``bench/refs.json`` holds 25-digit mpmath references (``bench/make_refs.py``
computes them without ``mahler``).  Each value below must lie within its
``err_est`` of its reference, up to 4 eps |m| of rounding:

* the generated polynomials and the paper cases by ``mahler_jensen`` at
  tol 1e-10 and 1e-13, the Q cases also by ``q_measure``;
* p(k) and r(k) by ``p_measure`` and ``r_measure`` at every point of the
  family grid;
* the torus cases by ``mahler_torus2`` at the benchmark's tols;
* Lambda(2) and L'(E, 0) of each curve by ``lambda_with_error``.

The derivatives, the period and the Dirichlet L-values carry no
``err_est`` and are not checked here.  The known misses are listed with
the ROADMAP item that owns each; a case that is mended must leave the list,
and a new miss fails.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import mahler
from mahler import eclf, families

BENCH = Path(__file__).resolve().parents[1] / "bench"
REFS = json.loads((BENCH / "refs.json").read_text())


def _corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = _corpus()

# case -> the ROADMAP item that owns the miss
KNOWN_MISSES = {
    "jensen[1e-10] narrow-arc": "1",
    "jensen[1e-13] narrow-arc": "1",
}


def _narrow_arc():
    """y - a ((1+x^3)/2)^N from exact binomial coefficients, as the
    benchmark builds it."""
    terms = {(0, 1): 1.0}
    for j in range(corpus.NARROW_ARC_N + 1):
        terms[(3 * j, 0)] = (-corpus.NARROW_ARC_A * math.comb(corpus.NARROW_ARC_N, j)
                             / 2.0 ** corpus.NARROW_ARC_N)
    return mahler.LaurentPoly2(terms)


def _cases():
    """(name, reference, call) of every checked value; call() returns
    (value, err_est)."""
    paper = REFS["jensen_paper"]
    polys = {}
    for family, ks in (("P", corpus.JENSEN_P_K), ("R", corpus.JENSEN_R_K),
                       ("Q", corpus.JENSEN_Q_S)):
        for k in ks:
            polys[f"{family}_{k:g}"] = mahler.parse_poly(corpus.FAMILY_TEMPLATES[family], k)
    polys["1+x+y"] = mahler.parse_poly("1+x+y")
    polys["A"] = mahler.parse_poly(corpus.A_POLY)
    polys["narrow-arc"] = _narrow_arc()
    refs = {name: paper[name] for name in polys}
    for items in REFS["generated"].values():
        for item in items:
            polys[item["expr"]] = mahler.parse_poly(item["expr"])
            refs[item["expr"]] = item["m"]

    def result(call):
        def run():
            r = call()
            return r.value, r.err_est
        return run

    cases = []
    for tol in (1e-10, 1e-13):
        for name, P in polys.items():
            cases.append((f"jensen[{tol:g}] {name}", refs[name],
                          result(lambda P=P, tol=tol: mahler.mahler_jensen(P, tol=tol))))
        for s in corpus.JENSEN_Q_S:
            cases.append((f"q_measure[{tol:g}] Q_{s:g}", paper[f"Q_{s:g}"],
                          result(lambda s=s, tol=tol: families.q_measure(s, tol=tol))))
    for row in REFS["family"]:
        k = float(row["k"])
        cases.append((f"p_measure k={k!r}", row["p"], result(lambda k=k: families.p_measure(k))))
        cases.append((f"r_measure k={k!r}", row["r"], result(lambda k=k: families.r_measure(k))))
    for name, expr, tol in corpus.TORUS_CASES:
        cases.append((f"torus {name}", REFS["torus"][name],
                      result(lambda e=expr, t=tol: mahler.mahler_torus2(mahler.parse_poly(e),
                                                                        tol=t))))
    for label in corpus.CURVES:
        ref = REFS["lvalue"][f"curve:{label}"]
        data = eclf.resolve_bad_data(getattr(eclf, f"CURVE_{label}"))
        value, err = eclf.lambda_with_error(data, 2.0)
        cases.append((f"Lambda(2) curve:{label}", ref["Lambda2"], lambda v=value, e=err: (v, e)))
        for key in ("dL0", "minus3_m_R4"):
            if key in ref:
                cases.append((f"{key} curve:{label}", ref[key],
                              lambda v=data.root_number * value, e=err: (v, e)))
    return cases


def test_every_stored_reference_within_err_est():
    misses = {}
    for name, ref, run in _cases():
        value, err_est = run()
        error = abs(value - float(ref))
        if not error <= err_est + 4.0 * sys.float_info.epsilon * abs(value):
            misses[name] = (error, err_est)
    assert set(misses) == set(KNOWN_MISSES), misses
