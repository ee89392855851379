"""The four workloads: their operations and the check of every output.

An operation is a callable returning its output; its check compares that
output with a stored reference from ``refs.json`` (computed by
``make_refs.py`` with mpmath and sympy, never by ``mahler``) or with a
property the method must have.  ``build`` returns the operations of one
round; ``first_call`` makes the call the set-up probe times.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import corpus

REFS_PATH = Path(__file__).with_name("refs.json")

JENSEN_TOL = 1e-10          # mahler_jensen calls
Q_TOL = 1e-11               # q_measure calls
FAMILY_TOL = 1e-12          # p_measure / r_measure default tolerance
DERIVATIVE_TOL = 1e-12      # period integrals behind the derivatives
LANDEN_CHAIN_TOL = 1e-10    # declared bound on the chain deviation
LVALUE_TOL = 1e-10          # the CLI's default --tol

# Workloads whose latencies are not scaled by the speed kernel: the torus
# oracle spends its time in numpy array passes and page faults, which the
# interpreted kernel does not follow (README.md gives the measurements).
UNSCALED = ("torus-oracle",)


@dataclass
class Op:
    name: str
    run: object                 # () -> output
    check: object               # output -> (passed, abs error or None)
    known_fault: str = ""       # a named fault that makes the check fail


def load_refs(path=REFS_PATH):
    with open(path) as fh:
        return json.load(fh)


def _close(value, ref, tol):
    err = abs(value - float(ref))
    return err <= tol, err


def _value_check(ref, tol):
    return lambda value: _close(value, ref, tol)


# ---------------------------------------------------------------------------
# jensen-corpus
# ---------------------------------------------------------------------------

def _narrow_arc_poly(mahler):
    """y - a ((1+x^3)/2)^N, built from exact binomial coefficients."""
    terms = {(0, 1): 1.0}
    for j in range(corpus.NARROW_ARC_N + 1):
        terms[(3 * j, 0)] = (-corpus.NARROW_ARC_A * math.comb(corpus.NARROW_ARC_N, j)
                             / 2.0 ** corpus.NARROW_ARC_N)
    return mahler.LaurentPoly2(terms)


def _jensen_ops(mahler, refs, seed):
    def jensen_of(expr, k=None):
        return lambda: mahler.mahler_jensen(mahler.parse_poly(expr, k), tol=JENSEN_TOL).value

    paper = refs["jensen_paper"]
    ops = []
    for k in corpus.JENSEN_P_K:
        ops.append(Op(f"P_{k:g}", jensen_of(corpus.FAMILY_TEMPLATES["P"], k),
                      _value_check(paper[f"P_{k:g}"], JENSEN_TOL)))
    for k in corpus.JENSEN_R_K:
        ops.append(Op(f"R_{k:g}", jensen_of(corpus.FAMILY_TEMPLATES["R"], k),
                      _value_check(paper[f"R_{k:g}"], JENSEN_TOL)))
    for s in corpus.JENSEN_Q_S:
        ops.append(Op(f"Q_{s:g}", lambda s=s: mahler.q_measure(s, tol=Q_TOL).value,
                      _value_check(paper[f"Q_{s:g}"], Q_TOL)))
    ops.append(Op("1+x+y", jensen_of("1+x+y"), _value_check(paper["1+x+y"], JENSEN_TOL)))
    ops.append(Op("A", jensen_of(corpus.A_POLY), _value_check(paper["A"], JENSEN_TOL)))
    for d in corpus.FIBER_DEGREES:
        for item in refs["generated"][str(d)][:corpus.ROUND_PER_DEGREE]:
            ops.append(Op(f"gen[{item['expr']}]", jensen_of(item["expr"]),
                          _value_check(item["m"], JENSEN_TOL)))
    narrow = _narrow_arc_poly(mahler)
    ops.append(Op("narrow-arc", lambda: mahler.mahler_jensen(narrow, tol=JENSEN_TOL).value,
                  _value_check(paper["narrow-arc"], JENSEN_TOL), known_fault="a"))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# family-sweep
# ---------------------------------------------------------------------------

def _family_op(mahler, k):
    fam = mahler.families

    def run():
        out = {"p": fam.p_measure(k).value, "r": fam.r_measure(k).value}
        for key, fn in (("dp", fam.p_derivative), ("dq", fam.q_derivative),
                        ("dr", fam.r_derivative)):
            try:
                out[key] = fn(k)
            except mahler.RegimeBoundaryError:
                out[key] = "boundary"
        if k != 3.0:      # landen_check documents k = 3 as outside its domain
            res = mahler.landen_check(k)
            out["landen"] = (res.lhs, res.rhs, res.diff)
        return out

    return run


def _family_check(ref, k):
    boundary = {"dp": k == 3.0, "dq": k == 3.0, "dr": k == corpus.R_THRESHOLD}

    def check(out):
        worst = 0.0
        ok = True
        for key, tol in (("p", FAMILY_TOL), ("r", FAMILY_TOL), ("dp", DERIVATIVE_TOL),
                         ("dq", DERIVATIVE_TOL), ("dr", DERIVATIVE_TOL)):
            if boundary.get(key):
                ok &= out[key] == "boundary"
                continue
            if out[key] == "boundary":
                return False, None
            passed, err = _close(out[key], ref[key], tol)
            ok &= passed
            worst = max(worst, err)
        if "landen" in out:
            lhs, rhs, diff = out["landen"]
            ok &= diff < LANDEN_CHAIN_TOL
            for v in (lhs, rhs):
                passed, err = _close(v, ref["period"], DERIVATIVE_TOL)
                ok &= passed
                worst = max(worst, err)
        return ok, worst

    return check


def _family_ops(mahler, refs, seed):
    table = {float(row["k"]): row for row in refs["family"]}
    return [Op(f"k={k!r}", _family_op(mahler, k), _family_check(table[k], k))
            for k in corpus.sweep_ks(seed)]


# ---------------------------------------------------------------------------
# paper-verify
# ---------------------------------------------------------------------------

def run_cli(mahler, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = mahler.cli.main(argv + ["--format", "json"])
    return rc, json.loads(buf.getvalue())


def _verify_check(out):
    rc, report = out
    return rc == 0 and bool(report["checks"]) and all(c["passed"] for c in report["checks"]), None


def _lvalue_check(ref):
    def check(out):
        rc, report = out
        if rc != 0:
            return False, None
        outputs = {o["name"]: o["value"] for o in report["outputs"]}
        pairs = []
        if "chi" in ref:
            d = ref["chi"]
            pairs = [(outputs[f"L(chi_{d}, 2)"], ref["L2"]),
                     (outputs[f"L'(chi_{d}, -1)"], ref["dL_minus1"])]
        else:
            if outputs["root_number"] != ref["root_number"]:
                return False, None
            pairs = [(outputs["L'(E, 0)"], ref["dL0"]),
                     (outputs["Lambda(2)"], ref["Lambda2"])]
            if "minus3_m_R4" in ref:       # L'(E_224, 0) = -3 m(R_4)
                pairs.append((outputs["L'(E, 0)"], ref["minus3_m_R4"]))
        errs = [_close(v, r, LVALUE_TOL) for v, r in pairs]
        return all(p for p, _ in errs), max(e for _, e in errs)

    return check


def _verify_ops(mahler, refs, seed):
    ops = [Op(f"verify {s}", lambda s=s: run_cli(mahler, ["verify", s]), _verify_check)
           for s in corpus.VERIFY_SUITES]
    ops += [Op(f"lvalue {t}", lambda t=t: run_cli(mahler, ["lvalue", t]),
               _lvalue_check(refs["lvalue"][t]))
            for t in corpus.LVALUE_TARGETS]
    random.Random(seed).shuffle(ops)
    return ops


def curve_properties(mahler, refs):
    """Checks made once per run, outside the timed loop: for each curve the
    functional-equation residual of the resolved local data is below the
    resolution threshold, every good a_p meets the Hasse bound, and the
    a_p agree with the stored naive point counts."""
    ok = True
    for label in corpus.CURVES:
        curve = getattr(mahler.eclf, f"CURVE_{label}")
        data = mahler.eclf.resolve_bad_data(curve)
        ok &= data.residual < 1e-8
        ok &= all(abs(ap) <= 2.0 * math.sqrt(p) for p, ap in data.ap.items())
        naive = refs["curves"][label]["ap"]
        ok &= all(data.ap[int(p)] == ap for p, ap in naive.items() if int(p) in data.ap)
    return ok


# ---------------------------------------------------------------------------
# torus-oracle
# ---------------------------------------------------------------------------

def _torus_ops(mahler, refs, seed):
    ops = []
    for name, expr, tol in corpus.TORUS_CASES:
        ops.append(Op(name, lambda e=expr, t=tol:
                      mahler.mahler_torus2(mahler.parse_poly(e), tol=t).value,
                      _value_check(refs["torus"][name], tol)))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------

WORKLOADS = ("jensen-corpus", "family-sweep", "paper-verify", "torus-oracle")


def first_call(mahler, workload):
    """The call the set-up probe times after importing mahler."""
    if workload == "jensen-corpus":
        return mahler.mahler_jensen(mahler.parse_poly("1+x+y"), tol=JENSEN_TOL)
    if workload == "family-sweep":
        return _family_op(mahler, 2.5)()
    if workload == "paper-verify":
        return run_cli(mahler, ["verify", "landen"])
    if workload == "torus-oracle":
        return mahler.mahler_torus2(mahler.parse_poly("1+x+y"), tol=1e-6)
    raise ValueError(f"unknown workload {workload!r}")


def build(mahler, workload, seed, refs):
    """Operations of one round of ``workload``, in the order ``seed`` sets."""
    ops_of = {"jensen-corpus": _jensen_ops, "family-sweep": _family_ops,
              "paper-verify": _verify_ops, "torus-oracle": _torus_ops}
    if workload not in ops_of:
        raise ValueError(f"unknown workload {workload!r}")
    return ops_of[workload](mahler, refs, seed)
