"""Spans and counts around the public entry points of ``mahler``.

The tracer rebinds module attributes at run time: every name in a
``mahler`` module that refers to a traced function is pointed at a wrapper,
so calls through ``from .x import f`` bindings are seen as well as calls
through the defining module.  Nothing under ``src/`` changes.  Calls that
never pass through a module attribute cannot be seen from here; README.md
lists them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import numpy as np


def _evals(_args, result):
    return result.evals


def _grid_points(args, _result):
    return int(np.broadcast(args[1], args[2]).size)


# (module, attribute, span name, extra) -- a span records start, end, parent
# and the extra count; the extra function reads it from (args, result).
SPANS = (
    ("mahler.cli", "main", "cli.main", None),
    ("mahler.measure", "mahler_jensen", "measure.jensen", None),
    ("mahler.measure", "mahler_torus2", "measure.torus", None),
    ("mahler.rootfind", "poly_roots", "rootfind.poly_roots", None),
    ("mahler.rootfind", "aberth_roots", "rootfind.aberth", None),
    ("mahler.quad", "integrate", "quad.integrate", _evals),
    ("mahler.quad", "integrate_torus2", "quad.torus", _evals),
    ("mahler.lpoly", "parse_poly", "lpoly.parse", None),
    ("mahler.lpoly", "monomial_transform", "lpoly.parse", None),
    ("mahler.families", "p_measure", "families.p_measure", None),
    ("mahler.families", "r_measure", "families.r_measure", None),
    ("mahler.families", "q_measure", "families.q_measure", None),
    ("mahler.families", "p_derivative", "families.derivative", None),
    ("mahler.families", "q_derivative", "families.derivative", None),
    ("mahler.families", "r_derivative", "families.derivative", None),
    ("mahler.elliptic", "period_integral", "elliptic.period", None),
    ("mahler.elliptic", "landen_check", "elliptic.landen", None),
    ("mahler.eclf", "resolve_bad_data", "eclf.resolve", None),
    ("mahler.eclf", "ap_count", "eclf.ap_count", None),
    ("mahler.eclf", "lambda_with_error", "eclf.lambda", None),
    ("mahler.specialfn", "dirichlet_l", "specialfn.lvalue", None),
    ("mahler.specialfn", "l_deriv_minus1", "specialfn.lvalue", None),
    ("mahler.specialfn", "bloch_wigner", "specialfn.dilog", None),
)

# Hot leaf functions get a call counter only, no span.
COUNTS = (
    ("mahler.elliptic", "carlson_rf", "elliptic.carlson"),
    ("mahler.eclf", "upper_gamma", "eclf.upper_gamma"),
)

# LaurentPoly2.eval_grid is a method: rebound on the class.
METHOD_SPANS = (
    ("mahler.lpoly", "LaurentPoly2", "eval_grid", "lpoly.eval_grid", _grid_points),
)


class Tracer:
    """Records spans (name, start, end, parent, extra) and call counts in
    memory while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                n = extra(args, result) if extra is not None and result is not None else 0
                spans[idx] = (name, t0, t1, parent, n)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def _rebind_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mahler" or mod_name.startswith("mahler.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        for mod_name, attr, name, extra in SPANS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind_everywhere(original, self._span(name, original, extra))
        for mod_name, attr, name in COUNTS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind_everywhere(original, self._counter(name, original))
        for mod_name, cls_name, attr, name, extra in METHOD_SPANS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = vars(cls)[attr]
            setattr(cls, attr, self._span(name, original, extra))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output -------------------------------------------------------------------

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], t0, t1, p, x] for n, t0, t1, p, x in self.spans],
                       "counts": dict(self.counts)}, fh)


def layer_metrics(tracer, n_ops):
    """Per-layer metrics from the recorded spans and counts.  Times and
    counts are per workload operation (``n_ops``); the ``*_per_call``
    ratios are per call of the layer named."""
    spans = tracer.spans
    names = [s[0] for s in spans]

    def has_ancestor(i, name):
        p = spans[i][3]
        while p >= 0:
            if names[p] == name:
                return True
            p = spans[p][3]
        return False

    def dur(i):
        return spans[i][2] - spans[i][1]

    by_name = {}
    for i, n in enumerate(names):
        by_name.setdefault(n, []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def outer(name):
        """Spans of ``name`` not nested in another span of the same name."""
        return [i for i in ids(name) if not has_ancestor(i, name)]

    def total(name):
        return sum(dur(i) for i in outer(name))

    child_time = Counter()     # (parent index, child name) -> seconds
    child_dur = Counter()      # parent index -> seconds in direct children
    for i, (n, t0, t1, p, _) in enumerate(spans):
        if p >= 0:
            child_time[(p, n)] += t1 - t0
            child_dur[p] += t1 - t0

    jensen = ids("measure.jensen")
    jensen_set = set(jensen)
    pieces = [i for i in ids("quad.integrate") if spans[i][3] in jensen_set]
    roots = ids("rootfind.poly_roots")
    in_jensen = [i for i in roots if has_ancestor(i, "measure.jensen")]
    fiber = [i for i in in_jensen if has_ancestor(i, "quad.integrate")]
    integ = outer("quad.integrate")
    fam_integ = [i for i in integ
                 if any(has_ancestor(i, f) for f in
                        ("families.p_measure", "families.r_measure", "families.q_measure"))]
    evals = sum(spans[i][4] for i in integ)

    ops = max(n_ops, 1)
    m = {
        "measure.jensen_s": total("measure.jensen") / ops,
        "measure.jensen_self_s": sum(dur(i) - child_time[(i, "quad.integrate")]
                                     for i in jensen) / ops,
        "measure.scan_root_solves": (len(in_jensen) - len(fiber)) / ops,
        "measure.fiber_root_solves": len(fiber) / ops,
        "measure.pieces_per_call": len(pieces) / max(len(jensen), 1),
        "measure.evals_per_call": sum(spans[i][4] for i in pieces) / max(len(jensen), 1),
        "rootfind.calls": len(roots) / ops,
        "rootfind.s": total("rootfind.poly_roots") / ops,
        "rootfind.aberth_calls": len(ids("rootfind.aberth")) / ops,
        "rootfind.aberth_s": total("rootfind.aberth") / ops,
        "quad.integrate_calls": len(integ) / ops,
        "quad.integrate_s": total("quad.integrate") / ops,
        "quad.evals": evals / ops,
        "quad.evals_per_call": evals / max(len(integ), 1),
        "families.p_measure_s": total("families.p_measure") / ops,
        "families.r_measure_s": total("families.r_measure") / ops,
        "families.q_measure_s": total("families.q_measure") / ops,
        "families.derivative_s": total("families.derivative") / ops,
        "families.evals": sum(spans[i][4] for i in fam_integ) / ops,
        "elliptic.period_calls": len(ids("elliptic.period")) / ops,
        "elliptic.period_s": total("elliptic.period") / ops,
        "elliptic.carlson_calls": tracer.counts["elliptic.carlson"] / ops,
        "elliptic.landen_s": total("elliptic.landen") / ops,
        "eclf.resolve_s": total("eclf.resolve") / ops,
        "eclf.ap_count_calls": len(ids("eclf.ap_count")) / ops,
        "eclf.ap_count_s": total("eclf.ap_count") / ops,
        "eclf.upper_gamma_calls": tracer.counts["eclf.upper_gamma"] / ops,
        "eclf.lambda_s": total("eclf.lambda") / ops,
        "specialfn.lvalue_s": total("specialfn.lvalue") / ops,
        "specialfn.dilog_s": total("specialfn.dilog") / ops,
        "cli.main_s": total("cli.main") / ops,
        "cli.self_s": sum(dur(i) - child_dur[i] for i in ids("cli.main")) / ops,
        "lpoly.eval_grid_s": total("lpoly.eval_grid") / ops,
        "lpoly.eval_grid_points": sum(spans[i][4] for i in ids("lpoly.eval_grid")) / ops,
        "quad.torus_s": total("quad.torus") / ops,
        "quad.torus_points": sum(spans[i][4] for i in ids("quad.torus")) / ops,
        "measure.torus_s": total("measure.torus") / ops,
        "lpoly.parse_s": total("lpoly.parse") / ops,
    }
    return m


# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "measure.jensen_s": "s/op", "measure.jensen_self_s": "s/op",
    "measure.scan_root_solves": "1/op", "measure.fiber_root_solves": "1/op",
    "measure.pieces_per_call": "1/call", "measure.evals_per_call": "1/call",
    "rootfind.calls": "1/op", "rootfind.s": "s/op",
    "rootfind.aberth_calls": "1/op", "rootfind.aberth_s": "s/op",
    "quad.integrate_calls": "1/op", "quad.integrate_s": "s/op",
    "quad.evals": "1/op", "quad.evals_per_call": "1/call",
    "families.p_measure_s": "s/op", "families.r_measure_s": "s/op",
    "families.q_measure_s": "s/op", "families.derivative_s": "s/op",
    "families.evals": "1/op",
    "elliptic.period_calls": "1/op", "elliptic.period_s": "s/op",
    "elliptic.carlson_calls": "1/op", "elliptic.landen_s": "s/op",
    "eclf.resolve_s": "s/op", "eclf.ap_count_calls": "1/op",
    "eclf.ap_count_s": "s/op", "eclf.upper_gamma_calls": "1/op",
    "eclf.lambda_s": "s/op",
    "specialfn.lvalue_s": "s/op", "specialfn.dilog_s": "s/op",
    "cli.main_s": "s/op", "cli.self_s": "s/op",
    "lpoly.eval_grid_s": "s/op", "lpoly.eval_grid_points": "1/op",
    "quad.torus_s": "s/op", "quad.torus_points": "1/op",
    "measure.torus_s": "s/op",
    "lpoly.parse_s": "s/op",
}
