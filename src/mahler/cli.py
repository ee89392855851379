"""Command-line front end.

Subcommands: measure | family | derivative | verify | sweep | lvalue.
Common flags: --tol (a finite number > 0), --out, --format {text,json,csv};
sweep also takes --jobs N (worker processes, N >= 1).
Exit codes: 0 all checks pass, 1 a declared check failed, 2 usage error,
3 numerical failure.  All numeric output is deterministic for fixed inputs;
sweep rows are computed independently (optionally in parallel) and always
emitted in parameter order with 15 significant digits.  The argument parser
is built once per process and shared by every ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import eclf, families, specialfn
from .errors import ParseError, QuadratureError, RegimeBoundaryError
from .lpoly import parse_poly
from .measure import mahler_jensen, mahler_torus2
from .elliptic import landen_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


@dataclass
class RunReport:
    """Echo of one CLI invocation: inputs, outputs with error estimates, and
    pass/fail flags for every declared check."""

    command: str
    inputs: dict
    outputs: list = field(default_factory=list)   # {name, value, err_est}
    checks: list = field(default_factory=list)    # {name, passed, detail}
    wall_time_s: float = 0.0

    def add_output(self, name, value, err_est=None):
        self.outputs.append({"name": name, "value": value, "err_est": err_est})

    def add_check(self, name, passed, detail=""):
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    def all_passed(self):
        return all(c["passed"] for c in self.checks)

    def as_dict(self):
        return {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "checks": self.checks,
            "wall_time_s": self.wall_time_s,
        }

    def to_text(self):
        lines = [f"command: {self.command}"]
        for key in sorted(self.inputs):
            lines.append(f"  input {key} = {self.inputs[key]}")
        for out in self.outputs:
            err = "" if out["err_est"] is None else f"  (err_est {out['err_est']:.3e})"
            lines.append(f"  {out['name']} = {_fmt(out['value'])}{err}")
        for chk in self.checks:
            status = "PASS" if chk["passed"] else "FAIL"
            detail = f"  {chk['detail']}" if chk["detail"] else ""
            lines.append(f"  [{status}] {chk['name']}{detail}")
        lines.append(f"  wall time: {self.wall_time_s:.3f} s")
        return "\n".join(lines)

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _emit(report, args):
    if args.format == "json":
        text = report.to_json()
    elif args.format == "csv":
        text = getattr(report, "csv_text", None)
        if text is None:
            raise argparse.ArgumentTypeError("csv output only applies to sweep")
        text = text.rstrip("\n")
    else:
        text = report.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_measure(args):
    report = RunReport("measure", {"poly": args.poly, "k": args.k,
                                   "tol": args.tol})
    P = parse_poly(args.poly, args.k)
    if P.has_symbolic_k():
        raise ParseError("expression contains k; pass --k", 0)
    res = mahler_jensen(P, tol=args.tol)
    report.add_output("mahler_jensen", res.value, res.err_est)
    if args.torus_check:
        res2 = mahler_torus2(P, tol=max(args.tol, 1e-5))
        report.add_output("mahler_torus2", res2.value, res2.err_est)
        report.add_check(
            "jensen_vs_torus",
            abs(res.value - res2.value) <= res.err_est + res2.err_est + 1e-9,
            f"difference {abs(res.value - res2.value):.3e}")
    return report


def _measure_at(family, k, tol):
    """Family measure at the family parameter k; for Q the parameter is the
    offset one (the polynomial is Q_{k+2}), matching the derivative regimes."""
    if family == "P":
        return families.p_measure(k, tol=tol)
    if family == "Q":
        return families.q_measure(k + 2.0, tol=tol)
    return families.r_measure(k, tol=tol)


def _cmd_family(args):
    report = RunReport("family", {"family": args.family, "k": args.k,
                                  "tol": args.tol})
    res = _measure_at(args.family, args.k, args.tol)
    name = (f"m(Q_{_fmt(args.k + 2)})" if args.family == "Q"
            else f"m({args.family}_{_fmt(args.k)})")
    report.add_output(name, res.value, res.err_est)
    if args.k > 0:
        report.inputs["regime"] = families.regime_tag(args.family, args.k)
    return report


def _cmd_derivative(args):
    report = RunReport("derivative", {"family": args.family, "k": args.k})
    fn = {"P": families.p_derivative, "Q": families.q_derivative,
          "R": families.r_derivative}[args.family]
    val = fn(args.k)
    report.add_output(f"d m({args.family})/dk at {_fmt(args.k)}", val)
    return report


def _parse_k_list(text, default):
    if not text:
        return list(default)
    return [float(v) for v in text.split(",")]


def _fd_derivative(measure, k, h=1e-4):
    return (measure(k + h).value - measure(k - h).value) / (2.0 * h)


def _suite_theorem1(report, k_list, tol):
    for k in k_list:
        p = families.p_measure(k, tol=tol)
        q = families.q_measure(k + 2.0, tol=tol)
        diff = abs(p.value - q.value)
        if k >= 4.0:
            report.add_check(f"m(P_{_fmt(k)})=m(Q_{_fmt(k + 2)})", diff < 1e-7,
                             f"difference {diff:.3e}")
        else:
            report.add_check(
                f"m(P_{_fmt(k)})!=m(Q_{_fmt(k + 2)}) (expected noncoincidence)",
                diff > 1e-4, f"difference {diff:.3e}")


def _suite_theorem2(report, k_list, tol):
    for k in k_list:
        p = families.p_measure(k, tol=tol)
        r = families.r_measure(k, tol=tol)
        diff = abs(p.value - r.value)
        if k >= families.R_THRESHOLD:
            report.add_check(f"m(P_{_fmt(k)})=m(R_{_fmt(k)})", diff < 1e-7,
                             f"difference {diff:.3e}")
        else:
            report.add_check(
                f"m(P_{_fmt(k)})!=m(R_{_fmt(k)}) (expected noncoincidence)",
                diff > 1e-4, f"difference {diff:.3e}")


def _suite_landen(report, k_list, _tol):
    for k in k_list:
        res = landen_check(k)
        report.add_check(f"landen identity at k={_fmt(k)}", res.diff < 1e-10,
                         f"max chain deviation {res.diff:.3e}")


def _suite_derivatives(report, _k_list, tol):
    batteries = (
        ("P", families.p_derivative, families.p_measure, (2.0, 5.0)),
        ("Q", families.q_derivative,
         lambda k, tol=tol: families.q_measure(k + 2.0, tol=tol), (2.0, 3.5, 10.0)),
        ("R", families.r_derivative, families.r_measure, (1.0, 3.0, 5.0)),
    )
    for fam, deriv, meas, ks in batteries:
        for k in ks:
            want = deriv(k)
            got = _fd_derivative(lambda v: meas(v, tol=1e-12), k)
            report.add_check(f"d m({fam})/dk at k={_fmt(k)} vs finite difference",
                             abs(want - got) < 1e-6,
                             f"difference {abs(want - got):.3e}")


def _suite_lemmas(report, _k_list, _tol):
    import numpy as np
    thetas = np.linspace(1e-6, math.pi - 1e-6, 1000)
    thetas = thetas[np.abs(np.cos(thetas)) > 1e-6]

    for k in (3.0, 5.0):
        worst = max(max(abs(y1.imag), abs(y2.imag))
                    for t in thetas
                    for y1, y2 in [families.branch_roots("R", k, float(t))])
        report.add_check(f"R-roots real for k={_fmt(k)}", worst < 1e-10,
                         f"max |Im| {worst:.3e}")
    for k in (families.TWO_SQRT2, 5.0):
        low = min(abs(families.branch_roots("R", k, float(t))[0]) for t in thetas)
        report.add_check(f"|y1|>=1 for k={_fmt(k)}", low >= 1.0 - 1e-10,
                         f"min |y1| {low:.15f}")
    for k in (families.R_THRESHOLD, 5.0):
        high = max(abs(families.branch_roots("R", k, float(t))[1]) for t in thetas)
        report.add_check(f"|y2|<=1 for k={_fmt(k)}", high <= 1.0 + 1e-10,
                         f"max |y2| {high:.15f}")
    for k in (1.0, 2.0, 3.0):
        roots = families.critical_roots(families.FamilyPoint.from_k("R", k))
        t1, t2 = roots.t1, roots.t2
        y1, y2 = families.branch_roots("R", k, math.acos(t1))
        report.add_check(f"|y2|=1 at t1 for k={_fmt(k)}",
                         abs(abs(y2) - 1.0) < 1e-10,
                         f"|y2| {abs(y2):.15f}")
        y1, y2 = families.branch_roots("R", k, math.acos(t2))
        branch = y1 if k <= families.TWO_SQRT2 else y2
        name = "y1" if k <= families.TWO_SQRT2 else "y2"
        report.add_check(f"|{name}|=1 at t2 for k={_fmt(k)}",
                         abs(abs(branch) - 1.0) < 1e-10,
                         f"|{name}| {abs(branch):.15f}")


def _suite_conjecture_r4(report, _k_list, tol):
    m_r4 = families.r_measure(4.0, tol=tol)
    data = eclf.resolve_bad_data(eclf.CURVE_224)
    lp0 = eclf.l_deriv_at_0(data)
    diff = abs(m_r4.value + lp0 / 3.0)
    report.add_check("m(R_4) = -(1/3) L'(E_224, 0)", diff < 1e-5,
                     f"m(R_4) {m_r4.value:.12f}, L'(E,0) {lp0:.12f}, "
                     f"difference {diff:.3e}")


def _suite_conjecture_qm1(report, _k_list, tol):
    m_val = families.q_measure(-1.0, tol=tol)
    chi7 = specialfn.dirichlet_char(-7)
    chi15 = specialfn.dirichlet_char(-15)
    target = (7.0 * math.sqrt(7.0) / (12.0 * math.pi) * specialfn.dirichlet_l(chi7, 2.0)
              + 5.0 * math.sqrt(15.0) / (8.0 * math.pi) * specialfn.dirichlet_l(chi15, 2.0))
    diff = abs(m_val.value - target)
    report.add_check("m(Q_-1) = L-value combination", diff < 1e-6,
                     f"m(Q_-1) {m_val.value:.12f}, target {target:.12f}, "
                     f"difference {diff:.3e}")


def _suite_asymptotics(report, _k_list, tol):
    for fam in ("P", "Q", "R"):
        gaps = [abs(_measure_at(fam, float(k), tol).value - math.log(k))
                for k in (100, 1000, 10000)]
        report.add_check(f"|m({fam}_k) - log k| decreasing along 1e2,1e3,1e4",
                         gaps[0] > gaps[1] > gaps[2],
                         "gaps " + ", ".join(f"{g:.3e}" for g in gaps))
        report.add_check(f"|m({fam}_1000) - log 1000| < 1e-3", gaps[1] < 1e-3,
                         f"gap {gaps[1]:.3e}")


_SUITES = {
    "theorem1": (_suite_theorem1, (4.0, 5.5, 10.0, 33.0)),
    "theorem2": (_suite_theorem2, (families.R_THRESHOLD + 0.01, 4.0, 10.0)),
    "landen": (_suite_landen, (1.0, 2.0, 10.0)),
    "derivatives": (_suite_derivatives, ()),
    "lemmas": (_suite_lemmas, ()),
    "conjecture_R4": (_suite_conjecture_r4, ()),
    "conjecture_Qminus1": (_suite_conjecture_qm1, ()),
    "asymptotics": (_suite_asymptotics, ()),
}


def _cmd_verify(args):
    if args.suite not in _SUITES:
        raise argparse.ArgumentTypeError(f"unknown suite {args.suite!r}")
    runner, default_ks = _SUITES[args.suite]
    k_list = _parse_k_list(args.k, default_ks)
    report = RunReport("verify", {"suite": args.suite, "k": k_list,
                                  "tol": args.tol})
    runner(report, k_list, args.tol)
    return report


def _sweep_row(job):
    family, k, tol = job
    res = _measure_at(family, k, tol)
    regime = families.regime_tag(family, k)
    deriv_fn = {"P": families.p_derivative, "Q": families.q_derivative,
                "R": families.r_derivative}[family]
    try:
        deriv = deriv_fn(k)
        note = ""
    except RegimeBoundaryError:
        deriv = math.nan
        note = "boundary k: derivative skipped"
    return (k, regime, res.value, res.err_est, deriv, note)


def _cmd_sweep(args):
    if args.steps < 1:
        raise argparse.ArgumentTypeError("steps must be >= 1")
    if args.jobs < 1:
        raise argparse.ArgumentTypeError("jobs must be >= 1")
    if args.k_from <= 0 or args.k_to <= 0:
        raise argparse.ArgumentTypeError("sweep range must be positive")
    report = RunReport("sweep", {
        "family": args.family, "from": args.k_from, "to": args.k_to,
        "steps": args.steps, "tol": args.tol, "jobs": args.jobs})
    if args.steps == 1:
        ks = [args.k_from]
    else:
        h = (args.k_to - args.k_from) / (args.steps - 1)
        ks = [args.k_from + i * h for i in range(args.steps)]
    jobs = [(args.family, k, args.tol) for k in ks]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    else:
        rows = [_sweep_row(j) for j in jobs]
    lines = ["k,regime,m,err_est,dmdk"]
    for k, regime, m, err, deriv, note in rows:
        lines.append(f"{k:.15g},{regime},{m:.15g},{err:.15g},{deriv:.15g}")
        if note:
            report.add_check(f"k={_fmt(k)}", True, note)
    csv_text = "\n".join(lines) + "\n"
    report.csv_text = csv_text
    report.add_output("rows", len(rows))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        report.add_output("file", args.out)
        args.out = None          # the report itself goes to stdout
    elif args.format != "csv":
        report.inputs["csv"] = csv_text
    return report


def _cmd_lvalue(args):
    report = RunReport("lvalue", {"target": args.target})
    kind, _, value = args.target.partition(":")
    if kind == "chi":
        d = int(value)
        chi = specialfn.dirichlet_char(d)
        l2 = specialfn.dirichlet_l(chi, 2.0)
        report.add_output(f"L(chi_{d}, 2)", l2)
        report.add_output(f"L'(chi_{d}, -1)", specialfn.l_deriv_minus1(chi))
    elif kind == "curve":
        curve = {"224": eclf.CURVE_224, "210": eclf.CURVE_210,
                 "15": eclf.CURVE_15}.get(value)
        if curve is None:
            raise argparse.ArgumentTypeError(
                "known curves: curve:224, curve:210, curve:15")
        data = eclf.resolve_bad_data(curve)
        report.add_output("root_number", data.root_number)
        report.add_output("bad_ap", json.dumps(data.bad_ap))
        lam2 = eclf.lambda_completed(data, 2.0)
        report.add_output("Lambda(2)", lam2)
        # L'(E, 0) = eps Lambda(2), as in eclf.l_deriv_at_0
        report.add_output("L'(E, 0)", data.root_number * lam2)
    else:
        raise argparse.ArgumentTypeError("target must be chi:<d> or curve:<N>")
    return report


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _positive_tol(text):
    """Type of ``--tol``: a finite float above 0, else a usage error."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (tol > 0 and math.isfinite(tol)):
        raise argparse.ArgumentTypeError(
            f"tol must be a positive finite number, got {text!r}")
    return tol


@functools.cache
def _build_parser():
    """The argument parser, built once per process: ``parse_args`` does not
    change it, so consecutive ``main`` calls share it."""
    parser = argparse.ArgumentParser(
        prog="mahler",
        description="Mahler measures of bivariate Laurent polynomials")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--tol", type=_positive_tol, default=1e-10)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")

    p = sub.add_parser("measure", help="Mahler measure of an expression")
    p.add_argument("poly")
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--torus-check", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("family", help="closed-form family measure")
    p.add_argument("family", choices=("P", "Q", "R"))
    p.add_argument("--k", type=float, required=True)
    common(p)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("derivative", help="d m(family)/dk")
    p.add_argument("family", choices=("P", "Q", "R"))
    p.add_argument("--k", type=float, required=True)
    common(p)
    p.set_defaults(fn=_cmd_derivative)

    p = sub.add_parser("verify", help="identity verification suites")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--k", default=None, help="comma-separated override")
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sweep", help="parameter sweep with CSV output")
    p.add_argument("family", choices=("P", "Q", "R"))
    p.add_argument("--from", dest="k_from", type=float, required=True)
    p.add_argument("--to", dest="k_to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the rows")
    common(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("lvalue", help="Dirichlet or elliptic-curve L-values")
    p.add_argument("target", help="chi:<discriminant> or curve:<conductor>")
    common(p)
    p.set_defaults(fn=_cmd_lvalue)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    start = time.perf_counter()
    try:
        report = args.fn(args)
    except (QuadratureError, RegimeBoundaryError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParseError, argparse.ArgumentTypeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report.wall_time_s = time.perf_counter() - start
    try:
        _emit(report, args)
    except (argparse.ArgumentTypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if report.all_passed() else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
