"""Command-line front end.

Subcommands: measure | family | derivative | verify | sweep | lvalue.
Each takes only the flags it reads: --out and --format {text,json} on all,
--tol (a finite number > 0) where a tolerance is used, and csv as a format
on sweep only; a verify suite takes --k or --tol only if it reads them.
Exit codes: 0 all checks pass, 1 a declared check failed, 2 usage error,
3 numerical failure.  All numeric output is deterministic for fixed inputs;
sweep rows are computed in parameter order, on a grid that ends at --to,
and emitted with 15 significant digits.  The argument parser is built once
per process and shared by every ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import eclf, families, specialfn
from .errors import ParseError, QuadratureError, RegimeBoundaryError
from .lpoly import parse_poly
from .measure import mahler_jensen, mahler_torus2
from .elliptic import landen_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_DEFAULT_TOL = 1e-10


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
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _emit(report, args):
    if args.format == "json":
        text = report.to_json()
    elif args.format == "csv":      # sweep only
        text = report.csv_text.rstrip("\n")
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


def _member(family, k):
    """The family member at the family parameter k, as P_k, Q_{k+2}, R_k."""
    return f"{family}_{_fmt(k + 2 if family == 'Q' else k)}"


def _derivative_at(family, k):
    """d m/dk of the family at the family parameter k."""
    return {"P": families.p_derivative, "Q": families.q_derivative,
            "R": families.r_derivative}[family](k)


def _cmd_family(args):
    report = RunReport("family", {"family": args.family, "k": args.k,
                                  "tol": args.tol})
    res = _measure_at(args.family, args.k, args.tol)
    report.add_output(f"m({_member(args.family, args.k)})", res.value, res.err_est)
    if args.k > 0:
        report.inputs["regime"] = families.regime_tag(args.family, args.k)
    return report


def _cmd_derivative(args):
    report = RunReport("derivative", {"family": args.family, "k": args.k})
    val = _derivative_at(args.family, args.k)
    report.add_output(f"d m({args.family})/dk at {_fmt(args.k)}", val)
    return report


def _parse_k_list(text, default):
    if not text:
        return list(default)
    return [_finite(v) for v in text.split(",")]


_FD_STEP = 1e-4     # step of the central difference the derivatives are checked by


def _fd_derivative(measure, k):
    return (measure(k + _FD_STEP).value - measure(k - _FD_STEP).value) / (2.0 * _FD_STEP)


def _coincidence_suite(family, threshold):
    """The suite checking m(P_k) = m(family member at k) for k >= threshold
    and their noncoincidence below it."""

    def suite(report, k_list, tol):
        for k in k_list:
            p = families.p_measure(k, tol=tol)
            diff = abs(p.value - _measure_at(family, k, tol).value)
            p_k, other = f"m(P_{_fmt(k)})", f"m({_member(family, k)})"
            if k >= threshold:
                report.add_check(f"{p_k}={other}", diff < 1e-7, f"difference {diff:.3e}")
            else:
                report.add_check(f"{p_k}!={other} (expected noncoincidence)",
                                 diff > 1e-4, f"difference {diff:.3e}")

    return suite


def _suite_landen(report, k_list, _tol):
    for k in k_list:
        res = landen_check(k)
        report.add_check(f"landen identity at k={_fmt(k)}", res.diff < 1e-10,
                         f"max relative chain deviation {res.diff:.3e}")


def _suite_derivatives(report, _k_list, _tol):
    batteries = (("P", (2.0, 5.0)), ("Q", (2.0, 3.5, 10.0)), ("R", (1.0, 3.0, 5.0)))
    for fam, ks in batteries:
        for k in ks:
            want = _derivative_at(fam, k)
            got = _fd_derivative(lambda v: _measure_at(fam, v, 1e-12), k)
            report.add_check(f"d m({fam})/dk at k={_fmt(k)} vs finite difference",
                             abs(want - got) < 1e-6,
                             f"difference {abs(want - got):.3e}")


def _suite_lemmas(report, _k_list, _tol):
    thetas = np.linspace(1e-6, math.pi - 1e-6, 1000)
    thetas = thetas[np.abs(np.cos(thetas)) > 1e-6]

    def moduli(k):      # |y1|, |y2| over the grid, as abs() of a complex
        return [np.hypot(y.real, y.imag) for y in families.branch_roots("R", k, thetas)]

    for k in (3.0, 5.0):
        worst = max(np.abs(y.imag).max() for y in families.branch_roots("R", k, thetas))
        report.add_check(f"R-roots real for k={_fmt(k)}", worst < 1e-10,
                         f"max |Im| {worst:.3e}")
    for k in (families.TWO_SQRT2, 5.0):
        low = moduli(k)[0].min()
        report.add_check(f"|y1|>=1 for k={_fmt(k)}", low >= 1.0 - 1e-10,
                         f"min |y1| {low:.15f}")
    for k in (families.R_THRESHOLD, 5.0):
        high = moduli(k)[1].max()
        report.add_check(f"|y2|<=1 for k={_fmt(k)}", high <= 1.0 + 1e-10,
                         f"max |y2| {high:.15f}")
    for k in (1.0, 2.0, 3.0):
        roots = families.critical_roots(k)
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


# suite -> (runner, default k list, whether it reads tol); a suite with
# no default k list reads no --k
_SUITES = {
    "theorem1": (_coincidence_suite("Q", 4.0), (4.0, 5.5, 10.0, 33.0), True),
    "theorem2": (_coincidence_suite("R", families.R_THRESHOLD),
                 (families.R_THRESHOLD + 0.01, 4.0, 10.0), True),
    "landen": (_suite_landen, (1.0, 2.0, 10.0), False),
    "derivatives": (_suite_derivatives, (), False),
    "lemmas": (_suite_lemmas, (), False),
    "conjecture_R4": (_suite_conjecture_r4, (), True),
    "conjecture_Qminus1": (_suite_conjecture_qm1, (), True),
    "asymptotics": (_suite_asymptotics, (), True),
}


def _cmd_verify(args):
    if args.suite not in _SUITES:
        raise argparse.ArgumentTypeError(f"unknown suite {args.suite!r}")
    runner, default_ks, reads_tol = _SUITES[args.suite]
    if args.k is not None and not default_ks:
        raise argparse.ArgumentTypeError(f"suite {args.suite} takes no --k")
    if args.tol is not None and not reads_tol:
        raise argparse.ArgumentTypeError(f"suite {args.suite} takes no --tol")
    tol = _DEFAULT_TOL if args.tol is None else args.tol
    k_list = _parse_k_list(args.k, default_ks)
    report = RunReport("verify", {"suite": args.suite, "k": k_list, "tol": tol})
    runner(report, k_list, tol)
    return report


def _cmd_sweep(args):
    if args.steps < 1:
        raise argparse.ArgumentTypeError("steps must be >= 1")
    if args.k_from <= 0 or args.k_to <= 0:
        raise argparse.ArgumentTypeError("sweep range must be positive")
    report = RunReport("sweep", {
        "family": args.family, "from": args.k_from, "to": args.k_to,
        "steps": args.steps, "tol": args.tol})
    ks = [args.k_from]
    if args.steps > 1:
        h = (args.k_to - args.k_from) / (args.steps - 1)
        ks = [args.k_from + i * h for i in range(args.steps - 1)] + [args.k_to]
    lines = ["k,regime,m,err_est,dmdk"]
    for k in ks:
        res = _measure_at(args.family, k, args.tol)
        regime = families.regime_tag(args.family, k)
        try:
            deriv = _derivative_at(args.family, k)
        except RegimeBoundaryError:
            deriv = math.nan
            report.add_check(f"k={_fmt(k)}", True, "boundary k: derivative skipped")
        lines.append(f"{k:.15g},{regime},{res.value:.15g},{res.err_est:.15g},{deriv:.15g}")
    csv_text = "\n".join(lines) + "\n"
    report.add_output("rows", len(ks))
    if args.format == "csv":
        report.csv_text = csv_text       # to --out or stdout, as _emit sends it
    elif args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        report.add_output("file", args.out)
        args.out = None          # the report itself goes to stdout
    else:
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

def _finite(text):
    """Type of ``--k``, ``--from`` and ``--to``: a finite float, else a
    usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"k must be a finite number, got {text!r}")
    return value


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

    def common(p, formats=("text", "json")):
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=formats, default="text")

    def tol(p, default=_DEFAULT_TOL):
        p.add_argument("--tol", type=_positive_tol, default=default)

    p = sub.add_parser("measure", help="Mahler measure of an expression")
    p.add_argument("poly", type=str.strip)     # strips the space of _guard_minus
    p.add_argument("--k", type=_finite, default=None)
    p.add_argument("--torus-check", action="store_true")
    tol(p)
    common(p)
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("family", help="closed-form family measure")
    p.add_argument("family", choices=("P", "Q", "R"))
    p.add_argument("--k", type=_finite, required=True)
    tol(p)
    common(p)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("derivative", help="d m(family)/dk")
    p.add_argument("family", choices=("P", "Q", "R"))
    p.add_argument("--k", type=_finite, required=True)
    common(p)
    p.set_defaults(fn=_cmd_derivative)

    p = sub.add_parser("verify", help="identity verification suites")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--k", default=None, help="comma-separated override")
    tol(p, default=None)     # the suite's default, if it reads one
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sweep", help="parameter sweep with CSV output")
    p.add_argument("family", choices=("P", "Q", "R"))
    p.add_argument("--from", dest="k_from", type=_finite, required=True)
    p.add_argument("--to", dest="k_to", type=_finite, required=True)
    p.add_argument("--steps", type=int, required=True)
    tol(p)
    common(p, formats=("text", "json", "csv"))
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("lvalue", help="Dirichlet or elliptic-curve L-values")
    p.add_argument("target", help="chi:<discriminant> or curve:<conductor>")
    common(p)
    p.set_defaults(fn=_cmd_lvalue)

    return parser


def _guard_minus(argv):
    """``argv`` with a space put before each argument of ``measure`` that
    starts with one minus sign and is no option nor an option's value, such
    as the expression -1+y: argparse reads any token that starts with - and
    holds no space as an option, so it would refuse the expression unless
    ``--`` came before it.  The space keeps argparse from that, wherever
    the options stand, and ``poly`` strips it again.  ``-h`` stays an
    option, and a value such as ``--k -0.5`` stays a value."""
    if argv[:1] != ["measure"]:
        return argv
    guarded = argv[:1]
    for prev, arg in zip(argv, argv[1:]):
        value = prev[:2] == "--" and "=" not in prev and prev != "--torus-check"
        minus = arg[:1] == "-" and arg[1:2] not in ("", "-") and arg != "-h"
        guarded.append(" " + arg if minus and not value else arg)
    return guarded


def main(argv=None):
    parser = _build_parser()
    argv = _guard_minus(sys.argv[1:] if argv is None else list(argv))
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if report.all_passed() else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
