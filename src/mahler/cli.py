"""Command-line front end.

Subcommands: measure | family | derivative | verify | sweep | lvalue.
Each takes only the flags it reads: --out and --format {text,json} on all,
--tol (a finite number > 0) where a tolerance is used, and csv as a format
on sweep only; a verify suite takes --k or --tol only if it reads them.
Exit codes: 0 all checks pass, 1 a declared check failed, 2 usage error,
3 numerical failure.  A verify suite is a table of identity rows whose
sides are values with error estimates, judged by the rule of ``_check``
that also judges ``measure --torus-check``: an equality passes iff
|l - r| <= err_l + err_r + 8 eps max(|l|, |r|), a noncoincidence iff
|l - r| > 1e-4, and a side with no estimate of its own carries a stated
allowance.  All numeric output is deterministic for fixed inputs; sweep
rows are computed in parameter order, on a grid that ends at --to, and
emitted with 15 significant digits.  The argument parser is built once
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
        _check(report, "jensen_vs_torus", _side(res), _side(res2), "=")
    return report


# family -> (measure, derivative in k, subscript offset): the family
# parameter k names the polynomial P_k, Q_{k+2} or R_k
_FAMILIES = {"P": (families.p_measure, families.p_derivative, 0.0),
             "Q": (families.q_measure, families.q_derivative, 2.0),
             "R": (families.r_measure, families.r_derivative, 0.0)}


def _measure_at(family, k, tol):
    """Family measure at the family parameter k."""
    measure, _, offset = _FAMILIES[family]
    return measure(k + offset, tol=tol)


def _derivative_at(family, k):
    """d m/dk of the family at the family parameter k."""
    return _FAMILIES[family][1](k)


def _member(family, k):
    """The family member at the family parameter k, as P_k, Q_{k+2}, R_k."""
    return f"{family}_{_fmt(k + _FAMILIES[family][2])}"


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


# ---------------------------------------------------------------------------
# verify: suites yield rows (name, left, right, relation); a side is (value, err_est)
# ---------------------------------------------------------------------------

_ROUNDING_ULPS = 8     # rounding of the comparison itself, in eps of the larger side
_GAP = 1e-4            # the least difference of an expected noncoincidence

# Allowances of sides that carry no error estimate of their own; the ROADMAP
# item named with one is to give its side a computed bound instead.
_FD_STEP = 1e-4        # step of the central difference the derivatives are checked by
_FD_ERR = 1e-6         # its truncation and cancellation (items 10b, 23, 25)
_PERIOD_ERR = 1e-10    # Landen chain spread and the lemmas' root moduli (item 15)
_HURWITZ_ERR = 1e-13   # hurwitz_zeta's stated error, which bounds each L(chi, 2)


def _side(res):
    return res.value, res.err_est


def _check(report, name, left, right, relation):
    """Add the check of one row, by the rule of the module docstring; "<="
    and ">=" bound l - r and r - l as "=" bounds |l - r|."""
    (l, l_err), (r, r_err) = left, right
    diff = {"=": abs(l - r), "!=": abs(l - r), "<=": l - r, ">=": r - l}[relation]
    if relation == "!=":
        bound, passed = _GAP, diff > _GAP
    else:
        bound = l_err + r_err + _ROUNDING_ULPS * sys.float_info.epsilon * max(abs(l), abs(r))
        passed = diff <= bound
    detail = f"difference {diff:.3e}, bound {bound:.3e}"
    if relation in ("<=", ">="):
        detail = f"value {l:.15f}, {detail}"
    report.add_check(name, math.isfinite(diff) and passed, detail)


def _coincidence_suite(family, threshold):
    """The rows m(P_k) = m(family member at k) for k >= threshold, and
    their noncoincidence below it."""

    def rows(k_list, tol):
        for k in k_list:
            p, other = f"m(P_{_fmt(k)})", f"m({_member(family, k)})"
            name, relation = ((f"{p}={other}", "=") if k >= threshold
                              else (f"{p}!={other} (expected noncoincidence)", "!="))
            yield (name, _side(families.p_measure(k, tol=tol)),
                   _side(_measure_at(family, k, tol)), relation)

    return rows


def _suite_landen(k_list, _tol):
    for k in k_list:     # diff is the chain's relative spread, inf for a form not finite
        yield (f"landen identity at k={_fmt(k)}", (landen_check(k).diff, _PERIOD_ERR),
               (0.0, 0.0), "=")


def _suite_derivatives(_k_list, _tol):
    batteries = (("P", (2.0, 5.0)), ("Q", (2.0, 3.5, 10.0)), ("R", (1.0, 3.0, 5.0)))
    for fam, ks in batteries:
        for k in ks:
            fd = (_measure_at(fam, k + _FD_STEP, 1e-12).value
                  - _measure_at(fam, k - _FD_STEP, 1e-12).value) / (2.0 * _FD_STEP)
            yield (f"d m({fam})/dk at k={_fmt(k)} vs finite difference",
                   (_derivative_at(fam, k), 0.0), (fd, _FD_ERR), "=")


def _suite_lemmas(_k_list, _tol):
    thetas = np.linspace(1e-6, math.pi - 1e-6, 1000)
    thetas = thetas[np.abs(np.cos(thetas)) > 1e-6]

    def moduli(k):      # |y1|, |y2| over the grid, as abs() of a complex
        return [np.hypot(y.real, y.imag) for y in families.branch_roots("R", k, thetas)]

    for k in (3.0, 5.0):
        worst = max(np.abs(y.imag).max() for y in families.branch_roots("R", k, thetas))
        yield f"R-roots real for k={_fmt(k)}", (worst, _PERIOD_ERR), (0.0, 0.0), "="
    for k in (families.TWO_SQRT2, 5.0):
        yield f"|y1|>=1 for k={_fmt(k)}", (moduli(k)[0].min(), _PERIOD_ERR), (1.0, 0.0), ">="
    for k in (families.R_THRESHOLD, 5.0):
        yield f"|y2|<=1 for k={_fmt(k)}", (moduli(k)[1].max(), _PERIOD_ERR), (1.0, 0.0), "<="
    for k in (1.0, 2.0, 3.0):
        roots = families.critical_roots(k)
        _, y2 = families.branch_roots("R", k, math.acos(roots.t1))
        yield f"|y2|=1 at t1 for k={_fmt(k)}", (abs(y2), _PERIOD_ERR), (1.0, 0.0), "="
        y1, y2 = families.branch_roots("R", k, math.acos(roots.t2))
        name, branch = ("y1", y1) if k <= families.TWO_SQRT2 else ("y2", y2)
        yield f"|{name}|=1 at t2 for k={_fmt(k)}", (abs(branch), _PERIOD_ERR), (1.0, 0.0), "="


def _suite_conjecture_r4(_k_list, tol):
    m_r4 = families.r_measure(4.0, tol=tol)
    data = eclf.resolve_bad_data(eclf.CURVE_224)
    lam2, err = eclf.lambda_with_error(data, 2.0)     # L'(E, 0) = eps Lambda(2)
    yield ("m(R_4) = -(1/3) L'(E_224, 0)", _side(m_r4),
           (-data.root_number * lam2 / 3.0, err / 3.0), "=")


def _suite_conjecture_qm1(_k_list, tol):
    m_val = families.q_measure(-1.0, tol=tol)
    terms = ((-7, 7.0 * math.sqrt(7.0) / (12.0 * math.pi)),
             (-15, 5.0 * math.sqrt(15.0) / (8.0 * math.pi)))
    target = sum(c * specialfn.dirichlet_l(specialfn.dirichlet_char(d), 2.0) for d, c in terms)
    # L(chi, 2) = f^-2 sum of phi(f) < f^2 Hurwitz values, so it errs by less than one
    yield ("m(Q_-1) = L-value combination", _side(m_val),
           (target, _HURWITZ_ERR * sum(c for _, c in terms)), "=")


def _suite_asymptotics(_k_list, tol):
    # m(R_k) = log k - sum a_n/(n k^n), a_n = CT(f^n), f = R_k/(xy) - k
    # (Rodriguez-Villegas 1999); a_1..a_5 = 0, 0, 0, 24, 0 and |a_n| <= 4^n,
    # as |f| <= 4 on the torus, bound the tail past 6/k^4.  Theorems 1 and 2
    # carry the series to P_k and Q_{k+2}.
    for fam in ("P", "Q", "R"):
        for k in (1e2, 1e3, 1e4):
            tail = 4.0 ** 6 / (6.0 * k ** 6 * (1.0 - 4.0 / k))
            yield (f"m({_member(fam, k)}) = log k - 6/k^4 at k={_fmt(k)}",
                   _side(_measure_at(fam, k, tol)), (math.log(k) - 6.0 / k ** 4, tail), "=")


# suite -> (row generator, default k list, whether it reads tol); a suite
# with no default k list reads no --k
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
    rows, default_ks, reads_tol = _SUITES[args.suite]
    if args.k is not None and not default_ks:
        raise argparse.ArgumentTypeError(f"suite {args.suite} takes no --k")
    if args.tol is not None and not reads_tol:
        raise argparse.ArgumentTypeError(f"suite {args.suite} takes no --tol")
    tol = _DEFAULT_TOL if args.tol is None else args.tol
    k_list = _parse_k_list(args.k, default_ks)
    report = RunReport("verify", {"suite": args.suite, "k": k_list, "tol": tol})
    for row in rows(k_list, tol):
        _check(report, *row)
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
        lam2, err = eclf.lambda_with_error(data, 2.0)
        report.add_output("Lambda(2)", lam2, err)
        # L'(E, 0) = eps Lambda(2), as in eclf.l_deriv_at_0
        report.add_output("L'(E, 0)", data.root_number * lam2, err)
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
