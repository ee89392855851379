"""CLI surface: subcommands, formats, exit codes, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mahler
from mahler.cli import _derivative_at, _measure_at, main
from mahler.lpoly import parse_poly

RUN = [sys.executable, "-m", "mahler.cli"]
# the subprocess imports the same package as this process, also when pytest
# put src/ on sys.path itself (pyproject's pythonpath) rather than PYTHONPATH
_PKG_ROOT = str(Path(mahler.__file__).resolve().parent.parent)
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (_PKG_ROOT, os.environ.get("PYTHONPATH")) if p)}


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True,
                          env=ENV)


def test_measure_constant(tmp_path):
    out = tmp_path / "report.json"
    code = main(["measure", "5", "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    value = report["outputs"][0]["value"]
    assert abs(value - math.log(5.0)) < 1e-12
    assert report["command"] == "measure"
    assert "wall_time_s" in report


def test_measure_smyth():
    assert main(["measure", "x+y-1"]) == 0


def test_measure_family_value(tmp_path):
    out = tmp_path / "r.json"
    assert main(["family", "P", "--k", "3", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(report["outputs"][0]["value"] - 0.99905183) < 1e-7


def test_measure_with_torus_check(tmp_path):
    out = tmp_path / "r.json"
    assert main(["measure", "x+y-1", "--torus-check", "--tol", "1e-10",
                 "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf", "abc"])
def test_tol_not_positive_finite_is_usage_error(tol, capsys):
    assert main(["measure", "1+x+y", "--tol", tol, "--format", "json"]) == 2
    assert "tol must be a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["measure", "1+k*x+y", "--k=nan"], ["family", "P", "--k=inf"],
    ["derivative", "R", "--k=-inf"], ["verify", "landen", "--k", "nan"],
    ["verify", "theorem2", "--k", "4,inf"],
    ["sweep", "P", "--from=nan", "--to", "2", "--steps", "3"],
    ["sweep", "R", "--from", "1", "--to=inf", "--steps", "3"]], ids=" ".join)
def test_non_finite_k_is_usage_error(argv, capsys):
    # verify landen --k nan printed [PASS] with a zero deviation and exited 0
    assert main(argv) == 2
    assert "k must be a finite number" in capsys.readouterr().err


# m(1 + x + y), which the sign changes x -> -x, y -> -y keep
SMYTH = 0.3230659472194505140936


@pytest.mark.parametrize("argv", [
    ["measure", "-1-x-y"],
    ["measure", "-1-x-y", "--tol", "1e-12", "--torus-check"],
    ["measure", "--tol", "1e-12", "-1-x-y", "--torus-check"],
    ["measure", "--torus-check", "-1-x-y", "--tol=1e-12"],
    ["measure", "--", "-1-x-y"],
    ["measure", "--k", "-1", "-1+k*x+k*y"],
    ["measure", "-1+k*x+k*y", "--k=-1"],
], ids=" ".join)
def test_measure_expression_with_a_leading_minus(argv, capsys):
    # argparse read -1-x-y as an unknown option and exited 2 with "the
    # following arguments are required: poly" unless -- came first
    assert main(argv[:1] + ["--format", "json"] + argv[1:]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"]["poly"] in argv     # as given, with no space added
    assert abs(report["outputs"][0]["value"] - SMYTH) <= report["outputs"][0]["err_est"]


def test_measure_leading_minus_from_the_shell():
    r = run_cli("measure", "-1+y-2*x*y+2*x^2+x^2*y")
    assert r.returncode == 0 and "mahler_jensen" in r.stdout
    r = run_cli("measure", "-h")
    assert r.returncode == 0 and r.stdout.startswith("usage: mahler measure")
    r = run_cli("measure", "-x-y-1", "--bogus")
    assert r.returncode == 2 and "unrecognized arguments: --bogus" in r.stderr


def test_parse_error_exit_code():
    r = run_cli("measure", "x+*y")
    assert r.returncode == 2
    assert "position" in r.stderr


def test_deep_nesting_is_usage_error():
    # the parser's RecursionError printed a traceback and exited 1
    r = run_cli("measure", "(" * 248 + "x" + ")" * 248)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr and "position" in r.stderr


def test_symbolic_k_without_value_is_usage_error():
    r = run_cli("measure", "k*x+y")
    assert r.returncode == 2


def test_boundary_derivative_exit_code():
    r = run_cli("derivative", "P", "--k", "3")
    assert r.returncode == 3


def test_lead_with_too_many_circle_zeros_exit_code(capsys):
    # the lead x^(10^8) + 1 has 5*10^7 zeros in (0, pi), one cut each
    assert main(["measure", "(x^100000000+1)*y+1"]) == 3
    assert "more than 512 zeros" in capsys.readouterr().err


@pytest.mark.parametrize("family,k", [("R", "2.8284271247461903"), ("Q", "3.000001")])
def test_derivative_next_to_a_touching_root_is_a_value(family, k, tmp_path):
    # k = 2 sqrt 2 (R) and 1e-6 above 3 (Q) are no regime boundary of the
    # derivative: it is one Carlson period there, with no guard band
    out = tmp_path / "r.json"
    assert main(["derivative", family, "--k", k, "--format", "json",
                 "--out", str(out)]) == 0
    value = json.loads(out.read_text())["outputs"][0]["value"]
    derivative = {"Q": mahler.q_derivative, "R": mahler.r_derivative}[family]
    assert value == derivative(float(k))
    assert math.isfinite(value) and value > 0


def test_sweep_across_two_sqrt2_keeps_derivatives(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["sweep", "R", "--from", "2.82842", "--to", "2.82843", "--steps", "3",
                 "--format", "csv", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:] if line]
    assert len(rows) == 3 and all(math.isfinite(float(row[4])) for row in rows)


def test_unknown_suite_exit_code():
    r = run_cli("verify", "nonsense")
    assert r.returncode == 2


def test_verify_landen():
    r = run_cli("verify", "landen", "--k", "1,10")
    assert r.returncode == 0
    assert r.stdout.count("[PASS]") == 2


def test_verify_landen_fails_on_a_nan_form(monkeypatch):
    # max over the pairwise gaps dropped a NaN form unless it came first, so
    # the chain passed on the other three forms
    monkeypatch.setattr(mahler.elliptic, "_pq_period", lambda k: math.nan)
    assert mahler.landen_check(5.0).diff == math.inf
    assert main(["verify", "landen", "--k", "5"]) == 1


def test_verify_lemmas_solves_each_grid_in_one_call(monkeypatch):
    # each grid check takes all its angles in one branch_roots call per k;
    # the unit-modulus checks take one angle each
    calls = []
    branch_roots = mahler.families.branch_roots

    def recording(family, k, theta):
        calls.append(np.ndim(theta))
        return branch_roots(family, k, theta)

    monkeypatch.setattr(mahler.families, "branch_roots", recording)
    assert main(["verify", "lemmas"]) == 0
    assert calls == [1] * 6 + [0] * 6


def test_verify_landen_next_to_k3():
    # every form of the chain is exact next to the degenerate k = 3
    r = run_cli("verify", "landen", "--k", "3.000001")
    assert r.returncode == 0, r.stdout


def test_verify_theorem1_expected_noncoincidence():
    r = run_cli("verify", "theorem1", "--k", "3.5")
    assert r.returncode == 0
    assert "noncoincidence" in r.stdout


def test_failed_check_exit_code():
    # just below the coincidence threshold the measures nearly agree, so the
    # declared expect-a-gap check fails and the exit code must say so
    r = run_cli("verify", "theorem1", "--k", "3.9999")
    assert r.returncode == 1
    assert "[FAIL]" in r.stdout


@pytest.mark.parametrize("suite", ["theorem1", "theorem2", "conjecture_Qminus1",
                                   "asymptotics"])
def test_verify_fails_a_side_wrong_by_1e8(suite, monkeypatch):
    # each suite passed a measure off by 1e-8 while its bound was set by hand
    # (1e-7, 1e-6 or 1e-3); a row's bound now comes from its sides' estimates
    def off(res):
        return dataclasses.replace(res, value=res.value - 1e-8)

    measure_at, q_measure = mahler.cli._measure_at, mahler.families.q_measure
    monkeypatch.setattr(mahler.cli, "_measure_at", lambda *a: off(measure_at(*a)))
    monkeypatch.setattr(mahler.families, "q_measure",
                        lambda *a, **kw: off(q_measure(*a, **kw)))
    assert main(["verify", suite]) == 1


def test_asymptotics_series_constants():
    # R_k = xy (k + f); verify asymptotics takes m(R_k) = log k - 6/k^4 with
    # a_n = CT(f^n) first nonzero at a_4 = 24, and bounds the tail by
    # |a_n| <= 4^n
    f = parse_poly("y^2*x^-1 - x^-1 + x^2*y^-1 - y^-1")
    assert mahler.family_poly("R", 5) == (f + 5) * parse_poly("x*y")
    a, power = [], parse_poly("1")
    for _ in range(12):
        power = power * f
        a.append(power.terms.get((0, 0), 0))
    assert a == [0, 0, 0, 24, 0, -120, 0, 2520, 0, -25200, 0, 397320]
    assert all(abs(c) <= 4 ** n for n, c in enumerate(a, 1))


@pytest.mark.parametrize("left,right,relation,passed", [
    ((1.0, 0.0), (1.0 + 4 * 2.0 ** -52, 0.0), "=", True),     # within 8 eps
    ((1.0, 0.0), (1.0 + 16 * 2.0 ** -52, 0.0), "=", False),
    ((1.0, 1e-9), (1.0 + 2e-9, 1e-9), "=", True),
    ((math.inf, math.inf), (1.0, 0.0), "=", False),           # non-finite difference
    ((math.nan, 0.0), (1.0, 0.0), "!=", False),
    ((1.0, 0.0), (1.0 + 2e-4, 0.0), "!=", True),
    ((1.0 - 1e-11, 1e-10), (1.0, 0.0), ">=", True),
    ((1.0 + 1e-9, 1e-10), (1.0, 0.0), "<=", False),
], ids=str)
def test_check_rule(left, right, relation, passed):
    report = mahler.cli.RunReport("verify", {})
    mahler.cli._check(report, "row", left, right, relation)
    assert report.checks[0]["passed"] is passed
    assert "bound" in report.checks[0]["detail"]


def test_sweep_deterministic(tmp_path):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    for f in (f1, f2):
        assert main(["sweep", "R", "--from", "2.9", "--to", "3.3",
                     "--steps", "5", "--out", str(f)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_sweep_regime_flip(tmp_path):
    f = tmp_path / "sweep.csv"
    assert main(["sweep", "R", "--from", "2.9", "--to", "3.3", "--steps", "5",
                 "--out", str(f)]) == 0
    rows = f.read_text().strip().splitlines()
    assert rows[0] == "k,regime,m,err_est,dmdk"
    regimes = [r.split(",")[1] for r in rows[1:]]
    assert len(set(regimes)) == 2           # tag flips across the threshold


@pytest.mark.parametrize("family,k_from,k_to,steps,boundary", [
    ("P", "5", "9", "1", None),           # one row, at --from
    ("P", "2", "4", "3", "3"),            # k = 3: dp/dk is skipped there
    ("Q", "3.5", "5.5", "3", None),       # 3 < k < 4 into k >= 4
    ("R", "2.9", "3.3", "5", None),       # across 16/(3 sqrt 3)
])
def test_sweep_rows_match_family(family, k_from, k_to, steps, boundary, tmp_path, capsys):
    # every row is _measure_at, regime_tag and _derivative_at at its k, to
    # 15 significant digits; a boundary row has a NaN derivative and a note
    out = tmp_path / "rows.csv"
    assert main(["sweep", family, "--from", k_from, "--to", k_to, "--steps", steps,
                 "--format", "json", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    n, lo, hi = int(steps), float(k_from), float(k_to)
    ks = [lo + i * (hi - lo) / (n - 1) for i in range(n - 1)] + [hi] if n > 1 else [lo]
    assert len(rows) == n
    for k, row in zip(ks, rows):
        res = _measure_at(family, k, 1e-10)
        at_boundary = boundary is not None and k == float(boundary)
        deriv = math.nan if at_boundary else _derivative_at(family, k)
        assert row == [f"{k:.15g}", mahler.regime_tag(family, k), f"{res.value:.15g}",
                       f"{res.err_est:.15g}", f"{deriv:.15g}"]
    notes = [{"name": f"k={boundary}", "passed": True,
              "detail": "boundary k: derivative skipped"}] if boundary else []
    assert report["checks"] == notes
    assert {o["name"]: o["value"] for o in report["outputs"]} == {"rows": n, "file": str(out)}


def test_sweep_grid_ends_at_to(monkeypatch, tmp_path):
    # k_from + i h ended this grid at 0.9000000000000001
    ks = []

    def recording(family, k, tol):
        ks.append(k)
        return _measure_at(family, k, tol)

    monkeypatch.setattr(mahler.cli, "_measure_at", recording)
    assert main(["sweep", "P", "--from", "0.3", "--to", "0.9", "--steps", "7",
                 "--out", str(tmp_path / "rows.csv")]) == 0
    assert ks[0] == 0.3 and ks[-1] == 0.9 and len(ks) == 7
    assert ks[:-1] == [0.3 + i * (0.9 - 0.3) / 6 for i in range(6)]


def test_sweep_csv_to_out_prints_nothing(tmp_path, capsys):
    # with --format csv the CSV went to --out and was printed to stdout too
    out = tmp_path / "rows.csv"
    assert main(["sweep", "R", "--from", "2", "--to", "3", "--steps", "2",
                 "--format", "csv", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("k,regime,m,err_est,dmdk\n")
    # the text report still goes to stdout, the CSV to --out
    assert main(["sweep", "R", "--from", "2", "--to", "3", "--steps", "2",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("command: sweep") and "dmdk" not in printed


def test_cli_import_leaves_process_pool_unloaded():
    # the CLI runs in one process; loading the pool would cost every process
    # that loads the CLI 1.4-2.1 MB of peak memory
    code = ("import sys, mahler.cli; "
            "sys.exit('concurrent.futures.process' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=ENV).returncode == 0


_FORMAT_CSV = (["measure", "1+x+y"], ["family", "P", "--k", "2"],
               ["derivative", "P", "--k", "2"], ["verify", "landen"], ["lvalue", "chi:-3"])


@pytest.mark.parametrize("argv", [
    ["derivative", "P", "--k", "2", "--tol", "1e-3"],
    ["lvalue", "chi:-3", "--tol", "1e-3"],
    *(["verify", suite, "--tol", "1e-3"] for suite in ("landen", "derivatives", "lemmas")),
    *(["verify", suite, "--k", "1,2"] for suite in ("derivatives", "lemmas", "conjecture_R4",
                                                  "conjecture_Qminus1", "asymptotics")),
    *([*cmd, "--format", "csv"] for cmd in _FORMAT_CSV),
    # no command reads --jobs: sweep runs its rows in one process
    ["sweep", "P", "--from", "1", "--to", "2", "--steps", "2", "--jobs", "2"],
    ["sweep", "P", "--from", "1", "--to", "2", "--steps", "2", "--jobs", "1"],
    ["lvalue", "chi:-3", "--jobs", "2"],
], ids=" ".join)
def test_flag_the_command_does_not_read_is_usage_error(argv, monkeypatch):
    # each was accepted and ignored with exit 0, and --format csv computed
    # the whole report before exiting 2; now each is refused before any
    # report is started or sweep row computed
    def refuse(*args, **kwargs):
        raise AssertionError("a command started on a refused flag")

    monkeypatch.setattr(mahler.cli, "RunReport", refuse)
    monkeypatch.setattr(mahler.cli, "_measure_at", refuse)
    assert main(argv) == 2


@pytest.mark.parametrize("argv", [["verify", "theorem2", "--k", "4"],
                                  ["verify", "conjecture_R4"]], ids=" ".join)
def test_verify_tol_of_a_suite_that_reads_it_is_taken(argv, tmp_path):
    out = tmp_path / "rep.json"
    assert main(argv + ["--tol", "1e-9", "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["inputs"]["tol"] == 1e-9


def test_measure_integer_coefficient_beyond_float_range(tmp_path):
    # exited 3 with "int too large to convert to float"; m = 400 log 10
    out = tmp_path / "big.json"
    assert main(["measure", "10^400*y+1", "--format", "json", "--out", str(out)]) == 0
    (res,) = json.loads(out.read_text())["outputs"]
    assert abs(res["value"] - 921.034037197618273607) <= res["err_est"] + 1e-12


def test_sweep_monotone_towards_log(tmp_path):
    f = tmp_path / "p.csv"
    assert main(["sweep", "P", "--from", "3.2", "--to", "10", "--steps", "8",
                 "--out", str(f)]) == 0
    rows = [r.split(",") for r in f.read_text().strip().splitlines()[1:]]
    ms = [float(r[2]) for r in rows]
    gaps = [abs(m - math.log(float(r[0]))) for m, r in zip(ms, rows)]
    assert ms == sorted(ms)
    assert gaps == sorted(gaps, reverse=True)


def test_lvalue_chi(tmp_path):
    out = tmp_path / "l.json"
    assert main(["lvalue", "chi:-15", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    values = {o["name"]: o["value"] for o in report["outputs"]}
    assert abs(values["L'(chi_-15, -1)"] / 6.0 - 0.99905183) < 1e-7


def test_lvalue_curve(tmp_path):
    out = tmp_path / "c.json"
    assert main(["lvalue", "curve:224", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    values = {o["name"]: o["value"] for o in report["outputs"]}
    assert values["root_number"] == -1
    assert abs(values["L'(E, 0)"] + 3.0 * 1.3640735091900094) < 1e-9
    errs = {o["name"]: o["err_est"] for o in report["outputs"]}
    assert 0 < errs["Lambda(2)"] == errs["L'(E, 0)"] < 1e-12


def test_report_roundtrip(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["verify", "landen", "--k", "2", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"command", "inputs", "outputs", "checks",
                           "wall_time_s"}
    assert report["checks"][0]["passed"] is True


def test_consecutive_main_calls_match_fresh_processes(tmp_path):
    # the parser is built once per process and shared by every main() call;
    # a usage error in between must leave the next call's report unchanged
    from mahler.cli import _build_parser
    assert _build_parser() is _build_parser()

    def strip(report):
        report.pop("wall_time_s")
        return report

    runs = [["verify", "landen"], ["lvalue", "chi:-3"], None,
            ["verify", "landen"]]
    in_process = []
    for i, argv in enumerate(runs):
        if argv is None:
            assert main(["verify", "landen", "--k"]) == 2
            continue
        out = tmp_path / f"r{i}.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
        in_process.append(strip(json.loads(out.read_text())))
    fresh = {}
    for argv in runs[:2]:
        r = run_cli(*argv, "--format", "json")
        assert r.returncode == 0
        fresh[tuple(argv)] = strip(json.loads(r.stdout))
    assert in_process == [fresh[tuple(a)] for a in runs if a is not None]
