"""CLI surface: subcommands, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mahler
from mahler.cli import main

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


def test_parse_error_exit_code():
    r = run_cli("measure", "x+*y")
    assert r.returncode == 2
    assert "position" in r.stderr


def test_symbolic_k_without_value_is_usage_error():
    r = run_cli("measure", "k*x+y")
    assert r.returncode == 2


def test_boundary_derivative_exit_code():
    r = run_cli("derivative", "P", "--k", "3")
    assert r.returncode == 3


def test_unknown_suite_exit_code():
    r = run_cli("verify", "nonsense")
    assert r.returncode == 2


def test_verify_landen():
    r = run_cli("verify", "landen", "--k", "1,10")
    assert r.returncode == 0
    assert r.stdout.count("[PASS]") == 2


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


def test_sweep_single_step_matches_family(tmp_path):
    f = tmp_path / "one.csv"
    assert main(["sweep", "P", "--from", "5", "--to", "9", "--steps", "1",
                 "--out", str(f)]) == 0
    row = f.read_text().strip().splitlines()[1].split(",")
    from mahler.families import p_measure
    assert abs(float(row[2]) - p_measure(5.0, tol=1e-10).value) < 1e-12


def test_sweep_parallel_matches_serial(tmp_path):
    f1 = tmp_path / "serial.csv"
    f2 = tmp_path / "par.csv"
    args = ["sweep", "Q", "--from", "4.5", "--to", "6.5", "--steps", "3"]
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_jobs_only_on_sweep_and_at_least_one():
    # both are refused while parsing or checking the arguments, before any
    # row is computed or worker started
    assert main(["lvalue", "chi:-3", "--jobs", "2"]) == 2
    assert main(["sweep", "P", "--from", "3", "--to", "4", "--steps", "2",
                 "--jobs", "0"]) == 2


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
