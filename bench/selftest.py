"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

The file name does not match ``test_*.py``, so the repository's own test
run does not collect it.  The tests show that the checks reject a value
perturbed beyond its tolerance and that a tiny configuration of each
workload runs to its end in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import mahler  # noqa: E402
import mahler.cli  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

REFS = workloads.load_refs()


def _ops(workload, seed=1):
    return workloads.build(mahler, workload, seed, REFS)


# -- the checks reject perturbed values ------------------------------------------

def test_value_checks_reject_perturbation():
    tolerances = {name: tol for name, _, tol in corpus.TORUS_CASES}
    for op in _ops("torus-oracle"):
        ref = float(REFS["torus"][op.name])
        assert op.check(ref)[0]
        assert not op.check(ref + 2 * tolerances[op.name])[0]
    op = next(o for o in _ops("jensen-corpus") if o.name == "P_3")
    ref = float(REFS["jensen_paper"]["P_3"])
    assert op.check(ref + 0.5 * workloads.JENSEN_TOL)[0]
    assert not op.check(ref + 2 * workloads.JENSEN_TOL)[0]


def test_family_check_rejects_perturbation():
    op = next(o for o in _ops("family-sweep") if o.name == "k=4.0")
    out = op.run()
    assert op.check(out) == (True, op.check(out)[1])
    for key in ("p", "r", "dp", "dq", "dr"):
        bad = dict(out)
        bad[key] = out[key] + 2 * workloads.DERIVATIVE_TOL
        assert not op.check(bad)[0], key
    lhs, rhs, diff = out["landen"]
    assert not op.check({**out, "landen": (lhs, rhs, 2 * workloads.LANDEN_CHAIN_TOL)})[0]


def test_family_check_wants_boundary_error_at_boundary():
    op = next(o for o in _ops("family-sweep") if o.name == "k=3.0")
    out = op.run()
    assert out["dp"] == "boundary" and op.check(out)[0]
    assert not op.check({**out, "dp": 7.0})[0]


def test_lvalue_and_verify_checks_reject_perturbation():
    ops = {o.name: o for o in _ops("paper-verify")}
    for name in ("lvalue curve:224", "lvalue chi:-15"):
        rc, report = ops[name].run()
        assert ops[name].check((rc, report))[0]
        for out in report["outputs"]:
            if isinstance(out["value"], float):
                bad = json.loads(json.dumps(report))
                for o in bad["outputs"]:
                    if o["name"] == out["name"]:
                        o["value"] += 2 * workloads.LVALUE_TOL
                assert not ops[name].check((rc, bad))[0], out["name"]
    rc, report = ops["verify landen"].run()
    assert ops["verify landen"].check((rc, report))[0]
    report["checks"][0]["passed"] = False
    assert not ops["verify landen"].check((rc, report))[0]


def test_generated_inputs_obey_the_exclusion_rules():
    kept = {item["expr"] for d in REFS["generated"].values() for item in d}
    excluded = {item["expr"] for item in REFS["excluded"]}
    assert kept.isdisjoint(excluded)
    for d in corpus.FIBER_DEGREES:
        assert REFS["generated"][str(d)]


def test_the_narrow_arc_probe_fails_as_named():
    op = next(o for o in _ops("jensen-corpus") if o.name == "narrow-arc")
    assert op.known_fault == "a"
    assert not op.check(op.run())[0]


# -- tiny configurations run to their end --------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_round_runs_and_passes(workload):
    result = worker.measure(workload, seed=3, seconds=0, trace=0)
    assert result["correct"], result["unexpected"]
    assert result["attempted"] == result["round_ops"]
    assert result["failed"] == (1 if workload == "jensen-corpus" else 0)
    assert set(result["metrics"]) == {"ops_per_s", "op_ms_p50", "peak_rss_mb",
                                      "accuracy_digits"}


def test_traced_round_reports_every_layer_metric():
    result = worker.measure("family-sweep", seed=3, seconds=0, trace=1)
    assert set(result["metrics"]) == set(tracing.UNITS)
    assert result["metrics"]["families.p_measure_s"]["value"] > 0
    assert result["metrics"]["elliptic.period_calls"]["value"] > 0


def test_run_py_end_to_end(tmp_path):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "family-sweep",
                           "--seed", "2", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {"setup_s", "ops_per_s", "op_ms_p50", "peak_rss_mb",
            "accuracy_digits"} == set(result["metrics"])


def test_run_py_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "family-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
