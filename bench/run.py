"""Benchmark of the mahler stack: one workload per invocation.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: jensen-corpus, family-sweep,
paper-verify, torus-oracle (see bench/README.md).  With ``--trace 0`` the
last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, whose spans
are also written to bench/out/trace-<workload>.json.

Every measured process is a fresh interpreter with one compute thread.
``setup_s`` is the median of SETUP_PROBES separate processes that each import
mahler and make the workload's first call.  The program is imported from
``src/`` of the checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from worker import SPEED_REF_S
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _env():
    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, timeout):
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="mahler benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mahler" / "__init__.py").is_file():
        print(f"no mahler sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        run_args += ["--trace-out", str(out_dir / f"trace-{args.workload}.json")]
        result = _worker(run_args, WORKER_TIMEOUT_S)
    else:
        probes = [_worker(["--setup", args.workload], 60) for _ in range(SETUP_PROBES)]
        result = _worker(run_args, WORKER_TIMEOUT_S)
        result["metrics"]["setup_s"] = {
            "value": statistics.median(p["setup_s"] for p in probes), "unit": "s"}
        print(f"set-up {statistics.median(p['raw_setup_s'] for p in probes):.3f} s "
              f"unscaled; speed kernel {result['kernel_ms']:.3f} ms "
              f"(reference {1000 * SPEED_REF_S:.1f} ms)")
    for line in result.get("unexpected", []):
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(f"{args.workload}: {result['attempted']} operations in "
          f"{result['wall_s']:.2f} s ({result['round_ops']} per round)")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
