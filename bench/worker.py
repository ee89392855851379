"""One measured process of the benchmark; ``run.py`` starts it.

    worker.py --setup WORKLOAD
        time importing mahler and making the workload's first call;
    worker.py --workload W --seed N --seconds S --trace 0|1 [--trace-out F]
        run whole rounds of the workload's operations for at least S seconds
        and check every output.

Either prints one JSON object as its last line.  The process is single
threaded: ``run.py`` limits the BLAS pools to one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time

ACCURACY_FLOOR = 1e-13      # errors below this read as this (13 digits)

# The speed of the host drifts by 20% and more within minutes.  Each run
# therefore also times a fixed interpreted kernel of the benchmark's own (no
# mahler code in it) every SPEED_EVERY_S seconds, and the timing metrics of
# the workloads whose speed it follows are scaled to the speed at which the
# kernel takes SPEED_REF_S.  See README.md for the measured effect.
SPEED_REF_S = 1.6e-3
SPEED_EVERY_S = 0.25


def speed_kernel():
    """A 15-digit mpmath quadrature: interpreted, allocation-heavy code
    like the library's own scalar paths."""
    import mpmath
    with mpmath.workdps(15):
        return mpmath.quad(lambda t: mpmath.log(1 + mpmath.cos(t) ** 2), [0, 1])


def time_kernel():
    t0 = time.perf_counter()
    speed_kernel()
    return time.perf_counter() - t0


def setup_probe(workload):
    t0 = time.perf_counter()
    import mahler
    import mahler.cli  # noqa: F401  (the CLI is part of what a user imports)
    import workloads
    workloads.first_call(mahler, workload)
    setup = time.perf_counter() - t0
    speed_kernel()                                  # its own set-up
    kernel = statistics.median(time_kernel() for _ in range(25))
    return {"setup_s": setup * SPEED_REF_S / kernel, "raw_setup_s": setup}


def measure(workload, seed, seconds, trace, trace_out=None):
    import mahler
    import mahler.cli  # noqa: F401
    import workloads

    refs = workloads.load_refs()
    ops = workloads.build(mahler, workload, seed, refs)
    workloads.first_call(mahler, workload)          # lazy set-up, untimed
    speed_kernel()

    tracer = None
    if trace:
        import tracing      # after the set-up above, which tracing must not see
        tracer = tracing.Tracer()
        tracer.install()

    rounds = []                                     # latencies, one list per round
    results = []                                    # (op, output or exception)
    kernel = []                                     # speed-kernel times
    clock = time.perf_counter
    start = last_kernel = clock()
    while True:
        latencies = []
        for op in ops:
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:                # counted as a failed operation
                out = exc
            latencies.append(clock() - t0)
            results.append((op, out))
            if clock() - last_kernel >= SPEED_EVERY_S:
                kernel.append(time_kernel())
                last_kernel = clock()
        rounds.append(latencies)
        if clock() - start >= seconds:
            break
    wall = clock() - start
    if tracer is not None:
        tracer.uninstall()
    if not kernel:
        kernel.append(time_kernel())

    failed = 0
    unexpected = []
    worst = 0.0
    for op, out in results:
        passed, err = (False, None) if isinstance(out, Exception) else op.check(out)
        if not passed:
            failed += 1
            if not op.known_fault:
                unexpected.append(f"{op.name}: {out!r}"[:300])
        elif err is not None:
            worst = max(worst, err)
    correct = not unexpected
    if workload == "paper-verify":
        correct &= workloads.curve_properties(mahler, refs)

    attempted = len(results)
    if tracer is not None:
        if trace_out:
            tracer.write(trace_out)
        layer = tracing.layer_metrics(tracer, attempted)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.UNITS.items()}
    else:
        # Each operation's latency is its median over the run's rounds,
        # scaled to the reference speed where the workload follows it.
        scale = 1.0
        if workload not in workloads.UNSCALED:
            scale = SPEED_REF_S / statistics.median(kernel)
        typical = [scale * statistics.median(times) for times in zip(*rounds)]
        metrics = {
            "ops_per_s": {"value": len(typical) / sum(typical), "unit": "1/s"},
            "op_ms_p50": {"value": 1000.0 * statistics.median(typical), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "accuracy_digits": {"value": -math.log10(max(worst, ACCURACY_FLOOR)),
                                "unit": "digits"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "wall_s": wall, "round_ops": len(ops),
            "kernel_ms": 1000.0 * statistics.median(kernel),
            "unexpected": unexpected[:20]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup", metavar="WORKLOAD")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    if args.setup:
        result = setup_probe(args.setup)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.trace, args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
