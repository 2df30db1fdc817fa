#!/usr/bin/env python3
"""gnssweight benchmark: one workload, one seed, one measured run.

Run from the repository root:

    python3 perfbench/run.py --workload urban_pipeline --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it measures the end-to-end metrics (set-up time, time
per unit of work, throughput) with nothing instrumented. With
``--trace 1`` it records spans around every layer's public functions and
reports per-layer metrics instead, including the tracing overhead. The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller record
(environment, correctness checks, hashes, accuracy, failure reasons) goes
to ``.perfbench/results/`` and, when tracing, the spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# BLAS pools stay single-threaded (at most nproc): the benchmark is one
# process with --jobs 1 and the matrices are at most a few hundred wide.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "rate_per_s": "1/s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    from gnssweight import _kernels

    try:
        import numba  # noqa: F401

        numba_importable = True
    except ImportError:
        numba_importable = False
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            commit = out[1]  # only when the checkout is itself a git work tree
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": numba_importable,
        "numba_enabled": bool(_kernels.NUMBA_ENABLED),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "jobs": 1,
        "git_commit": commit,
    }


def timed_units(wl, state, seconds: float) -> tuple[list, list]:
    """Closed loop: run units back to back while the next one fits in ``seconds``.

    At least ``wl.MIN_UNITS`` units run, however slow the host: the work
    that ``attempted`` and ``failed`` count is then the same on every run
    of a seed. Returns the (start, end) perf_counter interval of each unit
    and its result.
    """
    intervals, results = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(wl.unit(state, len(intervals)))
        intervals.append((t0, time.perf_counter()))
        typical = statistics.median(t1 - t0 for t0, t1 in intervals)
        if len(intervals) >= wl.MIN_UNITS and time.perf_counter() - start + typical > seconds:
            return intervals, results


def measure(wl, args, workdir) -> dict:
    """End-to-end metrics, every time scaled to nominal host speed."""
    from hostspeed import REF_NOMINAL_S, HostSpeed

    setups, prints = [], []
    with HostSpeed() as host:
        for r in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(args.seed, os.path.join(workdir, f"setup{r}"), ROOT)
            setups.append((t0, time.perf_counter()))
            prints.append(wl.fingerprint(state))
        intervals, results = timed_units(wl, state, args.seconds)
    setup_s = [host.scaled(*iv) for iv in setups]
    unit_s = [host.scaled(*iv) for iv in intervals]
    checks, details, attempted, failed = wl.check(state, results, unit_s)
    checks["deterministic.setup"] = all(p == prints[0] for p in prints)
    details.update(
        setup_fingerprint=prints[0],
        setup_s_samples=setup_s,
        unit_s_samples=unit_s,
        raw_setup_s_samples=[t1 - t0 for t0, t1 in setups],
        raw_unit_s_samples=[t1 - t0 for t0, t1 in intervals],
        host_reference_s={"median": statistics.median(host.refs), "samples": len(host.refs),
                          "nominal": REF_NOMINAL_S},
    )
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(unit_s),
        "rate_per_s": sum(r["items"] for r in results) / sum(unit_s),
    }
    return {
        "checks": checks, "details": details, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def measure_traced(wl, args, workdir, spans_path) -> dict:
    """Each unit runs twice, untraced and then traced from the same state.

    Pairing the two runs of a unit makes the tracing overhead a per-unit
    difference that machine load drifting over the run cannot bias, and
    the checks then also confirm that tracing leaves every output unchanged.
    Times here are raw: no host-speed sampler interrupts the spans.
    """
    import tracing

    tracer = tracing.Tracer()
    with tracing.install(tracer), tracer.span("bench.setup"):
        state = wl.setup(args.seed, os.path.join(workdir, "setup"), ROOT)
    plain, traced, results = [], [], []
    start = time.perf_counter()
    while True:
        i = len(plain)
        snapshot = wl.snapshot(state)
        t0 = time.perf_counter()
        results.append(wl.unit(state, i))
        plain.append(time.perf_counter() - t0)
        wl.restore(state, snapshot)
        tracer.unit = i
        state["tracer"] = tracer
        with tracing.install(tracer), tracer.span("bench.unit"):
            t0 = time.perf_counter()
            results.append(wl.unit(state, i))
            traced.append(time.perf_counter() - t0)
        state["tracer"] = None
        pair = statistics.median(plain) + statistics.median(traced)
        if len(plain) >= wl.MIN_UNITS and time.perf_counter() - start + pair > args.seconds:
            break
    overhead_s = statistics.median(t - p for t, p in zip(traced, plain))
    checks, details, attempted, failed = wl.check(state, results[0::2], plain)
    t_checks, t_details, t_attempted, t_failed = wl.check(state, results[1::2], traced)
    checks.update({f"traced.{k}": ok for k, ok in t_checks.items()})
    checks["trace_leaves_outputs_unchanged"] = all(
        details[k] == t_details[k] for k in wl.OUTPUT_KEYS
    )
    tracer.write(spans_path)
    details["untraced_unit_s_samples"] = plain
    details["traced_unit_s_samples"] = traced
    return {
        "checks": checks, "details": details,
        "attempted": attempted + t_attempted, "failed": failed + t_failed,
        "metrics": tracing.layer_metrics(tracer.spans, len(traced), overhead_s),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gnssweight", "__init__.py")):
        print(f"error: no gnssweight sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import gnssweight

    if os.path.dirname(os.path.abspath(gnssweight.__file__)) != os.path.join(src, "gnssweight"):
        print(f"error: imported gnssweight from {gnssweight.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    out_dir = os.path.join(ROOT, ".perfbench", "results")
    work_root = os.path.join(ROOT, ".perfbench", "work")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work_root, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(work_root, f"{stem}-{os.getpid()}")
    try:
        if args.trace:
            record = measure_traced(wl, args, workdir, os.path.join(out_dir, stem + "-spans.jsonl"))
        else:
            record = measure(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = all(record["checks"].values())
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, correct=correct, environment=environment())
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    for name, m in record["metrics"].items():
        print(f"{name:<42} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    failed_checks = [k for k, ok in record["checks"].items() if not ok]
    if failed_checks:
        print(f"failed checks: {failed_checks}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
