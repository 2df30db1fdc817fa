#!/usr/bin/env python3
"""Benchmark the compiled LM kernel against the pure-numpy fallback.

Both entry points wrap the same source function, so outputs must agree
bit for bit; this script checks that while timing them on identical
cold-start solves across a range of measurement counts. Without numba
both names run the fallback, so only the fallback is timed.

Run from the repository root:

    python3 benchmarks/bench_kernels.py
"""

import math
import time

import numpy as np

from gnssweight._kernels import NUMBA_ENABLED, lm_solve, lm_solve_python
from gnssweight.geo import GeodeticPosition, enu_rotation, geodetic_to_ecef
from gnssweight.solver import SolverConfig

CONFIG = SolverConfig()
N_CONST = 2
REPEATS = 300


def make_case(rng, n):
    """Kernel-layout inputs for one noise-free cold-start solve."""
    lat = math.radians(rng.uniform(-60, 60))
    lon = math.radians(rng.uniform(-180, 180))
    geo = GeodeticPosition(lat, lon, rng.uniform(0, 500))
    rx = geodetic_to_ecef(geo).as_array()
    rot = enu_rotation(geo)

    sat = np.empty((n, 3))
    const_idx = np.arange(n) % N_CONST
    clock_m = rng.uniform(-3e4, 3e4, size=N_CONST)
    pr = np.empty(n)
    for i in range(n):
        elev = math.radians(rng.uniform(10, 85))
        az = rng.uniform(0, 2 * math.pi)
        los = rot.T @ np.array(
            [math.cos(elev) * math.sin(az), math.cos(elev) * math.cos(az), math.sin(elev)]
        )
        sat[i] = rx + 2.2e7 * los
        pr[i] = np.linalg.norm(rx - sat[i]) + clock_m[const_idx[i]]

    x0 = np.zeros(3 + N_CONST)
    x0[:3] = geodetic_to_ecef(GeodeticPosition(0.0, 0.0, 0.0)).as_array()
    return (
        sat,
        pr,
        np.ones(n),
        const_idx,
        N_CONST,
        x0,
        CONFIG.max_iterations,
        CONFIG.step_tolerance,
        CONFIG.initial_damping,
        CONFIG.damping_up,
        CONFIG.damping_down,
        CONFIG.cond_limit,
    )


def bench(fn, cases):
    t0 = time.perf_counter()
    outs = [fn(*args) for args in cases]
    return (time.perf_counter() - t0) / len(cases), outs


def main():
    rng = np.random.default_rng(2024)
    if NUMBA_ENABLED:
        print("numba enabled")
        lm_solve(*make_case(rng, 8))  # trigger/load the compilation outside timing
        header = f"{'N':>4}  {'python (ms)':>12}  {'compiled (ms)':>14}  {'speedup':>8}"
    else:
        print("numba unavailable: timing the pure-Python fallback only")
        header = f"{'N':>4}  {'python (ms)':>12}"
    print(header)
    print("-" * len(header))
    for n in (6, 10, 16, 24, 40):
        cases = [make_case(rng, n) for _ in range(REPEATS)]
        t_py, out_py = bench(lm_solve_python, cases)
        if not NUMBA_ENABLED:
            print(f"{n:>4}  {t_py * 1e3:>12.3f}")
            continue
        t_nb, out_nb = bench(lm_solve, cases)
        for (x1, it1, s1, c1), (x2, it2, s2, c2) in zip(out_py, out_nb):
            assert np.array_equal(x1, x2) and it1 == it2 and s1 == s2 and c1 == c2, (
                "compiled and fallback kernels disagree"
            )
        print(f"{n:>4}  {t_py * 1e3:>12.3f}  {t_nb * 1e3:>14.3f}  {t_py / t_nb:>7.1f}x")


if __name__ == "__main__":
    main()
