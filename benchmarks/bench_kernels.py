#!/usr/bin/env python3
"""Benchmark the hot kernels: the unit-minor pair count by direction
classes against the quadratic row sweep, the d=3 unit-minor hit sweep,
the area-band hit sweep and the sphere triple hit sweep.

Usage: python benchmarks/bench_kernels.py [--scale 16] [--points 400]
           [--columns 320] [--spheres 2560]

The pair count runs on the stored integer columns (numerators over
denominators) of the extremal configuration at --scale, once through
`kernels.count_unit_pairs` and once as the number of hits of
`kernels.unit_pair_hits`, the O(n^2) row sweep; the two counts are
asserted equal.  The other sweeps run on seeded random inputs shaped
like the experiment sweeps': d=3 columns with entries in
[1, isqrt(n) + 1], points in a box of side 4n, and spheres with integer
centres in a box of side about 8.8 n^(1/3) and squared radii 4*[2, 10].
Timings are the best of three wall-clock calls.
"""

import argparse
import math
import time

import numpy as np

from zarank import kernels
from zarank.geometry import st_lower_bound_minor_config


def row_sweep_count(x, y, s):
    return len(kernels.unit_pair_hits(x, y, s)[0])


def time_call(fn, *args, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return result, best


def bench_unit_pairs(scale: int):
    cfg = st_lower_bound_minor_config(2, scale)
    (x, y), s = cfg.numerators.T, cfg.denominators
    rows = []
    for name, fn in (("direction classes", kernels.count_unit_pairs),
                     ("row sweep", row_sweep_count)):
        count, secs = time_call(fn, x, y, s)
        rows.append((name, count, secs))
    return cfg.n, rows


def bench_minor_hits(n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    cols = rng.integers(1, math.isqrt(n) + 2, size=(3, n))
    s = np.ones(n, dtype=np.int64)
    (hits, _), secs = time_call(kernels.unit_minor_hits, list(cols), s)
    return [("hit sweep", len(hits), secs)]


def bench_area_hits(n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4 * n, size=n).astype(np.int64)
    y = rng.integers(0, 4 * n, size=n).astype(np.int64)
    hits, secs = time_call(kernels.area_triple_hits, x, y, 9, 10, 11, 10, 4)
    return [("hit sweep", len(hits), secs)]


def bench_sphere_hits(n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    c = rng.integers(0, max(8, round(8.8 * n ** (1 / 3))) + 1, size=(n, 3))
    r2 = 4 * rng.integers(2, 11, size=n)
    (hits, _), secs = time_call(kernels.sphere_triple_hits, c, r2)
    return [("hit sweep", len(hits), secs)]


def report(rows):
    """Print (method, count, seconds) rows; the counts must agree."""
    counts = {c for _, c, _ in rows}
    assert len(counts) == 1, f"count mismatch: {rows}"
    for name, count, secs in rows:
        print(f"  {name:17s} count={count} time={secs:.3f}s")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=int, default=16,
                    help="extremal config scale for the pair count")
    ap.add_argument("--points", type=int, default=400,
                    help="point count for the area sweep")
    ap.add_argument("--columns", type=int, default=320,
                    help="column count for the d=3 unit-minor sweep")
    ap.add_argument("--spheres", type=int, default=2560,
                    help="sphere count for the sphere triple sweep")
    args = ap.parse_args(argv)

    n, rows = bench_unit_pairs(args.scale)
    print(f"unit-minor pair count over {n} columns "
          f"(~{n * (n - 1) // 2:.3g} pairs):")
    report(rows)

    print(f"area-band hit sweep over {args.points} points "
          f"(~{args.points**3 / 6:.3g} triples):")
    report(bench_area_hits(args.points))

    print(f"d=3 unit-minor hit sweep over {args.columns} columns "
          f"(~{args.columns**3 / 6:.3g} triples):")
    report(bench_minor_hits(args.columns))

    print(f"sphere triple hit sweep over {args.spheres} spheres "
          f"(~{args.spheres**3 / 6:.3g} triples):")
    report(bench_sphere_hits(args.spheres))


if __name__ == "__main__":
    main()
