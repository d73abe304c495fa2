#!/usr/bin/env python3
"""Benchmark the hot kernels: the unit-minor pair count by direction
classes against the quadratic block sweep, and the area-band hit sweep.

Usage: python benchmarks/bench_kernels.py [--scale 16] [--points 400]

The pair count runs on the cleared columns of the extremal configuration
at --scale, once through `kernels.count_unit_pairs` and once through
`kernels._unit_pairs_numpy`, the O(n^2) block sweep it replaced; the two
counts are asserted equal.  Timings are the best of three wall-clock
calls.
"""

import argparse
import time

import numpy as np

from zarank import kernels
from zarank.geometry import clear_columns, st_lower_bound_minor_config


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
    cols, scalars = clear_columns(cfg.points)
    x = np.array([c[0] for c in cols], dtype=np.int64)
    y = np.array([c[1] for c in cols], dtype=np.int64)
    s = np.array(scalars, dtype=np.int64)
    rows = []
    for name, fn in (("direction classes", kernels.count_unit_pairs),
                     ("block sweep", kernels._unit_pairs_numpy)):
        count, secs = time_call(fn, x, y, s)
        rows.append((name, count, secs))
    return cfg.n, rows


def bench_area_hits(n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4 * n, size=n).astype(np.int64)
    y = rng.integers(0, 4 * n, size=n).astype(np.int64)
    hits, secs = time_call(kernels.area_triple_hits, x, y, 9, 10, 11, 10, 4)
    return [("hit sweep", len(hits), secs)]


def report(rows):
    """Print (method, count, seconds) rows; the counts must agree."""
    counts = {c for _, c, _ in rows}
    assert len(counts) == 1, f"count mismatch: {rows}"
    for name, count, secs in rows:
        print(f"  {name:17s} count={count} time={secs:.3f}s")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=int, default=16,
                    help="extremal config scale for the pair count")
    ap.add_argument("--points", type=int, default=400,
                    help="point count for the area sweep")
    args = ap.parse_args()

    n, rows = bench_unit_pairs(args.scale)
    print(f"unit-minor pair count over {n} columns "
          f"(~{n * (n - 1) // 2:.3g} pairs):")
    report(rows)

    print(f"area-band hit sweep over {args.points} points "
          f"(~{args.points**3 / 6:.3g} triples):")
    report(bench_area_hits(args.points))


if __name__ == "__main__":
    main()
