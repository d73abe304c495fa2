#!/usr/bin/env python3
"""Benchmark the hot kernels: the unit-minor pair count on each backend,
and the area-band hit sweep.

Usage: python benchmarks/bench_kernels.py [--scale 16] [--points 400]

Each row is labelled with the backend that `kernels.active_backend()`
resolved; a requested backend that is not available is skipped with
the reason.  Counts are asserted equal across the backends that ran;
timings are the best of three wall-clock calls, after one warmup call
for the JIT path.
"""

import argparse
import os
import time
import warnings

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


def resolve(backend: str):
    """Request `backend`; returns the backend that will run, or None
    with the reason when the request cannot be met."""
    os.environ["ZARANK_BACKEND"] = backend
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ran = kernels.active_backend()
    if ran != backend:
        return None, f"{backend} is not available (resolves to {ran})"
    return ran, ""


def bench_unit_pairs(scale: int):
    cfg = st_lower_bound_minor_config(2, scale)
    cols, scalars = clear_columns(cfg.points)
    x = np.array([c[0] for c in cols], dtype=np.int64)
    y = np.array([c[1] for c in cols], dtype=np.int64)
    s = np.array(scalars, dtype=np.int64)
    rows = []
    for backend in ("numba", "numpy"):
        ran, reason = resolve(backend)
        if ran is None:
            rows.append((backend, None, reason))
            continue
        if ran == "numba":
            kernels.count_unit_pairs(x[:64], y[:64], s[:64])  # JIT warmup
        count, secs = time_call(kernels.count_unit_pairs, x, y, s)
        rows.append((ran, count, secs))
    return cfg.n, rows


def bench_area_hits(n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4 * n, size=n).astype(np.int64)
    y = rng.integers(0, 4 * n, size=n).astype(np.int64)
    hits, secs = time_call(kernels.area_triple_hits, x, y, 9, 10, 11, 10, 4)
    return [("numpy", len(hits), secs)]


def report(rows):
    """Print (backend, count, seconds) rows; a skipped backend's row is
    (backend, None, reason)."""
    counts = {c for _, c, _ in rows if c is not None}
    assert len(counts) <= 1, f"backend mismatch: {rows}"
    for backend, count, secs in rows:
        if count is None:
            print(f"  {backend:6s} skipped: {secs}")
        else:
            print(f"  {backend:6s} count={count} time={secs:.3f}s")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=int, default=16,
                    help="extremal config scale for the pair sweep")
    ap.add_argument("--points", type=int, default=400,
                    help="point count for the area sweep")
    args = ap.parse_args()

    n, rows = bench_unit_pairs(args.scale)
    print(f"unit-minor pair count over {n} columns "
          f"(~{n * (n - 1) // 2:.3g} pairs):")
    report(rows)

    print(f"area-band hit sweep over {args.points} points "
          f"(~{args.points**3 / 6:.3g} triples; numpy only):")
    report(bench_area_hits(args.points))


if __name__ == "__main__":
    main()
