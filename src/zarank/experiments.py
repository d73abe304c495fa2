"""Experiment orchestration: build, count, fit, compare, report.

Sweeps build a configuration per size, count its hyperedges exactly,
verify the relevant pattern-freeness precondition where it applies, fit
a log-log slope, and compare the slope against the predicted exponent.
All comparisons are exponent comparisons with a tolerance (default
0.15); the bounds hide constants, so absolute counts are never compared.

Reports serialize deterministically: identical spec and seed produce
byte-identical JSON on any machine and thread count (wall time is kept
on the report object but excluded from the serialized form for exactly
that reason).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import geometry
from .bounds import DimProfile, SizeProfile, exponents
from .geometry import (
    DetTarget,
    PointConfig,
    SphereConfig,
    count_almost_unit_area,
    count_almost_unit_area_naive,
    count_sphere_intersections,
    count_sphere_intersections_naive,
    count_unit_minors,
    count_unit_minors_naive,
    k1uu_config,
    st_lower_bound_minor_config,
    sphere_intersection_hypergraph,
    unit_minor_hypergraph,
    almost_unit_area_hypergraph,
)
from .hypergraph import BudgetExceededError, ForbiddenPattern, contains_complete
from .partition import PartitionSearchError, stone_tukey_partition, verify_partition

KINDS = ("minors", "st-config", "triangles", "spheres", "k1uu", "partition")


def fit_exponent(pairs: Sequence[tuple[int, int]]) -> tuple[float, float]:
    """Least-squares slope of log(count) against log(n).

    Zero counts cannot enter a log fit; those pairs are dropped with a
    warning.  Returns (slope, max absolute residual).
    """
    clean = []
    for n, c in pairs:
        if c < 1:
            warnings.warn(f"dropping zero count at n={n} from exponent fit")
            continue
        clean.append((n, c))
    if len(clean) < 3:
        raise ValueError("need at least 3 positive pairs for a fit")
    xs = [math.log(n) for n, _ in clean]
    ys = [math.log(c) for _, c in clean]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    inter = ybar - slope * xbar
    resid = max(abs(y - (slope * x + inter)) for x, y in zip(xs, ys))
    return slope, resid


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    d: int
    sizes: tuple[int, ...]
    eps: Fraction = Fraction(0)
    det_target: str = "exactly-one"
    seed: int = 0
    u: int = 2
    variant: str = "random"
    r: int = 16
    tolerance: float = 0.15
    kfree_budget: int = 2 * 10**6
    kfree_max_size: int = 400

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if len(self.sizes) < 3 and self.kind != "partition":
            raise ValueError("need >= 3 sizes for an exponent fit")
        if list(self.sizes) != sorted(set(self.sizes)):
            raise ValueError("sizes must be strictly increasing")
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "eps", Fraction(self.eps))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "d": self.d, "sizes": list(self.sizes),
            "eps": geometry.format_rational(self.eps),
            "det_target": self.det_target, "seed": self.seed, "u": self.u,
            "variant": self.variant, "r": self.r,
            "tolerance": self.tolerance, "kfree_budget": self.kfree_budget,
            "kfree_max_size": self.kfree_max_size,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        d = dict(d)
        d["sizes"] = tuple(d["sizes"])
        d["eps"] = geometry.parse_rational(str(d.get("eps", "0")))
        return cls(**d)


@dataclass(frozen=True)
class SizeResult:
    size: int          # requested sweep parameter
    n: int             # the x value used in the fit
    count: int
    kfree_checked: bool = False
    kfree: Optional[bool] = None
    skipped: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {"size": self.size, "n": self.n, "count": self.count,
                "kfree_checked": self.kfree_checked, "kfree": self.kfree,
                "skipped": self.skipped, "note": self.note}


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    results: tuple[SizeResult, ...]
    slope: Optional[float]
    residual: Optional[float]
    predicted: Optional[Fraction]
    direction: str           # "upper" | "lower" | "none"
    verdict: str             # "pass" | "fail" | "bound-not-applicable"
    wall_time: float = 0.0   # excluded from serialization on purpose

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "results": [r.to_dict() for r in self.results],
            "slope": self.slope,
            "residual": self.residual,
            "predicted": (geometry.format_rational(self.predicted)
                          if self.predicted is not None else None),
            "direction": self.direction,
            "verdict": self.verdict,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        spec = ExperimentSpec.from_dict(d["spec"])
        results = tuple(SizeResult(**r) for r in d["results"])
        predicted = (geometry.parse_rational(d["predicted"])
                     if d.get("predicted") else None)
        return cls(spec, results, d["slope"], d["residual"], predicted,
                   d["direction"], d["verdict"])


def predicted_exponent(spec: ExperimentSpec) -> tuple[Optional[Fraction], str]:
    """(exponent, direction) the sweep is compared against."""
    d = spec.d
    if spec.kind == "minors":
        return Fraction(d) - Fraction(d, d * d - d + 1), "upper"
    if spec.kind == "st-config":
        return Fraction(d) - Fraction(2, 3), "lower"
    if spec.kind == "triangles":
        # triple product bound at equal dims 2: 3 * 4/5
        alphas = exponents(DimProfile((2, 2, 2))).alphas
        return sum(alphas, Fraction(0)), "upper"
    if spec.kind == "spheres":
        return Fraction(d) - Fraction(1, d), "upper"
    if spec.kind == "k1uu":
        return Fraction(d - 1), "lower"
    return None, "none"


def _size_seed(spec: ExperimentSpec, size: int) -> int:
    return (spec.seed * 1_000_003 + size) % 2**63


def _random_matrix(spec: ExperimentSpec, n: int) -> PointConfig:
    """Seeded integer matrix with entries in [1, ceil(sqrt(n))]: the range
    grows with n so the unit-minor density thins the way the asymptotic
    regime expects (a fixed range would pin the exponent at d)."""
    rng = random.Random(_size_seed(spec, n))
    top = max(2, math.isqrt(n - 1) + 1)
    cols = set()
    while len(cols) < n:
        cols.add(tuple(Fraction(rng.randint(1, top))
                       for _ in range(spec.d)))
    return PointConfig(spec.d, tuple(sorted(cols)), distinct=True)


def _random_triangle_points(spec: ExperimentSpec, n: int) -> PointConfig:
    """Quarter-integer points in a box of side ~ n^0.65: the area band
    thins as n grows (exponent visibly below 3) and stays sparse enough
    that complete 2,2,2 blocks do not show up at desk scale."""
    rng = random.Random(_size_seed(spec, n))
    top = max(3, round(n ** 0.65))
    pts = set()
    while len(pts) < n:
        pts.add((Fraction(rng.randint(0, 4 * top), 4),
                 Fraction(rng.randint(0, 4 * top), 4)))
    return PointConfig(2, tuple(sorted(pts)))


def _cluster_triangle_points(spec: ExperimentSpec, n: int) -> PointConfig:
    """Three tight clusters at the corners of a unit-area triangle: every
    transversal triple has area near 1, so the pattern precondition fails
    by design."""
    rng = random.Random(_size_seed(spec, n))
    corners = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)),
               (Fraction(0), Fraction(1))]
    pts = set()
    while len(pts) < n:
        cx, cy = corners[len(pts) % 3]
        pts.add((cx + Fraction(rng.randint(-100, 100), 10**4),
                 cy + Fraction(rng.randint(-100, 100), 10**4)))
    return PointConfig(2, tuple(sorted(pts)))


def _triangle_points(spec: ExperimentSpec, n: int) -> PointConfig:
    if spec.variant == "clusters":
        return _cluster_triangle_points(spec, n)
    return _random_triangle_points(spec, n)


def _random_spheres(spec: ExperimentSpec, n: int) -> SphereConfig:
    """Centers spread in a box growing like n^(1/d): keeps intersections
    sparse enough for the asymptotic regime while staying nonzero."""
    rng = random.Random(_size_seed(spec, n))
    if spec.d == 3:
        boxq = max(8, round(4 * 2.2 * n ** (1.0 / 3)))
    else:
        boxq = max(8, round(4 * 1.2 * math.sqrt(n)))
    spheres = set()
    while len(spheres) < n:
        center = tuple(Fraction(rng.randint(0, boxq), 4)
                       for _ in range(spec.d))
        r2 = Fraction(rng.randint(2, 10), 4)
        spheres.add((center, r2))
    return SphereConfig(spec.d, tuple(sorted(spheres)), distinct=True)


def _check_kfree(spec: ExperimentSpec, H, k: int) -> tuple[bool, Optional[bool], str]:
    pattern = ForbiddenPattern((spec.u,) * k)
    try:
        res = contains_complete(H, pattern, budget=spec.kfree_budget)
        return True, not res.found, ""
    except BudgetExceededError:
        return False, None, "pattern check budget exhausted"


def _run_size(spec: ExperimentSpec, size: int) -> SizeResult:
    if spec.kind in ("minors", "st-config"):
        # one sweep per size, as for triangles and spheres below; the
        # hypergraph holds the d!/2 orderings of each unit subset whose
        # determinant is exactly 1
        if spec.kind == "minors":
            cfg, note = _random_matrix(spec, size), ""
        else:
            cfg = st_lower_bound_minor_config(spec.d, size)
            note = "config too large for pattern check"
        if cfg.n > spec.kfree_max_size:
            return SizeResult(size, cfg.n, count_unit_minors(cfg), note=note)
        H = unit_minor_hypergraph(cfg, DetTarget.EXACTLY_ONE)
        checked, free, note = _check_kfree(spec, H, spec.d)
        return SizeResult(size, cfg.n,
                          H.num_edges // (math.factorial(spec.d) // 2),
                          checked, free, False, note)
    if spec.kind in ("triangles", "spheres"):
        # one sweep per size: the count is the number of hit tuples, read
        # off the hypergraph when the pattern check needs it anyway
        if spec.kind == "triangles":
            cfg, k = _triangle_points(spec, size), 3
            count_fn = count_almost_unit_area
            build = almost_unit_area_hypergraph
        else:
            cfg, k = _random_spheres(spec, size), min(spec.d, 3)
            count_fn = count_sphere_intersections
            build = (lambda c: sphere_intersection_hypergraph(c)[0])
        if size > spec.kfree_max_size:
            return SizeResult(size, cfg.n, count_fn(cfg))
        H = build(cfg)
        checked, free, note = _check_kfree(spec, H, k)
        return SizeResult(size, cfg.n, H.num_edges // math.factorial(k),
                          checked, free, False, note)
    if spec.kind == "k1uu":
        cfg = k1uu_config(spec.d, size)
        count = count_unit_minors(cfg)
        return SizeResult(size, cfg.n, count)
    if spec.kind == "partition":
        rng = random.Random(_size_seed(spec, size))
        pts = set()
        while len(pts) < size:
            pts.add(tuple(Fraction(rng.randint(-10**4, 10**4))
                          for _ in range(spec.d)))
        cfg = PointConfig(spec.d, tuple(sorted(pts)))
        try:
            part = stone_tukey_partition(cfg, spec.r, seed=spec.seed)
            verify_partition(cfg, part)
            return SizeResult(size, size, max(part.max_cell, 1),
                              note=f"degree={part.total_degree}")
        except PartitionSearchError as err:
            return SizeResult(size, size, 0, skipped=True, note=str(err))
    raise AssertionError(spec.kind)


def _naive_recount(spec: ExperimentSpec, size: int) -> Optional[int]:
    """Independently coded counter for the oracle cross-check."""
    if spec.kind in ("minors", "st-config", "k1uu"):
        if spec.kind == "minors":
            cfg = _random_matrix(spec, size)
        elif spec.kind == "st-config":
            cfg = st_lower_bound_minor_config(spec.d, size)
        else:
            cfg = k1uu_config(spec.d, size)
        if math.comb(cfg.n, spec.d if spec.kind != "k1uu" else spec.d) > 200_000:
            return None
        return count_unit_minors_naive(cfg)
    if spec.kind == "triangles":
        return count_almost_unit_area_naive(_triangle_points(spec, size))
    if spec.kind == "spheres":
        return count_sphere_intersections_naive(_random_spheres(spec, size))
    return None


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run the sweep described by the spec; deterministic given the seed.

    Per size: build the configuration, count exactly, verify the
    pattern-freeness precondition where it applies (skipped with a note
    when the budget trips).  The two smallest completed sizes are
    recounted by an independent naive enumerator.  The slope of the
    log-log fit is compared against the predicted exponent.
    """
    t0 = time.time()
    workers = os.environ.get("ZARANK_THREADS")
    max_workers = max(1, int(workers)) if workers else min(8, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        results = list(pool.map(lambda s: _run_size(spec, s), spec.sizes))
    results.sort(key=lambda r: r.size)

    cross_checked = 0
    for res in results:
        if res.skipped or cross_checked >= 2:
            continue
        naive = _naive_recount(spec, res.size)
        if naive is not None and naive != res.count:
            raise AssertionError(
                f"oracle mismatch at size {res.size}: {res.count} != {naive}")
        cross_checked += 1

    predicted, direction = predicted_exponent(spec)
    pairs = [(r.n, r.count) for r in results if not r.skipped]
    slope = residual = None
    if spec.kind != "partition":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                slope, residual = fit_exponent(pairs)
            except ValueError:
                slope = residual = None

    freeness_violated = any(r.kfree_checked and r.kfree is False
                            for r in results)
    if spec.kind == "partition":
        verdict = "pass" if all(not r.skipped for r in results) else "fail"
    elif freeness_violated and spec.kind in ("triangles", "spheres"):
        verdict = "bound-not-applicable"
    elif slope is None:
        verdict = "fail"
    elif direction == "upper":
        verdict = "pass" if slope <= float(predicted) + spec.tolerance else "fail"
    elif direction == "lower":
        verdict = "pass" if slope >= float(predicted) - spec.tolerance else "fail"
    else:
        verdict = "pass"
    return ExperimentReport(spec, tuple(results), slope, residual, predicted,
                            direction, verdict, time.time() - t0)


# ---------------------------------------------------------------------------
# serialization


def report_json(report: ExperimentReport) -> str:
    """Canonical JSON (sorted keys, no volatile fields): byte-stable."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def report_csv(report: ExperimentReport) -> str:
    lines = ["size,n,count,kfree_checked,kfree,skipped,note"]
    for r in report.results:
        kf = "" if r.kfree is None else str(r.kfree).lower()
        lines.append(f"{r.size},{r.n},{r.count},{str(r.kfree_checked).lower()},"
                     f"{kf},{str(r.skipped).lower()},{r.note}")
    return "\n".join(lines) + "\n"


def report_svg(report: ExperimentReport, width: int = 480,
               height: int = 360) -> str:
    """Minimal log-log scatter with the fitted line; deterministic text."""
    pts = [(r.n, r.count) for r in report.results
           if not r.skipped and r.count > 0]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    if pts:
        lx = [math.log10(n) for n, _ in pts]
        ly = [math.log10(c) for _, c in pts]
        x0, x1 = min(lx), max(lx)
        y0, y1 = min(ly), max(ly)
        spanx = (x1 - x0) or 1.0
        spany = (y1 - y0) or 1.0
        pad = 30

        def sx(v):
            return pad + (v - x0) / spanx * (width - 2 * pad)

        def sy(v):
            return height - pad - (v - y0) / spany * (height - 2 * pad)

        if report.slope is not None and len(pts) >= 2:
            xbar = sum(lx) / len(lx)
            ybar = sum(ly) / len(ly)
            s = report.slope * math.log(10) / math.log(10)
            ia = ybar - s * xbar
            parts.append(
                f'<line x1="{sx(x0):.2f}" y1="{sy(s * x0 + ia):.2f}" '
                f'x2="{sx(x1):.2f}" y2="{sy(s * x1 + ia):.2f}" '
                'stroke="steelblue" stroke-width="1.5"/>')
        for vx, vy in zip(lx, ly):
            parts.append(f'<circle cx="{sx(vx):.2f}" cy="{sy(vy):.2f}" '
                         'r="3" fill="crimson"/>')
        label = (f"slope={report.slope:.4f}" if report.slope is not None
                 else "no fit")
        parts.append(f'<text x="{pad}" y="16" font-size="12" '
                     f'font-family="monospace">{report.spec.kind}: {label} '
                     f'verdict={report.verdict}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(report: ExperimentReport, fmt: str, path: str) -> None:
    if fmt == "json":
        text = report_json(report)
    elif fmt == "csv":
        text = report_csv(report)
    elif fmt == "svg-scatter":
        text = report_svg(report)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
