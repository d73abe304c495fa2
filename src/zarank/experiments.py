"""Experiment orchestration: build, count, fit, compare, report.

Sweeps build a configuration per size, count its hyperedges exactly,
verify the relevant pattern-freeness precondition where it applies, fit
a log-log slope, and compare the slope against the predicted exponent.
All comparisons are exponent comparisons with a tolerance (default
0.15); the bounds hide constants, so absolute counts are never compared.

Reports serialize deterministically: identical spec and seed produce
byte-identical JSON on any machine (wall time is kept on the report
object but excluded from the serialized form for exactly that reason).
"""

from __future__ import annotations

import json
import math
import numbers
import random
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import geometry
from .bounds import DimProfile, exponents
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
VARIANTS = ("random", "clusters")

# The generators' ranges, which also bound the sizes a spec may ask for:
# partition coordinates are integers in [-bound, bound], and each triangle
# cluster offsets its corner by integers in [-radius, radius] over 10^4.
_PARTITION_BOUND = 10**4
_CLUSTER_RADIUS = 100

# The naive recount enumerates k-subsets; it declines past this many.
_ORACLE_SUBSETS = 200_000


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_whole(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and v.is_integer())


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
        """Reject every spec the sweep cannot run as asked, so that it
        fails here and not by a crash or an endless generator loop."""
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for name in ("d", "seed", "u", "r", "kfree_budget", "kfree_max_size"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        if not all(_is_whole(s) for s in self.sizes):
            raise ValueError("sizes must be whole numbers")
        if len(self.sizes) < 3 and self.kind != "partition":
            raise ValueError("need >= 3 sizes for an exponent fit")
        if list(self.sizes) != sorted(set(self.sizes)):
            raise ValueError("sizes must be strictly increasing")
        if (isinstance(self.tolerance, bool)
                or not isinstance(self.tolerance, (int, float))):
            raise ValueError("tolerance must be a number")
        if not math.isfinite(self.tolerance):
            raise ValueError("tolerance must be finite")
        if self.kfree_budget < 1:
            raise ValueError("kfree_budget must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.det_target not in [t.value for t in DetTarget]:
            raise ValueError(f"unknown det_target {self.det_target!r}")
        if self.u < 1:
            raise ValueError("u must be >= 1")
        self._check_shape()
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.eps < 0:
            raise ValueError("eps must be >= 0")

    def _check_shape(self):
        """The dimension and the size range each kind's generator needs."""
        kind, d = self.kind, self.d
        if kind in ("minors", "st-config", "k1uu") and d < 2:
            raise ValueError(f"{kind} sweeps need d >= 2")
        if kind == "triangles" and d != 2:
            raise ValueError("triangles sweeps need d = 2")
        if kind == "spheres" and d not in (2, 3):
            raise ValueError("spheres sweeps need d = 2 or 3")
        if kind == "partition" and (d < 1 or self.r < 2):
            raise ValueError("partition sweeps need d >= 1 and r >= 2")
        least = {"st-config": 2, "partition": self.r}.get(kind, 1)
        most = None
        if kind == "partition":
            # four dimensions already hold more points than a sweep can run
            most = (2 * _PARTITION_BOUND + 1) ** min(d, 4)
        elif kind == "triangles" and self.variant == "clusters":
            most = 3 * (2 * _CLUSTER_RADIUS + 1) ** 2
        if self.sizes and self.sizes[0] < least:
            raise ValueError(f"{kind} sizes must be >= {least}")
        if most is not None and self.sizes and self.sizes[-1] > most:
            raise ValueError(f"{kind} sizes must be <= {most}")

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
        cols.add(tuple(rng.randint(1, top) for _ in range(spec.d)))
    return PointConfig.from_integers(spec.d, sorted(cols))


def _random_triangle_points(spec: ExperimentSpec, n: int) -> PointConfig:
    """Quarter-integer points in a box of side ~ n^0.65: the area band
    thins as n grows (exponent visibly below 3) and stays sparse enough
    that complete 2,2,2 blocks do not show up at desk scale."""
    rng = random.Random(_size_seed(spec, n))
    top = max(3, round(n ** 0.65))
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(0, 4 * top), rng.randint(0, 4 * top)))
    return PointConfig.from_integers(2, sorted(pts), [4] * n)


def _cluster_triangle_points(spec: ExperimentSpec, n: int) -> PointConfig:
    """Three tight clusters at the corners of a unit-area triangle: every
    transversal triple has area near 1, so the pattern precondition fails
    by design."""
    rng = random.Random(_size_seed(spec, n))
    corners = [(0, 0), (2 * 10**4, 0), (0, 10**4)]  # over 10^4
    pts = set()
    while len(pts) < n:
        cx, cy = corners[len(pts) % 3]
        pts.add((cx + rng.randint(-_CLUSTER_RADIUS, _CLUSTER_RADIUS),
                 cy + rng.randint(-_CLUSTER_RADIUS, _CLUSTER_RADIUS)))
    return PointConfig.from_integers(2, sorted(pts), [10**4] * n)


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
        center = tuple(rng.randint(0, boxq) for _ in range(spec.d))
        spheres.add(center + (rng.randint(2, 10),))
    # (center, r2) pairs and (center..., r2) rows sort alike
    return SphereConfig.from_integers(spec.d, sorted(spheres), [4] * n)


def _partition_points(spec: ExperimentSpec, n: int) -> PointConfig:
    """Distinct integer points in [-10^4, 10^4]^d."""
    rng = random.Random(_size_seed(spec, n))
    b = _PARTITION_BOUND
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randint(-b, b) for _ in range(spec.d)))
    return PointConfig.from_integers(spec.d, sorted(pts))


def _check_kfree(spec: ExperimentSpec, H, k: int) -> tuple[bool, Optional[bool], str]:
    pattern = ForbiddenPattern((spec.u,) * k)
    try:
        res = contains_complete(H, pattern, budget=spec.kfree_budget)
        return True, not res.found, ""
    except BudgetExceededError:
        return False, None, "pattern check budget exhausted"


def _arity(spec: ExperimentSpec) -> int:
    """The arity k of the tuples a sweep's hyperedges decide."""
    if spec.kind == "triangles":
        return 3
    if spec.kind == "spheres":
        return min(spec.d, 3)
    return spec.d


def _config(spec: ExperimentSpec,
            size: int) -> tuple[PointConfig | SphereConfig, int]:
    """The configuration a sweep builds at this size, and its arity."""
    if spec.kind == "minors":
        cfg = _random_matrix(spec, size)
    elif spec.kind == "st-config":
        cfg = st_lower_bound_minor_config(spec.d, size)
    elif spec.kind == "k1uu":
        cfg = k1uu_config(spec.d, size)
    elif spec.kind == "triangles" and spec.variant == "clusters":
        cfg = _cluster_triangle_points(spec, size)
    elif spec.kind == "triangles":
        cfg = _random_triangle_points(spec, size)
    elif spec.kind == "spheres":
        cfg = _random_spheres(spec, size)
    else:
        raise AssertionError(spec.kind)
    return cfg, _arity(spec)


def _run_size(spec: ExperimentSpec, size: int) -> SizeResult:
    if spec.kind == "partition":
        cfg = _partition_points(spec, size)
        try:
            part = stone_tukey_partition(cfg, spec.r, seed=spec.seed)
            verify_partition(cfg, part)
            return SizeResult(size, size, max(part.max_cell, 1),
                              note=f"degree={part.total_degree}")
        except PartitionSearchError as err:
            return SizeResult(size, size, 0, skipped=True, note=str(err))
    cfg, k = _config(spec, size)
    if spec.kind == "k1uu" or cfg.n > spec.kfree_max_size:
        if spec.kind == "triangles":
            count = count_almost_unit_area(cfg)
        elif spec.kind == "spheres":
            count = count_sphere_intersections(cfg)
        else:
            count = count_unit_minors(cfg)
        note = ("config too large for pattern check"
                if spec.kind == "st-config" else "")
        return SizeResult(size, cfg.n, count, note=note)
    # one sweep per size: the hypergraph holds the orderings of each hit
    # subset (for unit minors the d!/2 with determinant exactly 1, or all
    # d! for +-1), so the count is read off the hypergraph the pattern
    # check needs anyway
    if spec.kind == "triangles":
        H, orderings = almost_unit_area_hypergraph(cfg), math.factorial(k)
    elif spec.kind == "spheres":
        H = sphere_intersection_hypergraph(cfg)[0]
        orderings = math.factorial(k)
    else:
        target = DetTarget(spec.det_target)
        H = unit_minor_hypergraph(cfg, target)
        orderings = math.factorial(k) // (
            2 if target is DetTarget.EXACTLY_ONE else 1)
    checked, free, note = _check_kfree(spec, H, k)
    return SizeResult(size, cfg.n, H.num_edges // orderings,
                      checked, free, False, note)


def _naive_recount(spec: ExperimentSpec, size: int) -> Optional[int]:
    """Independently coded counter for the oracle cross-check: the
    `Fraction` oracles of `geometry`, which share no code with the integer
    sweeps.  None for partition sweeps and for configurations with more
    than _ORACLE_SUBSETS k-subsets.  The cap bounds the subsets an oracle
    may visit; the d=3 sphere oracle tests only the triples whose three
    pairs meet."""
    if spec.kind == "partition":
        return None
    cfg, k = _config(spec, size)
    if math.comb(cfg.n, k) > _ORACLE_SUBSETS:
        return None
    if spec.kind == "triangles":
        return count_almost_unit_area_naive(cfg)
    if spec.kind == "spheres":
        return count_sphere_intersections_naive(cfg)
    return count_unit_minors_naive(cfg)


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run the sweep described by the spec; deterministic given the seed.

    Per size: build the configuration, count exactly, verify the
    pattern-freeness precondition where it applies (skipped with a note
    when the budget trips).  The two smallest completed sizes within the
    oracle's cap are recounted by an independent `Fraction` oracle
    (`_naive_recount`), and a mismatch raises.  The slope of the log-log
    fit is compared against the predicted exponent.
    """
    t0 = time.time()
    results = [_run_size(spec, s) for s in spec.sizes]

    # the oracle's cap is on k-subsets, so no size after the first past it
    # fits; res.n decides it before the recount builds anything
    cross_checked = 0
    for res in results:
        if res.skipped:
            continue
        if (cross_checked >= 2
                or math.comb(res.n, _arity(spec)) > _ORACLE_SUBSETS):
            break
        naive = _naive_recount(spec, res.size)
        if naive is None:
            break
        if naive != res.count:
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
            s = report.slope
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
