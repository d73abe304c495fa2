"""Span tracer for the traced run.

Wrappers go on the module attribute that the caller looks up, so the
program itself is not edited: `experiments` imported its geometry
functions by name, so those wrappers go on `zarank.experiments.<fn>`;
`geometry` calls `kernels.<fn>` through the module, so kernel wrappers go
on `zarank.kernels.<fn>`; method wrappers go on the class.  Only the
traced run installs them, and `uninstall` puts every original back.

Each span records name, start, end, parent and thread, plus a few
attributes computed from the call's inputs and outputs.  Spans stay in
memory and are written out at exit.  Parent stacks are per thread; a span
that starts on a thread with an empty stack (a `run_experiment` pool
worker) takes the running `run_experiment` span as its parent.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._anchor: int | None = None
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, attrs=None,
             anchor: bool = False) -> None:
        """Replace owner.attr by a span-recording wrapper.

        attrs(args, kwargs, result, error) returns the span's attributes;
        it runs after the span's end time is taken.  anchor=True makes
        the span the parent of spans started on threads with no span of
        their own (the experiment pool workers).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._anchor
            sid = next(tracer._ids)
            stack.append(sid)
            if anchor:
                outer, tracer._anchor = tracer._anchor, sid
            result = error = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if anchor:
                    tracer._anchor = outer
                span = Span(sid, name, start, end, parent,
                            threading.get_ident())
                if attrs is not None:
                    span.attrs = attrs(args, kwargs, result, error)
                if error is not None:
                    span.attrs["error"] = type(error).__name__
                tracer.spans.append(span)

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


# ---------------------------------------------------------------------------
# attribute helpers: work counts from call inputs and outputs


def _config_attrs(k_of):
    """Attributes of a geometry call on a PointConfig/SphereConfig: the
    configuration's size, the tuple arity decided, and the configuration
    itself (turned into a hashable key when the pass is summarised)."""
    def attrs(args, kwargs, result, error):
        cfg = args[0]
        return {"n": cfg.n, "k": k_of(cfg), "config": cfg}
    return attrs


def _edges_attrs(k_of):
    base = _config_attrs(k_of)

    def attrs(args, kwargs, result, error):
        out = base(args, kwargs, result, error)
        if result is not None:
            graph = result[0] if isinstance(result, tuple) else result
            out["edges"] = graph.num_edges
        return out
    return attrs


def _kernel_attrs(k):
    def attrs(args, kwargs, result, error):
        return {"n": len(args[0]), "k": k}
    return attrs


def _detect_attrs(args, kwargs, result, error):
    if error is not None:
        return {"exhausted": type(error).__name__ == "BudgetExceededError"}
    return {"tests": result.tests}


def _partition_attrs(args, kwargs, result, error):
    """Candidates tried (the counter is cumulative, so the last level's
    value), and the levels accepted by a search that tried them; d=1
    cuts and empty levels try none."""
    if result is None or not result.levels:
        return {}
    tried = result.levels[-1].candidates_tried
    return {"candidates": tried, "levels": result.num_levels if tried else 0}


def _undecided_attrs(args, kwargs, result, error):
    return {"undecided": type(error).__name__ == "ComparisonUndecided"}


def install(tracer: Tracer, zarank) -> None:
    """Install every wrapper the per-layer metrics are computed from.

    `zarank` is a namespace holding the imported modules cli,
    experiments, kernels, partition, polynomials, bounds and exactnum.
    """
    cli, ex = zarank.cli, zarank.experiments
    dim = (lambda cfg: cfg.dim)
    three = (lambda cfg: 3)
    sphere_k = (lambda cfg: min(cfg.dim, 3))

    tracer.wrap(cli, "main", "cli")
    tracer.wrap(cli, "run_experiment", "experiments.run", anchor=True)
    tracer.wrap(ex, "_run_size", "experiments.size")
    tracer.wrap(ex, "_naive_recount", "geometry.oracle")
    tracer.wrap(ex, "count_unit_minors_naive", "geometry.oracle",
                _config_attrs(dim))
    tracer.wrap(ex, "count_almost_unit_area_naive", "geometry.oracle",
                _config_attrs(three))
    tracer.wrap(ex, "count_unit_minors", "geometry.count", _config_attrs(dim))
    tracer.wrap(ex, "count_almost_unit_area", "geometry.count",
                _config_attrs(three))
    tracer.wrap(ex, "count_sphere_intersections", "geometry.count",
                _config_attrs(sphere_k))
    tracer.wrap(ex, "unit_minor_hypergraph", "geometry.hypergraph",
                _edges_attrs(dim))
    tracer.wrap(ex, "almost_unit_area_hypergraph", "geometry.hypergraph",
                _edges_attrs(three))
    tracer.wrap(ex, "sphere_intersection_hypergraph", "geometry.hypergraph",
                _edges_attrs(sphere_k))
    tracer.wrap(ex, "contains_complete", "hypergraph.detect", _detect_attrs)

    km = zarank.kernels
    tracer.wrap(km, "count_unit_pairs", "kernels.unit_pairs",
                _kernel_attrs(2))
    tracer.wrap(km, "count_unit_triples", "kernels.unit_triples",
                _kernel_attrs(3))
    tracer.wrap(km, "count_area_triples", "kernels.area_triples",
                _kernel_attrs(3))

    pm = zarank.partition
    tracer.wrap(pm, "stone_tukey_partition", "partition.search",
                _partition_attrs)
    tracer.wrap(pm, "verify_partition", "partition.verify")
    tracer.wrap(zarank.polynomials.MultiPoly, "sign_at",
                "polynomials.sign_at")

    bm = zarank.bounds
    tracer.wrap(bm, "check_matrix_identity", "bounds.matrix")
    tracer.wrap(bm, "check_scaling_identity", "bounds.scaling")
    tracer.wrap(bm, "check_monotonicity", "bounds.monotonicity")
    tracer.wrap(bm, "check_dominance", "bounds.dominance")

    en = zarank.exactnum
    tracer.wrap(en.PowerProduct, "compare", "exactnum.product_compare")
    tracer.wrap(en.PowerSum, "compare", "exactnum.sum_compare",
                _undecided_attrs)
    tracer.wrap(en.PowerSum, "bounds", "exactnum.sum_bounds")


# ---------------------------------------------------------------------------
# summarising a pass


# Every span name, and the per-layer time metric its self time adds to.
SELF_TIME_METRIC = {
    "cli": "cli.self_s",
    "experiments.run": "experiments.self_s",
    "experiments.size": "experiments.self_s",
    "geometry.count": "geometry.count_s",
    "geometry.hypergraph": "geometry.hypergraph_s",
    "geometry.oracle": "geometry.oracle_s",
    "hypergraph.detect": "hypergraph.detect_s",
    "kernels.unit_pairs": "kernels.unit_pairs_s",
    "kernels.unit_triples": "kernels.unit_triples_s",
    "kernels.area_triples": "kernels.area_triples_s",
    "partition.search": "partition.search_s",
    "partition.verify": "partition.verify_s",
    "polynomials.sign_at": "polynomials.sign_at_s",
    "bounds.matrix": "bounds.matrix_s",
    "bounds.scaling": "bounds.scaling_s",
    "bounds.monotonicity": "bounds.monotonicity_s",
    "bounds.dominance": "bounds.dominance_s",
    "exactnum.product_compare": "exactnum.product_compare_s",
    "exactnum.sum_compare": "exactnum.sum_compare_s",
    "exactnum.sum_bounds": "exactnum.sum_bounds_s",
}

# Per-layer metrics that are counts or ratios computed from call inputs
# and outputs rather than measured; they repeat exactly from run to run.
COMPUTED = ("kernels.tuples", "geometry.tuples", "geometry.retest_ratio",
            "geometry.edges")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _config_key(cfg) -> tuple:
    data = cfg.spheres if hasattr(cfg, "spheres") else cfg.points
    return (type(cfg).__name__, cfg.dim, hash(data))


def summarise(spans: list[Span], wall: float, main_thread: int) -> dict:
    """Per-layer metrics of one traced pass that took `wall` seconds.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.  Children on the span's own thread nest
    inside it; children on pool threads may overlap one another, so the
    union of their intervals is what is subtracted.  Geometry spans that
    run inside the naive recount count as oracle time.
    """
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent in by_id:
            children.setdefault(s.parent, []).append(s)

    def under_oracle(s: Span) -> bool:
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == "geometry.oracle":
                return True
            p = by_id.get(p.parent)
        return False

    m = {name: 0.0 for name in SELF_TIME_METRIC.values()}
    counts = dict.fromkeys(
        ("hypergraph.detect_calls", "hypergraph.tests",
         "hypergraph.budget_exhausted", "partition.candidates",
         "partition.levels", "exactnum.product_compare_calls",
         "exactnum.sum_bounds_calls", "exactnum.undecided",
         "kernels.tuples", "geometry.tuples", "geometry.edges"), 0)
    run_s = size_busy = 0.0
    decided: dict[tuple, int] = {}
    distinct: dict[tuple, int] = {}
    for s in spans:
        kids = children.get(s.sid, [])
        self_s = s.duration - _covered(
            [(max(c.start, s.start), min(c.end, s.end)) for c in kids])
        name = s.name
        if name.startswith("geometry.") and under_oracle(s):
            name = "geometry.oracle"
        m[SELF_TIME_METRIC[name]] += self_s
        a = s.attrs
        if name == "experiments.run":
            run_s += s.duration
        elif name == "experiments.size":
            size_busy += s.duration
        elif name == "hypergraph.detect":
            counts["hypergraph.detect_calls"] += 1
            counts["hypergraph.tests"] += a.get("tests", 0)
            counts["hypergraph.budget_exhausted"] += int(a.get("exhausted", 0))
        elif name == "partition.search":
            counts["partition.candidates"] += a.get("candidates", 0)
            counts["partition.levels"] += a.get("levels", 0)
        elif name == "exactnum.product_compare":
            counts["exactnum.product_compare_calls"] += 1
        elif name == "exactnum.sum_bounds":
            counts["exactnum.sum_bounds_calls"] += 1
        elif name == "exactnum.sum_compare":
            counts["exactnum.undecided"] += int(a.get("undecided", 0))
        elif name.startswith("kernels."):
            counts["kernels.tuples"] += math.comb(a["n"], a["k"])
        if "config" in a:
            tuples = math.comb(a["n"], a["k"])
            key = _config_key(a["config"])
            decided[key] = decided.get(key, 0) + tuples
            distinct[key] = tuples
            if not any(c.name.startswith("kernels.") for c in kids):
                counts["geometry.tuples"] += tuples
            counts["geometry.edges"] += a.get("edges", 0)

    kernel_s = (m["kernels.unit_pairs_s"] + m["kernels.unit_triples_s"]
                + m["kernels.area_triples_s"])
    total_decided = sum(decided.values())
    roots = [(s.start, s.end) for s in spans
             if s.parent is None and s.thread == main_thread]
    out = dict(m)
    out.update(counts)
    out.update({
        "experiments.run_s": run_s,
        "experiments.parallelism": size_busy / run_s if run_s else 0.0,
        "kernels.tuples_per_s": (counts["kernels.tuples"] / kernel_s
                                 if kernel_s else 0.0),
        "geometry.retest_ratio": (
            (total_decided - sum(distinct.values())) / total_decided
            if total_decided else 0.0),
        "partition.accept_ratio": (
            counts["partition.levels"] / counts["partition.candidates"]
            if counts["partition.candidates"] else 0.0),
        "trace.unattributed_s": wall - _covered(roots),
    })
    return out


def finalise(spans: list[Span]) -> None:
    """Replace the configuration objects held in span attributes by their
    keys, so a pass's inputs are not kept alive after it is summarised."""
    for s in spans:
        cfg = s.attrs.pop("config", None)
        if cfg is not None:
            s.attrs["config_key"] = repr(_config_key(cfg))
