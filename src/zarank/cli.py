"""The `zarank` command line tool.

Subcommands: bounds, build, detect, shatter, partition, experiment,
verify.  JSON goes to stdout; exact rationals are rendered as "p/q"
strings next to float approximations.  Exit codes: 0 all verdicts pass,
2 a verdict failed, 3 a search budget was exhausted, 4 malformed input
(a usage error, an option value out of range, an unreadable or
ill-formed input file or experiment spec, an output path that cannot be
written, or arguments the bound calculus rejects), reported as one line
of JSON with an "error" key.

`experiment` exits 3 only when a size is skipped (a partition search
failed).  A pattern check that runs out of its `kfree_budget` does not
change the exit code: its size reports `kfree_checked: false` with the
note "pattern check budget exhausted", and the sweep exits 0 unless the
verdict fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import stat
import sys
from fractions import Fraction

from . import __version__
from .bounds import (
    DimProfile,
    SizeProfile,
    check_dominance,
    check_matrix_identity,
    check_monotonicity,
    check_scaling_identity,
    erdos_bound,
    eval_E,
    eval_F,
    exponents,
)
from .experiments import (
    ExperimentSpec,
    report_csv,
    report_json,
    report_svg,
    run_experiment,
)
from .geometry import (
    DetTarget,
    PointConfig,
    SphereConfig,
    almost_unit_area_hypergraph,
    format_rational,
    k1uu_config,
    parse_rational,
    sphere_intersection_hypergraph,
    st_lower_bound_minor_config,
    unit_minor_hypergraph,
)
from .hypergraph import (
    BudgetExceededError,
    ForbiddenPattern,
    KPartiteHypergraph,
    contains_complete,
    erdos_double_count,
    neighborhood_system,
    primal_shatter,
)
from .partition import PartitionSearchError, stone_tukey_partition, verify_partition

EXIT_OK = 0
EXIT_VERDICT = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4


class InputError(Exception):
    """Malformed input: the command exits with EXIT_INPUT."""


class _Parser(argparse.ArgumentParser):
    """Usage errors are malformed input, not argparse's exit status 2
    (which would read as a failed verdict); subparsers inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _load(path, parse):
    """Read and parse an input file; any failure is an InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError, ZeroDivisionError) as err:
        raise InputError(f"{path}: {err}") from None


def _frs(x) -> str:
    return format_rational(Fraction(x))


def _bound_json(v) -> dict:
    return {
        "terms": [[[_frs(b), _frs(e)] for b, e in term] for term in v.pairs],
        "float": float(v),
    }


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.replace(",", " ").split())


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(args) -> int:
    try:
        dims = _parse_int_list(args.dims)
        d = DimProfile(dims)
        alphas = exponents(d).alphas
        sizes = _parse_int_list(args.sizes) if args.sizes else (100,) * d.k
        if len(sizes) != d.k:
            raise ValueError(f"--sizes has {len(sizes)} values for "
                             f"{d.k} dims")
        n = SizeProfile(sizes)
        eps = parse_rational(args.eps)
        if eps < 0:
            raise ValueError(f"--eps {args.eps} is negative")
        if args.u < 1:
            raise ValueError(f"--u {args.u} is not >= 1")
        checks = [c.strip() for c in args.check.split(",") if c.strip()]
        for name in checks:
            if name not in ("matrix", "scaling", "monotonicity", "dominance"):
                raise ValueError(f"unknown check {name!r}")
        if "dominance" in checks and d.k < 2:
            raise ValueError("--check dominance needs at least two dims")
    except ValueError as err:
        raise InputError(str(err)) from None
    out = {
        "dims": list(dims),
        "sizes": list(sizes),
        "eps": _frs(eps),
        "alphas": [_frs(a) for a in alphas],
        "E": _bound_json(eval_E(d, n)),
        "F": _bound_json(eval_F(d, n, eps)),
        "erdos": _bound_json(erdos_bound(d.k, (args.u,) * d.k, n)),
        "checks": {},
    }
    failed = False
    for name in checks:
        if name == "matrix":
            rep = check_matrix_identity(d)
            out["checks"]["matrix"] = {
                "ok": rep.ok,
                "residuals": [_frs(r) for r in rep.residuals],
            }
            failed |= not rep.ok
        elif name == "scaling":
            rows = []
            for i in range(d.k):
                for r in (Fraction(2), Fraction(1, 2), Fraction(7, 5)):
                    rep = check_scaling_identity(d, n, r, i)
                    rows.append({"index": i, "r": _frs(r), "ok": rep.ok,
                                 "r_exponent": _frs(rep.lhs_r_exponent)})
                    failed |= not rep.ok
            out["checks"]["scaling"] = rows
        elif name == "monotonicity":
            rows = []
            for i in range(d.k):
                # decrementing d_i must leave a profile: d_i >= 2, and no
                # second dimension equal to 1
                if d.dims[i] < 2 or (d.dims[i] == 2 and 1 in d.dims):
                    continue
                rep = check_monotonicity(d, n, i, eps)
                rows.append({"index": i,
                             "hypothesis_met": rep.hypothesis_met,
                             "holds": rep.holds})
                failed |= rep.hypothesis_met and not rep.holds
            out["checks"]["monotonicity"] = rows
        elif name == "dominance":
            rep = check_dominance(d, n, eps)
            out["checks"]["dominance"] = {
                "hypothesis_met": rep.hypothesis_met,
                "holds": rep.holds,
                "constant": _frs(rep.constant),
                "ratio": rep.ratio,
            }
            failed |= rep.hypothesis_met and not rep.holds
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_VERDICT if failed else EXIT_OK


# ---------------------------------------------------------------------------
# build


def _write_out(text: str, path) -> None:
    """Write `text` to `path` (stdout if none); an unwritable path is an
    InputError.

    A regular file is overwritten in place and then cut at the end of
    `text`, never truncated to zero first: on ext4 (`auto_da_alloc`),
    closing a file that was truncated to zero while it held unwritten
    data waits for its writeback.  Pipes and devices are not cut."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as err:
        raise InputError(f"{path}: {err}") from None


def cmd_build(args) -> int:
    kind = args.kind
    source = {"minors": "points", "triangles": "points",
              "spheres": "spheres"}.get(kind)
    if source and getattr(args, source) is None:
        raise InputError(f"--kind {kind} needs --{source}")
    target = DetTarget(args.target)
    degenerate = ()
    if kind == "minors":
        cfg = _load(args.points, PointConfig.from_text)
        if cfg.dim < 2:
            raise InputError(f"{args.points}: minors need dimension >= 2, "
                             f"not {cfg.dim}")
        if cfg.has_repeats():
            raise InputError(f"{args.points}: repeated columns are not allowed")
        H = unit_minor_hypergraph(cfg, target)
    elif kind == "triangles":
        try:
            lo, hi = parse_rational(args.lo), parse_rational(args.hi)
        except ValueError as err:
            raise InputError(f"--lo/--hi: {err}") from None
        if lo > hi:
            raise InputError("need --lo <= --hi")
        cfg = _load(args.points, PointConfig.from_text)
        if cfg.dim != 2:
            raise InputError(f"{args.points}: triangles need dimension 2, "
                             f"not {cfg.dim}")
        H = almost_unit_area_hypergraph(cfg, lo, hi)
    elif kind == "spheres":
        cfg = _load(args.spheres, SphereConfig.from_text)
        H, degenerate = sphere_intersection_hypergraph(cfg)
    else:
        try:
            if kind == "st-config":
                cfg = st_lower_bound_minor_config(args.d, args.scale)
            else:  # k1uu, the last of the parser's choices
                cfg = k1uu_config(args.d, args.u)
        except ValueError as err:  # the generators' argument checks
            raise InputError(str(err)) from None
        _write_out(cfg.to_text(), args.out)
        if args.hypergraph:
            _write_out(unit_minor_hypergraph(cfg, target).to_text(),
                       args.hypergraph)
        return EXIT_OK
    _write_out(H.to_text(), args.out)
    if degenerate:
        print(f"degenerate edges: {sorted(degenerate)}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# detect / shatter


def cmd_detect(args) -> int:
    H = _load(args.hypergraph, KPartiteHypergraph.from_text)
    try:
        pat = ForbiddenPattern(_parse_int_list(args.pattern))
    except ValueError as err:
        raise InputError(f"--pattern: {err}") from None
    if pat.k != H.k:
        raise InputError(f"--pattern has {pat.k} class sizes for a "
                         f"{H.k}-partite hypergraph")
    if args.budget < 1:
        raise InputError(f"--budget {args.budget} is not >= 1")
    try:
        res = contains_complete(H, pat, budget=args.budget)
    except BudgetExceededError as err:
        print(json.dumps({"error": str(err)}))
        return EXIT_BUDGET
    print(json.dumps({
        "found": res.found,
        "witness": [list(c) for c in res.witness] if res.witness else None,
        "tests": res.tests,
    }, indent=2))
    return EXIT_OK


def cmd_shatter(args) -> int:
    H = _load(args.hypergraph, KPartiteHypergraph.from_text)
    try:
        F = neighborhood_system(H, args.ground_part)
    except ValueError as err:
        raise InputError(str(err)) from None
    if not 1 <= args.z <= F.ground_size:
        raise InputError(f"--z {args.z} is outside 1..{F.ground_size}")
    for flag, value in (("--trials", args.trials), ("--budget", args.budget)):
        if value < 1:
            raise InputError(f"{flag} {value} is not >= 1")
    try:
        value = primal_shatter(F, args.z, mode=args.mode, seed=args.seed,
                               trials=args.trials, budget=args.budget)
    except BudgetExceededError as err:
        print(json.dumps({"error": str(err)}))
        return EXIT_BUDGET
    print(json.dumps({"z": args.z, "mode": args.mode, "value": value,
                      "exact": args.mode == "exhaustive"}, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# partition


def cmd_partition(args) -> int:
    cfg = _load(args.points, PointConfig.from_text)
    if not 2 <= args.r <= cfg.n:
        raise InputError(f"--r {args.r} is outside 2..{cfg.n}, the number "
                         "of points")
    for flag, value in (("--seed", args.seed), ("--slack", args.slack)):
        if value < 0:
            raise InputError(f"{flag} {value} is not >= 0")
    try:
        part = stone_tukey_partition(cfg, args.r, seed=args.seed,
                                     slack=args.slack)
    except PartitionSearchError as err:
        print(json.dumps({"error": str(err),
                          "partial_factors": len(err.partial_factors)}))
        return EXIT_BUDGET
    verify_partition(cfg, part)
    factors = []
    for f in part.factors:
        factors.append([[list(e), _frs(c)] for e, c in sorted(f.terms.items())])
    census = {"".join("+" if s > 0 else "-" for s in key): cnt
              for key, cnt in sorted(part.cell_census.items())}
    print(json.dumps({
        "n": cfg.n,
        "r": args.r,
        "slack": args.slack,
        "factors": factors,
        "degrees": [f.degree for f in part.factors],
        "total_degree": part.total_degree,
        "c_part": part.c_part,
        "cells": census,
        "boundary": part.boundary_count,
        "max_cell": part.max_cell,
        "cell_bound": part.cell_bound,
    }, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment


def _parse_spec(text: str) -> ExperimentSpec:
    """An ExperimentSpec from JSON text; every defect is a ValueError."""
    try:
        return ExperimentSpec.from_dict(json.loads(text))
    except KeyError as err:
        raise ValueError(f"spec has no {err} field") from None
    except TypeError as err:
        raise ValueError(f"invalid spec: {err}") from None


def cmd_experiment(args) -> int:
    spec = _load(args.spec, _parse_spec)
    report = run_experiment(spec)
    _write_out(report_json(report), args.out)
    if args.csv:
        _write_out(report_csv(report), args.csv)
    if args.svg:
        _write_out(report_svg(report), args.svg)
    print(f"verdict={report.verdict} slope={report.slope} "
          f"wall={report.wall_time:.2f}s", file=sys.stderr)
    if report.verdict == "fail":
        return EXIT_VERDICT
    if any(r.skipped for r in report.results):
        return EXIT_BUDGET
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites


def _emit(line: str, ok: bool) -> bool:
    print(("PASS " if ok else "FAIL ") + line)
    return ok


def _suite_lemmas(count: int, seed: int) -> bool:
    rng = random.Random(seed)
    ok = True
    bad = 0
    for _ in range(count):
        k = rng.randint(1, 6)
        d = DimProfile(tuple(rng.randint(2, 9) for _ in range(k)))
        if not check_matrix_identity(d).ok:
            bad += 1
    ok &= _emit(f"exponent system identity on {count} profiles ({bad} bad)",
                bad == 0)
    bad = 0
    for _ in range(count):
        k = rng.randint(1, 5)
        d = DimProfile(tuple(rng.randint(2, 7) for _ in range(k)))
        n = SizeProfile(tuple(rng.randint(1, 10**4) for _ in range(k)))
        r = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        if not check_scaling_identity(d, n, r, rng.randrange(k)).ok:
            bad += 1
    ok &= _emit(f"scaling identity on {count} draws ({bad} bad)", bad == 0)
    bad = met = 0
    while met < count:
        k = rng.randint(2, 4)
        d = DimProfile(tuple(rng.randint(2, 6) for _ in range(k)))
        n = SizeProfile(tuple(rng.randint(2, 10**3) for _ in range(k)))
        rep = check_monotonicity(d, n, rng.randrange(k), Fraction(1, 100))
        if not rep.hypothesis_met:
            continue
        met += 1
        if not rep.holds:
            bad += 1
    ok &= _emit(f"monotonicity on {count} hypothesis-satisfying draws "
                f"({bad} bad)", bad == 0)
    bad = met = 0
    while met < count:
        k = rng.randint(2, 3)
        d = DimProfile(tuple(rng.randint(2, 4) for _ in range(k)))
        n = SizeProfile(tuple(rng.randint(10**3, 10**6) for _ in range(k)))
        rep = check_dominance(d, n, Fraction(1, 1000))
        if not rep.hypothesis_met:
            continue
        met += 1
        if not rep.holds:
            bad += 1
    ok &= _emit(f"dominance on {count} hypothesis-satisfying draws "
                f"({bad} bad)", bad == 0)
    return ok


def _suite_erdos(count: int, seed: int) -> bool:
    import itertools
    rng = random.Random(seed)
    ok = True
    bad = 0
    for _ in range(count):
        sizes = tuple(rng.randint(1, 6) for _ in range(3))
        edges = [e for e in itertools.product(*(range(s) for s in sizes))
                 if rng.random() < rng.random()]
        H = KPartiteHypergraph.build(sizes, edges)
        rep = erdos_double_count(H, rng.randint(1, 3))
        if not (rep.equal and rep.chain_ok):
            bad += 1
    ok &= _emit(f"double count identity on {count} hypergraphs ({bad} bad)",
                bad == 0)
    return ok


def _suite_minor_free(count: int, seed: int) -> bool:
    rng = random.Random(seed)
    bad = 0
    for _ in range(count):
        d = rng.choice([2, 3, 4])
        n = rng.randint(d + 1, 10)
        cols = set()
        while len(cols) < n:
            cols.add(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                           for _ in range(d)))
        cfg = PointConfig(d, tuple(sorted(cols)))
        H = unit_minor_hypergraph(cfg, DetTarget.EXACTLY_ONE)
        if contains_complete(H, ForbiddenPattern((2,) * d)).found:
            bad += 1
    return _emit(f"unit-minor hypergraphs avoid the 2-pattern on {count} "
                 f"matrices ({bad} bad)", bad == 0)


def cmd_verify(args) -> int:
    suites = {
        "lemmas": _suite_lemmas,
        "erdos": _suite_erdos,
        "minor-free": _suite_minor_free,
    }
    if args.count < 1:
        raise InputError(f"--count {args.count} is not >= 1")
    ok = suites[args.suite](args.count, args.seed)
    return EXIT_OK if ok else EXIT_VERDICT


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="zarank",
        description="Zarankiewicz-type extremal problems on geometric "
                    "hypergraphs: exact bounds, builders, detectors, "
                    "partitioning, experiments.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="evaluate bound functions and identities")
    b.add_argument("--dims", required=True, help="comma separated d_i")
    b.add_argument("--sizes", help="comma separated n_i (default all 100)")
    b.add_argument("--eps", default="0", help="rational epsilon, e.g. 1/100")
    b.add_argument("--u", type=int, default=2, help="pattern size for the "
                   "counting bound")
    b.add_argument("--check", default="",
                   help="comma list: matrix,scaling,monotonicity,dominance")
    b.set_defaults(func=cmd_bounds)

    c = sub.add_parser("build", help="build a hypergraph or configuration")
    c.add_argument("--kind", required=True,
                   choices=["minors", "triangles", "spheres", "st-config",
                            "k1uu"])
    c.add_argument("--points", help="point/matrix file (minors, triangles)")
    c.add_argument("--spheres", help="sphere file")
    c.add_argument("--d", type=int, default=2)
    c.add_argument("--scale", type=int, default=4, help="st-config scale")
    c.add_argument("--u", type=int, default=2, help="k1uu class size")
    c.add_argument("--target", default="exactly-one",
                   choices=[t.value for t in DetTarget])
    c.add_argument("--lo", default="9/10")
    c.add_argument("--hi", default="11/10")
    c.add_argument("--out", help="output file (default stdout)")
    c.add_argument("--hypergraph", help="also write the unit-minor "
                   "hypergraph here (st-config, k1uu)")
    c.set_defaults(func=cmd_build)

    dt = sub.add_parser("detect", help="search for a complete pattern")
    dt.add_argument("--hypergraph", required=True)
    dt.add_argument("--pattern", required=True, help="comma separated u_i")
    dt.add_argument("--budget", type=int, default=10**8)
    dt.set_defaults(func=cmd_detect)

    sh = sub.add_parser("shatter", help="primal shatter function of the "
                        "neighborhood system of a bipartite hypergraph")
    sh.add_argument("--hypergraph", required=True)
    sh.add_argument("--ground-part", type=int, default=1, choices=[0, 1])
    sh.add_argument("--z", type=int, required=True)
    sh.add_argument("--mode", default="exhaustive",
                    choices=["exhaustive", "sampled"])
    sh.add_argument("--seed", type=int, default=0)
    sh.add_argument("--trials", type=int, default=1000)
    sh.add_argument("--budget", type=int, default=2 * 10**6)
    sh.set_defaults(func=cmd_shatter)

    pt = sub.add_parser("partition", help="build a verified partitioning")
    pt.add_argument("--points", required=True)
    pt.add_argument("--r", type=int, required=True)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--slack", type=int, default=1)
    pt.set_defaults(func=cmd_partition)

    ex = sub.add_parser("experiment", help="run a sweep from a JSON spec")
    ex.add_argument("--spec", required=True)
    ex.add_argument("--out", help="report JSON path (default stdout)")
    ex.add_argument("--csv", help="also write CSV here")
    ex.add_argument("--svg", help="also write an SVG scatter here")
    ex.set_defaults(func=cmd_experiment)

    vf = sub.add_parser("verify", help="run a property suite")
    vf.add_argument("--suite", required=True,
                    choices=["lemmas", "erdos", "minor-free"])
    vf.add_argument("--count", type=int, default=100)
    vf.add_argument("--seed", type=int, default=2024)
    vf.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as err:
        print(json.dumps({"error": str(err)}))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
