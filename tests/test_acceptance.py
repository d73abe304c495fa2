"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its measured details and asserting the stated tolerance and
runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from zarank.bounds import (
    DimProfile,
    SizeProfile,
    check_dominance,
    check_matrix_identity,
    check_monotonicity,
    check_scaling_identity,
)
from zarank.experiments import ExperimentSpec, fit_exponent, run_experiment
from zarank.geometry import (
    DetTarget,
    PointConfig,
    count_unit_minors,
    halfplane_traces,
    st_lower_bound_minor_config,
    unit_minor_hypergraph,
)
from zarank.hypergraph import (
    ForbiddenPattern,
    KPartiteHypergraph,
    SetSystem,
    contains_complete,
    contains_complete_naive,
    erdos_double_count,
    max_edges_avoiding,
    primal_shatter,
)
from zarank.partition import (
    classify_incidences,
    stone_tukey_partition,
    verify_partition,
)


def report(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status} {name}: {detail} "
          f"[{elapsed:.2f}s < {limit:.0f}s]")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_exponent_system_identity():
    t0 = time.time()
    rng = random.Random(20240601)
    bad = 0
    for _ in range(1000):
        k = rng.randint(1, 6)
        dims = tuple(rng.randint(2, 9) for _ in range(k))
        rep = check_matrix_identity(DimProfile(dims))
        if any(r != 0 for r in rep.residuals):
            bad += 1
    report(1, "exponent system identity", bad == 0,
           f"1000 profiles, {bad} nonzero residuals", time.time() - t0, 5)


def test_criterion_2_scaling_identity():
    t0 = time.time()
    rng = random.Random(20240602)
    bad = 0
    for _ in range(100):
        k = rng.randint(1, 6)
        d = DimProfile(tuple(rng.randint(2, 8) for _ in range(k)))
        n = SizeProfile(tuple(rng.randint(1, 10**5) for _ in range(k)))
        r = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        for i in range(k):
            rep = check_scaling_identity(d, n, r, i)
            if not rep.ok:
                bad += 1
    report(2, "scaling identity", bad == 0,
           f"100 draws x every special index, {bad} failures",
           time.time() - t0, 5)


def test_criterion_3_monotonicity_and_dominance():
    t0 = time.time()
    rng = random.Random(20240603)
    mono_ok = mono_rejected = 0
    while mono_ok < 100:
        k = rng.randint(2, 4)
        d = DimProfile(tuple(rng.randint(2, 6) for _ in range(k)))
        n = SizeProfile(tuple(rng.randint(2, 10**3) for _ in range(k)))
        rep = check_monotonicity(d, n, rng.randrange(k), Fraction(1, 100))
        if not rep.hypothesis_met:
            mono_rejected += 1
            continue
        assert rep.holds, (d, n)
        mono_ok += 1
    dom_ok = dom_rejected = 0
    while dom_ok < 100:
        k = rng.randint(2, 3)
        d = DimProfile(tuple(rng.randint(2, 4) for _ in range(k)))
        n = SizeProfile(tuple(rng.randint(10**3, 10**6) for _ in range(k)))
        rep = check_dominance(d, n, Fraction(1, 1000))
        if not rep.hypothesis_met:
            dom_rejected += 1
            continue
        assert rep.holds and rep.constant == Fraction(1, 2 ** (k + 1)), (d, n)
        dom_ok += 1
    report(3, "monotonicity and dominance", True,
           f"100+100 hypothesis-satisfying draws hold "
           f"({mono_rejected}+{dom_rejected} draws reported as "
           "hypothesis-not-met)", time.time() - t0, 10)


def test_criterion_4_unit_minor_pattern_free():
    t0 = time.time()
    rng = random.Random(20240604)
    bad = 0
    for _ in range(200):
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
    report(4, "unit-minor hypergraphs avoid the all-2 pattern", bad == 0,
           f"200 matrices d in 2..4, {bad} violations", time.time() - t0, 120)


def test_criterion_5_double_count_identity():
    t0 = time.time()
    rng = random.Random(20240605)
    bad = 0
    for _ in range(200):
        sizes = tuple(rng.randint(1, 6) for _ in range(3))
        p = rng.random()
        edges = [e for e in itertools.product(*(range(s) for s in sizes))
                 if rng.random() < p]
        H = KPartiteHypergraph.build(sizes, edges)
        rep = erdos_double_count(H, rng.randint(1, 3))
        if not (rep.equal and rep.chain_ok):
            bad += 1
    report(5, "double count identity", bad == 0,
           f"200 tripartite hypergraphs, {bad} mismatches",
           time.time() - t0, 30)


def test_criterion_6_zarankiewicz_oracle():
    t0 = time.time()
    values = []
    for n in (2, 3, 4):
        res = max_edges_avoiding(ForbiddenPattern((2, 2)), (n, n))
        assert res.exact
        values.append(res.value)
    assert values == [3, 6, 9]
    assert values == sorted(values)
    # classical exact inequality for the 2,2 pattern plus measured constant
    consts = []
    for n, v in zip((2, 3, 4), values):
        assert v <= (1 + math.sqrt(4 * n - 3)) * n / 2
        consts.append(v / (n ** 1.5 + n))
    assert max(consts) <= 1.0

    # detector vs naive enumerator: exhaustive over every bipartite shape
    # with at most 12 cells, seeded sampling across every shape with at
    # most 9 total vertices (bipartite and tripartite)
    rng = random.Random(20240606)
    checked = 0
    for n1 in range(1, 5):
        for n2 in range(n1, 6):
            if n1 + n2 > 9 or n1 * n2 > 12:
                continue
            pats = [(1, 1), (1, 2), (2, 2), (2, 3)]
            for mask in range(2 ** (n1 * n2)):
                edges = [(i, j) for i in range(n1) for j in range(n2)
                         if mask >> (i * n2 + j) & 1]
                H = KPartiteHypergraph.build((n1, n2), edges)
                for u in pats:
                    if u[0] > n1 or u[1] > n2:
                        continue
                    got = contains_complete(H, ForbiddenPattern(u)).found
                    want = contains_complete_naive(H, ForbiddenPattern(u))
                    assert got == want, (n1, n2, mask, u)
                    checked += 1
    shapes2 = [(3, 5), (3, 6), (4, 4), (4, 5)]
    shapes3 = [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4),
               (3, 3, 3), (1, 3, 5)]
    for sizes in shapes2 + shapes3:
        for _ in range(400):
            p = rng.random()
            edges = [e for e in itertools.product(*(range(s) for s in sizes))
                     if rng.random() < p]
            H = KPartiteHypergraph.build(sizes, edges)
            u = tuple(rng.randint(1, min(3, s)) for s in sizes)
            got = contains_complete(H, ForbiddenPattern(u)).found
            want = contains_complete_naive(H, ForbiddenPattern(u))
            assert got == want, (sizes, sorted(edges), u)
            checked += 1
    report(6, "extremal oracle and detector equivalence", True,
           f"max edges (3,6,9), constants <= 1.0, {checked} "
           "detector/naive agreements", time.time() - t0, 300)


def test_criterion_7_st_lower_bound_exponent():
    t0 = time.time()
    pairs = []
    for s in (4, 6, 8, 12, 16, 24, 32, 48, 64):
        cfg = st_lower_bound_minor_config(2, s)
        pairs.append((cfg.n, count_unit_minors(cfg)))
    slope, _ = fit_exponent(pairs)
    ok = slope >= 4 / 3 - 0.15
    report(7, "extremal config lower-bound exponent", ok,
           f"fitted slope {slope:.3f} >= {4/3 - 0.15:.3f} over n up to "
           f"{pairs[-1][0]}", time.time() - t0, 180)


def test_criterion_8_random_matrix_upper_exponent():
    t0 = time.time()
    spec = ExperimentSpec(kind="minors", d=2, sizes=(20, 40, 80, 160),
                          seed=20240608)
    rep = run_experiment(spec)
    ok = (rep.verdict == "pass" and rep.slope <= 4 / 3 + 0.15
          and all(r.kfree for r in rep.results if r.kfree_checked))
    report(8, "random-matrix upper-bound exponent", ok,
           f"fitted slope {rep.slope:.3f} <= {4/3 + 0.15:.3f}, "
           "pattern-freeness verified", time.time() - t0, 300)


def test_criterion_9_partitioning_contract():
    t0 = time.time()
    degrees_ok = True
    n_choices = (64, 128, 256, 512)
    runs = 0
    for seed in range(25):
        for d in (1, 2):
            rng = random.Random(20240609 + seed * 7 + d)
            n = n_choices[seed % 4]
            pts = set()
            while len(pts) < n:
                pts.add(tuple(Fraction(rng.randint(-10**4, 10**4))
                              for _ in range(d)))
            cfg = PointConfig(d, tuple(sorted(pts)))
            for r in (4, 16):
                part = stone_tukey_partition(cfg, r, seed=seed, slack=1)
                verify_partition(cfg, part)
                assert part.max_cell <= part.cell_bound
                for lr in part.levels:
                    assert lr.max_side <= lr.side_limit
                ratio = part.c_part
                if not (0.25 <= ratio <= 4.0):
                    degrees_ok = False
                runs += 1
    report(9, "partitioning contract", degrees_ok,
           f"{runs} verified partitions (50 point sets x r in {{4,16}}), "
           "censuses within bounds, degree ratios in the factor-4 band",
           time.time() - t0, 300)


def test_criterion_10_incidence_conservation():
    t0 = time.time()
    rng = random.Random(20240610)
    for _ in range(100):
        npts = rng.randint(1, 60)
        ncells = rng.randint(1, 8)
        assign = [rng.choice([None] + list(range(ncells)))
                  for _ in range(npts)]
        member = [[rng.random() < rng.random() for _ in range(npts)]
                  for _ in range(rng.randint(1, 10))]
        tri = classify_incidences(assign, member)
        brute = sum(1 for row in member for x in row if x)
        assert tri.total == brute
    report(10, "incidence conservation", True,
           "100 grid instances, I1+I2+I3 equals the brute-force total",
           time.time() - t0, 30)


def test_criterion_11_shatter_growth():
    t0 = time.time()
    rng = random.Random(20240611)
    for trial in range(8):
        g = rng.randint(5, 10)
        pts = set()
        while len(pts) < g:
            pts.add((Fraction(rng.randint(-12, 12)),
                     Fraction(rng.randint(-12, 12))))
        pts = sorted(pts)
        F = SetSystem.build(g, halfplane_traces(pts))
        for z in range(1, g + 1):
            pi = primal_shatter(F, z, budget=10**7)
            exact_bound = max(
                len(halfplane_traces([pts[i] for i in subset]))
                for subset in itertools.combinations(range(g), z))
            assert pi <= exact_bound, (trial, z)
            assert exact_bound <= 1 + z + 2 * math.comb(z, 2)
    report(11, "shatter growth against arrangement traces", True,
           "8 ground sets (sizes 5..10), every z within the exact "
           "arrangement trace count", time.time() - t0, 60)
