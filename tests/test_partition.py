"""Polynomial partitioning: quantile cuts, simultaneous bisections,
product grids, sign patterns, incidence classes."""

import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from zarank import partition
from zarank.geometry import PointConfig
from zarank.partition import (
    IncidenceTriple,
    PartitionSearchError,
    _angular_ranks,
    _anchor_sides,
    _ExactEvaluator,
    _sign_oracle,
    classify_incidences,
    level_degree,
    product_partition,
    sign_pattern_count,
    stone_tukey_partition,
    verify_partition,
    verify_product_partition,
)
from zarank.polynomials import MultiPoly, monomials_upto, poly_space_dim


def grid_free_points(rng, n, box=1000):
    pts = set()
    while len(pts) < n:
        pts.add((Fraction(rng.randint(-box, box)),
                 Fraction(rng.randint(-box, box))))
    return PointConfig(2, tuple(sorted(pts)))


def line_points(rng, n, box=10**6):
    vals = rng.sample(range(-box, box), n)
    return PointConfig(1, tuple((Fraction(v),) for v in vals))


class TestLevelDegree:
    def test_d2_sequence(self):
        # dim of degree-D polys in 2 vars is C(D+2,2); minus 1 >= 2^level
        assert [level_degree(2, j) for j in range(1, 7)] == [1, 2, 3, 5, 7, 10]

    def test_d1_sequence(self):
        assert [level_degree(1, j) for j in range(1, 5)] == [2, 4, 8, 16]

    def test_definition(self):
        for d in (1, 2, 3):
            for j in range(1, 6):
                D = level_degree(d, j)
                assert poly_space_dim(d, D) - 1 >= 2 ** j
                assert poly_space_dim(d, D - 1) - 1 < 2 ** j


class TestOneDimensional:
    def test_quartile_cuts(self):
        pts = PointConfig(1, tuple((Fraction(i),) for i in range(16)))
        part = stone_tukey_partition(pts, 4, slack=0)
        assert part.num_levels == 2
        assert len(part.cell_census) == 4
        assert part.max_cell <= math.ceil(16 / 4)
        verify_partition(pts, part)

    def test_exact_zero_slack_sweep(self):
        rng = random.Random(5)
        for n, r in [(10, 4), (100, 8), (1000, 16), (10000, 64), (37, 4),
                     (999, 32)]:
            pts = line_points(rng, n)
            part = stone_tukey_partition(pts, r, slack=0)
            assert part.max_cell <= math.ceil(n / r), (n, r, part.max_cell)
            assert part.num_levels == math.ceil(math.log2(r))
            verify_partition(pts, part)

    def test_duplicate_values_go_to_boundary(self):
        pts = PointConfig(1, tuple((Fraction(i // 4),) for i in range(16)))
        part = stone_tukey_partition(pts, 4, slack=0)
        assert part.max_cell <= 4
        verify_partition(pts, part)


class TestTwoDimensional:
    def test_sixteen_generic_points_r4(self):
        rng = random.Random(2)
        pts = grid_free_points(rng, 16)
        part = stone_tukey_partition(pts, 4, seed=1)
        # two line factors (ham-sandwich at level 2), four small cells
        assert part.num_levels == 2
        assert all(f.degree == 1 for f in part.factors)
        assert part.max_cell <= 4
        assert len(part.cell_census) <= 4
        verify_partition(pts, part)

    def test_r16_contract(self):
        rng = random.Random(3)
        pts = grid_free_points(rng, 128)
        part = stone_tukey_partition(pts, 16, seed=7)
        assert part.num_levels == 4
        assert part.max_cell <= part.cell_bound
        # per-level side bounds were verified during the search
        for lr in part.levels:
            assert lr.max_side <= lr.side_limit
            assert lr.degree <= lr.degree_cap
        verify_partition(pts, part)

    def test_degree_band(self):
        rng = random.Random(4)
        pts = grid_free_points(rng, 256)
        for r in (4, 16):
            part = stone_tukey_partition(pts, r, seed=11)
            ratio = part.c_part
            assert 0.25 <= ratio <= 4.0, (r, ratio)

    def test_collinear_degenerate_input(self):
        pts = PointConfig(2, tuple((Fraction(i), Fraction(2 * i + 1))
                                   for i in range(32)))
        part = stone_tukey_partition(pts, 4, seed=0)
        # a cut through two collinear points sends everything to the boundary
        assert part.boundary_count + sum(part.cell_census.values()) == 32
        assert part.max_cell <= part.cell_bound
        verify_partition(pts, part)

    def test_search_failure_is_loud(self):
        rng = random.Random(6)
        pts = grid_free_points(rng, 64)
        with pytest.raises(PartitionSearchError):
            stone_tukey_partition(pts, 16, seed=0, candidate_budget=1)

    def test_half_integer_coordinates(self):
        rng = random.Random(8)
        raw = set()
        while len(raw) < 48:
            raw.add((Fraction(rng.randint(-99, 99), 2),
                     Fraction(rng.randint(-99, 99), 3)))
        pts = PointConfig(2, tuple(sorted(raw)))
        part = stone_tukey_partition(pts, 4, seed=3)
        verify_partition(pts, part)


def cross_sides(points, parts, i, j):
    """Per part, (left, right) point counts of the directed line from
    points[i] through points[j], by Fraction cross products."""
    (px, py), (qx, qy) = points[i], points[j]
    out = []
    for part in parts:
        vals = [(qx - px) * (points[k][1] - py) - (qy - py) * (points[k][0] - px)
                for k in part]
        out.append((sum(v > 0 for v in vals), sum(v < 0 for v in vals)))
    return out


@st.composite
def sweep_inputs(draw):
    """Points (duplicates allowed) with one or two parts that may leave
    points out: small grids (collinear triples, repeated directions),
    rationals, and offsets at large scales, which put the sweep on python
    ints and make float angle keys collide (the exact re-sort)."""
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["grid", "rational", "large"]))
    if kind == "grid":
        coord = st.integers(0, 3).map(Fraction)
    elif kind == "rational":
        coord = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
    else:
        # spans just under and past the int64 guard of 2^31
        scale = draw(st.sampled_from([2 ** 29 - 2, 2 ** 29, 3 * 2 ** 30,
                                      2 ** 31, 2 ** 62 + 1, 2 ** 1100]))
        coord = st.builds(lambda a, e: Fraction(a * scale + e),
                          st.integers(-2, 2), st.integers(-3, 3))
    points = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    nparts = draw(st.integers(1, 2))
    where = draw(st.lists(st.integers(-1, nparts - 1), min_size=n,
                          max_size=n))
    parts = [[i for i in range(n) if where[i] == p] for p in range(nparts)]
    assume(all(parts))
    return points, parts, draw(st.sampled_from([1, 20, 2 ** 18]))


def assert_sides_match(points, parts, block=2 ** 18):
    """Every directed line's per-part side counts from the sweep equal the
    Fraction cross-product counts, and every active point is an anchor."""
    act = sorted(set().union(*parts))
    swept = []
    with mock.patch.object(partition, "_SWEEP_BLOCK", block):
        blocks = list(_anchor_sides(_ExactEvaluator(PointConfig(2, points)).X,
                                    parts))
    for anchors, on_anchor, left, right in blocks:
        for b, a in enumerate(anchors):
            swept.append(a)
            i = act[a]
            for t, j in enumerate(act):
                assert on_anchor[b, t] == (points[i] == points[j])
                if not on_anchor[b, t]:
                    got = [(left[b, p, t], right[b, p, t])
                           for p in range(len(parts))]
                    assert got == cross_sides(points, parts, i, j)
    assert swept == list(range(len(act)))


class TestLineSweep:
    @settings(max_examples=200, deadline=None)
    @given(sweep_inputs())
    def test_side_counts_match_fraction_cross_products(self, data):
        assert_sides_match(*data)

    @pytest.mark.parametrize("side", [2 ** 31 - 1, 2 ** 31, 3037000500,
                                      2 ** 32 - 1])
    def test_side_counts_at_int64_guard(self, side):
        # adjacent directions from a corner of the box have cross product
        # side^2, which passes 2^63 from side = 3037000500 on
        corners = [(0, 0), (side, 0), (0, side)]
        more = corners + [(side // 2, 0), (side, side), (side // 3, side),
                          (side, side // 2)]
        for pts, parts in ((corners, [[0, 1, 2]]),
                           (more, [[0, 1, 2, 3], [4, 5, 6]])):
            assert_sides_match([(Fraction(x), Fraction(y)) for x, y in pts],
                               parts)

    def test_exact_resort_when_float_keys_collide(self):
        # (B, B + e) turns counterclockwise as e grows, but every float
        # angle key is the same
        B = 2 ** 80
        es = [5, 0, 3, 1, 4, 2, 3]
        fx = np.array([[B] * len(es)], dtype=object)
        fy = np.array([[B + e for e in es]], dtype=object)
        with mock.patch.object(functools, "cmp_to_key",
                               wraps=functools.cmp_to_key) as resort:
            rank, zero = _angular_ranks(fx, fy)
        assert resort.called
        assert rank[0].tolist() == [sorted(set(es)).index(e) for e in es]
        assert not zero.any()


def brute_line(points, parts, slack):
    """The line-search selection rule by brute force: candidate pairs in
    `_line_pairs` order, scored by exact worst side counts, tried by
    (score, pair index) while the score is within the largest limit; a
    coincident pair scores 0 and is skipped.  Returns (pair, tried)."""
    limits = [-(-len(p) // 2) + slack for p in parts]
    if len(parts) == 2:
        pairs = (list(itertools.product(sorted(parts[0]), sorted(parts[1])))
                 + list(itertools.combinations(sorted(parts[0]), 2))
                 + list(itertools.combinations(sorted(parts[1]), 2)))
    else:
        pairs = list(itertools.combinations(sorted(set().union(*parts)), 2))
    scored = []
    for idx, (i, j) in enumerate(pairs):
        sides = cross_sides(points, parts, i, j)
        scored.append((max(max(s) for s in sides), idx, sides))
    tried = 0
    for score, idx, sides in sorted(scored):
        if score > max(limits):
            break
        tried += 1
        i, j = pairs[idx]
        if points[i] == points[j]:
            continue
        if all(max(s) <= lim for s, lim in zip(sides, limits)):
            return pairs[idx], tried
    return None, tried


def line_through(p, q):
    a, b = p[1] - q[1], q[0] - p[0]
    return MultiPoly(2, {(0, 0): -(a * p[0] + b * p[1]), (1, 0): a,
                         (0, 1): b})


def selection_inputs():
    rng = random.Random(17)
    generic = grid_free_points(rng, 40)
    grid = PointConfig(2, tuple((Fraction(x), Fraction(y))
                                for x in range(6) for y in range(6)))
    raw = set()
    while len(raw) < 30:
        raw.add((Fraction(rng.randint(-9, 9), 2),
                 Fraction(rng.randint(-9, 9), 3)))
    rational = PointConfig(2, tuple(sorted(raw)))
    three_lines = PointConfig(2, tuple(
        (Fraction(x), Fraction(s * x + c))
        for s, c in ((0, 0), (1, 3), (-2, 1)) for x in range(-5, 5)))
    doubled = PointConfig(2, tuple((Fraction(x), Fraction(y))
                                   for x in range(4) for y in range(4)
                                   for _ in range(2)))
    return {"generic": generic, "grid": grid, "rational": rational,
            "three_lines": three_lines, "doubled": doubled}


class TestLineSelectionRule:
    @pytest.mark.parametrize("name", ["generic", "grid", "rational",
                                      "three_lines", "doubled"])
    def test_matches_brute_force_scorer(self, name):
        pts = selection_inputs()[name]
        part = stone_tukey_partition(pts, 4, seed=0, slack=1)
        parts = [list(range(pts.n))]
        tried = 0
        for level, factor in zip(part.levels, part.factors):
            pair, t = brute_line(pts.points, parts, 1)
            tried += t
            assert pair is not None
            assert factor == line_through(pts.points[pair[0]],
                                          pts.points[pair[1]])
            assert level.candidates_tried == tried
            col = level.level - 1
            parts = [side for p in parts
                     for side in ([k for k in p if part.signs[k][col] > 0],
                                  [k for k in p if part.signs[k][col] < 0])
                     if side]


class TestVerification:
    def partition(self):
        pts = grid_free_points(random.Random(31), 40)
        return pts, stone_tukey_partition(pts, 4, seed=1)

    def test_flipped_sign_raises(self):
        pts, part = self.partition()
        k = next(k for k, sv in enumerate(part.signs) if sv[0] != 0)
        signs = list(part.signs)
        signs[k] = (-signs[k][0],) + signs[k][1:]
        bad = dataclasses.replace(part, signs=tuple(signs))
        with pytest.raises(AssertionError, match="sign mismatch"):
            verify_partition(pts, bad)

    def test_edited_census_raises(self):
        pts, part = self.partition()
        census = dict(part.cell_census)
        census[next(iter(census))] += 1
        with pytest.raises(AssertionError, match="census mismatch"):
            verify_partition(pts, dataclasses.replace(part,
                                                      cell_census=census))

    def test_wrong_boundary_count_raises(self):
        pts, part = self.partition()
        bad = dataclasses.replace(part,
                                  boundary_count=part.boundary_count + 1)
        with pytest.raises(AssertionError, match="census mismatch"):
            verify_partition(pts, bad)

    def test_edited_grid_census_raises(self):
        a = grid_free_points(random.Random(32), 12)
        b = PointConfig(1, tuple((Fraction(i, 3),) for i in range(7)))
        blocks = [(a, 4), (b, 2)]
        pp = product_partition(blocks, seed=2)
        verify_product_partition(blocks, pp)
        census = dict(pp.grid_census)
        census[next(iter(census))] += 1
        with pytest.raises(AssertionError, match="grid census mismatch"):
            verify_product_partition(
                blocks, dataclasses.replace(pp, grid_census=census))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_integer_signs_match_rational_evaluation(self, nv, data):
        frac = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7))
        terms = data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * nv), frac, max_size=6))
        polys = [MultiPoly(nv, terms), MultiPoly.constant(0, nv)]
        points = data.draw(st.lists(st.tuples(*[frac] * nv), min_size=1,
                                    max_size=8))
        signs_at = _sign_oracle(polys, [c for p in points for c in p])
        for p in points:
            assert signs_at(p) == tuple(f.sign_at(p) for f in polys)


class TestProductPartition:
    def test_two_1d_medians(self):
        a = PointConfig(1, tuple((Fraction(i),) for i in range(8)))
        b = PointConfig(1, tuple((Fraction(10 * i),) for i in range(6)))
        pp = product_partition([(a, 2), (b, 2)], slack=0)
        assert len(pp.grid_census) == 4
        assert pp.max_cell <= 4 * 3
        verify_product_partition([(a, 2), (b, 2)], pp)

    def test_2d_times_1d(self):
        rng = random.Random(9)
        a = grid_free_points(rng, 32)
        b = PointConfig(1, tuple((Fraction(i),) for i in range(12)))
        blocks = [(a, 4), (b, 2)]
        pp = product_partition(blocks, seed=5)
        assert pp.total_dim == 3
        assert all(f.num_vars == 3 for f in pp.factors)
        assert pp.max_cell <= pp.cell_bound
        verify_product_partition(blocks, pp)

    def test_r1_contributes_constant_factor(self):
        a = PointConfig(1, tuple((Fraction(i),) for i in range(5)))
        b = PointConfig(1, tuple((Fraction(i),) for i in range(4)))
        pp = product_partition([(a, 1), (b, 2)], slack=0)
        # one cell from the r=1 block
        assert all(key[0] == (1,) for key in pp.grid_census)
        assert sum(pp.grid_census.values()) + pp.boundary_count == 20

    def test_grid_assignment_matches_census(self):
        a = PointConfig(1, tuple((Fraction(i),) for i in range(9)))
        b = PointConfig(1, tuple((Fraction(3 * i + 1),) for i in range(7)))
        blocks = [(a, 2), (b, 2)]
        pp = product_partition(blocks, slack=0)
        assign = pp.grid_cell_assignment()
        recount = {}
        for key in assign:
            if key is not None:
                recount[key] = recount.get(key, 0) + 1
        assert recount == pp.grid_census


class TestSignPatterns:
    def test_single_line_three_signs(self):
        f = MultiPoly.linear([Fraction(1), Fraction(0)], 0)  # x1
        pts = PointConfig(2, ((Fraction(-1), Fraction(0)),
                              (Fraction(0), Fraction(5)),
                              (Fraction(2), Fraction(1))))
        assert sign_pattern_count([f], pts) == 3

    def test_identical_polynomials_do_not_add(self):
        f = MultiPoly.linear([Fraction(1), Fraction(1)], Fraction(-1, 2))
        pts = PointConfig(2, ((Fraction(0), Fraction(0)),
                              (Fraction(1), Fraction(1))))
        assert sign_pattern_count([f] * 5, pts) == sign_pattern_count([f], pts)

    def test_line_arrangement_bound(self):
        rng = random.Random(12)
        lines = []
        for _ in range(10):
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            if a == b == 0:
                a = 1
            lines.append(MultiPoly.linear([Fraction(a), Fraction(b)],
                                          Fraction(rng.randint(-9, 9))))
        pts = grid_free_points(rng, 200)
        count = sign_pattern_count(lines, pts)
        s = len(lines)
        # an arrangement of s lines has at most 1 + s + C(s,2) faces of
        # full dimension; patterns with zeros add at most one per pair
        assert count <= 1 + s + math.comb(s, 2) * 2


class TestClassifyIncidences:
    def test_gamma_everything(self):
        assign = ["a", "a", "b", "b"]
        member = [[True, True, True, True]]
        tri = classify_incidences(assign, member)
        assert (tri.i1, tri.i2, tri.i3) == (0, 4, 0)

    def test_all_points_on_zero_set(self):
        assign = [None, None, None]
        member = [[True, False, True]]
        tri = classify_incidences(assign, member)
        assert (tri.i1, tri.i2, tri.i3) == (2, 0, 0)

    def test_worked_1d_example(self):
        # P = {1,2,3,4}, cut at 2.5, gamma = {p >= 2}
        assign = ["lo", "lo", "hi", "hi"]
        member = [[False, True, True, True]]
        tri = classify_incidences(assign, member)
        assert (tri.i1, tri.i2, tri.i3) == (0, 2, 1)

    def test_conservation_on_seeded_grids(self):
        rng = random.Random(13)
        for _ in range(100):
            npts = rng.randint(1, 40)
            ncells = rng.randint(1, 6)
            assign = [rng.choice([None] + list(range(ncells)))
                      for _ in range(npts)]
            member = [[rng.random() < 0.4 for _ in range(npts)]
                      for _ in range(rng.randint(1, 8))]
            tri = classify_incidences(assign, member)
            total = sum(sum(row) for row in member)
            assert tri.total == total

    def test_membership_table_must_cover(self):
        with pytest.raises(ValueError):
            classify_incidences(["a"], [[True, False]])


class TestPartitionIncidenceIntegration:
    def test_partition_feeds_classifier(self):
        rng = random.Random(21)
        pts = grid_free_points(rng, 64)
        part = stone_tukey_partition(pts, 4, seed=2)
        assign = part.cell_assignment()
        # gamma sets: halfplanes defined by random lines
        member = []
        for _ in range(5):
            a, b, c = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-9, 9)
            if a == b == 0:
                a = 1
            member.append([a * p[0] + b * p[1] >= c for p in pts.points])
        tri = classify_incidences(assign, member)
        assert tri.total == sum(sum(row) for row in member)
