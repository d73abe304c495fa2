"""Polynomial partitioning: quantile cuts, simultaneous bisections,
product grids, sign patterns, incidence classes."""

import dataclasses
import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from zarank import geometry, partition
from zarank.geometry import PointConfig
from zarank.partition import (
    Partition,
    PartitionSearchError,
    _angular_ranks,
    _anchor_sides,
    _ExactEvaluator,
    _rationalize_coeffs,
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
        with mock.patch.object(partition, "_CANDIDATE_BUDGET", 1), \
                pytest.raises(PartitionSearchError):
            stone_tukey_partition(pts, 16, seed=0)

    def test_exhausted_budget_carries_partial_factors(self):
        # the first line is accepted on the one candidate allowed, and the
        # second level's first candidate is over budget
        pts = grid_free_points(random.Random(6), 64)
        with mock.patch.object(partition, "_CANDIDATE_BUDGET", 1), \
                pytest.raises(PartitionSearchError,
                              match="candidate budget exhausted") as err:
            stone_tukey_partition(pts, 4, seed=0)
        (factor,) = err.value.partial_factors
        assert factor.degree == 1
        assert factor == stone_tukey_partition(pts, 4, seed=0).factors[0]

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
        blocks = list(_anchor_sides(_ExactEvaluator(PointConfig(2, points)),
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


def sweep_table(evaluator, parts):
    """The sweep's per-part (left, right) counts by (anchor, point), in
    active numbering, and the pairs it marks as coincident."""
    counts, coincident = {}, set()
    for anchors, on_anchor, left, right in _anchor_sides(evaluator, parts):
        for b, a in enumerate(anchors.tolist()):
            for t in range(on_anchor.shape[1]):
                if on_anchor[b, t]:
                    coincident.add((a, t))
                else:
                    counts[a, t] = (left[b, :, t].tolist(),
                                    right[b, :, t].tolist())
    return counts, coincident


def fresh_sweep(points, parts):
    """The sweep of the active points alone, on a new evaluator."""
    act = sorted(set().union(*parts))
    where = {i: t for t, i in enumerate(act)}
    sub = PointConfig(2, tuple(points[i] for i in act))
    return sweep_table(_ExactEvaluator(sub),
                       [[where[i] for i in part] for part in parts])


def rank_reuse_inputs():
    inputs = selection_inputs()
    # a span past 2^31 puts the sweep on python ints
    inputs["object"] = PointConfig(2, tuple(
        (x * 2 ** 40 + 1, y * 2 ** 33)
        for x, y in inputs["three_lines"].points))
    return inputs


class TestRankReuse:
    @settings(max_examples=150, deadline=None)
    @given(sweep_inputs())
    def test_stored_ranks_match_a_fresh_sweep_of_the_active_points(self, data):
        points, parts, block = data
        with mock.patch.object(partition, "_SWEEP_BLOCK", block):
            stored = sweep_table(_ExactEvaluator(PointConfig(2, points)),
                                 parts)
            assert stored == fresh_sweep(points, parts)

    @pytest.mark.parametrize("block", [1, 2 ** 18])
    @pytest.mark.parametrize("name", ["doubled", "three_lines", "grid",
                                      "object"])
    def test_level_two_counts_from_the_level_one_ranks(self, name, block):
        # coincident points, collinear triples and the python-int sweep;
        # level 2 reads the ranks level 1 built and sorts nothing
        pts = rank_reuse_inputs()[name]
        whole = [np.arange(pts.n)]
        first = partition._search_line(whole, [pts.n], _ExactEvaluator(pts),
                                       [0])
        col = [first.sign_at(p) for p in pts.points]
        parts = [[i for i in range(pts.n) if col[i] > 0],
                 [i for i in range(pts.n) if col[i] < 0]]
        with mock.patch.object(partition, "_SWEEP_BLOCK", block):
            evaluator = _ExactEvaluator(pts)
            level_one = sweep_table(evaluator, [list(range(pts.n))])
            assert level_one == fresh_sweep(pts.points, [list(range(pts.n))])
            with mock.patch.object(partition, "_angular_ranks") as sort:
                level_two = sweep_table(evaluator, parts)
            assert not sort.called
            assert level_two == fresh_sweep(pts.points, parts)

    def test_ranks_are_int16_below_2_to_15_points(self):
        ranks, lex = _ExactEvaluator(rank_reuse_inputs()["doubled"]) \
            .sweep_order()
        assert ranks.dtype == np.int16 and ranks.shape == (32, 32)
        assert sorted(set(lex.tolist())) == list(range(16))


def brute_line(points, parts, slack):
    """The line-search selection rule by brute force: candidate pairs in
    block order (across the two parts, then inside each part, as
    itertools.product and itertools.combinations list them), scored by
    exact worst side counts, tried by (score, pair index) while the score
    is within the largest limit; a coincident pair scores 0 and is
    skipped.  Returns (pair, tried)."""
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


def criterion_9_points(seed, d):
    """The point set criterion 9 partitions at this seed and dimension."""
    rng = random.Random(20240609 + seed * 7 + d)
    n = (64, 128, 256, 512)[seed % 4]
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(rng.randint(-10**4, 10**4)) for _ in range(d)))
    return PointConfig(d, tuple(sorted(pts)))


# sha256 of the factors, signs and per-level candidates tried of the
# criterion-9 partitions with d in (1, 2) and r in (4, 16), by seed
CRITERION_9_PINS = {
    0: "80348da20535f6943ae71586765983f5d725815e8a8a9b3ecdcc0a2ea7c14e8a",
    1: "59c8fdc2fc40690b24b86c9933e2707b95e25c100d1c3ed00006f62d11b0d17e",
    2: "2c8740153f3f9ad4c2277669f3d538811c49b0b9f2c3d0e4a2e69a7440794d79",
    3: "4395b142c0678821f08cb91344899a2dc53a84608cc57b5c2a8957e3e280a4fe",
}


@pytest.mark.parametrize("seed", sorted(CRITERION_9_PINS))
def test_criterion_9_partitions_pinned(seed):
    digest = hashlib.sha256()
    for d in (1, 2):
        for r in (4, 16):
            part = stone_tukey_partition(criterion_9_points(seed, d), r,
                                         seed=seed, slack=1)
            digest.update(repr((
                [sorted(f.terms.items()) for f in part.factors], part.signs,
                [lv.candidates_tried for lv in part.levels])).encode())
    assert digest.hexdigest() == CRITERION_9_PINS[seed]


def _loop_side_failure(signs, levels, slack):
    """The first side-count failure of a loop over the points, part by
    part in order of first point and level by level, or None."""
    for level in range(levels):
        sides = {}
        for sv in signs:
            if 0 not in sv[:level]:
                count = sides.setdefault(sv[:level], [0, 0, 0])
                count[sv[level]] += 1  # [zero, plus, minus]
        for prefix, (zero, plus, minus) in sides.items():
            limit = -(-(zero + plus + minus) // 2) + slack
            if max(plus, minus) > limit:
                return (f"level {level + 1} side count {max(plus, minus)} > "
                        f"{limit} in part {prefix}")
    return None


class TestVerification:
    def test_side_counts_match_the_point_loop(self):
        """On reordered or constant factors with slack 0, verify_partition
        raises the side-count failure the point loop finds, or none."""
        rng = random.Random(5)
        outcomes = set()
        for t in range(24):
            if t % 2:
                pts, r = line_points(rng, 48), rng.choice((4, 8, 16))
            else:
                pts, r = grid_free_points(rng, 48), rng.choice((4, 8))
            part = stone_tukey_partition(pts, r, seed=t)
            factors = list(part.factors)
            rng.shuffle(factors)
            if t % 3 == 0:
                factors[rng.randrange(len(factors))] = \
                    MultiPoly.constant(1, pts.dim)
            signs = tuple(map(tuple, _sign_oracle(
                factors, pts.numerators, pts.denominators).tolist()))
            bad = dataclasses.replace(part, factors=tuple(factors),
                                      signs=signs, slack=0)
            want = _loop_side_failure(signs, len(factors), 0)
            try:
                verify_partition(pts, bad)
                got = None
            except AssertionError as exc:
                got = str(exc) if str(exc).startswith("level") else None
            assert got == want, t
            outcomes.add(want and want[:7])
        assert {None, "level 1", "level 2"} <= outcomes

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

    def test_constant_factor_raises(self):
        # one constant factor: census {(1,): 40} within the cell bound 40,
        # but r = 4 needs two factors
        pts = grid_free_points(random.Random(31), 40)
        one = MultiPoly.constant(1, 2)
        bad = Partition(2, 4, 1, (one,), ((1,),) * 40, {(1,): 40}, 0, 40)
        with pytest.raises(AssertionError, match="factor count 1 != 2"):
            verify_partition(pts, bad)

    def test_unbalanced_level_raises(self):
        # two factors, but the first leaves all 40 points on one side
        pts = grid_free_points(random.Random(31), 40)
        one = MultiPoly.constant(1, 2)
        bad = Partition(2, 4, 1, (one, one), ((1, 1),) * 40, {(1, 1): 40},
                        0, 40)
        with pytest.raises(AssertionError,
                           match=r"level 1 side count 40 > 21 in part \(\)"):
            verify_partition(pts, bad)

    def test_unbalanced_second_level_raises(self):
        pts, part = self.partition()
        keep = part.factors[0]
        bad = dataclasses.replace(
            part, factors=(keep, MultiPoly.constant(1, 2)),
            signs=tuple((sv[0], 1) for sv in part.signs))
        census = {}
        for sv in bad.signs:
            if 0 not in sv:
                census[sv] = census.get(sv, 0) + 1
        bad = dataclasses.replace(bad, cell_census=census)
        with pytest.raises(AssertionError, match="level 2 side count"):
            verify_partition(pts, bad)

    def test_short_sign_list_raises(self):
        pts, part = self.partition()
        bad = dataclasses.replace(part, signs=part.signs[:-1])
        with pytest.raises(AssertionError,
                           match="sign list length 39 != 40 points"):
            verify_partition(pts, bad)

    def test_wrong_cell_bound_raises(self):
        pts, part = self.partition()
        bad = dataclasses.replace(part, cell_bound=part.cell_bound + 1)
        with pytest.raises(AssertionError, match="cell bound 41 != 40"):
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
        # the search's evaluator and the independent oracle both agree
        # with Fraction evaluation, also for the zero polynomial and for a
        # soft-sign candidate whose degree-4 coefficients are all zero
        frac = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7))
        terms = data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * nv), frac, max_size=6))
        monos = monomials_upto(nv, 4)
        low = data.draw(st.lists(st.integers(-30, 30), min_size=len(monos),
                                 max_size=len(monos)))
        coeffs = np.array([c if sum(e) < 4 else 0 for c, e in zip(low, monos)],
                          dtype=float)
        polys = [MultiPoly(nv, terms), MultiPoly.constant(0, nv),
                 _rationalize_coeffs(coeffs, [0] * len(monos), monos)]
        points = data.draw(st.lists(st.tuples(*[frac] * nv), min_size=1,
                                    max_size=8))
        cfg = PointConfig(nv, points)
        signs = _sign_oracle(polys, cfg.numerators, cfg.denominators)
        evaluator = _ExactEvaluator(cfg)
        columns = [evaluator.signs(f, range(len(points))) for f in polys]
        for i, p in enumerate(points):
            assert tuple(signs[i]) == tuple(f.sign_at(p) for f in polys)
            assert tuple(signs[i]) == tuple(col[i] for col in columns)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_oracle_signs_past_int64_with_mixed_denominators(self, data):
        # numerators past 2^63, a different denominator per point, and a
        # factor that vanishes at some of the points (a line through two
        # of them at d = 2, cuts at their coordinates at d = 1)
        nv = data.draw(st.integers(1, 2))
        big = data.draw(st.sampled_from([1, 2 ** 63 + 1, 3 ** 50]))
        coord = st.builds(lambda a, b, q: Fraction(a * big + b, q),
                          st.integers(-3, 3), st.integers(-20, 20),
                          st.sampled_from([1, 2, 9, 2 ** 64 + 1]))
        points = data.draw(st.lists(st.tuples(*[coord] * nv), min_size=2,
                                    max_size=10))
        on = data.draw(st.lists(st.integers(0, len(points) - 1), min_size=2,
                                max_size=2))
        if nv == 2:
            zero = line_through(points[on[0]], points[on[1]])
        else:
            zero = MultiPoly.constant(1, 1)
            for i in on:
                zero = zero * MultiPoly(1, {(1,): 1, (0,): -points[i][0]})
        frac = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7))
        other = MultiPoly(nv, data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * nv), frac, max_size=6)))
        polys = [zero, scaled(zero, 2 ** 70 + 1), other]
        cfg = PointConfig(nv, points)
        signs = _sign_oracle(polys, cfg.numerators, cfg.denominators)
        assert signs.dtype == np.int8 and signs.shape == (len(points), 3)
        assert signs.tolist() == [[f.sign_at(p) for f in polys]
                                  for p in points]
        assert signs[on, :2].tolist() == [[0, 0], [0, 0]]


def exact_sum_spy():
    """A patch of `_ExactEvaluator._exact_signs` that records the points
    each call decides by python ints."""
    calls = []
    real = _ExactEvaluator._exact_signs

    def spy(self, terms, idx):
        calls.append(idx.tolist())
        return real(self, terms, idx)
    return calls, mock.patch.object(_ExactEvaluator, "_exact_signs", spy)


def scaled(poly, k):
    return MultiPoly(poly.num_vars, {e: c * k for e, c in poly.terms.items()})


def fractions_made(monkeypatch) -> list:
    """The argument tuples of every `Fraction` built from now on."""
    made = []
    original = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    return made


def test_checks_on_stored_integers_build_no_fraction(monkeypatch):
    """The three checks read the stored integers of a fresh configuration:
    no common denominator, no search evaluator and no `Fraction`."""
    rng = random.Random(44)
    nums = rng.sample(range(-10 ** 6, 10 ** 6), 80)
    plane = PointConfig.from_integers(2, list(zip(nums[::2], nums[1::2])),
                                      [rng.randint(1, 9) for _ in range(40)])
    line = PointConfig.from_integers(1, [[i] for i in range(12)], [3] * 12)
    part = stone_tukey_partition(plane, 4, seed=1)
    pp = product_partition([(plane, 4), (line, 2)], seed=2)
    plane, line = (PointConfig.from_integers(cfg.dim, cfg.numerators,
                                             cfg.denominators)
                   for cfg in (plane, line))

    def never(*args, **kwargs):
        raise AssertionError("a check read the search's integer form")

    monkeypatch.setattr(geometry._RationalRows, "common_denominator", never)
    monkeypatch.setattr(partition, "_ExactEvaluator", never)
    made = fractions_made(monkeypatch)
    assert verify_partition(plane, part)
    assert verify_product_partition([(plane, 4), (line, 2)], pp)
    assert sign_pattern_count(part.factors, plane) == len(set(part.signs))
    assert made == []


class TestSignFilter:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_signs_match_rational_evaluation_at_the_edges(self, data):
        # points on the zero set (lines through two data points, d = 1
        # cuts at data points and midpoints), coordinates past 2^53 and
        # past the float range, coefficients past 2^1100, and denominators
        # whose lcm is past the float range
        nv = data.draw(st.integers(1, 2))
        big = data.draw(st.sampled_from([1, 2 ** 53 + 1, 3 ** 70,
                                         2 ** 1030]))
        den = data.draw(st.sampled_from([1, 7, 2 ** 1030 + 1]))
        coord = st.builds(lambda a, b: Fraction(a * big + b, den),
                          st.integers(-3, 3), st.integers(-20, 20))
        points = data.draw(st.lists(st.tuples(*[coord] * nv), min_size=2,
                                    max_size=10))
        if nv == 2:
            i, j = data.draw(st.lists(st.integers(0, len(points) - 1),
                                      min_size=2, max_size=2))
            poly = line_through(points[i], points[j])
        else:
            xs = sorted({p[0] for p in points})
            cuts = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
            poly = MultiPoly.constant(1, 1)
            for c in data.draw(st.lists(st.sampled_from(cuts), min_size=1,
                                        max_size=4)):
                poly = poly * MultiPoly(1, {(1,): 1, (0,): -c})
        poly = scaled(poly, data.draw(st.sampled_from([1, 2 ** 1100 + 1])))
        got = _ExactEvaluator(PointConfig(nv, points)).signs(
            poly, range(len(points)))
        assert got.tolist() == [poly.sign_at(p) for p in points]

    @pytest.mark.parametrize("k", [1, 2 ** 1100 + 1],
                             ids=["small", "past-2^1100"])
    def test_exact_sum_runs_only_on_the_zero_set(self, k):
        # integer points off the line through two of them are at least 1
        # from it in cleared units, far outside the filter's bound, also
        # with coefficients past 2^1100
        pts = grid_free_points(random.Random(41), 64)
        (px, py), (qx, qy) = pts.points[3], pts.points[10]
        collinear = PointConfig(2, pts.points + ((3 * px - 2 * qx,
                                                  3 * py - 2 * qy),))
        line = scaled(line_through(pts.points[3], pts.points[10]), k)
        want = [line.sign_at(p) for p in collinear.points]
        calls, spy = exact_sum_spy()
        with spy:
            got = _ExactEvaluator(collinear).signs(line, range(collinear.n))
        assert got.tolist() == want
        assert calls == [[i for i, s in enumerate(want) if s == 0]]
        assert len(calls[0]) >= 3

    def test_generic_soft_sign_candidate_needs_no_exact_sum(self):
        rng = np.random.default_rng(5)
        monos = monomials_upto(2, 3)
        poly = _rationalize_coeffs(rng.standard_normal(len(monos)),
                                   [int(k) for k in rng.integers(-8, 8,
                                                                 len(monos))],
                                   monos)
        pts = grid_free_points(random.Random(43), 256)
        calls, spy = exact_sum_spy()
        with spy:
            got = _ExactEvaluator(pts).signs(poly, range(pts.n))
        assert calls == []
        assert got.tolist() == [poly.sign_at(p) for p in pts.points]

    def test_lcm_past_float_range_takes_the_exact_path(self):
        den = 2 ** 1030 + 1
        pts = PointConfig(2, tuple((Fraction(x, den), Fraction(y, den))
                                   for x, y in ((0, 0), (1, 2), (3, 1),
                                                (2, 4))))
        line = line_through(pts.points[0], pts.points[1])
        calls, spy = exact_sum_spy()
        with spy:
            got = _ExactEvaluator(pts).signs(line, [3, 1, 2])
        assert got.tolist() == [0, 0, -1]
        assert calls == [[3, 1, 2]]


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
        _, pp = nine_by_seven()
        assign = pp.grid_cell_assignment()
        recount = {}
        for key in assign:
            if key is not None:
                recount[key] = recount.get(key, 0) + 1
        assert recount == pp.grid_census


    def test_understated_cell_bound_raises(self):
        blocks, pp = nine_by_seven()
        assert pp.max_cell == pp.cell_bound == 20
        with pytest.raises(AssertionError, match="grid cell bound 1 != 20"):
            verify_product_partition(blocks,
                                     dataclasses.replace(pp, cell_bound=1))

    def test_cell_past_the_bound_raises(self):
        # checked against r = 4 for the first block, which was partitioned
        # for r = 2: each block still verifies on its own and the stated
        # bound is the recomputed 3 * 4, but a grid cell holds 20 points
        blocks, pp = nine_by_seven()
        wider = [(blocks[0][0], 4), blocks[1]]
        with pytest.raises(AssertionError, match="grid cell bound violated"):
            verify_product_partition(wider,
                                     dataclasses.replace(pp, cell_bound=12))

    def test_extra_block_raises(self):
        blocks, pp = nine_by_seven()
        with pytest.raises(AssertionError, match="block count 2 != 3"):
            verify_product_partition(blocks + [blocks[1]], pp)

    def test_wrong_block_dims_raise(self):
        blocks, pp = nine_by_seven()
        with pytest.raises(AssertionError,
                           match=r"block dims \(1, 2\) != \(1, 1\)"):
            verify_product_partition(
                blocks, dataclasses.replace(pp, block_dims=(1, 2)))

    def test_missing_factor_raises(self):
        blocks, pp = nine_by_seven()
        with pytest.raises(AssertionError, match="grid factor count 1 != 2"):
            verify_product_partition(
                blocks, dataclasses.replace(pp, factors=pp.factors[:1]))

    def test_empty_product_verifies(self):
        pp = product_partition([])
        assert (pp.grid_census, pp.boundary_count, pp.cell_bound) \
            == ({(): 1}, 0, 1)
        assert verify_product_partition([], pp)


def nine_by_seven():
    a = PointConfig(1, tuple((Fraction(i),) for i in range(9)))
    b = PointConfig(1, tuple((Fraction(3 * i + 1),) for i in range(7)))
    blocks = [(a, 2), (b, 2)]
    return blocks, product_partition(blocks, slack=0)


class TestLargeProductGrid:
    """A 600 x 400 grid of d = 1 blocks: all 240,000 points are signed."""

    @pytest.fixture(scope="class")
    def grid(self):
        a = PointConfig(1, tuple((Fraction(i, 3),) for i in range(600)))
        b = PointConfig(1, tuple((Fraction(7 * i + 1, 2),)
                                 for i in range(400)))
        blocks = [(a, 4), (b, 2)]
        return blocks, product_partition(blocks, seed=1)

    def test_verifies(self, grid):
        assert verify_product_partition(*grid)

    def test_constant_factors_raise(self, grid):
        blocks, pp = grid
        ones = tuple(MultiPoly.constant(1, 2) for _ in pp.factors)
        with pytest.raises(AssertionError, match="grid sign mismatch"):
            verify_product_partition(blocks,
                                     dataclasses.replace(pp, factors=ones))

    def test_wrong_boundary_count_raises(self, grid):
        blocks, pp = grid
        bad = dataclasses.replace(pp, boundary_count=pp.boundary_count + 5)
        with pytest.raises(AssertionError, match="grid census mismatch"):
            verify_product_partition(blocks, bad)

    def test_zero_cell_bound_raises(self, grid):
        blocks, pp = grid
        with pytest.raises(AssertionError,
                           match="grid cell bound 0 != 240000"):
            verify_product_partition(blocks,
                                     dataclasses.replace(pp, cell_bound=0))


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
