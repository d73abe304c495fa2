"""Exact geometry: determinants, builders, predicates, extremal configs."""

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from zarank import geometry, kernels
from zarank.experiments import (
    ExperimentSpec,
    _random_matrix,
    _random_spheres,
    _random_triangle_points,
)
from zarank.geometry import (
    DetTarget,
    PointConfig,
    SphereConfig,
    circles_intersect,
    count_almost_unit_area,
    count_almost_unit_area_naive,
    count_sphere_intersections,
    count_sphere_intersections_naive,
    count_unit_minors,
    count_unit_minors_naive,
    det_bareiss,
    det_of_columns,
    halfplane_traces,
    k1uu_config,
    almost_unit_area_hypergraph,
    sphere_intersection_hypergraph,
    spheres_triple_intersect,
    st_incidence_count,
    st_lower_bound_minor_config,
    triangle_double_area,
    unit_minor_hypergraph,
)
from zarank.hypergraph import ForbiddenPattern, contains_complete


def frac_points(raw):
    return tuple(tuple(Fraction(c) for c in p) for p in raw)


def random_rational_config(rng, d, n, num=4, den=2):
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(rng.randint(-num, num), rng.randint(1, den))
                      for _ in range(d)))
    return PointConfig(d, tuple(sorted(pts)))


class TestDeterminants:
    def test_bareiss_known(self):
        assert det_bareiss([[1, 0], [0, 1]]) == 1
        assert det_bareiss([[0, 1], [1, 0]]) == -1
        # cofactor expansion: 2*(2-0) - 3*(8-35) + 1*(0-7) = 78
        assert det_bareiss([[2, 3, 1], [4, 1, 5], [7, 0, 2]]) == 78

    def test_bareiss_vs_fraction_gauss(self):
        rng = random.Random(10)
        for _ in range(200):
            d = rng.randint(2, 5)
            rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
            from zarank.geometry import _det_fraction_gauss
            assert det_bareiss(rows) == _det_fraction_gauss(
                [[Fraction(x) for x in r] for r in rows])

    def test_rational_column_determinant(self):
        cfg = PointConfig(2, frac_points([(Fraction(1, 2), 0), (0, Fraction(2, 3))]))
        assert det_of_columns(cfg, (0, 1)) == Fraction(1, 3)
        assert det_of_columns(cfg, (1, 0)) == Fraction(-1, 3)

    def test_clear_columns(self):
        cfg = PointConfig(2, frac_points([(Fraction(1, 2), Fraction(3, 4))]))
        assert cfg.numerators.tolist() == [[2, 3]]
        assert cfg.denominators.tolist() == [4]


class TestUnitMinorHypergraph:
    def test_identity_exactly_one(self):
        cfg = PointConfig(2, frac_points([(1, 0), (0, 1)]))
        H = unit_minor_hypergraph(cfg, DetTarget.EXACTLY_ONE)
        assert H.edges == frozenset({(0, 1)})

    def test_identity_plus_minus(self):
        cfg = PointConfig(2, frac_points([(1, 0), (0, 1)]))
        H = unit_minor_hypergraph(cfg, DetTarget.PLUS_MINUS_ONE)
        assert H.edges == frozenset({(0, 1), (1, 0)})

    def test_k14_line_family(self):
        cols = [(1, 0)] + [(x, 1) for x in range(4)]
        cfg = PointConfig(2, frac_points(cols))
        H = unit_minor_hypergraph(cfg, DetTarget.EXACTLY_ONE)
        # (1,0) against every (x,1) has det 1
        for j in range(1, 5):
            assert (0, j) in H.edges
        assert contains_complete(H, ForbiddenPattern((1, 4))).found

    def test_rejects_repeated_columns(self):
        cfg = PointConfig(2, frac_points([(1, 0), (1, 0)]))
        with pytest.raises(ValueError):
            unit_minor_hypergraph(cfg)

    def test_unimodular_row_operations_preserve_edges(self):
        rng = random.Random(21)
        for _ in range(20):
            cfg = random_rational_config(rng, 3, 6)
            # random SL_3(Z) element from elementary shears
            m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
            for _ in range(6):
                i, j = rng.sample(range(3), 2)
                c = rng.randint(-2, 2)
                for t in range(3):
                    m[i][t] += c * m[j][t]
            mapped = tuple(
                tuple(sum(Fraction(m[r][t]) * p[t] for t in range(3))
                      for r in range(3))
                for p in cfg.points)
            cfg2 = PointConfig(3, mapped)
            for target in DetTarget:
                H1 = unit_minor_hypergraph(cfg, target)
                H2 = unit_minor_hypergraph(cfg2, target)
                assert H1.edges == H2.edges

    def test_k22_free_property_small(self):
        # executable version of the no-K_{2,...,2} lemma on seeded matrices
        rng = random.Random(31)
        for _ in range(40):
            d = rng.choice([2, 3])
            cfg = random_rational_config(rng, d, rng.randint(d + 1, 7))
            H = unit_minor_hypergraph(cfg, DetTarget.EXACTLY_ONE)
            assert not contains_complete(H, ForbiddenPattern((2,) * d)).found


def kernel_dtypes(call):
    """call()'s result and the dtypes that the kernels' int64 guard
    (`kernels._exact`) chose during it, in call order."""
    seen, real = [], kernels._exact

    def spy(bound, *arrays):
        out = real(bound, *arrays)
        seen.extend(a.dtype for a in out)
        return out

    with mock.patch.object(kernels, "_exact", spy):
        return call(), seen


@st.composite
def unit_minor_configs(draw):
    """Distinct rational columns, d in {2, 3}; with `big`, one more column
    with entries near 2^32, past the kernels' int64 guard, so the sweeps
    run on python ints."""
    d = draw(st.integers(2, 3))
    coord = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    pts = draw(st.lists(st.tuples(*[coord] * d), max_size=8, unique=True))
    big = draw(st.booleans())
    if big:
        pts.append(tuple(Fraction(2**32 + 2 * r + 1, 3) for r in range(d)))
    return PointConfig(d, tuple(pts)), big


class TestUnitMinorHits:
    @settings(max_examples=80, deadline=None)
    @given(unit_minor_configs())
    def test_hypergraph_and_count_match_fraction_determinants(self, data):
        cfg, big = data
        d = cfg.dim
        _, dtypes = kernel_dtypes(lambda: count_unit_minors(cfg))
        assert dtypes and set(dtypes) == {np.dtype(object) if big
                                          else np.dtype(np.int64)}
        from zarank.geometry import _det_fraction_gauss
        dets = {idx: _det_fraction_gauss([[cfg.points[i][r] for i in idx]
                                          for r in range(d)])
                for idx in itertools.permutations(range(cfg.n), d)}
        one = unit_minor_hypergraph(cfg, DetTarget.EXACTLY_ONE)
        both = unit_minor_hypergraph(cfg, DetTarget.PLUS_MINUS_ONE)
        assert one.edges == frozenset(i for i, v in dets.items() if v == 1)
        assert both.edges == frozenset(i for i, v in dets.items() if abs(v) == 1)
        count = count_unit_minors(cfg)
        assert count == count_unit_minors_naive(cfg)
        assert count == one.num_edges // (math.factorial(d) // 2)


class TestCountUnitMinors:
    def test_identity(self):
        cfg = PointConfig(2, frac_points([(1, 0), (0, 1)]))
        assert count_unit_minors(cfg) == 1

    def test_three_columns_all_unit(self):
        cfg = PointConfig(2, frac_points([(1, 0), (0, 1), (1, 1)]))
        assert count_unit_minors(cfg) == 3

    def test_modes_agree_on_subsets(self):
        # the count is the number of unit subsets under either target:
        # d!/2 orderings of each have det exactly 1, all d! have |det| = 1
        rng = random.Random(44)
        for _ in range(20):
            cfg = random_rational_config(rng, 2, 8)
            one = unit_minor_hypergraph(cfg, DetTarget.EXACTLY_ONE)
            both = unit_minor_hypergraph(cfg, DetTarget.PLUS_MINUS_ONE)
            count = count_unit_minors(cfg)
            assert count == one.num_edges // (math.factorial(2) // 2)
            assert count == both.num_edges // math.factorial(2)

    def test_kernel_vs_naive_oracle(self):
        rng = random.Random(50)
        for d in (2, 3):
            for _ in range(25):
                cfg = random_rational_config(rng, d, rng.randint(d + 1, 9))
                assert count_unit_minors(cfg) == count_unit_minors_naive(cfg)

    def test_numpy_backend_agrees(self):
        rng = random.Random(51)
        for d in (2, 3):
            cfg = random_rational_config(rng, d, 9)
            assert count_unit_minors(cfg) == count_unit_minors_naive(cfg)

    def test_bigint_fallback_agrees(self):
        rng = random.Random(52)
        # denominators large enough to force the big-integer path
        pts = set()
        while len(pts) < 7:
            pts.add((Fraction(rng.randint(1, 2**40), rng.randint(1, 7)),
                     Fraction(rng.randint(1, 2**40), rng.randint(1, 7))))
        cfg = PointConfig(2, tuple(pts))
        assert count_unit_minors(cfg) == count_unit_minors_naive(cfg)
        # entries past 2^63 stay python ints under a zero product bound
        cfg = PointConfig.from_integers(2, [(2**70, 0), (1, 0), (3, 0)])
        assert count_unit_minors(cfg) == count_unit_minors_naive(cfg) == 0
        assert unit_minor_hypergraph(cfg).num_edges == 0

    def test_bareiss_loop_only_past_three_dimensions(self, monkeypatch):
        """d = 2, 3 are decided by the kernels' sweeps even with entries
        past 2^32, where they run on python ints; the Bareiss loop decides
        d >= 4."""
        calls = []
        real = geometry._unit_minors

        def spy(cols, scalars, d):
            calls.append(d)
            return real(cols, scalars, d)

        monkeypatch.setattr(geometry, "_unit_minors", spy)
        big = 2**32 + 1
        for cols in ([(big, big - 1), (big + 1, big), (1, 0), (0, 1)],
                     [(1, 0, 0), (big, 1, 0), (big, big, 1), (0, 1, 0),
                      (0, 0, 1)]):
            d = len(cols[0])
            cfg = PointConfig.from_integers(d, cols)
            want = count_unit_minors_naive(cfg)
            assert want > 0
            count, dtypes = kernel_dtypes(lambda: count_unit_minors(cfg))
            assert count == want and np.dtype(object) in dtypes
            for target in DetTarget:
                H = unit_minor_hypergraph(cfg, target)
                assert H.num_edges == want * math.factorial(d) // (
                    2 if target is DetTarget.EXACTLY_ONE else 1)
        assert calls == []
        cfg = k1uu_config(4, 2)
        assert count_unit_minors(cfg) == count_unit_minors_naive(cfg)
        unit_minor_hypergraph(cfg)
        assert calls == [4, 4]


class TestAlmostUnitArea:
    def test_area_exactly_one(self):
        cfg = PointConfig(2, frac_points([(0, 0), (2, 0), (0, 1)]))
        H = almost_unit_area_hypergraph(cfg)
        assert (0, 1, 2) in H.edges and (2, 1, 0) in H.edges

    def test_collinear_absent(self):
        cfg = PointConfig(2, frac_points([(0, 0), (1, 1), (2, 2)]))
        assert almost_unit_area_hypergraph(cfg).num_edges == 0

    def test_half_area_absent(self):
        cfg = PointConfig(2, frac_points([(0, 0), (1, 0), (0, 1)]))
        assert almost_unit_area_hypergraph(cfg).num_edges == 0

    def test_boundary_inclusive(self):
        # area exactly 9/10: on the closed boundary, present
        cfg = PointConfig(2, frac_points([(0, 0), (1, 0), (0, Fraction(9, 5))]))
        assert almost_unit_area_hypergraph(cfg).num_edges == 6

    def test_shear_invariance(self):
        rng = random.Random(63)
        for _ in range(20):
            cfg = random_rational_config(rng, 2, 7, num=6)
            shear = rng.randint(-3, 3)
            mapped = tuple((p[0] + shear * p[1], p[1]) for p in cfg.points)
            cfg2 = PointConfig(2, mapped)
            H1 = almost_unit_area_hypergraph(cfg)
            H2 = almost_unit_area_hypergraph(cfg2)
            assert H1.edges == H2.edges

    def test_count_matches_naive(self):
        rng = random.Random(64)
        for _ in range(20):
            cfg = random_rational_config(rng, 2, 9, num=5)
            assert count_almost_unit_area(cfg) == count_almost_unit_area_naive(cfg)

    def test_count_matches_hypergraph(self):
        rng = random.Random(65)
        cfg = random_rational_config(rng, 2, 8, num=4)
        H = almost_unit_area_hypergraph(cfg)
        assert H.num_edges == 6 * count_almost_unit_area(cfg)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hits_match_fraction_loop(self, data):
        """Negative and fractional coordinates; the band's ends are the
        areas of two of the triangles, so hits sit exactly at lo and hi;
        a large offset or denominator pushes the coordinates past the
        int64 guard onto the object path."""
        big = data.draw(st.sampled_from([1, 2**40, Fraction(1, 2**40)]))
        raw = data.draw(st.lists(
            st.tuples(st.fractions(-5, 5, max_denominator=4),
                      st.fractions(-5, 5, max_denominator=4)),
            min_size=3, max_size=10, unique=True))
        pts = tuple((x * big + 3 * big, y * big) for x, y in raw)
        cfg = PointConfig(2, pts)
        triples = list(itertools.combinations(range(cfg.n), 3))
        areas = sorted({triangle_double_area(*(pts[i] for i in t)) / 2
                        for t in triples})
        lo = data.draw(st.sampled_from(areas))
        hi = data.draw(st.sampled_from([a for a in areas if a >= lo]))
        want = {t for t in triples
                if lo <= triangle_double_area(*(pts[i] for i in t)) / 2 <= hi}
        H, dtypes = kernel_dtypes(
            lambda: almost_unit_area_hypergraph(cfg, lo, hi))
        past = big == 2**40 or (big != 1 and hi != 0)
        assert set(dtypes) == {np.dtype(object) if past else np.dtype(np.int64)}
        assert H.edges == {p for t in want for p in itertools.permutations(t)}
        assert count_almost_unit_area(cfg, lo, hi) == len(want)
        assert count_almost_unit_area_naive(cfg, lo, hi) == len(want)

    def test_rejects_empty_band(self):
        cfg = PointConfig(2, frac_points([(0, 0), (2, 0), (0, 1)]))
        with pytest.raises(ValueError):
            count_almost_unit_area(cfg, Fraction(2), Fraction(1))

    @pytest.mark.parametrize("count", [count_almost_unit_area,
                                       count_almost_unit_area_naive])
    def test_count_and_oracle_reject_the_same_input(self, count):
        plane = PointConfig(2, frac_points([(0, 0), (2, 0), (0, 1)]))
        with pytest.raises(ValueError, match="need lo <= hi"):
            count(plane, Fraction(2), Fraction(1))
        space = PointConfig(3, frac_points([(0, 0, 0), (2, 0, 0), (0, 1, 0)]))
        with pytest.raises(ValueError, match="live in the plane"):
            count(space)


class TestSpheres:
    def test_tangent_circles_meet(self):
        assert circles_intersect((Fraction(0), Fraction(0)), Fraction(1),
                                 (Fraction(2), Fraction(0)), Fraction(1)) == (True, False)

    def test_far_circles_do_not(self):
        meets, _ = circles_intersect((Fraction(0), Fraction(0)), Fraction(1),
                                     (Fraction(3), Fraction(0)), Fraction(1))
        assert not meets

    def test_nested_circles_do_not(self):
        meets, _ = circles_intersect((Fraction(0), Fraction(0)), Fraction(100),
                                     (Fraction(1), Fraction(0)), Fraction(1))
        assert not meets

    def test_identical_circles_degenerate(self):
        meets, degen = circles_intersect((Fraction(1), Fraction(2)), Fraction(5),
                                         (Fraction(1), Fraction(2)), Fraction(5))
        assert meets and degen

    def test_three_unit_spheres_share_point(self):
        one = Fraction(1)
        s1 = ((Fraction(0), Fraction(0), Fraction(0)), one)
        s2 = ((Fraction(1), Fraction(0), Fraction(0)), one)
        s3 = ((Fraction(0), Fraction(1), Fraction(0)), one)
        meets, degen = spheres_triple_intersect(s1, s2, s3)
        assert meets and not degen

    def test_distant_spheres_do_not(self):
        one = Fraction(1)
        s1 = ((Fraction(0), Fraction(0), Fraction(0)), one)
        s2 = ((Fraction(10), Fraction(0), Fraction(0)), one)
        s3 = ((Fraction(0), Fraction(10), Fraction(0)), one)
        assert not spheres_triple_intersect(s1, s2, s3)[0]

    def test_concentric_different_radii(self):
        s1 = ((Fraction(0),) * 3, Fraction(1))
        s2 = ((Fraction(0),) * 3, Fraction(2))
        s3 = ((Fraction(5), Fraction(0), Fraction(0)), Fraction(1))
        assert not spheres_triple_intersect(s1, s2, s3)[0]

    def test_identical_pair_flagged(self):
        s1 = ((Fraction(0),) * 3, Fraction(4))
        s3 = ((Fraction(1), Fraction(0), Fraction(0)), Fraction(4))
        meets, degen = spheres_triple_intersect(s1, s1, s3)
        assert meets and degen

    def test_predicate_matches_float_solver(self):
        rng = random.Random(70)
        checked = 0
        for _ in range(1000):
            c1 = (Fraction(rng.randint(-40, 40), 4), Fraction(rng.randint(-40, 40), 4))
            c2 = (Fraction(rng.randint(-40, 40), 4), Fraction(rng.randint(-40, 40), 4))
            r1 = Fraction(rng.randint(1, 40), 8)
            r2 = Fraction(rng.randint(1, 40), 8)
            got, _ = circles_intersect(c1, r1, c2, r2)
            dist = math.hypot(float(c1[0] - c2[0]), float(c1[1] - c2[1]))
            lo, hi = abs(math.sqrt(r1) - math.sqrt(r2)), math.sqrt(r1) + math.sqrt(r2)
            if abs(dist - lo) < 1e-9 or abs(dist - hi) < 1e-9:
                continue  # inside float uncertainty, predicate is the referee
            assert got == (lo <= dist <= hi)
            checked += 1
        assert checked > 900

    def test_triple_predicate_matches_float_solver(self):
        import numpy as np
        rng = random.Random(71)
        checked = 0
        for _ in range(400):
            spheres = []
            for _ in range(3):
                c = tuple(Fraction(rng.randint(-8, 8), 2) for _ in range(3))
                spheres.append((c, Fraction(rng.randint(1, 24), 4)))
            got, _ = spheres_triple_intersect(*spheres)
            c1, a1 = spheres[0]
            rows, rhs = [], []
            for cj, aj in spheres[1:]:
                rows.append([2 * float(cj[t] - c1[t]) for t in range(3)])
                rhs.append(float(sum(cj[t] ** 2 - c1[t] ** 2 for t in range(3))
                                 - (aj - a1)))
            A = np.array(rows)
            if np.linalg.matrix_rank(A, tol=1e-8) < 2:
                continue
            p, *_ = np.linalg.lstsq(A, np.array(rhs), rcond=None)
            v = np.cross(A[0], A[1])
            w = p - np.array([float(x) for x in c1])
            qa = float(v @ v)
            qb = float(v @ w)
            qc = float(w @ w) - float(a1)
            disc = qb * qb - qa * qc
            if abs(disc) < 1e-6:
                continue
            assert got == (disc > 0), spheres
            checked += 1
        assert checked > 300

    @staticmethod
    def fraction_sweep(cfg):
        """Edges and degenerate edges from the rational predicates."""
        edges, degenerate = set(), set()
        for combo in itertools.combinations(range(cfg.n), cfg.dim):
            s = [cfg.spheres[i] for i in combo]
            if cfg.dim == 2:
                meets, degen = circles_intersect(s[0][0], s[0][1],
                                                 s[1][0], s[1][1])
            else:
                meets, degen = spheres_triple_intersect(*s)
            if meets:
                orders = set(itertools.permutations(combo))
                edges |= orders
                if degen:
                    degenerate |= orders
        return edges, degenerate

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_integer_sweep_matches_fraction_predicates(self, data):
        """Spheres from a few rational centres and radii, so identical
        pairs, concentric spheres, parallel and coincident radical planes
        and tangencies come up; a large scale forces the object path."""
        d = data.draw(st.sampled_from([2, 3]))
        scale = data.draw(st.sampled_from([1, 10**6, Fraction(1, 10**6)]))
        coord = st.fractions(-2, 2, max_denominator=2)
        centres = data.draw(st.lists(st.tuples(*[coord] * d),
                                     min_size=1, max_size=3))
        radii = data.draw(st.lists(st.fractions(1, 6, max_denominator=4),
                                   min_size=1, max_size=3))
        n = data.draw(st.integers(0, 8))
        spheres = tuple(
            (tuple(c * scale for c in data.draw(st.sampled_from(centres))),
             data.draw(st.sampled_from(radii)) * scale * scale)
            for _ in range(n))
        cfg = SphereConfig(d, spheres)
        H, degen = sphere_intersection_hypergraph(cfg)
        edges, want_degen = self.fraction_sweep(cfg)
        assert H.edges == edges
        assert degen == want_degen
        k = math.factorial(d)
        assert count_sphere_intersections(cfg) == len(edges) // k
        assert count_sphere_intersections_naive(cfg) == len(edges) // k

    def test_identical_pair_in_last_two_places_flagged(self):
        s1 = ((Fraction(1), Fraction(0), Fraction(0)), Fraction(4))
        s2 = ((Fraction(0),) * 3, Fraction(4))
        assert spheres_triple_intersect(s1, s2, s2) == (True, True)
        H, degen = sphere_intersection_hypergraph(SphereConfig(3, (s1, s2, s2)))
        assert H.num_edges == 6 and degen == H.edges

    def test_hypergraph_and_file_round_trip(self):
        cfg = SphereConfig(2, (
            ((Fraction(0), Fraction(0)), Fraction(1)),
            ((Fraction(2), Fraction(0)), Fraction(1)),
            ((Fraction(9), Fraction(9)), Fraction(1)),
        ))
        H, degen = sphere_intersection_hypergraph(cfg)
        assert H.edges == frozenset({(0, 1), (1, 0)})
        assert not degen
        assert count_sphere_intersections(cfg) == 1
        again = SphereConfig.from_text(cfg.to_text())
        assert again == cfg


# The oracles' earlier, unfiltered loops: every subset through the
# rational predicate.  The oracles in `geometry` must count the same.


def unit_minors_loop(M):
    """Gaussian elimination on every d-subset of columns."""
    d = M.dim
    return sum(1 for cols in itertools.combinations(M.points, d)
               if abs(geometry._det_fraction_gauss(
                   [[c[r] for c in cols] for r in range(d)])) == 1)


def area_loop(P, lo, hi):
    """The doubled area of every triangle against the doubled band."""
    return sum(1 for p, q, r in itertools.combinations(P.points, 3)
               if 2 * lo <= triangle_double_area(p, q, r) <= 2 * hi)


def sphere_loop(S):
    """The pair predicate on every pair (d=2), the triple predicate on
    every triple (d=3)."""
    if S.dim == 2:
        return sum(1 for (c1, a), (c2, b)
                   in itertools.combinations(S.spheres, 2)
                   if circles_intersect(c1, a, c2, b)[0])
    return sum(1 for triple in itertools.combinations(S.spheres, 3)
               if spheres_triple_intersect(*triple)[0])


# small values, so that unit determinants, exact band ends, tangencies
# and repeats come up
small_rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


class TestOraclesMatchTheirLoops:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_unit_minors(self, data):
        """Columns with denominators, d = 2 and 3 by cofactors, d = 4
        through `_det_fraction_gauss`; repeated columns allowed."""
        d = data.draw(st.sampled_from([2, 3, 4]))
        unit = [tuple(Fraction(int(r == i)) for r in range(d))
                for i in range(d)]
        cols = data.draw(st.lists(st.one_of(
            st.tuples(*[small_rational] * d), st.sampled_from(unit)),
            max_size=9 if d < 4 else 7))
        M = PointConfig(d, cols)
        assert count_unit_minors_naive(M) == unit_minors_loop(M)

    def test_unit_minors_d4_case(self):
        cols = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                (1, 1, 1, Fraction(1, 2)), (2, 0, 1, 3)]
        M = PointConfig(4, frac_points(cols))
        assert count_unit_minors_naive(M) == unit_minors_loop(M) == 7

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_almost_unit_area(self, data):
        """Points with denominators; the band's ends are triangle areas,
        so hits sit exactly on both ends."""
        raw = data.draw(st.lists(st.tuples(small_rational, small_rational),
                                 min_size=3, max_size=10))
        P = PointConfig(2, raw)
        areas = sorted({triangle_double_area(*t) / 2
                        for t in itertools.combinations(P.points, 3)})
        lo = data.draw(st.sampled_from(areas))
        hi = data.draw(st.sampled_from([a for a in areas if a >= lo]))
        assert count_almost_unit_area_naive(P, lo, hi) == area_loop(P, lo, hi)
        assert count_almost_unit_area_naive(P) \
            == area_loop(P, Fraction(9, 10), Fraction(11, 10))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_sphere_intersections(self, data):
        """Few distinct centres on a small grid and few rational radii,
        squared: identical, concentric, tangent spheres and collinear
        centres (parallel radical planes) come up."""
        d = data.draw(st.sampled_from([2, 3]))
        coord = st.sampled_from([Fraction(v, 2) for v in range(-3, 4)])
        centres = data.draw(st.lists(st.tuples(*[coord] * d),
                                     min_size=1, max_size=4))
        radii = data.draw(st.lists(st.fractions(1, 2, max_denominator=2),
                                   min_size=1, max_size=3))
        rows = data.draw(st.lists(st.tuples(st.sampled_from(centres),
                                            st.sampled_from(radii)),
                                  max_size=9))
        S = SphereConfig(d, tuple((c, r * r) for c, r in rows))
        assert count_sphere_intersections_naive(S) == sphere_loop(S)

    @pytest.mark.parametrize("rows, want", [
        # (centre, squared radius) triples and their count
        # mutually tangent pairs through one point (1, 0, 0)
        ([((0, 0, 0), 1), ((2, 0, 0), 1), ((1, 1, 0), 1)], 1),
        # two tangent spheres and a third through the tangency point
        ([((0, 0, 0), 1), ((3, 0, 0), 4), ((1, 0, 5), 25)], 1),
        # two tangent spheres and a third that misses the tangency point
        ([((0, 0, 0), 1), ((3, 0, 0), 4), ((1, 0, 6), 25)], 0),
        # an identical pair and a sphere meeting it: one degenerate triple
        ([((0, 0, 0), 2), ((0, 0, 0), 2), ((1, 1, 1), 2)], 1),
        # three identical spheres
        ([((1, 0, 0), 1)] * 3, 1),
        # concentric spheres never share a point
        ([((0, 0, 0), 1), ((0, 0, 0), 4), ((1, 0, 0), 4)], 0),
        # collinear centres, coincident radical planes: a common circle
        ([((-1, 0, 0), 4), ((1, 0, 0), 4), ((0, 0, 0), 3)], 1),
        # collinear centres, distinct parallel radical planes
        ([((0, 0, 0), 4), ((1, 0, 0), 4), ((2, 0, 0), 4)], 0),
        # every pair meets, the three share no point
        ([((0, 0, 0), 1), ((Fraction(19, 10), 0, 0), 1),
          ((Fraction(19, 20), Fraction(8, 5), 0), 1)], 0),
    ])
    def test_named_sphere_cases(self, rows, want):
        rows = [(tuple(map(Fraction, c)), Fraction(r2)) for c, r2 in rows]
        for more in ([], [((Fraction(9),) * 3, Fraction(1))]):
            S = SphereConfig(3, rows + more)
            assert count_sphere_intersections_naive(S) == sphere_loop(S) \
                == want

    def test_triple_predicate_runs_once_per_pair_graph_triangle(
            self, monkeypatch):
        S = _random_spheres(ExperimentSpec("spheres", 3, (10, 20, 40)), 40)
        spheres = S.spheres
        meets = {(i, j) for i, j in itertools.combinations(range(S.n), 2)
                 if circles_intersect(*spheres[i], *spheres[j])[0]}
        triangles = [t for t in itertools.combinations(range(S.n), 3)
                     if all(p in meets for p in itertools.combinations(t, 2))]
        calls = []
        original = geometry.spheres_triple_intersect

        def spy(*triple):
            calls.append(tuple(spheres.index(s) for s in triple))
            return original(*triple)

        monkeypatch.setattr(geometry, "spheres_triple_intersect", spy)
        assert count_sphere_intersections_naive(S) > 0
        assert sorted(calls) == triangles
        assert len(triangles) < math.comb(S.n, 3) // 100

    def test_oracles_read_neither_kernels_nor_common_denominator(
            self, monkeypatch):
        def never(*args):
            raise AssertionError("the oracle used the integer form")

        class NoKernels:
            def __getattr__(self, name):
                never()

        monkeypatch.setattr(geometry, "kernels", NoKernels())
        monkeypatch.setattr(geometry._RationalRows, "common_denominator",
                            never)
        rng = random.Random(81)
        for d in (2, 3, 4):
            M = random_rational_config(rng, d, 8)
            assert count_unit_minors_naive(M) == unit_minors_loop(M)
        P = random_rational_config(rng, 2, 12, num=5)
        assert count_almost_unit_area_naive(P) \
            == area_loop(P, Fraction(9, 10), Fraction(11, 10))
        for d in (2, 3):
            S = _random_spheres(ExperimentSpec("spheres", d, (10, 20, 30)), 20)
            assert count_sphere_intersections_naive(S) == sphere_loop(S)


class TestSTConfig:
    def test_column_count_scale_two(self):
        cfg = st_lower_bound_minor_config(2, 2)
        # slope family 2*4 plus grid 2*8
        assert cfg.n == 24

    def test_incidence_identity(self):
        # ordered (slope, grid) pairs with det exactly +1 == brute-force
        # solution count of y = ax + b over the ranges
        for s in (2, 3):
            cfg = st_lower_bound_minor_config(2, s)
            slopes = [i for i, p in enumerate(cfg.points) if p[0].denominator >= 1
                      and p[0] <= 1]
            grids = [i for i, p in enumerate(cfg.points) if p[0] > 1]
            hits = 0
            for i in slopes:
                for j in grids:
                    if det_of_columns(cfg, (i, j)) == 1:
                        hits += 1
            assert hits == st_incidence_count(s)

    def test_slope_grid_pairs_are_unit(self):
        cfg = st_lower_bound_minor_config(2, 2)
        # algebraic identity: (1/b)(ax+b) - (a/b)x = 1
        a, b, x = 2, 3, 4
        col_line = (Fraction(1, b), Fraction(a, b))
        col_point = (Fraction(x), Fraction(a * x + b))
        pts = (col_line, col_point)
        assert (col_line[0] * col_point[1] - col_line[1] * col_point[0]) == 1

    def test_d3_count_factorizes(self):
        s = 2
        cfg2 = st_lower_bound_minor_config(2, s)
        cfg3 = st_lower_bound_minor_config(3, s)
        chain = cfg3.n - cfg2.n
        assert chain == s
        assert count_unit_minors(cfg3) == count_unit_minors(cfg2) * chain

    def test_counts_nondecreasing_in_scale(self):
        counts = [count_unit_minors(st_lower_bound_minor_config(2, s))
                  for s in (2, 3, 4, 5)]
        assert counts == sorted(counts)


class TestK1uuConfig:
    def test_column_count(self):
        for d, u in [(2, 3), (3, 2), (4, 1)]:
            assert k1uu_config(d, u).n == 1 + (d - 1) * u

    def test_contains_k1u_and_not_k22(self):
        cfg = k1uu_config(2, 3)
        H = unit_minor_hypergraph(cfg, DetTarget.EXACTLY_ONE)
        assert contains_complete(H, ForbiddenPattern((1, 3))).found
        assert not contains_complete(H, ForbiddenPattern((2, 2))).found

    def test_d3_contains_k122(self):
        cfg = k1uu_config(3, 2)
        H = unit_minor_hypergraph(cfg, DetTarget.EXACTLY_ONE)
        assert contains_complete(H, ForbiddenPattern((1, 2, 2))).found

    def test_u1_single_minor(self):
        for d in (2, 3, 4):
            cfg = k1uu_config(d, 1)
            assert count_unit_minors(cfg) == 1


def halfplane_traces_oracle(points):
    """Reference: every prefix of the points sorted along each critical
    direction (perpendicular to a difference vector, or an axis), ties
    split both ways by the perpendicular; `Fraction` keys throughout.
    Exact on distinct points only: a prefix may split equal points."""
    n = len(points)
    pts = [tuple(Fraction(c) for c in p) for p in points]
    out = {frozenset(), frozenset(range(n))}
    dirs = {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
            (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))}
    for i in range(n):
        for j in range(i + 1, n):
            dx = pts[j][0] - pts[i][0]
            dy = pts[j][1] - pts[i][1]
            if dx == 0 and dy == 0:
                continue
            for v in ((dy, -dx), (-dy, dx)):
                lcm = math.lcm(v[0].denominator, v[1].denominator)
                a, b = int(v[0] * lcm), int(v[1] * lcm)
                g = math.gcd(abs(a), abs(b))
                dirs.add((Fraction(a // g), Fraction(b // g)))
    for v in dirs:
        w = (-v[1], v[0])
        for flip in (1, -1):
            order = sorted(range(n), key=lambda t: (
                v[0] * pts[t][0] + v[1] * pts[t][1],
                flip * (w[0] * pts[t][0] + w[1] * pts[t][1])))
            for cut in range(1, n):
                out.add(frozenset(order[:cut]))
    return out


@st.composite
def plane_points(draw, unique=True):
    """Up to 8 points mixing a collinear run (a line of rational slope),
    small-grid points and rational points."""
    slope = draw(st.fractions(-2, 2, max_denominator=3))
    offset = draw(st.integers(-2, 2))
    on_line = st.integers(-4, 4).map(
        lambda x: (Fraction(x), slope * x + offset))
    grid = st.tuples(st.integers(-3, 3).map(Fraction),
                     st.integers(-3, 3).map(Fraction))
    rational = st.tuples(st.fractions(-5, 5, max_denominator=4),
                         st.fractions(-5, 5, max_denominator=4))
    return draw(st.lists(st.one_of(on_line, grid, rational), max_size=8,
                         unique=unique))


class TestHalfplaneTraces:
    @settings(max_examples=150, deadline=None)
    @given(plane_points())
    def test_equals_oracle_on_distinct_points(self, pts):
        assert halfplane_traces(pts) == halfplane_traces_oracle(pts)

    def test_equal_points_are_not_split(self):
        tr = halfplane_traces(frac_points([(0, 0), (0, 0), (1, 0)]))
        assert tr == {frozenset(), frozenset({0, 1}), frozenset({2}),
                      frozenset({0, 1, 2})}

    @settings(max_examples=100, deadline=None)
    @given(plane_points(unique=False))
    def test_repeated_points_follow_their_distinct_copy(self, pts):
        """The traces of a point list with repeats are the traces of its
        distinct points, each widened to every copy."""
        distinct = sorted(set(pts))
        copies = [[i for i, p in enumerate(pts) if p == q] for q in distinct]
        want = {frozenset(i for t in trace for i in copies[t])
                for trace in halfplane_traces(distinct)}
        assert halfplane_traces(pts) == want

    def test_three_points_general_position_shatter(self):
        pts = frac_points([(0, 0), (1, 0), (0, 1)])
        assert len(halfplane_traces(pts)) == 8

    def test_square_excludes_diagonals(self):
        pts = frac_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        tr = halfplane_traces(pts)
        assert frozenset({0, 2}) not in tr
        assert frozenset({1, 3}) not in tr
        assert len(tr) == 14

    def test_contains_every_random_halfplane_trace(self):
        rng = random.Random(81)
        pts = [tuple(Fraction(rng.randint(-10, 10), rng.randint(1, 3))
                     for _ in range(2)) for _ in range(7)]
        tr = halfplane_traces(pts)
        for _ in range(500):
            a = Fraction(rng.randint(-9, 9))
            b = Fraction(rng.randint(-9, 9))
            if a == b == 0:
                continue
            c = Fraction(rng.randint(-60, 60), rng.randint(1, 4))
            got = frozenset(i for i, p in enumerate(pts)
                            if a * p[0] + b * p[1] > c)
            assert got in tr
            closed = frozenset(i for i, p in enumerate(pts)
                               if a * p[0] + b * p[1] >= c)
            assert closed in tr

    def test_quadratic_bound(self):
        rng = random.Random(82)
        for _ in range(10):
            z = rng.randint(1, 8)
            pts = [tuple(Fraction(rng.randint(-8, 8)) for _ in range(2))
                   for _ in range(z)]
            assert len(halfplane_traces(pts)) <= 1 + z + 2 * math.comb(z, 2)


class TestPointFile:
    def test_round_trip(self):
        cfg = PointConfig(2, frac_points([(Fraction(1, 2), 3), (4, Fraction(-5, 7))]))
        again = PointConfig.from_text(cfg.to_text())
        assert again.points == cfg.points

    def test_text_format(self):
        cfg = PointConfig(2, frac_points([(Fraction(1, 2), 3)]))
        assert cfg.to_text() == "2 1\n1/2 3\n"


# ---------------------------------------------------------------------------
# the stored integer form: both constructors agree


# small values, zero, and values on both sides of the int64 storage limit
# and of the 2^62 overflow guard
BIG = [2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1, 2**63, 2**64 + 3]
numerator = st.one_of(st.integers(-12, 12), st.sampled_from(BIG),
                      st.sampled_from([-v for v in BIG]))
denominator = st.one_of(st.integers(1, 12), st.sampled_from(BIG))


@st.composite
def integer_rows(draw, k_lo, k_hi, positive_last=False):
    k = draw(st.integers(k_lo, k_hi))
    n = draw(st.integers(0, 6))
    rows = []
    for _ in range(n):
        row = [draw(numerator) for _ in range(k)]
        if positive_last:
            row[-1] = abs(row[-1]) or 1
        rows.append(row)
    return k, rows, [draw(denominator) for _ in range(n)]


def assert_same_config(a, b):
    assert a.numerators.dtype == b.numerators.dtype
    assert a.denominators.dtype == b.denominators.dtype
    assert a.numerators.tolist() == b.numerators.tolist()
    assert a.denominators.tolist() == b.denominators.tolist()
    assert a.to_text() == b.to_text()
    assert a == b and hash(a) == hash(b)


def assert_lowest_terms(cfg, rows):
    """Row i of cfg is rows[i] as Fractions, stored over a positive
    denominator with no common factor."""
    for num, q, want in zip(cfg.numerators.tolist(),
                            cfg.denominators.tolist(), rows):
        assert q > 0 and math.gcd(q, *num) == 1
        assert tuple(Fraction(a, q) for a in num) == want
    for a in (cfg.numerators, cfg.denominators):
        fits = all(abs(v) < 2**63 for v in a.ravel().tolist())
        assert (a.dtype == np.int64) == fits


class TestIntegerConstructor:
    @settings(max_examples=200, deadline=None)
    @given(integer_rows(1, 3))
    def test_points_round_trip(self, data):
        dim, nums, dens = data
        rows = tuple(tuple(Fraction(a, q) for a in row)
                     for row, q in zip(nums, dens))
        cfg = PointConfig.from_integers(dim, nums, dens)
        assert_same_config(cfg, PointConfig(dim, rows))
        assert cfg.points == rows
        assert_lowest_terms(cfg, rows)
        assert cfg.has_repeats() == (len(set(rows)) != len(rows))
        L, X = cfg.common_denominator()
        assert L == math.lcm(*(c.denominator for p in rows for c in p))
        assert X.tolist() == [[int(c * L) for c in p] for p in rows]

    @settings(max_examples=200, deadline=None)
    @given(integer_rows(3, 4, positive_last=True))
    def test_spheres_round_trip(self, data):
        k, nums, dens = data
        rows = tuple(tuple(Fraction(a, q) for a in row)
                     for row, q in zip(nums, dens))
        spheres = tuple((row[:-1], row[-1]) for row in rows)
        cfg = SphereConfig.from_integers(k - 1, nums, dens)
        assert_same_config(cfg, SphereConfig(k - 1, spheres))
        assert cfg.spheres == spheres
        assert_lowest_terms(cfg, rows)

    def test_unreduced_input_is_reduced(self):
        cfg = PointConfig.from_integers(2, [(2, 4), (0, 0), (-3, 6)],
                                        [6, 5, 3])
        assert cfg.numerators.tolist() == [[1, 2], [0, 0], [-1, 2]]
        assert cfg.denominators.tolist() == [3, 1, 1]
        assert cfg == PointConfig(2, [(Fraction(1, 3), Fraction(2, 3)),
                                      (0, 0), (-1, 2)])

    def test_rejects_bad_integer_input(self):
        with pytest.raises(ValueError):
            PointConfig.from_integers(2, [(1, 2)], [0])
        with pytest.raises(ValueError):
            PointConfig.from_integers(2, [(1, 2, 3)])
        # repeats are stored; the unit-minor builders reject them
        for nums, dens in (([(1, 2), (2, 4)], [1, 2]),
                           ([(2**62, 1), (-2**62, 1), (2**62, 1)], None)):
            cfg = PointConfig.from_integers(2, nums, dens)
            assert cfg.has_repeats()
            with pytest.raises(ValueError):
                count_unit_minors(cfg)
        with pytest.raises(ValueError):
            SphereConfig.from_integers(2, [(1, 2, 0)])

    def test_configs_are_immutable(self):
        cfg = PointConfig.from_integers(2, [(1, 2)])
        with pytest.raises(AttributeError):
            cfg.dim = 3
        with pytest.raises(ValueError):
            cfg.numerators[0, 0] = 5
        with pytest.raises(ValueError):
            cfg.common_denominator()[1][0, 0] = 5

    @pytest.mark.parametrize("cfg", [
        PointConfig(2, [(Fraction(1, 2), 3), (2**70, Fraction(-1, 3))]),
        SphereConfig(3, [((Fraction(1, 2), 0, 2**64), Fraction(5, 4))]),
    ])
    def test_copy_and_pickle(self, cfg):
        for twin in (copy.copy(cfg), copy.deepcopy(cfg),
                     pickle.loads(pickle.dumps(cfg))):
            assert type(twin) is type(cfg)
            assert_same_config(twin, cfg)
            assert twin.to_text() == cfg.to_text()


def fractions_made(monkeypatch) -> list:
    """The argument tuples of every `Fraction` built from now on."""
    made = []
    original = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    return made


def test_sweeps_on_generator_output_build_no_fraction(monkeypatch):
    """The unit-minor count, the area band and the sphere sweeps read the
    stored integers of generator output; no `Fraction` is made."""
    specs = [ExperimentSpec(kind=kind, d=d, sizes=(10, 20, 30))
             for kind, d in (("triangles", 2), ("spheres", 2), ("spheres", 3))]
    made = fractions_made(monkeypatch)
    assert count_unit_minors(st_lower_bound_minor_config(2, 16)) > 0
    P = _random_triangle_points(specs[0], 40)
    assert count_almost_unit_area(P) * 6 \
        == almost_unit_area_hypergraph(P).num_edges
    for spec in specs[1:]:
        S = _random_spheres(spec, 40)
        hypergraph, _ = sphere_intersection_hypergraph(S)
        assert count_sphere_intersections(S) * math.factorial(S.dim) \
            == hypergraph.num_edges
    assert made == []
    Fraction(1, 3)
    assert made == [(1, 3)]


def test_oracles_on_generator_output_build_no_fraction(monkeypatch):
    """The unit-minor oracle (d = 2, 3), the area oracle and the circle
    oracle run on python ints read from the stored integers; only the
    d = 3 sphere oracle's triple predicate divides."""
    triangles = ExperimentSpec(kind="triangles", d=2, sizes=(10, 20, 30))
    minors = ExperimentSpec(kind="minors", d=3, sizes=(10, 20, 40))
    circles = ExperimentSpec(kind="spheres", d=2, sizes=(10, 20, 30))
    configs = (st_lower_bound_minor_config(2, 4),
               _random_matrix(minors, 40),
               _random_triangle_points(triangles, 40),
               _random_spheres(circles, 40))
    made = fractions_made(monkeypatch)
    assert count_unit_minors_naive(configs[0]) == 452
    assert count_unit_minors_naive(configs[1]) > 0
    assert count_almost_unit_area_naive(configs[2]) > 0
    assert count_sphere_intersections_naive(configs[3]) > 0
    assert made == []


# unit pairs and triples whose entries straddle 2^63, over a denominator
# q: (2^63, 1)/q and (2^63 - 1, 1)*q have determinant 1, and with a last
# row (0, 0, 1) so do they and (2^63, 2^63 - 1, 1)
def straddling_unit_columns(d, q):
    nums = [(2**63, 1, 0), ((2**63 - 1) * q, q, 0), (2**63, 2**63 - 1, 1)]
    return [row[:d] for row in nums[:d]], [q, 1, 1][:d]


# circles (d = 2) or spheres (d = 3) with centres near 2^63 / q and
# squared radii 1/q^2: the first two touch at (2^63 - 1)/q on the first
# axis, and the third passes through that point
def straddling_spheres(d, q):
    rows = [(2**63 * q, 0, 0, 1), ((2**63 - 2) * q, 0, 0, 1),
            ((2**63 - 1) * q, q, 0, 1)]
    return [row[:d] + row[3:] for row in rows[:d]], [q * q] * d


class TestOraclesPastInt64:
    """The oracles on entries and denominators near and past 2^63, where
    the kernels run on object arrays: each oracle equals its `Fraction`
    loop and the kernel's count."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), denominator, st.data())
    def test_unit_minors(self, d, q, data):
        nums, dens = straddling_unit_columns(d, q)
        _, more, more_dens = data.draw(integer_rows(d, d))
        M = PointConfig.from_integers(d, nums + more, dens + more_dens)
        assume(not M.has_repeats())
        count, dtypes = kernel_dtypes(lambda: count_unit_minors(M))
        assert np.dtype(object) in dtypes
        assert count_unit_minors_naive(M) == unit_minors_loop(M) == count
        assert count >= 1

    @settings(max_examples=60, deadline=None)
    @given(denominator, st.data())
    def test_almost_unit_area(self, q, data):
        """The hand-made unit pair and the origin make a triangle of area
        1/2; the band's ends are triangle areas."""
        nums, dens = straddling_unit_columns(2, q)
        _, more, more_dens = data.draw(integer_rows(2, 2))
        P = PointConfig.from_integers(2, [(0, 0)] + nums + more,
                                      [1] + dens + more_dens)
        areas = sorted({triangle_double_area(*t) / 2
                        for t in itertools.combinations(P.points, 3)})
        lo = data.draw(st.sampled_from(areas))
        hi = data.draw(st.sampled_from([a for a in areas if a >= lo]))
        for band in ((lo, hi), (Fraction(1, 2), Fraction(1, 2)), ()):
            count, dtypes = kernel_dtypes(
                lambda: count_almost_unit_area(P, *band))
            assert np.dtype(object) in dtypes
            assert count_almost_unit_area_naive(P, *band) == count \
                == area_loop(P, *(band or (Fraction(9, 10),
                                           Fraction(11, 10))))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), denominator, st.data())
    def test_sphere_intersections(self, d, q, data):
        nums, dens = straddling_spheres(d, q)
        _, more, more_dens = data.draw(
            integer_rows(d + 1, d + 1, positive_last=True))
        S = SphereConfig.from_integers(d, nums + more, dens + more_dens)
        count, dtypes = kernel_dtypes(lambda: count_sphere_intersections(S))
        assert np.dtype(object) in dtypes
        assert count_sphere_intersections_naive(S) == sphere_loop(S) == count
        assert count >= 1
