"""Hypergraph core: detection, set systems, double counting, oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from zarank.hypergraph import (
    BudgetExceededError,
    DetectionResult,
    ForbiddenPattern,
    KPartiteHypergraph,
    SetSystem,
    contains_complete,
    contains_complete_naive,
    crossing_count,
    erdos_double_count,
    find_low_crossing_tuple,
    is_witness,
    max_edges_avoiding,
    neighborhood_system,
    primal_shatter,
    traces,
)


def random_hypergraph(rng, sizes, p):
    edges = [e for e in itertools.product(*(range(s) for s in sizes))
             if rng.random() < p]
    return KPartiteHypergraph.build(sizes, edges)


class TestDetection:
    def test_complete_bipartite_contains_itself(self):
        H = KPartiteHypergraph.build((2, 2), itertools.product(range(2), range(2)))
        res = contains_complete(H, ForbiddenPattern((2, 2)))
        assert res.found
        assert res.witness == ((0, 1), (0, 1))
        assert is_witness(H, res.witness)

    def test_empty_edge_set(self):
        H = KPartiteHypergraph.build((3, 3), [])
        assert not contains_complete(H, ForbiddenPattern((1, 1))).found

    def test_pattern_larger_than_parts(self):
        H = KPartiteHypergraph.build((2, 2), [(0, 0)])
        assert not contains_complete(H, ForbiddenPattern((3, 1))).found

    def test_tripartite_witness(self):
        edges = list(itertools.product(range(2), range(2), range(2)))
        H = KPartiteHypergraph.build((3, 2, 2), edges)
        res = contains_complete(H, ForbiddenPattern((2, 2, 2)))
        assert res.found
        assert is_witness(H, res.witness)
        assert all(len(c) == 2 for c in res.witness)

    def test_near_complete_tripartite_misses_pattern(self):
        edges = [e for e in itertools.product(range(2), range(2), range(2))
                 if e != (1, 1, 1)]
        H = KPartiteHypergraph.build((2, 2, 2), edges)
        assert not contains_complete(H, ForbiddenPattern((2, 2, 2))).found
        assert not contains_complete_naive(H, ForbiddenPattern((2, 2, 2)))

    def test_budget_exhaustion_is_loud(self):
        # complete 6x6 minus a perfect matching: any 3 rows share exactly 3
        # columns, so (3,4) is absent and all C(6,3) candidates get tried
        edges = [(i, j) for i in range(6) for j in range(6) if i != j]
        H = KPartiteHypergraph.build((6, 6), edges)
        assert not contains_complete(H, ForbiddenPattern((3, 4))).found
        with pytest.raises(BudgetExceededError):
            contains_complete(H, ForbiddenPattern((3, 4)), budget=5)

    def test_agrees_with_naive_on_seeded_bipartite(self):
        rng = random.Random(99)
        for _ in range(300):
            n1, n2 = rng.randint(1, 4), rng.randint(1, 5)
            H = random_hypergraph(rng, (n1, n2), rng.random())
            u = (rng.randint(1, n1), rng.randint(1, n2))
            got = contains_complete(H, ForbiddenPattern(u)).found
            want = contains_complete_naive(H, ForbiddenPattern(u))
            assert got == want, (H, u)

    def test_agrees_with_naive_on_seeded_tripartite(self):
        rng = random.Random(100)
        for _ in range(200):
            sizes = tuple(rng.randint(1, 3) for _ in range(3))
            H = random_hypergraph(rng, sizes, rng.random())
            u = tuple(rng.randint(1, s) for s in sizes)
            got = contains_complete(H, ForbiddenPattern(u)).found
            want = contains_complete_naive(H, ForbiddenPattern(u))
            assert got == want, (H, u)

    # (found, witness, tests) per pattern, recorded when k = 2 still had
    # a separate bitmask detector; the general recursion must match it
    PINNED_RANDOM = {
        0: [(True, ((0, 1), (1, 10)), 1),
            (True, ((3, 4), (0, 1, 3, 4)), 22),
            (True, ((0, 1, 2, 10), (10, 22)), 8),
            (True, ((0, 1, 2), (10, 20, 22)), 1)],
        1: [(True, ((0, 1), (2, 8)), 1),
            (True, ((6, 8), (0, 3, 5, 16)), 314),
            (True, ((0, 1, 10, 13), (2, 12)), 63),
            (True, ((0, 3, 5), (7, 8, 19)), 25)],
        2: [(True, ((0, 6), (0, 4)), 5),
            (True, ((7, 8), (1, 2, 8, 10)), 196),
            (True, ((0, 6, 8, 11), (4, 8)), 107),
            (True, ((4, 7, 8), (8, 10, 12)), 91)],
        3: [(True, ((0, 3), (4, 7)), 3),
            (True, ((6, 7), (0, 3, 14, 17)), 397),
            (True, ((0, 3, 5, 9), (7, 20)), 158),
            (True, ((0, 3, 9), (7, 8, 20)), 31)],
    }
    PINNED_MINORS = {
        40: [(False, None, 3),
             (True, ((4,), (0, 11, 25)), 23),
             (True, ((0, 6, 14), (1,)), 13),
             (False, None, 0)],
        160: [(False, None, 66),
              (True, ((14,), (0, 29, 56)), 335),
              (True, ((0, 16, 32), (1,)), 111),
              (False, None, 1)],
    }

    @staticmethod
    def seeded_bipartite(seed):
        rng = random.Random(seed)
        n1, n2 = rng.randint(12, 24), rng.randint(12, 24)
        return random_hypergraph(rng, (n1, n2), 0.35)

    @staticmethod
    def minors_hypergraph(size):
        from zarank import experiments
        from zarank.geometry import unit_minor_hypergraph

        spec = experiments.ExperimentSpec(kind="minors", d=2,
                                          sizes=(20, 40, 80))
        return unit_minor_hypergraph(experiments._config(spec, size)[0])

    @staticmethod
    def outcomes(H, patterns):
        return [(r.found, r.witness, r.tests)
                for r in (contains_complete(H, ForbiddenPattern(u))
                          for u in patterns)]

    @pytest.mark.parametrize("seed", sorted(PINNED_RANDOM))
    def test_bipartite_outcomes_pinned(self, seed):
        H = self.seeded_bipartite(seed)
        got = self.outcomes(H, [(2, 2), (2, 4), (4, 2), (3, 3)])
        assert got == self.PINNED_RANDOM[seed]

    @pytest.mark.parametrize("size", sorted(PINNED_MINORS))
    def test_minors_sweep_outcomes_pinned(self, size):
        H = self.minors_hypergraph(size)
        got = self.outcomes(H, [(2, 2), (1, 3), (3, 1), (2, 3)])
        assert got == self.PINNED_MINORS[size]

    @pytest.mark.parametrize("make, u, tests", [
        (lambda: TestDetection.seeded_bipartite(1), (2, 4), 314),
        (lambda: TestDetection.minors_hypergraph(160), (2, 2), 66),
    ], ids=["random-1", "minors-160"])
    def test_bipartite_budget_edge_pinned(self, make, u, tests):
        # one budget unit per level-0 combination: `tests` units suffice,
        # one fewer raises
        H, pat = make(), ForbiddenPattern(u)
        assert contains_complete(H, pat, budget=tests).tests == tests
        with pytest.raises(BudgetExceededError):
            contains_complete(H, pat, budget=tests - 1)

    def test_monotone_under_edge_toggles(self):
        rng = random.Random(42)
        for _ in range(60):
            sizes = (3, 3, 3)
            H = random_hypergraph(rng, sizes, 0.5)
            pat = ForbiddenPattern((2, 2, 2))
            before = contains_complete(H, pat).found
            all_cells = list(itertools.product(range(3), range(3), range(3)))
            extra = rng.choice(all_cells)
            bigger = KPartiteHypergraph.build(sizes, set(H.edges) | {extra})
            after = contains_complete(bigger, pat).found
            if before:
                assert after
            smaller_edges = set(H.edges)
            if smaller_edges:
                smaller_edges.discard(rng.choice(sorted(smaller_edges)))
            smaller = KPartiteHypergraph.build(sizes, smaller_edges)
            if not before:
                assert not contains_complete(smaller, pat).found


class TestNeighborhood:
    def test_complete_gives_full_part(self):
        H = KPartiteHypergraph.build(
            (2, 3), itertools.product(range(2), range(3)))
        assert H.neighborhood(1, (0,)) == {0, 1, 2}

    def test_empty(self):
        H = KPartiteHypergraph.build((2, 3), [])
        assert H.neighborhood(1, (1,)) == set()

    def test_worked_tripartite_example(self):
        H = KPartiteHypergraph.build((1, 1, 2), [(0, 0, 0), (0, 0, 1)])
        assert H.neighborhood(2, (0, 0)) == {0, 1}


class TestShatter:
    def test_power_set_fully_shatters(self):
        g = 4
        F = SetSystem.build(g, [s for r in range(g + 1)
                                for s in itertools.combinations(range(g), r)])
        for z in range(1, g + 1):
            assert primal_shatter(F, z) == 2 ** z

    def test_intervals_on_six_points(self):
        members = [range(i, j) for i in range(6) for j in range(i, 7)]
        F = SetSystem.build(6, members)
        # traces of intervals on any 2 points: empty, {a}, {b}, {a,b}
        assert primal_shatter(F, 2) == 4

    def test_singletons(self):
        F = SetSystem.build(8, [{i} for i in range(8)])
        for z in (1, 3, 5):
            assert primal_shatter(F, z) == z + 1

    def test_growth_sandwich(self):
        rng = random.Random(5)
        F = SetSystem.build(8, [set(rng.sample(range(8), rng.randint(0, 8)))
                                for _ in range(12)])
        prev = primal_shatter(F, 1)
        for z in range(2, 7):
            cur = primal_shatter(F, z)
            assert prev <= cur <= 2 * prev
            prev = cur

    def test_budget_error_names_sampled_mode(self):
        F = SetSystem.build(30, [set(range(i)) for i in range(30)])
        with pytest.raises(BudgetExceededError, match="sampled"):
            primal_shatter(F, 15, budget=10)

    def test_sampled_lower_bounds_exhaustive(self):
        rng = random.Random(6)
        F = SetSystem.build(9, [set(rng.sample(range(9), rng.randint(0, 9)))
                                for _ in range(10)])
        for z in (2, 3, 4):
            exact = primal_shatter(F, z)
            sampled = primal_shatter(F, z, mode="sampled", seed=1, trials=50)
            assert sampled <= exact


class TestCrossing:
    def test_disjoint_members_do_not_cross(self):
        F = SetSystem.build(6, [{0}, {1}, {0, 1}])
        assert crossing_count(F, {2, 3}) == 0

    def test_superset_members_do_not_cross(self):
        F = SetSystem.build(6, [{0, 1, 2}, {0, 1, 2, 3}])
        assert crossing_count(F, {0, 1}) == 0

    def test_worked_example(self):
        F = SetSystem.build(3, [{1}, {1, 2}])
        assert crossing_count(F, {1, 2}) == 1


class TestLowCrossing:
    def test_identical_neighborhoods(self):
        edges = [(p, q) for p in range(4) for q in range(3)]
        G = KPartiteHypergraph.build((4, 3), edges)
        res = find_low_crossing_tuple(G, 2)
        assert res.exhaustive
        assert res.crossings == 0

    def test_perfect_matching(self):
        n = 6
        G = KPartiteHypergraph.build((n, n), [(i, i) for i in range(n)])
        res = find_low_crossing_tuple(G, 2)
        assert res.exhaustive
        # each matched neighborhood is a singleton: exactly the 2 partners cross
        assert res.crossings == 2

    def test_matches_brute_force_minimum(self):
        rng = random.Random(12)
        G = random_hypergraph(rng, (7, 6), 0.4)
        res = find_low_crossing_tuple(G, 2)
        F = neighborhood_system(G, ground_part=1)
        best = min(crossing_count(F, c)
                   for c in itertools.combinations(range(6), 2))
        assert res.exhaustive
        assert res.crossings == best

    def test_sampled_flagged(self):
        rng = random.Random(13)
        G = random_hypergraph(rng, (10, 24), 0.3)
        res = find_low_crossing_tuple(G, 6, budget=100, seed=5, trials=50)
        assert not res.exhaustive

    @pytest.mark.parametrize("seed, subset, crossings", [
        (0, (2, 6, 7, 10, 18, 23), 8),
        (1, (3, 6, 12, 14, 15, 20), 8),
        (2, (0, 2, 9, 11, 19, 21), 6),
    ], ids=["seed-0", "seed-1", "seed-2"])
    def test_sampled_result_pinned(self, seed, subset, crossings):
        rng = random.Random(100 + seed)
        G = random_hypergraph(rng, (10, 24), 0.3)
        res = find_low_crossing_tuple(G, 6, budget=100, seed=seed, trials=50)
        assert (res.subset, res.crossings, res.exhaustive) == (
            subset, crossings, False)


class TestDoubleCount:
    def test_empty(self):
        H = KPartiteHypergraph.build((3, 3, 3), [])
        rep = erdos_double_count(H, 2)
        assert rep.by_neighborhoods == rep.by_enumeration == 0

    def test_complete_bipartite_3x3(self):
        H = KPartiteHypergraph.build(
            (3, 3), itertools.product(range(3), range(3)))
        rep = erdos_double_count(H, 2)
        # every y in P_2 has N_y = 3: Q = 3 * C(3,2) = 9
        assert rep.by_neighborhoods == 9
        assert rep.by_enumeration == 9
        assert rep.chain_ok

    def test_seeded_tripartite_equality(self):
        rng = random.Random(2)
        for _ in range(100):
            sizes = tuple(rng.randint(1, 5) for _ in range(3))
            H = random_hypergraph(rng, sizes, rng.random())
            u1 = rng.randint(1, 3)
            rep = erdos_double_count(H, u1)
            assert rep.equal, (sizes, u1)
            assert rep.chain_ok


class TestMaxEdges:
    def test_two_by_two(self):
        res = max_edges_avoiding(ForbiddenPattern((2, 2)), (2, 2))
        assert res.exact and res.value == 3

    def test_any_edge_is_k11(self):
        res = max_edges_avoiding(ForbiddenPattern((1, 1)), (3, 3))
        assert res.exact and res.value == 0

    def test_classical_zarankiewicz_values(self):
        # z(n; 2,2) for n = 2, 3, 4: 3, 6, 9
        for n, want in [(2, 3), (3, 6), (4, 9)]:
            res = max_edges_avoiding(ForbiddenPattern((2, 2)), (n, n))
            assert res.exact and res.value == want

    def test_extremal_value_realized_and_tight(self):
        # exhaustively confirm z(3,3;2,2) = 6 against the definition
        best = 0
        cells = list(itertools.product(range(3), range(3)))
        for r in range(9, -1, -1):
            for chosen in itertools.combinations(cells, r):
                H = KPartiteHypergraph.build((3, 3), chosen)
                if not contains_complete_naive(H, ForbiddenPattern((2, 2))):
                    best = r
                    break
            if best:
                break
        assert best == 6

    def test_tripartite_complete_minus_one(self):
        res = max_edges_avoiding(ForbiddenPattern((2, 2, 2)), (2, 2, 2))
        assert res.exact and res.value == 7

    def test_pattern_that_cannot_fit(self):
        res = max_edges_avoiding(ForbiddenPattern((3, 3)), (2, 4))
        assert res.exact and res.value == 8


class TestFileFormat:
    def test_round_trip(self):
        rng = random.Random(77)
        H = random_hypergraph(rng, (3, 4, 2), 0.4)
        again = KPartiteHypergraph.from_text(H.to_text())
        assert again == H

    def test_text_layout(self):
        H = KPartiteHypergraph.build((2, 2), [(1, 0), (0, 1)])
        assert H.to_text() == "2 2 2\n0 1\n1 0\n"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            KPartiteHypergraph.from_text("2 2 2\n0 5\n")
