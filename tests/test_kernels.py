"""Kernels against brute force: backend parity for the unit-minor
counts, and the hit sweeps on int64 and on python-int object data."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zarank import kernels
from zarank.geometry import circles_intersect, spheres_triple_intersect


def random_int_data(rng, n, top=50):
    x = np.array([rng.randint(-top, top) for _ in range(n)], dtype=np.int64)
    y = np.array([rng.randint(-top, top) for _ in range(n)], dtype=np.int64)
    z = np.array([rng.randint(-top, top) for _ in range(n)], dtype=np.int64)
    s = np.array([rng.randint(1, 4) for _ in range(n)], dtype=np.int64)
    return x, y, z, s


def brute_pairs(x, y, s):
    n = len(x)
    return sum(1 for i in range(n) for j in range(i + 1, n)
               if abs(int(x[i]) * int(y[j]) - int(y[i]) * int(x[j]))
               == int(s[i]) * int(s[j]))


def brute_triples(x, y, z, s):
    import itertools
    total = 0
    for i, j, l in itertools.combinations(range(len(x)), 3):
        det = (int(x[i]) * (int(y[j]) * int(z[l]) - int(z[j]) * int(y[l]))
               - int(y[i]) * (int(x[j]) * int(z[l]) - int(z[j]) * int(x[l]))
               + int(z[i]) * (int(x[j]) * int(y[l]) - int(y[j]) * int(x[l])))
        if abs(det) == int(s[i]) * int(s[j]) * int(s[l]):
            total += 1
    return total


def test_active_backend_env(monkeypatch):
    monkeypatch.setenv("ZARANK_BACKEND", "numpy")
    assert kernels.active_backend() == "numpy"
    monkeypatch.setenv("ZARANK_BACKEND", "auto")
    assert kernels.active_backend() in ("numba", "numpy")


@pytest.mark.parametrize("backend", ["numba", "numpy"])
def test_pair_kernel_matches_brute_force(backend, monkeypatch):
    monkeypatch.setenv("ZARANK_BACKEND", backend)
    rng = random.Random(1)
    for n in (2, 7, 40):
        x, y, _, s = random_int_data(rng, n)
        assert kernels.count_unit_pairs(x, y, s) == brute_pairs(x, y, s)


@pytest.mark.parametrize("backend", ["numba", "numpy"])
def test_triple_kernel_matches_brute_force(backend, monkeypatch):
    monkeypatch.setenv("ZARANK_BACKEND", backend)
    rng = random.Random(2)
    for n in (3, 8, 20):
        x, y, z, s = random_int_data(rng, n, top=6)
        assert kernels.count_unit_triples(x, y, z, s) == brute_triples(x, y, z, s)


@pytest.mark.parametrize("backend", ["numba", "numpy"])
def test_area_kernel_matches_brute_force(backend, monkeypatch):
    import itertools
    monkeypatch.setenv("ZARANK_BACKEND", backend)
    rng = random.Random(3)
    x = np.array([rng.randint(0, 20) for _ in range(25)], dtype=np.int64)
    y = np.array([rng.randint(0, 20) for _ in range(25)], dtype=np.int64)
    lo_a, lo_b, hi_a, hi_b, s2 = 9, 10, 11, 10, 1
    got = kernels.count_area_triples(x, y, lo_a, lo_b, hi_a, hi_b, s2)
    want = 0
    for i, j, l in itertools.combinations(range(25), 3):
        cross = abs(int(x[j] - x[i]) * int(y[l] - y[i])
                    - int(y[j] - y[i]) * int(x[l] - x[i]))
        if cross * lo_b >= 2 * s2 * lo_a and cross * hi_b <= 2 * s2 * hi_a:
            want += 1
    assert got == want


def test_backends_agree_on_large_sweep(monkeypatch):
    rng = random.Random(4)
    x, y, _, s = random_int_data(rng, 800, top=300)
    monkeypatch.setenv("ZARANK_BACKEND", "numpy")
    a = kernels.count_unit_pairs(x, y, s)
    monkeypatch.setenv("ZARANK_BACKEND", "numba")
    b = kernels.count_unit_pairs(x, y, s)
    assert a == b


# ---------------------------------------------------------------------------
# hit sweeps


def brute_area_hits(x, y, lo_a, lo_b, hi_a, hi_b, s2):
    hits = []
    for i, j, l in itertools.combinations(range(len(x)), 3):
        cross = abs((int(x[j]) - int(x[i])) * (int(y[l]) - int(y[i]))
                    - (int(y[j]) - int(y[i])) * (int(x[l]) - int(x[i])))
        if Fraction(lo_a, lo_b) <= Fraction(cross, 2 * s2) <= Fraction(hi_a, hi_b):
            hits.append((i, j, l))
    return hits


def as_object(a):
    return np.array([int(v) for v in np.ravel(a)], dtype=object).reshape(np.shape(a))


coords = st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
                  min_size=0, max_size=11)


@settings(max_examples=80, deadline=None)
@given(coords, st.integers(0, 12), st.integers(0, 8), st.integers(1, 4),
       st.integers(1, 4), st.sampled_from([0, 2**62, -(2**70)]))
def test_area_hits_match_brute_force(pts, lo_n, width, den, s2, shift):
    """The shift moves every point past 2^62 on the object path: areas
    are translation invariant, so the hits must not change."""
    x = [p[0] for p in pts]
    y = [p[1] for p in pts]
    lo_a, lo_b, hi_a, hi_b = lo_n, den, lo_n + width, den
    want = brute_area_hits(x, y, lo_a, lo_b, hi_a, hi_b, s2)
    got = kernels.area_triple_hits(np.array(x, dtype=np.int64),
                                   np.array(y, dtype=np.int64),
                                   lo_a, lo_b, hi_a, hi_b, s2)
    assert got.shape == (len(want), 3)
    assert [tuple(h) for h in got.tolist()] == want
    big = kernels.area_triple_hits(as_object([v + shift for v in x]),
                                   as_object([v - shift for v in y]),
                                   lo_a, lo_b, hi_a, hi_b, s2)
    assert [tuple(h) for h in big.tolist()] == want
    assert kernels.count_area_triples(np.array(x, dtype=np.int64),
                                      np.array(y, dtype=np.int64), lo_a,
                                      lo_b, hi_a, hi_b, s2) == len(want)


def brute_sphere_hits(c, r2):
    """Hits and degenerate flags from the rational predicates."""
    k = len(c[0])
    spheres = [(tuple(Fraction(v) for v in ci), Fraction(ri))
               for ci, ri in zip(c, r2)]
    hits, flags = [], []
    for combo in itertools.combinations(range(len(c)), k):
        s = [spheres[i] for i in combo]
        if k == 2:
            meets, degen = circles_intersect(s[0][0], s[0][1], s[1][0], s[1][1])
        else:
            meets, degen = spheres_triple_intersect(*s)
        if meets:
            hits.append(combo)
            flags.append(degen)
    return hits, flags


@st.composite
def sphere_data(draw, k):
    """Integer spheres drawn from a few centres and radii, so identical
    pairs, concentric spheres and collinear centres (parallel radical
    planes) come up often."""
    centres = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k),
                            min_size=1, max_size=4))
    radii = draw(st.lists(st.integers(1, 10), min_size=1, max_size=4))
    n = draw(st.integers(0, 9))
    c = [draw(st.sampled_from(centres)) for _ in range(n)]
    r2 = [draw(st.sampled_from(radii)) for _ in range(n)]
    return c, r2


def check_sphere_sweep(c, r2, sweep):
    k = len(c[0]) if c else 3
    want_hits, want_flags = brute_sphere_hits(c, r2) if c else ([], [])
    for data in (np.array(c, dtype=np.int64).reshape(len(c), k),
                 as_object(np.array(c, dtype=np.int64).reshape(len(c), k))):
        hits, flags = sweep(data, np.array(r2, dtype=data.dtype))
        assert [tuple(h) for h in hits.tolist()] == want_hits
        assert flags.tolist() == want_flags


@settings(max_examples=80, deadline=None)
@given(sphere_data(2))
def test_circle_hits_match_rational_predicate(data):
    check_sphere_sweep(*data, kernels.circle_pair_hits)


@settings(max_examples=120, deadline=None)
@given(sphere_data(3))
def test_sphere_hits_match_rational_predicate(data):
    check_sphere_sweep(*data, kernels.sphere_triple_hits)


@pytest.mark.parametrize("c, r2, meets", [
    # tangent at (1, 0, 0): the two radical planes meet in a line that
    # touches the first sphere (discriminant 0)
    ([(0, 0, 0), (2, 0, 0), (1, 1, 0)], [1, 1, 1], True),
    # collinear centres, every radical plane is x = 0: coincident planes
    ([(0, 0, 0), (1, 0, 0), (2, 0, 0)], [4, 5, 8], True),
    # collinear centres, radical planes x = 1/2 and x = 1: parallel
    ([(0, 0, 0), (1, 0, 0), (2, 0, 0)], [4, 4, 4], False),
    # concentric, different radii
    ([(0, 0, 0), (0, 0, 0), (1, 0, 0)], [1, 2, 1], False),
    # identical pair (first two), third meets them
    ([(0, 0, 0), (0, 0, 0), (1, 0, 0)], [4, 4, 4], True),
    # identical pair (last two), first meets them
    ([(1, 0, 0), (0, 0, 0), (0, 0, 0)], [4, 4, 4], True),
])
def test_sphere_hits_special_cases(c, r2, meets):
    hits, _ = kernels.sphere_triple_hits(np.array(c), np.array(r2))
    assert (len(hits) == 1) is meets
    check_sphere_sweep(c, r2, kernels.sphere_triple_hits)
