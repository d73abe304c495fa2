"""Kernels against brute force: the direction-class unit-pair count
against the quadratic block sweep, and the hit sweeps on int64 and on
python-int object data."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zarank import kernels
from zarank.geometry import (
    _unit_minors,
    circles_intersect,
    clear_columns,
    det_bareiss,
    spheres_triple_intersect,
    st_lower_bound_minor_config,
)


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
    total = 0
    for i, j, l in itertools.combinations(range(len(x)), 3):
        det = (int(x[i]) * (int(y[j]) * int(z[l]) - int(z[j]) * int(y[l]))
               - int(y[i]) * (int(x[j]) * int(z[l]) - int(z[j]) * int(x[l]))
               + int(z[i]) * (int(x[j]) * int(y[l]) - int(y[j]) * int(x[l])))
        if abs(det) == int(s[i]) * int(s[j]) * int(s[l]):
            total += 1
    return total


def test_active_backend_env(monkeypatch):
    """Every kernel is numpy, whatever ZARANK_BACKEND asks for."""
    for choice in ("numpy", "numba", "auto"):
        monkeypatch.setenv("ZARANK_BACKEND", choice)
        assert kernels.active_backend() == "numpy"


@pytest.mark.parametrize("backend", ["numba", "numpy"])
def test_pair_kernel_matches_brute_force(backend, monkeypatch):
    """ZARANK_BACKEND is ignored: either value gives the exact count."""
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


def test_backends_agree_on_large_sweep():
    """The direction-class count against the quadratic sweep on the same
    800 columns."""
    rng = random.Random(4)
    x, y, _, s = random_int_data(rng, 800, top=300)
    assert kernels.count_unit_pairs(x, y, s) == kernels._unit_pairs_numpy(x, y, s)


# ---------------------------------------------------------------------------
# the direction-class pair count against brute force and the block sweep


def partner(w, s, s_new, k):
    """A column w' of scale s_new with |det(w, w')| = s * s_new, shifted
    by k along w's direction, or None when there is none."""
    g = math.gcd(*w)
    if g == 0 or (s * s_new) % g:
        return None
    px, py = w[0] // g, w[1] // g
    # px*u + py*v = 1, then (-t*v, t*u) has det(p, .) = t
    u, v = bezout(px, py)
    t = s * s_new // g
    return (-t * v + k * px, t * u + k * py)


def bezout(a, b):
    if b == 0:
        return (1 if a > 0 else -1), 0
    u, v = bezout(b, a % b)
    return v, u - (a // b) * v


@st.composite
def pair_columns(draw):
    """Cleared columns (x, y, s) in the shapes each route of
    count_unit_pairs sees: up to 10 multiples of each of a few directions
    with mixed scales (heavy classes, and unit pairs between two of
    them), then zero columns, free columns, and unit partners of earlier
    columns with several scales, drawn near or far along the partner line
    (far ones make wide boxes in which short directions have more
    lattice points than there are columns, which sends them to the
    quadratic sweep).  Multiples and partners are often non-primitive or
    negative."""
    # pairs of these span unit or small parallelograms
    dirs = draw(st.lists(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1),
                                          (2, 1), (1, 2), (3, 2), (2, -3)]),
                         min_size=1, max_size=3, unique=True))
    scales = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    far = draw(st.sampled_from([2, 40, 2000]))
    cols = []
    for dx, dy in dirs:
        for k in draw(st.lists(st.integers(-6, 6), max_size=10)):
            # s = |k| makes the rational column the direction itself, so
            # two classes whose directions span a unit square meet
            s = draw(st.sampled_from(scales + [abs(k) or 1]))
            cols.append((k * dx, k * dy, s))
    for kind in draw(st.lists(st.sampled_from(["free", "zero", "partner",
                                               "partner"]), max_size=16)):
        s = draw(st.sampled_from(scales))
        w = None
        if kind == "free":
            w = (draw(st.integers(-9, 9)), draw(st.integers(-9, 9)))
        elif kind == "partner" and cols:
            x0, y0, s0 = draw(st.sampled_from(cols))
            w = partner((x0, y0), s0, s, draw(st.integers(-far, far)))
        cols.append((0, 0, s) if w is None else (w[0], w[1], s))
    return draw(st.permutations(cols))


def as_arrays(cols, factor=1):
    return tuple(np.array([c[t] * factor for c in cols], dtype=np.int64)
                 for t in range(3))


def guard_factor(cols):
    """The largest f for which the columns and scales times f stay just
    under the int64 guard of geometry.fits_int64 for d = 2."""
    mx = max([1] + [abs(c[0]) for c in cols])
    my = max([1] + [abs(c[1]) for c in cols])
    sm = max([1] + [c[2] for c in cols])
    f = max(1, min(math.isqrt((2**62 - 1) // (2 * mx * my)),
                   math.isqrt(2**62 - 1) // sm))
    while 2 * (f * mx) * (f * my) >= 2**62 or (f * sm) ** 2 >= 2**62:
        f -= 1
    return f


@settings(max_examples=300, deadline=None)
@given(pair_columns())
def test_unit_pair_count_matches_brute_force(cols):
    x, y, s = as_arrays(cols)
    want = brute_pairs(x, y, s)
    assert kernels.count_unit_pairs(x, y, s) == want
    assert kernels._unit_pairs_numpy(x, y, s) == want


@settings(max_examples=100, deadline=None)
@given(pair_columns())
def test_unit_pair_count_just_under_the_guard(cols):
    """Scaling a column and its scale by f keeps the rational column and
    every hit; f is as large as the int64 guard allows."""
    f = guard_factor(cols)
    x, y, s = as_arrays(cols, f)
    assert kernels.count_unit_pairs(x, y, s) == brute_pairs(*as_arrays(cols))


@pytest.mark.parametrize("scale", [4, 8, 12, 16])
def test_unit_pair_count_on_st_config(scale):
    cols, scalars = clear_columns(st_lower_bound_minor_config(2, scale).points)
    x, y, s = as_arrays([c + (t,) for c, t in zip(cols, scalars)])
    assert kernels.count_unit_pairs(x, y, s) == kernels._unit_pairs_numpy(x, y, s)


def test_unit_pair_count_sends_wide_short_lines_to_the_block_sweep():
    """(1, 0) and (0, 1) meet every column with a coordinate +-1, on lines
    with more lattice points in the box than there are columns."""
    cols = [(1, 0, 1), (0, 1, 1), (1000, 1, 1), (-1000, -1, 1), (1, -999, 1),
            (7, 3, 2), (2, 1, 1), (5, 2, 1)]
    x, y, s = as_arrays(cols)
    assert kernels.count_unit_pairs(x, y, s) == brute_pairs(x, y, s)


# ---------------------------------------------------------------------------
# unit-minor hit sweeps against brute force and the Bareiss path


def brute_unit_hits(cols, scalars, d):
    hits, signs = [], []
    for combo in itertools.combinations(range(len(cols)), d):
        det = det_bareiss([[cols[i][r] for i in combo] for r in range(d)])
        scale = math.prod(scalars[i] for i in combo)
        if abs(det) == scale:
            hits.append(combo)
            signs.append(1 if det > 0 else -1)
    return hits, signs


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3), st.lists(st.tuples(st.integers(-3, 3),
                                             st.integers(-3, 3),
                                             st.integers(-3, 3),
                                             st.integers(1, 3)),
                                   max_size=10))
def test_unit_hits_match_brute_force_and_bareiss(d, raw):
    cols = [r[:d] for r in raw]
    scalars = [r[3] for r in raw]
    want_hits, want_signs = brute_unit_hits(cols, scalars, d)
    arrays = ([np.array([c[r] for c in cols], dtype=np.int64) for r in range(d)]
              + [np.array(scalars, dtype=np.int64)])
    sweep = kernels.unit_pair_hits if d == 2 else kernels.unit_triple_hits
    hits, signs = sweep(*arrays)
    assert hits.shape == (len(want_hits), d)
    assert [tuple(h) for h in hits.tolist()] == want_hits
    assert signs.tolist() == want_signs
    assert list(_unit_minors(cols, scalars, d)) == list(zip(want_hits, want_signs))
    count = kernels.count_unit_pairs if d == 2 else kernels.count_unit_triples
    assert count(*arrays) == len(want_hits)


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
