"""Kernels against brute force: the direction-class unit-pair count
against the quadratic row sweep, and the hit sweeps on int64 and on
python-int object data; and the hits of seeded sweep configurations
against pinned digests."""

import hashlib
import itertools
import json
import math
import random
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zarank import geometry, kernels
from zarank.experiments import ExperimentSpec, _config
from zarank.geometry import spheres_meet, st_lower_bound_minor_config
from fraction_det import det_fraction_gauss


def random_int_data(rng, n, top=50):
    x = np.array([rng.randint(-top, top) for _ in range(n)], dtype=np.int64)
    y = np.array([rng.randint(-top, top) for _ in range(n)], dtype=np.int64)
    z = np.array([rng.randint(-top, top) for _ in range(n)], dtype=np.int64)
    s = np.array([rng.randint(1, 4) for _ in range(n)], dtype=np.int64)
    return x, y, z, s


def row_sweep_count(x, y, s):
    return len(kernels.unit_pair_hits(x, y, s)[0])


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


def test_active_backend_env():
    """Every kernel is numpy."""
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
    assert kernels.count_unit_pairs(x, y, s) == row_sweep_count(x, y, s)


# ---------------------------------------------------------------------------
# the direction-class pair count against brute force and the row sweep


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
    under the unit-pair kernels' own int64 guard (`kernels._unit_bound`
    below 2^62) wherever both coordinates occur; at f + 1 they pass it.
    Columns that already reach the guard get f = 1, never 0, which would
    zero every column."""
    mx = max([1] + [abs(c[0]) for c in cols])
    my = max([1] + [abs(c[1]) for c in cols])
    sm = max([1] + [c[2] for c in cols])
    f = max(1, min(math.isqrt((2**62 - 1) // (2 * mx * my)),
                   math.isqrt(2**62 - 1) // sm))
    while f > 1 and (2 * (f * mx) * (f * my) >= 2**62
                     or (f * sm) ** 2 >= 2**62):
        f -= 1
    return f


@settings(max_examples=300, deadline=None)
@given(pair_columns())
def test_unit_pair_count_matches_brute_force(cols):
    x, y, s = as_arrays(cols)
    want = brute_pairs(x, y, s)
    assert kernels.count_unit_pairs(x, y, s) == want
    assert row_sweep_count(x, y, s) == want


@settings(max_examples=100, deadline=None)
@given(pair_columns())
def test_unit_pair_count_just_under_the_guard(cols):
    """Scaling a column and its scale by f keeps the rational column and
    every hit; f is as large as the int64 guard allows."""
    f = guard_factor(cols)
    x, y, s = as_arrays(cols, f)
    assert kernels.count_unit_pairs(x, y, s) == brute_pairs(*as_arrays(cols)) \
        == len(kernels.unit_pair_hits(x, y, s)[0])


@settings(max_examples=100, deadline=None)
@given(pair_columns())
def test_unit_pair_count_one_step_past_the_guard(cols):
    """One step past the guard the count is the row sweep's, on python
    ints."""
    x, y, s = as_arrays(cols, guard_factor(cols) + 1)
    assert kernels._unit_bound((x, y), s) >= 2**62 or not (x.any() and y.any())
    assert kernels.count_unit_pairs(x, y, s) == brute_pairs(*as_arrays(cols)) \
        == len(kernels.unit_pair_hits(x, y, s)[0])


@pytest.mark.parametrize("scale", [4, 8, 12, 16])
def test_unit_pair_count_on_st_config(scale):
    cfg = st_lower_bound_minor_config(2, scale)
    (x, y), s = cfg.numerators.T, cfg.denominators
    assert kernels.count_unit_pairs(x, y, s) == row_sweep_count(x, y, s)


def test_unit_pair_hits_row_bound():
    """rows=r keeps exactly the hits with first index below r."""
    rng = random.Random(5)
    x, y, _, s = random_int_data(rng, 60, top=6)
    hits, signs = kernels.unit_pair_hits(x, y, s)
    assert len(hits)
    for rows in (0, 1, 17, 59, 60, 100):
        got, got_signs = kernels.unit_pair_hits(x, y, s, rows=rows)
        keep = hits[:, 0] < rows
        assert np.array_equal(got, hits[keep])
        assert np.array_equal(got_signs, signs[keep])


def test_unit_pair_count_sends_wide_short_lines_to_the_block_sweep():
    """(1, 0) and (0, 1) meet every column with a coordinate +-1, on lines
    with more lattice points in the box than there are columns."""
    cols = [(1, 0, 1), (0, 1, 1), (1000, 1, 1), (-1000, -1, 1), (1, -999, 1),
            (7, 3, 2), (2, 1, 1), (5, 2, 1)]
    x, y, s = as_arrays(cols)
    assert kernels.count_unit_pairs(x, y, s) == brute_pairs(x, y, s)


def test_unit_pair_count_joins_a_heavy_class_of_huge_gcds():
    """A heavy class along (1, 0) whose members (g, 0) have g near 2^60
    and scales near 2^30, with partners (k, +-t) of t = s s' / g <= 2:
    the members' reduced s / g have denominators b near 2^60, so a key
    a * (max b + 1) + b would pass int64, while the rank key does not.
    Odd k flips the partner to (k, -t)."""
    gs = [1 << 59, 3 << 58, 5 << 57, 7 << 56]
    scales = [1 << 30, 3 << 29, 5 << 28, 7 << 27, (1 << 30) + 1, (3 << 29) + 1]
    cols = [(g, 0, s) for g in gs for s in scales]
    members = len(cols)
    for g, s in itertools.product(gs, scales):
        for s_new, k in itertools.product(scales, (-2, 0, 3)):
            w = partner((g, 0), s, s_new, k)
            if w is not None and abs(w[1]) <= 2:
                cols.append((w[0], w[1] * (-1) ** (k % 2), s_new))
    x, y, s = as_arrays(cols)
    assert kernels._unit_bound((x, y), s) < 2**62
    assert members >= math.isqrt(len(cols) - 1) + 1
    a = [s // math.gcd(s, g) for g, _, s in cols[:members]]
    b = [g // math.gcd(s, g) for g, _, s in cols[:members]]
    assert max(a) * (max(b) + 1) >= 2**63
    want = brute_pairs(x, y, s)
    assert want > 50
    assert kernels.count_unit_pairs(x, y, s) == want


def line_dtypes(monkeypatch):
    """The dtypes that `_exact` hands to `_lattice_lines`, one set per
    call."""
    seen, real = [], kernels._exact

    def spy(bound, *arrays):
        out = real(bound, *arrays)
        if sys._getframe(1).f_code.co_name == "_lattice_lines":
            seen.append({a.dtype for a in out})
        return out

    monkeypatch.setattr(kernels, "_exact", spy)
    return seen


def test_lattice_lines_run_on_int64_for_st_config(monkeypatch):
    cfg = st_lower_bound_minor_config(2, 8)
    (x, y), s = cfg.numerators.T, cfg.denominators
    seen = line_dtypes(monkeypatch)
    assert kernels.count_unit_pairs(x, y, s) == row_sweep_count(x, y, s)
    assert seen and all(d == {np.dtype(np.int64)} for d in seen)


def test_lattice_lines_leave_int64_past_their_own_bound(monkeypatch):
    """(5, 7) and its partner (x, 1) at scales near 2^30 keep the pair
    guard (2 * 7 |x| < 2^62), but the lines' t = s s' near 2^60 times
    (5, 7)'s Bezout coefficients (3, -2) put the lines' own bound
    between 2^62 and 2^63, so they run on python ints."""
    s1, s2 = 1 << 30, (1 << 30) + 1
    # det((5, 7), (x2, 1)) = 5 - 7 x2 = -s1 s2
    x2 = (5 + s1 * s2) // 7
    x, y, s = as_arrays([(5, 7, s1), (x2, 1, s2)])
    assert 5 - 7 * x2 == -s1 * s2
    assert kernels._unit_bound((x, y), s) < 2**62
    seen = line_dtypes(monkeypatch)
    assert kernels.count_unit_pairs(x, y, s) == brute_pairs(x, y, s) == 1
    assert seen and all(d == {np.dtype(object)} for d in seen)


def test_unit_pair_count_in_small_line_blocks(monkeypatch):
    """Matching the light columns' lattice points a few at a time gives
    the same count."""
    cfg = st_lower_bound_minor_config(2, 6)
    (x, y), s = cfg.numerators.T, cfg.denominators
    want = kernels.count_unit_pairs(x, y, s)
    monkeypatch.setattr(kernels, "_CHUNK", 7)
    assert kernels.count_unit_pairs(x, y, s) == want == row_sweep_count(x, y, s)


# ---------------------------------------------------------------------------
# unit-minor hit sweeps against brute force


def brute_unit_hits(cols, scalars, d):
    """The increasing d-subsets whose rational determinant, by `Fraction`
    elimination, is +-1, and its sign."""
    hits, signs = [], []
    for combo in itertools.combinations(range(len(cols)), d):
        det = det_fraction_gauss([[Fraction(cols[i][r], scalars[i])
                                    for i in combo] for r in range(d)])
        if abs(det) == 1:
            hits.append(combo)
            signs.append(int(det))
    return hits, signs


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.lists(st.tuples(*[st.integers(-3, 3)] * 5,
                                             st.integers(1, 3)),
                                   max_size=10))
def test_unit_hits_match_fraction_determinants(d, raw):
    cols = [r[:d] for r in raw]
    scalars = [r[5] for r in raw]
    want_hits, want_signs = brute_unit_hits(cols, scalars, d)
    rows = [np.array([c[r] for c in cols], dtype=np.int64) for r in range(d)]
    s = np.array(scalars, dtype=np.int64)
    if d == 2:
        hits, signs = kernels.unit_pair_hits(*rows, s)
    else:
        hits, signs = kernels.unit_minor_hits(rows, s)
    assert hits.shape == (len(want_hits), d)
    assert [tuple(h) for h in hits.tolist()] == want_hits
    assert signs.tolist() == want_signs
    if d <= 3:
        count = kernels.count_unit_pairs if d == 2 else kernels.count_unit_triples
        assert count(*rows, s) == len(want_hits)


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


@pytest.mark.parametrize("step", [0, 1])
def test_area_int64_guard(step, monkeypatch):
    """The area band's bound is 6 c^2 max(lo_b, hi_b), c the largest
    |coordinate|: the largest c with that bound below 2^62 runs on int64,
    c + 1 on python ints, and both give the brute-force hits."""
    # |cross| in [4/5, 8/7]: the unit cross products, and max(5, 7) = 7
    lo_a, lo_b, hi_a, hi_b, s2 = 2, 5, 4, 7, 1
    c = math.isqrt((2**62 - 1) // (6 * 7)) + step
    assert (6 * c * c * 7 >= 2**62) == bool(step)
    pts = [(c, c), (c - 1, c), (c, c - 1), (c - 1, c - 1), (-c, c), (c, -c),
           (-c, -c), (c - 2, c - 1), (0, 0), (1, 0), (0, 1), (1 - c, -c)]
    x, y = (np.array(v, dtype=np.int64) for v in zip(*pts))
    want = brute_area_hits(x, y, lo_a, lo_b, hi_a, hi_b, s2)
    assert len(want) > 4
    seen, real = [], kernels._exact

    def spy(bound, *arrays):
        out = real(bound, *arrays)
        seen.extend(a.dtype for a in out)
        return out

    monkeypatch.setattr(kernels, "_exact", spy)
    got = kernels.area_triple_hits(x, y, lo_a, lo_b, hi_a, hi_b, s2)
    assert set(seen) == {np.dtype(object) if step else np.dtype(np.int64)}
    assert [tuple(h) for h in got.tolist()] == want


def brute_sphere_hits(c, r2):
    """Hits and degenerate flags from the rational predicates."""
    k = len(c[0])
    spheres = [(tuple(Fraction(v) for v in ci), Fraction(ri))
               for ci, ri in zip(c, r2)]
    hits, flags = [], []
    for combo in itertools.combinations(range(len(c)), k):
        meets, degen = spheres_meet([spheres[i] for i in combo])
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


@st.composite
def small_spheres(draw):
    """Up to 7 spheres with centres in [-2, 2]^3 and squared radii 1..9,
    some copies of an earlier sphere or concentric with one, so identical
    and concentric pairs come up, and triples that meet pairwise but
    share no point."""
    spheres = []
    for kind in draw(st.lists(st.sampled_from(["new", "new", "copy",
                                               "concentric"]), max_size=7)):
        if kind == "new" or not spheres:
            spheres.append((draw(st.tuples(*[st.integers(-2, 2)] * 3)),
                            draw(st.integers(1, 9))))
        else:
            centre, r2 = draw(st.sampled_from(spheres))
            spheres.append((centre, r2 if kind == "copy"
                            else draw(st.integers(1, 9))))
    return [c for c, _ in spheres], [r for _, r in spheres]


# (centres, squared radii, meeting pairs, meeting triples)
PAIR_GRAPHS = [
    ([], [], 0, 0),
    ([(0, 0, 0), (2, 2, 2), (-2, -2, -2)], [1, 1, 1], 0, 0),
    ([(0, 0, 0), (1, 0, 0), (-2, 2, 2)], [1, 1, 1], 1, 0),
    # sphere 0 has the single later neighbour 1, which meets 2 and 3
    ([(-2, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0)], [1, 1, 1, 1], 4, 1),
    # every pair meets, the triple does not: circumradius 5/2 > 2
    ([(-2, 0, 0), (2, 0, 0), (0, 1, 0)], [4, 4, 4], 3, 0),
    # 0 and 1 identical, 2 concentric with both, 3 meets all three
    ([(0, 0, 0), (0, 0, 0), (0, 0, 0), (1, 0, 0)], [2, 2, 5, 2], 4, 1),
]


@pytest.mark.parametrize("c, r2, pairs, triples", PAIR_GRAPHS)
def test_sphere_triangles_of_small_pair_graphs(c, r2, pairs, triples):
    """The sphere sweep tests the triangles of the pair graph; these pair
    graphs are empty, a single edge, a vertex with one later neighbour,
    a triangle with no common point and identical or concentric pairs."""
    data = np.array(c, dtype=np.int64).reshape(len(c), 3), np.array(r2)
    assert len(kernels.circle_pair_hits(*data)[0]) == pairs
    assert len(kernels.sphere_triple_hits(*data)[0]) == triples
    check_sphere_sweep(c, r2, kernels.sphere_triple_hits)


@settings(max_examples=60, deadline=None)
@given(small_spheres())
def test_sphere_triangles_match_rational_predicate(data):
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


def test_sphere_wedges_in_small_blocks(monkeypatch):
    """Spheres with centres in [0, 3]^3 and squared radii 30..39 nearly
    all meet pairwise (9,195 of the 9,880 triples share a point, 114 of
    them with an identical pair); walking the wedges a few at a time
    gives the same hits and flags as one block."""
    rng = np.random.default_rng(0)
    c = rng.integers(0, 4, size=(40, 3))
    r2 = rng.integers(30, 40, size=40)
    hits, flags = kernels.sphere_triple_hits(c, r2)
    assert len(hits) > 5000 and flags.any() and not flags.all()
    monkeypatch.setattr(kernels, "_CHUNK", 16 * 7)
    got, got_flags = kernels.sphere_triple_hits(c, r2)
    assert np.array_equal(got, hits) and np.array_equal(got_flags, flags)


def test_sphere_guards_split_by_degree(monkeypatch):
    """Small spheres scaled by 2^10 put g, `_sphere_scale`, between
    2^(58/3) and 2^29: the degree-2 pair stage stays on int64 and only
    the degree-3 triangle stage moves to python ints."""
    rng = random.Random(0)
    f = 2**10
    c = [[f * rng.randint(-3, 3) for _ in range(3)] for _ in range(12)]
    r2 = [f * f * rng.randint(1, 9) for _ in range(12)]
    g = kernels._sphere_scale(np.array(c), np.array(r2))
    assert 16 * g**2 < 2**62 <= 16 * g**3
    want, want_flags = brute_sphere_hits(c, r2)
    assert len(want) > 10
    seen, real = [], kernels._exact

    def spy(bound, *arrays):
        out = real(bound, *arrays)
        seen.append({a.dtype for a in out})
        return out

    monkeypatch.setattr(kernels, "_exact", spy)
    hits, flags = kernels.sphere_triple_hits(np.array(c, dtype=np.int64),
                                             np.array(r2, dtype=np.int64))
    assert seen == [{np.dtype(np.int64)}, {np.dtype(object)}]
    assert [tuple(h) for h in hits.tolist()] == want
    assert flags.tolist() == want_flags


def test_bench_kernels_smoke(capsys):
    # the script asserts that both pair counts (and the area rows) agree
    script = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    runpy.run_path(str(script))["main"](["--scale", "4", "--points", "30",
                                         "--columns", "20", "--spheres", "60"])
    out = capsys.readouterr().out
    assert "direction classes" in out and "row sweep" in out
    assert "block" not in out
    assert "area-band hit sweep over 30 points" in out
    assert "d=3 unit-minor hit sweep over 20 columns" in out
    assert "sphere triple hit sweep over 60 spheres" in out


# ---------------------------------------------------------------------------
# hits of seeded sweep configurations, pinned


def sweep_hits(kind, variant, n):
    """The hit arrays (hits, and signs or flags) of the seed-0
    configuration of size n that a sweep of this kind builds."""
    d = 2 if kind == "triangles" else 3
    cfg, _ = _config(ExperimentSpec(kind, d, (8, 16, 32), variant=variant), n)
    if kind == "spheres":
        return geometry._sphere_hits(cfg)
    if kind == "minors":
        return geometry._unit_hits(cfg)
    band = geometry._area_band_args(cfg, Fraction(9, 10), Fraction(11, 10))
    return (kernels.area_triple_hits(*band),)


@pytest.mark.parametrize("kind, variant, n, count, digest", [
    ("spheres", "random", 80, 59,
     "f394a54853ad70cd64ebce54fb4e303f8acbe542e0e5053017eb4a27db689273"),
    ("spheres", "random", 320, 472,
     "2020013ec2e61c63d45409df6e7cc011e86673676cc7237d076240ca8e3c0508"),
    ("triangles", "random", 160, 2285,
     "90d646c9baaa51c151ead535b8df2874e2c9b16576102fbd9c6ddfb98e796c39"),
    ("triangles", "clusters", 160, 151686,
     "baac325463048343a01bf0c3a5d216c37eab7dad9dc121b57827b8d6783e73bb"),
    ("minors", "random", 40, 78,
     "ffe0033f0851c4e8d6974fb8f99ea2498b2d91feda47d9fb47f1864f4da8b3a9"),
])
def test_sweep_hits_match_pinned_digests(kind, variant, n, count, digest):
    """sha256 of the JSON of the hit arrays' `tolist()`: the same hits,
    in the same order, with the same signs and degenerate flags as the
    per-anchor cubic sweeps that recorded them."""
    arrays = sweep_hits(kind, variant, n)
    assert len(arrays[0]) == count
    text = json.dumps([a.tolist() for a in arrays])
    assert hashlib.sha256(text.encode()).hexdigest() == digest
