"""Hot kernels: exact integer sweeps over column tuples.

Every kernel is numpy.  The unit-minor kernels take a configuration's
stored columns: column i is (x_i, y_i, ...) / s_i, the numerators over
the column's denominator.  Each sweep bounds its largest product from
its own inputs and runs on int64 when that bound is below 2^62, and
otherwise on object arrays of python ints, with the same code (see
`_exact`); callers hand over exact integers of either dtype, and dtype
never changes results.

`count_unit_pairs` counts the unit 2x2 minors by direction classes,
sub-quadratic on incidence-like data such as the Szemeredi-Trotter
configuration: each heavy class is joined against every column on one
int64 key, and the light columns enumerate their partner lattice lines,
which `_lattice_lines` guards by their own product bound; the quadratic
row sweep `unit_pair_hits` takes only the light columns with too many
lattice points on those lines, the whole count past the int64 guard,
and is the tests' oracle.

The hit sweeps return index tuples, all built by `_rows`, from which the
caller takes the count and the hypergraph: `unit_pair_hits` and
`circle_pair_hits` sweep pairs.  One Laplace walk, `_minor_blocks`,
gives the determinant blocks in which `unit_minor_hits` finds the unit
minors of every d >= 3 and `area_triple_hits` the area band: a doubled
area is the determinant of the lifted columns (1, x, y).
`sphere_triple_hits` tests only the triangles of the circle pair graph,
as spheres that share a point meet pairwise.  The two sphere stages are
guarded apart: the quadratic pair sweep by its degree-2 products and
only the triangle test by its degree-3 ones, so that large inputs leave
int64 for the triangles alone.  Signs and degenerate flags come one per
tuple.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Most candidate lattice points matched against the light columns at once;
# a sphere wedge forms some 30 int64 temporaries, so wedges go by _CHUNK // 16.
_CHUNK = 1 << 20


def active_backend() -> str:
    """The backend the kernels run on, for run records: always numpy."""
    return "numpy"


def _maxabs(a) -> int:
    """The largest |entry| of an integer array, as a python int."""
    a = np.asarray(a)
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _exact(bound: int, *arrays) -> list[np.ndarray]:
    """The arrays as int64 when `bound`, a bound on every product a sweep
    forms from them, is below 2^62, and otherwise as object arrays of
    python ints; object input stays object.  int64 copies are contiguous,
    which the row loops read faster than column views."""
    dtype = np.int64 if bound < 2**62 else object
    out = []
    for a in arrays:
        a = np.asarray(a)
        out.append(a if a.dtype == object else a.astype(dtype))
    return out


def _unit_bound(cols, s) -> int:
    """Bound on the products of the unit-minor sweeps over k = len(cols)
    coordinate rows: a determinant's k! terms of k entries each (bounded
    by the row maxima at k = 2 and by the largest entry for k >= 3), and
    the product of k scales."""
    k = len(cols)
    if k == 2:
        det = 2 * _maxabs(cols[0]) * _maxabs(cols[1])
    else:
        det = math.factorial(k) * max(map(_maxabs, cols)) ** k
    return max(det, _maxabs(s) ** k)


def _match_counts(keys: tuple, queries: tuple) -> np.ndarray:
    """For each query tuple, the number of key tuples equal to it; keys and
    queries hold one int64 array per component, and tuples are sorted and
    compared component by component."""
    cols = [np.concatenate((k, q)) for k, q in zip(keys, queries)]
    order = np.lexsort(cols[::-1])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for c in cols:
        c = c[order]
        new[1:] |= c[1:] != c[:-1]
    label = np.empty(order.size, dtype=np.int64)
    label[order] = np.cumsum(new) - 1
    nk = keys[0].size
    return np.bincount(label[:nk], minlength=label.size)[label[nk:]]


def _runs(m: np.ndarray, size: int):
    """The items of runs of m[r] items, r = 0, 1, ..., walked in blocks of
    at most `size` items (a longer run makes a block of its own): per
    block, each item's run r and its place 0 .. m[r]-1 in that run."""
    ends = np.cumsum(m)
    starts = ends - m
    lo = 0
    while lo < m.size:
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + size,
                                             side="right")))
        rep = np.repeat(np.arange(lo, hi), m[lo:hi])
        yield rep, np.arange(rep.size) - (starts[rep] - starts[lo])
        lo = hi


def _bezout(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) with a*u + b*v = gcd(a, b), elementwise, for int64 a, b >= 0.
    Euclid's coefficients stay below max(a, b) in absolute value."""
    r0, r1 = a.copy(), b.copy()
    u0, u1 = np.ones_like(a), np.zeros_like(a)
    v0, v1 = np.zeros_like(a), np.ones_like(a)
    while True:
        act = np.nonzero(r1)[0]
        if not act.size:
            return u0, v0
        q = r0[act] // r1[act]
        for p0, p1 in ((r0, r1), (u0, u1), (v0, v1)):
            p0[act], p1[act] = p1[act], p0[act] - q * p1[act]


def _k_range(base, step, lo, hi):
    """Bounds of the integers k with lo <= base + k*step <= hi, on python
    ints; meaningless where step is 0."""
    safe = np.where(step == 0, 1, step)
    a, b = lo - base, hi - base
    neg = step < 0
    a, b = np.where(neg, b, a), np.where(neg, a, b)
    return -((-a) // safe), b // safe


def _lattice_lines(px, py, u, v, t, box):
    """The lattice points w of the lines det(p, w) = px*w_y - py*w_x = t
    inside box = (xlo, xhi, ylo, yhi), one line per entry: the first point
    (int64 x, y) and the number of points m.

    p is primitive and sign-normalised, so px >= 0 and p = (0, 1) when
    px = 0; u, v are its Bezout coefficients (px*u + py*v = 1), so
    (-t*v, t*u) is on the line and the points are (-t*v, t*u) + k*p.
    With T = max|t|, V = max(|u|, |v|) and R the box's reach, every
    intermediate stays below 2 T V + 2 R + 2 max(|px|, |py|): each k is at
    most T V + R in absolute value, and on a line that meets the box the
    first point lies in it.  t*v can pass 2^63 on lines that miss the box,
    so the lines run on python ints past that `_exact` guard."""
    xlo, xhi, ylo, yhi = (int(b) for b in box)
    reach = max(-xlo, xhi, -ylo, yhi)
    bound = (2 * _maxabs(t) * max(_maxabs(u), _maxabs(v)) + 2 * reach
             + 2 * max(_maxabs(px), _maxabs(py)))
    px, py, t, u, v = _exact(bound, px, py, t, u, v)
    bx, by = -t * v, t * u
    kx_lo, kx_hi = _k_range(bx, px, xlo, xhi)
    ky_lo, ky_hi = _k_range(by, py, ylo, yhi)
    k_lo = np.where(px == 0, ky_lo, np.where(py == 0, kx_lo, np.maximum(kx_lo, ky_lo)))
    k_hi = np.where(px == 0, ky_hi, np.where(py == 0, kx_hi, np.minimum(kx_hi, ky_hi)))
    ok = (((px != 0) | ((xlo <= bx) & (bx <= xhi)))
          & ((py != 0) | ((ylo <= by) & (by <= yhi))) & (k_lo <= k_hi))
    k_lo = np.where(ok, k_lo, 0)
    m = np.where(ok, k_hi - k_lo + 1, 0)
    fx = np.where(ok, bx + k_lo * px, 0).astype(np.int64)
    fy = np.where(ok, by + k_lo * py, 0).astype(np.int64)
    return fx, fy, m


def _light_pairs(x, y, s, g, px, py, n: int) -> int:
    """Unit pairs among light columns (nonzero, in classes below the heavy
    size), each counted once.

    Column i's partners of scale sigma lie on the two lattice lines
    det(p_i, w) = +-s_i*sigma/g_i (none unless g_i divides s_i*sigma),
    stepped by p_i inside the bounding box of the light columns of scale
    sigma.  A column with at most n such lattice points in all enumerates
    them and looks each up among the other enumerated columns; every
    pair of two enumerated columns is found from both ends, so their sum
    is halved.  The other columns come first in the rows of the quadratic
    sweep `unit_pair_hits`, run over their pairs with every light column."""
    u, v = _bezout(px, np.abs(py))
    v = np.where(py < 0, -v, v)
    cand = np.zeros(x.size, dtype=np.int64)
    lines = []
    for sigma in np.unique(s):
        of_scale = s == sigma
        box = (x[of_scale].min(), x[of_scale].max(),
               y[of_scale].min(), y[of_scale].max())
        prod = s * sigma
        src = np.nonzero(prod % g == 0)[0]
        c = prod[src] // g[src]
        for t in (c, -c):
            fx, fy, m = _lattice_lines(px[src], py[src], u[src], v[src], t, box)
            hit = np.nonzero(m > 0)[0]
            m = np.minimum(m[hit], n + 1).astype(np.int64)
            cand[src[hit]] += m
            lines.append((src[hit], fx[hit], fy[hit], m,
                          np.full(hit.size, sigma, dtype=np.int64)))
    enum = cand <= n
    total = 0
    if lines:
        src, fx, fy, m, sig = (np.concatenate(a) for a in zip(*lines))
        keep = enum[src]
        src, fx, fy, m, sig = src[keep], fx[keep], fy[keep], m[keep], sig[keep]
        keys = (x[enum], y[enum], s[enum])
        for rep, step in _runs(m, _CHUNK):
            qx = fx[rep] + step * px[src[rep]]
            qy = fy[rep] + step * py[src[rep]]
            total += int(_match_counts(keys, (qx, qy, sig[rep])).sum())
    rest = ~enum
    order = np.concatenate((np.nonzero(rest)[0], np.nonzero(enum)[0]))
    return total // 2 + len(unit_pair_hits(x[order], y[order], s[order],
                                           rows=int(rest.sum()))[0])


def count_unit_pairs(x: np.ndarray, y: np.ndarray, s: np.ndarray) -> int:
    """Pairs i<j with |x_i y_j - y_i x_j| == s_i s_j, exact in int64.

    With g_i = gcd(x_i, y_i) and p_i = (x_i, y_i) / g_i sign-normalised,
    |det(w_i, w_j)| = g_i |det(p_i, w_j)|, so zero columns and pairs in
    one direction class never hit.  A class with at least ceil(sqrt(n))
    members is heavy; there are at most sqrt(n) of them.  Each heavy
    class takes one int64 pass over every column j, joining
    |det(p, w_j)| / s_j = qa / qb against its members' s_i / g_i = a / b
    as reduced fractions: this finds every pair with a heavy end, those
    with two heavy ends twice, so that part is halved.  The join runs on
    one int64 key: only queries with qa <= max(a) and qb <= max(b) can
    match, qb is replaced by its rank among the members' distinct b, and
    qa * |distinct b| + rank stays below 2^31 (n + 1), as the guard keeps
    every scale, hence every a, below 2^31.  Pairs of light columns go
    to `_light_pairs`.  Past the int64 guard the row sweep
    `unit_pair_hits` counts them all, on python ints.
    """
    x, y, s = _exact(_unit_bound((x, y), s), x, y, s)
    if object in (x.dtype, y.dtype, s.dtype):
        return len(unit_pair_hits(x, y, s)[0])
    n = x.size
    nz = np.nonzero((x != 0) | (y != 0))[0]
    x, y, s = x[nz], y[nz], s[nz]
    g = np.gcd(x, y)
    flip = (x < 0) | ((x == 0) & (y < 0))
    px = np.where(flip, -x, x) // g
    py = np.where(flip, -y, y) // g
    # one key per direction; with X, Y the largest |px|, |py|, the guard
    # keeps 2XY < 2^62, so |key| <= 2XY + X + Y < 2^63
    key = px * (2 * _maxabs(py) + 1) + py
    _, cls, size = np.unique(key, return_inverse=True, return_counts=True)
    heavy = size[cls] >= math.isqrt(max(n - 1, 0)) + 1
    # a pair with two heavy ends is found from both of its classes
    weight = np.where(heavy, 1, 2)
    twice = 0
    for c in np.unique(cls[heavy]):
        mem = np.nonzero(cls == c)[0]
        e = np.gcd(s[mem], g[mem])
        a, b = s[mem] // e, g[mem] // e
        d = np.abs(px[mem[0]] * y - py[mem[0]] * x)
        h = np.gcd(d, s)
        qa, qb = d // h, s // h
        j = np.nonzero((qa <= a.max()) & (qb <= b.max()))[0]
        ub = np.unique(b)
        rank = np.searchsorted(ub, qb[j])
        hit = ub[rank] == qb[j]
        j, rank = j[hit], rank[hit]
        keys, cnt = np.unique(a * ub.size + np.searchsorted(ub, b), return_counts=True)
        q = qa[j] * ub.size + rank
        at = np.minimum(np.searchsorted(keys, q), keys.size - 1)
        twice += int(np.where(keys[at] == q, cnt[at], 0) @ weight[j])
    light = ~heavy
    return twice // 2 + _light_pairs(
        x[light], y[light], s[light], g[light], px[light], py[light], n)


def count_unit_triples(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                       s: np.ndarray) -> int:
    """Number of triples that `unit_minor_hits` returns at d = 3."""
    return len(unit_minor_hits((x, y, z), s)[0])


# ---------------------------------------------------------------------------
# hit sweeps: the index tuples themselves, for the count and the hypergraph


def _stack(blocks: list[np.ndarray], k: int) -> np.ndarray:
    return np.concatenate(blocks) if blocks else np.zeros((0, k), dtype=np.int64)


def _flags(flags: list[np.ndarray], dtype=bool) -> np.ndarray:
    return np.concatenate(flags) if flags else np.zeros(0, dtype=dtype)


def _rows(prefix: tuple, start: int, *tails: np.ndarray) -> np.ndarray:
    """Hit tuples (prefix..., start + t_1, ...) from tail index arrays t."""
    out = np.empty((tails[0].size, len(prefix) + len(tails)), dtype=np.int64)
    out[:, :len(prefix)] = prefix
    for col, tail in enumerate(tails, len(prefix)):
        out[:, col] = tail + start
    return out


def _upper(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries (j, l), j < l, where a square mask holds, row-major."""
    jj, ll = np.nonzero(mask)
    return jj[jj < ll], ll[jj < ll]


def unit_pair_hits(x: np.ndarray, y: np.ndarray, s: np.ndarray,
                   rows: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pairs i<j with i < rows (every pair by default) and
    |x_i y_j - y_i x_j| == s_i s_j as an (m, 2) index array in
    lexicographic order, and the sign of each of these determinants."""
    x, y, s = _exact(_unit_bound((x, y), s), x, y, s)
    last = x.shape[0] - 1
    blocks, signs = [], []
    for i in range(last if rows is None else min(rows, last)):
        d = x[i] * y[i + 1:] - y[i] * x[i + 1:]
        jj = np.nonzero(np.abs(d) == s[i] * s[i + 1:])[0]
        if jj.size:
            blocks.append(_rows((i,), i + 1, jj))
            signs.append(np.sign(d[jj]).astype(np.int64))
    return _stack(blocks, 2), _flags(signs, np.int64)


def _laplace_tables(d: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per level t = 1 .. d-1, (d, C(d, t)) arrays (idx, sgn): the t-minors
    of t-1 columns and a new last column c are c @ (minors[idx] * sgn),
    the Laplace expansion along c, with minors indexed by the row subsets
    in `itertools.combinations` order.  The last level's column r is the
    minor without row r, times (-1)^(r+d-1), so that
    det(columns, c, c') = sum_r (c @ W)_r c'_r."""
    tables = []
    for t in range(1, d):
        below = {sub: k for k, sub in
                 enumerate(itertools.combinations(range(d), t - 1))}
        subsets = list(itertools.combinations(range(d), t))
        idx = np.zeros((d, len(subsets)), dtype=np.intp)
        sgn = np.zeros((d, len(subsets)), dtype=np.int64)
        for col, sub in enumerate(subsets):
            for pos, r in enumerate(sub):
                idx[r, col] = below[sub[:pos] + sub[pos + 1:]]
                sgn[r, col] = (-1) ** (pos + t - 1)
        tables.append((idx, sgn))
    # the (d-1)-subsets come in the order without row d-1, ..., without 0
    idx, sgn = tables[-1]
    tables[-1] = idx[:, ::-1], sgn[:, ::-1] * (-1) ** (np.arange(d) + d - 1)
    return tables


def _minor_blocks(rows: list[np.ndarray]):
    """(prefix, start, det) per increasing (d-2)-prefix of the columns
    (rows[0][i], ..., rows[d-1][i]), d >= 3, in lexicographic order:
    det[j, l] is the determinant of the prefix and the columns start + j,
    start + l, start = prefix[-1] + 1.  Each prefix's minors come from its
    parent's in one product with every later column (`_laplace_tables`);
    its (d-1)-minors with each column j, contracted with the columns l,
    give the whole antisymmetric block.  Every minor and partial sum is a
    sub-sum of a determinant's d! terms, one entry from each row."""
    d = len(rows)
    C = np.column_stack(rows)
    CT = np.ascontiguousarray(C.T)
    tables = _laplace_tables(d)

    def walk(prefix, minors, start):
        idx, sgn = tables[len(prefix)]
        if len(prefix) < d - 2:
            stop = len(C) - d + len(prefix) + 1
            ext = C[start:stop] @ (minors[idx] * sgn)
            for c in range(start, stop):
                yield from walk(prefix + (c,), ext[c - start], c + 1)
            return
        E = C[start:] @ (minors[idx] * sgn)
        # d outer products: the integer matmul E @ CT has no BLAS path
        det = np.multiply.outer(E[:, 0], CT[0, start:])
        for r in range(1, d):
            det += np.multiply.outer(E[:, r], CT[r, start:])
        yield prefix, start, det

    return walk((), np.ones(1, dtype=C.dtype), 0)


def unit_minor_hits(cols, s) -> tuple[np.ndarray, np.ndarray]:
    """d-subsets i_1 < ... < i_d of the columns (d = len(cols) >= 3 rows)
    whose determinant is +-s_i_1 ... s_i_d, as an (m, d) index array in
    lexicographic order, and the sign of each, from the blocks of
    `_minor_blocks`, guarded by `_unit_bound`."""
    d = len(cols)
    if d < 3:
        raise ValueError("unit_minor_hits needs d >= 3")
    *rows, s = _exact(_unit_bound(cols, s), *cols, s)
    ss = np.multiply.outer(s, s)
    blocks, signs = [], []
    for prefix, start, det in _minor_blocks(rows):
        scale = math.prod(s[c] for c in prefix)
        jj, ll = _upper(np.abs(det) == scale * ss[start:, start:])
        if jj.size:
            blocks.append(_rows(prefix, start, jj, ll))
            signs.append(np.sign(det[jj, ll]).astype(np.int64))
    return _stack(blocks, d), _flags(signs, np.int64)


def area_triple_hits(x: np.ndarray, y: np.ndarray, lo_a: int, lo_b: int,
                     hi_a: int, hi_b: int, scale2: int) -> np.ndarray:
    """Triples i<j<l whose cross product |(p_j - p_i) x (p_l - p_i)| lies
    in the band [2*scale2*lo, 2*scale2*hi] with lo = lo_a/lo_b and
    hi = hi_a/hi_b, as an (m, 3) index array in lexicographic order.

    The cross product is the determinant of the lifted columns
    (1, x_i, y_i) from `_minor_blocks`.  Each of its six terms has one
    entry 1, so every minor and partial sum is at most 6 c^2, c the
    largest |coordinate|, before |det| meets a band denominator."""
    c = max(1, _maxabs(x), _maxabs(y))
    bound = max(6 * c * c * max(lo_b, hi_b),
                2 * scale2 * max(abs(lo_a), abs(hi_a)))
    x, y = _exact(bound, x, y)
    lo_t, hi_t = 2 * scale2 * lo_a, 2 * scale2 * hi_a
    blocks = []
    for prefix, start, det in _minor_blocks([np.ones_like(x), x, y]):
        cross = np.abs(det)
        jj, ll = _upper((cross * lo_b >= lo_t) & (cross * hi_b <= hi_t))
        if jj.size:
            blocks.append(_rows(prefix, start, jj, ll))
    return _stack(blocks, 3)


def count_area_triples(x: np.ndarray, y: np.ndarray, lo_a: int, lo_b: int,
                       hi_a: int, hi_b: int, scale2: int) -> int:
    """Number of triples that `area_triple_hits` returns."""
    return len(area_triple_hits(x, y, lo_a, lo_b, hi_a, hi_b, scale2))


def _sphere_scale(c, r2) -> int:
    """g, a bound on every |u|^2, |u.w|, |rho| and squared radius that the
    circle and sphere sweeps form.  The pair test's products stay below
    16 g^2 (t^2 <= 9 g^2, 4ab <= 4 g^2) and the triangle test's below
    16 g^3, so each stage is guarded by its own degree."""
    span = 2 * _maxabs(c)
    return np.shape(c)[1] * span * span + _maxabs(r2)


def circle_pair_hits(c: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs i<j of circles, or spheres in any dimension (integer centres
    c, shape (n, k), integer squared radii r2) that meet, with a flag per
    identical pair.  With D the squared centre distance, they meet iff
    (D - a - b)^2 <= 4ab, which is |r_i - r_j| <= dist <= r_i + r_j in
    squared quantities only.  Its products have degree 2, so it runs on
    int64 while 16 g^2 < 2^62 (`_sphere_scale`)."""
    c, r2 = _exact(16 * _sphere_scale(c, r2)**2, c, r2)
    # a row per coordinate: numpy sums a short last axis slowly
    cT = np.ascontiguousarray(c.T)
    blocks, flags = [], []
    for i in range(c.shape[0] - 1):
        u = cT[:, i + 1:] - cT[:, i, None]
        D = (u * u).sum(axis=0)
        a, b = r2[i], r2[i + 1:]
        t = D - a - b
        jj = np.nonzero(t * t <= 4 * a * b)[0]
        if jj.size:
            blocks.append(_rows((i,), i + 1, jj))
            flags.append((D[jj] == 0) & (b[jj] == a))
    return _stack(blocks, 2), _flags(flags)


def sphere_triple_hits(c: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triples i<j<l of spheres in R^3 (integer centres c, shape (n, 3),
    integer squared radii r2) that share a point, with a flag per triple
    that contains an identical pair.

    Spheres that share a point meet pairwise, so only the triangles of
    the `circle_pair_hits` graph are tested: pairs (i, j) and (i, l),
    j < l, whose (j, l) is a pair too (Chiba and Nishizeki 1985).  In
    coordinates centred at c_i and doubled, sphere i is |y|^2 = 4 r2_i
    and sphere j cuts it along the radical plane u.y = rho_u, where
    u = c_j - c_i and rho_u = |u|^2 + r2_i - r2_j.  The plane meets the
    sphere iff rho_u^2 <= 4 r2_i |u|^2, which expands to the pair test;
    so on a triangle every plane meets sphere i, and u = 0 only for an
    identical sphere (rho_u = 0), which leaves no constraint.  With
    A = |u x w|^2 and the Gram form
    Q = |w|^2 rho_u^2 - 2 (u.w) rho_u rho_w + |u|^2 rho_w^2, the triple
    meets iff Q <= 4 r2_i A.  For A > 0 the planes meet in a line at
    squared distance Q / A from the centre.  A = 0 when u = 0, where
    rho_u = 0 makes Q = 0, and when w = t u, where
    Q = |u|^2 (t rho_u - rho_w)^2 is 0 iff the planes coincide and one
    plane decides.  Two equal centres on a triangle make an identical
    pair.  The pair sweep picks its dtype from its own degree-2 bound;
    only the triangle stage, whose products have degree 3, is guarded by
    16 g^3 (`_sphere_scale`).  The wedges go in blocks (`_runs`), so
    dense inputs hold one block's Gram terms at a time."""
    first, second = circle_pair_hits(c, r2)[0].T
    c, r2 = _exact(16 * _sphere_scale(c, r2)**3, c, r2)
    pairs = first * len(c) + second
    # wedges: each pair p = (i, j) with each later pair q = (i, l)
    later = np.searchsorted(first, first, side="right") - np.arange(first.size) - 1
    blocks, flags = [], []
    for p, step in _runs(later, _CHUNK // 16):
        q = p + 1 + step
        tri = np.isin(second[p] * len(c) + second[q], pairs)
        i, j, l = first[p[tri]], second[p[tri]], second[q[tri]]
        U, W, R = c[j] - c[i], c[l] - c[i], r2[i]
        uu, ww, G = (U * U).sum(axis=1), (W * W).sum(axis=1), (U * W).sum(axis=1)
        rho_u, rho_w = uu + R - r2[j], ww + R - r2[l]
        Q = ww * rho_u * rho_u - 2 * G * rho_u * rho_w + uu * rho_w * rho_w
        meets = Q <= 4 * R * (uu * ww - G * G)
        blocks.append(_rows((), 0, i[meets], j[meets], l[meets]))
        flags.append(((uu == 0) | (ww == 0) | (uu + ww == 2 * G))[meets])
    return _stack(blocks, 3), _flags(flags)
