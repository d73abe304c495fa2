"""Hot kernels: exact integer sweeps over column tuples.

Every kernel is numpy.  The unit-minor kernels take denominator-cleared
int64 columns: column i is (x_i, y_i[, z_i]) / s_i.  Callers are
responsible for checking that the cleared integers cannot overflow
int64 (see geometry.fits_int64) and for taking the big-integer Bareiss
path when they might.

`count_unit_pairs` counts the unit 2x2 minors by direction classes: a
sorted join per heavy class and lattice-line enumeration for the light
columns, sub-quadratic on incidence-like data such as the
Szemeredi-Trotter configuration; the quadratic block sweep
`_unit_pairs_numpy` takes only the light columns whose partner lines
hold too many lattice points, and is the tests' oracle.

The hit sweeps return the hit index tuples, from which the caller takes
both the count (their number) and the hypergraph (their orderings):
`unit_pair_hits` and `unit_triple_hits` with the sign of each unit
determinant, on int64; the area-band and circle/sphere sweeps on int64
data when the caller's overflow guard holds and otherwise on object
arrays of python ints, with the same code.

All kernels are exact; dtype never changes results.
"""

from __future__ import annotations

import math

import numpy as np

# Most candidate lattice points matched against the light columns at once.
_CHUNK = 1 << 20


def active_backend() -> str:
    """The backend the kernels run on, for run records: always numpy."""
    return "numpy"


def _unit_pairs_numpy(x, y, s, rows: int | None = None,
                      block: int = 2048) -> int:
    """Pairs i<j with i < rows (every pair by default) and
    |x_i y_j - y_i x_j| == s_i s_j: the quadratic block sweep."""
    n = x.shape[0]
    rows = n if rows is None else rows
    total = 0
    for i0 in range(0, rows, block):
        i1 = min(i0 + block, rows)
        xi = x[i0:i1, None]
        yi = y[i0:i1, None]
        si = s[i0:i1, None]
        for j0 in range(i0, n, block):
            j1 = min(j0 + block, n)
            d = np.abs(xi * y[None, j0:j1] - yi * x[None, j0:j1])
            hit = d == si * s[None, j0:j1]
            if j0 == i0:
                ii, jj = np.nonzero(hit)
                total += int(np.count_nonzero(jj > ii))
            else:
                total += int(np.count_nonzero(hit))
    return total


def _labels(cols: list[np.ndarray]) -> np.ndarray:
    """A label per tuple, equal for equal tuples; cols holds one int64
    array per component, and tuples are sorted and compared component by
    component."""
    order = np.lexsort(cols[::-1])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for c in cols:
        c = c[order]
        new[1:] |= c[1:] != c[:-1]
    label = np.empty(order.size, dtype=np.int64)
    label[order] = np.cumsum(new) - 1
    return label


def _match_counts(keys: tuple, queries: tuple) -> np.ndarray:
    """For each query tuple, the number of key tuples equal to it."""
    label = _labels([np.concatenate((k, q)) for k, q in zip(keys, queries)])
    nk = keys[0].size
    return np.bincount(label[:nk], minlength=label.size)[label[nk:]]


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
    Products with t are taken on python ints, since t*v can pass 2^63
    when the line misses the box."""
    xlo, xhi, ylo, yhi = (int(b) for b in box)
    px, py, t = (a.astype(object) for a in (px, py, t))
    bx, by = -t * v.astype(object), t * u.astype(object)
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
    is halved.  The other columns come first in the quadratic sweep, run
    over their pairs with every light column."""
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
        ends = np.cumsum(m)
        starts = ends - m
        lo = 0
        while lo < src.size:
            hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + _CHUNK,
                                                 side="right")))
            rep = np.repeat(np.arange(lo, hi), m[lo:hi])
            step = np.arange(rep.size) - (starts[rep] - starts[lo])
            qx = fx[rep] + step * px[src[rep]]
            qy = fy[rep] + step * py[src[rep]]
            total += int(_match_counts(keys, (qx, qy, sig[rep])).sum())
            lo = hi
    rest = ~enum
    order = np.concatenate((np.nonzero(rest)[0], np.nonzero(enum)[0]))
    return total // 2 + _unit_pairs_numpy(x[order], y[order], s[order],
                                          rows=int(rest.sum()))


def count_unit_pairs(x: np.ndarray, y: np.ndarray, s: np.ndarray) -> int:
    """Pairs i<j with |x_i y_j - y_i x_j| == s_i s_j, exact in int64.

    With g_i = gcd(x_i, y_i) and p_i = (x_i, y_i) / g_i sign-normalised,
    |det(w_i, w_j)| = g_i |det(p_i, w_j)|, so zero columns and pairs in
    one direction class never hit.  A class with at least ceil(sqrt(n))
    members is heavy; there are at most sqrt(n) of them.  Each heavy
    class takes one int64 pass over every column j, joining
    |det(p, w_j)| / s_j against its members' s_i / g_i as reduced
    fractions: this finds every pair with a heavy end, those with two
    heavy ends twice, so that part is halved.  Pairs of light columns go
    to `_light_pairs`.
    """
    x = np.ascontiguousarray(x, dtype=np.int64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    s = np.ascontiguousarray(s, dtype=np.int64)
    n = x.size
    nz = np.nonzero((x != 0) | (y != 0))[0]
    x, y, s = x[nz], y[nz], s[nz]
    g = np.gcd(x, y)
    flip = (x < 0) | ((x == 0) & (y < 0))
    px = np.where(flip, -x, x) // g
    py = np.where(flip, -y, y) // g
    cls = _labels([px, py])
    size = np.bincount(cls)
    heavy = size[cls] >= math.isqrt(max(n - 1, 0)) + 1
    one_heavy = two_heavy = 0
    for c in np.unique(cls[heavy]):
        mem = np.nonzero(cls == c)[0]
        e = np.gcd(s[mem], g[mem])
        a, b = s[mem] // e, g[mem] // e
        d = np.abs(px[mem[0]] * y - py[mem[0]] * x)
        h = np.gcd(d, s)
        got = _match_counts((a, b), (d // h, s // h))
        two_heavy += int(got[heavy].sum())
        one_heavy += int(got[~heavy].sum())
    light = ~heavy
    return one_heavy + two_heavy // 2 + _light_pairs(
        x[light], y[light], s[light], g[light], px[light], py[light], n)


def count_unit_triples(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                       s: np.ndarray) -> int:
    """Number of triples that `unit_triple_hits` returns."""
    return len(unit_triple_hits(x, y, z, s)[0])


# ---------------------------------------------------------------------------
# hit sweeps: the index tuples themselves, for the count and the hypergraph


def _exact(a) -> np.ndarray:
    """int64 data as int64; object arrays of python ints stay as they are."""
    a = np.asarray(a)
    return a if a.dtype == object else a.astype(np.int64)


def _stack(blocks: list[np.ndarray], k: int) -> np.ndarray:
    if not blocks:
        return np.zeros((0, k), dtype=np.int64)
    return np.concatenate(blocks)


def _flags(flags: list[np.ndarray], dtype=bool) -> np.ndarray:
    return np.concatenate(flags) if flags else np.zeros(0, dtype=dtype)


def _row_hits(i: int, *cols: np.ndarray) -> np.ndarray:
    """Hit tuples (i, i+1+c_1, i+1+c_2, ...) from tail-relative indices."""
    return np.column_stack((np.full(cols[0].size, i, dtype=np.int64),)
                           + tuple(c + (i + 1) for c in cols))


def unit_pair_hits(x: np.ndarray, y: np.ndarray,
                   s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs i<j with |x_i y_j - y_i x_j| == s_i s_j as an (m, 2) index
    array in lexicographic order, and the sign of each determinant
    x_i y_j - y_i x_j.  int64 data under the caller's overflow guard."""
    x, y, s = (np.asarray(a, dtype=np.int64) for a in (x, y, s))
    blocks, signs = [], []
    for i in range(x.shape[0] - 1):
        d = x[i] * y[i + 1:] - y[i] * x[i + 1:]
        jj = np.nonzero(np.abs(d) == s[i] * s[i + 1:])[0]
        if jj.size:
            blocks.append(_row_hits(i, jj))
            signs.append(np.sign(d[jj]))
    return _stack(blocks, 2), _flags(signs, np.int64)


def unit_triple_hits(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                     s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triples i<j<l whose determinant det(col_i, col_j, col_l) is
    +-s_i s_j s_l, as an (m, 3) index array in lexicographic order, and
    the sign of each.  One step per i decides its tail's (j, l) block
    from the 2x2 minors of columns i and j.  int64 data under the
    caller's overflow guard."""
    x, y, z, s = (np.asarray(a, dtype=np.int64) for a in (x, y, z, s))
    blocks, signs = [], []
    for i in range(x.shape[0] - 2):
        xt, yt, zt, st = x[i + 1:], y[i + 1:], z[i + 1:], s[i + 1:]
        cxy = x[i] * yt - y[i] * xt
        cxz = x[i] * zt - z[i] * xt
        cyz = y[i] * zt - z[i] * yt
        det = (np.multiply.outer(cxy, zt) - np.multiply.outer(cxz, yt)
               + np.multiply.outer(cyz, xt))
        ok = np.abs(det) == s[i] * np.multiply.outer(st, st)
        jj, ll = np.nonzero(np.triu(ok, 1))
        if jj.size:
            blocks.append(_row_hits(i, jj, ll))
            signs.append(np.sign(det[jj, ll]))
    return _stack(blocks, 3), _flags(signs, np.int64)


def area_triple_hits(x: np.ndarray, y: np.ndarray, lo_a: int, lo_b: int,
                     hi_a: int, hi_b: int, scale2: int) -> np.ndarray:
    """Triples i<j<l whose cross product |(p_j - p_i) x (p_l - p_i)| lies
    in the band [2*scale2*lo, 2*scale2*hi] with lo = lo_a/lo_b and
    hi = hi_a/hi_b, as an (m, 3) index array in lexicographic order.

    One step per i decides the whole (j, l) block of its tail.  x and y
    are int64 when the caller has checked that the band products stay
    below 2^62, and otherwise object arrays of python ints, on which the
    same code runs exactly.
    """
    x, y = _exact(x), _exact(y)
    lo_t = 2 * scale2 * lo_a
    hi_t = 2 * scale2 * hi_a
    blocks = []
    for i in range(x.shape[0] - 2):
        ax = x[i + 1:] - x[i]
        ay = y[i + 1:] - y[i]
        cross = np.abs(np.multiply.outer(ax, ay) - np.multiply.outer(ay, ax))
        ok = (cross * lo_b >= lo_t) & (cross * hi_b <= hi_t)
        jj, ll = np.nonzero(np.triu(ok, 1))
        if jj.size:
            blocks.append(_row_hits(i, jj, ll))
    return _stack(blocks, 3)


def count_area_triples(x: np.ndarray, y: np.ndarray, lo_a: int, lo_b: int,
                       hi_a: int, hi_b: int, scale2: int) -> int:
    """Number of triples that `area_triple_hits` returns."""
    return len(area_triple_hits(x, y, lo_a, lo_b, hi_a, hi_b, scale2))


def circle_pair_hits(c: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs i<j of circles (integer centres c, shape (n, 2), integer
    squared radii r2) that meet, with a flag per pair for identical
    circles.  With D the squared centre distance, the circles meet iff
    (D - a - b)^2 <= 4ab, which is |r_i - r_j| <= dist <= r_i + r_j in
    squared quantities only.  Data as for `sphere_triple_hits`."""
    c, r2 = _exact(c), _exact(r2)
    blocks, flags = [], []
    for i in range(c.shape[0] - 1):
        u = c[i + 1:] - c[i]
        D = (u * u).sum(axis=1)
        a, b = r2[i], r2[i + 1:]
        t = D - a - b
        jj = np.nonzero(t * t <= 4 * a * b)[0]
        if jj.size:
            blocks.append(_row_hits(i, jj))
            flags.append((D[jj] == 0) & (b[jj] == a))
    return _stack(blocks, 2), _flags(flags)


def sphere_triple_hits(c: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triples i<j<l of spheres in R^3 (integer centres c, shape (n, 3),
    integer squared radii r2) that share a point, with a flag per triple
    that contains an identical pair.

    In coordinates centred at c_i and doubled, sphere i is |y|^2 = 4 r2_i
    and sphere j cuts it along the radical plane u.y = rho_u, where
    u = c_j - c_i and rho_u = |u|^2 + r2_i - r2_j.  u = 0 means sphere j
    is concentric with sphere i: identical if rho_u = 0, which leaves no
    constraint, and disjoint otherwise.  One plane meets the sphere iff
    rho_u^2 <= 4 r2_i |u|^2.  Two planes u, w with A = |u x w|^2 > 0 meet
    in a line whose squared distance from the centre is Q / A, with
    Q = |w|^2 rho_u^2 - 2 (u.w) rho_u rho_w + |u|^2 rho_w^2 (the Gram
    form), so the triple meets iff Q <= 4 r2_i A.  Parallel planes
    (A = 0) coincide iff rho_w |u|^2 = (u.w) rho_u, and then one plane
    decides.  All of these are polynomial sign tests in the data.

    c and r2 are int64 when the caller has checked that every product
    here stays below 2^62, and otherwise object arrays of python ints.
    """
    c, r2 = _exact(c), _exact(r2)
    blocks, flags = [], []
    for i in range(c.shape[0] - 2):
        U = c[i + 1:] - c[i]
        R = r2[i]
        uu = (U * U).sum(axis=1)
        rho = uu + R - r2[i + 1:]
        G = U @ U.T
        concentric = uu == 0
        ident = concentric & (rho == 0)
        one_plane = rho * rho <= 4 * R * uu
        # row j gives the plane u, column l the plane w
        uu_r, uu_c = uu[:, None], uu[None, :]
        rho_r, rho_c = rho[:, None], rho[None, :]
        A = uu_r * uu_c - G * G
        Q = uu_c * rho_r * rho_r - 2 * G * rho_r * rho_c + uu_r * rho_c * rho_c
        two = ~concentric[:, None] & ~concentric[None, :]
        meets = two & np.where(A > 0, Q <= 4 * R * A,
                               (rho_c * uu_r == G * rho_r) & one_plane[:, None])
        meets |= ident[:, None] & (ident[None, :]
                                   | (~concentric & one_plane)[None, :])
        meets |= ident[None, :] & (~concentric & one_plane)[:, None]
        jj, ll = np.nonzero(np.triu(meets, 1))
        if jj.size:
            blocks.append(_row_hits(i, jj, ll))
            same_jl = (uu[jj] + uu[ll] - 2 * G[jj, ll] == 0) & (rho[jj] == rho[ll])
            flags.append(ident[jj] | ident[ll] | same_jl)
    return _stack(blocks, 3), _flags(flags)

