"""Hot kernels: exact integer sweeps over column tuples.

The unit-minor sweeps (pair and triple determinants) only count.  They
run on denominator-cleared int64 data, JIT-compiled with numba when
available.  Set ZARANK_BACKEND=numpy to force the pure-numpy blocked
fallback (ZARANK_BACKEND=numba insists on numba); ZARANK_THREADS caps
the numba thread pool.  Callers are responsible for checking that the
cleared integers cannot overflow int64 (see geometry.fits_int64) and for
taking the big-integer Bareiss path when they might.

The area-band and circle/sphere sweeps return the hit index tuples, from
which the caller takes both the count (their number) and the hypergraph
(their orderings).  They are numpy only, on int64 data when the caller's
overflow guard holds and otherwise on object arrays of python ints, with
the same code.

All kernels are exact; backend and dtype never change results.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

try:
    import numba
    from numba import njit, prange

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    _HAVE_NUMBA = False


def active_backend() -> str:
    """Resolve the backend from ZARANK_BACKEND: auto | numba | numpy."""
    choice = os.environ.get("ZARANK_BACKEND", "auto").lower()
    if choice == "numpy":
        return "numpy"
    if choice == "numba":
        if not _HAVE_NUMBA:
            warnings.warn("ZARANK_BACKEND=numba but numba is unavailable; "
                          "using numpy")
            return "numpy"
        return "numba"
    return "numba" if _HAVE_NUMBA else "numpy"


def _apply_thread_cap() -> None:
    cap = os.environ.get("ZARANK_THREADS")
    if cap and _HAVE_NUMBA:
        try:
            n = max(1, int(cap))
        except ValueError:
            return
        numba.set_num_threads(min(n, numba.config.NUMBA_NUM_THREADS))


if _HAVE_NUMBA:

    @njit(cache=True, parallel=True)
    def _unit_pairs_numba(x, y, s):
        n = x.shape[0]
        total = 0
        for i in prange(n):
            c = 0
            xi = x[i]
            yi = y[i]
            si = s[i]
            for j in range(i + 1, n):
                d = xi * y[j] - yi * x[j]
                if d < 0:
                    d = -d
                if d == si * s[j]:
                    c += 1
            total += c
        return total

    @njit(cache=True, parallel=True)
    def _unit_triples_numba(x, y, z, s):
        n = x.shape[0]
        total = 0
        for i in prange(n):
            c = 0
            for j in range(i + 1, n):
                cxy = x[i] * y[j] - y[i] * x[j]
                cxz = x[i] * z[j] - z[i] * x[j]
                cyz = y[i] * z[j] - z[i] * y[j]
                sij = s[i] * s[j]
                for l in range(j + 1, n):
                    d = cxy * z[l] - cxz * y[l] + cyz * x[l]
                    if d < 0:
                        d = -d
                    if d == sij * s[l]:
                        c += 1
            total += c
        return total


def _unit_pairs_numpy(x, y, s, block: int = 2048) -> int:
    n = x.shape[0]
    total = 0
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
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


def _unit_triples_numpy(x, y, z, s) -> int:
    n = x.shape[0]
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            cxy = x[i] * y[j] - y[i] * x[j]
            cxz = x[i] * z[j] - z[i] * x[j]
            cyz = y[i] * z[j] - z[i] * y[j]
            if j + 1 >= n:
                continue
            tail = slice(j + 1, n)
            d = np.abs(cxy * z[tail] - cxz * y[tail] + cyz * x[tail])
            total += int(np.count_nonzero(d == s[i] * s[j] * s[tail]))
    return total


def count_unit_pairs(x: np.ndarray, y: np.ndarray, s: np.ndarray) -> int:
    """Pairs i<j with |x_i y_j - y_i x_j| == s_i s_j, exact in int64."""
    x = np.ascontiguousarray(x, dtype=np.int64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    s = np.ascontiguousarray(s, dtype=np.int64)
    if active_backend() == "numba":
        _apply_thread_cap()
        return int(_unit_pairs_numba(x, y, s))
    return _unit_pairs_numpy(x, y, s)


def count_unit_triples(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                       s: np.ndarray) -> int:
    """Triples i<j<l with |det(cols)| == s_i s_j s_l, exact in int64."""
    x = np.ascontiguousarray(x, dtype=np.int64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    z = np.ascontiguousarray(z, dtype=np.int64)
    s = np.ascontiguousarray(s, dtype=np.int64)
    if active_backend() == "numba":
        _apply_thread_cap()
        return int(_unit_triples_numba(x, y, z, s))
    return _unit_triples_numpy(x, y, z, s)




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


def _flags(flags: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(flags) if flags else np.zeros(0, dtype=bool)


def _row_hits(i: int, *cols: np.ndarray) -> np.ndarray:
    """Hit tuples (i, i+1+c_1, i+1+c_2, ...) from tail-relative indices."""
    return np.column_stack((np.full(cols[0].size, i, dtype=np.int64),)
                           + tuple(c + (i + 1) for c in cols))


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

