"""Exact geometric constructions over the rationals.

Builders produce k-partite hypergraphs from point/sphere data using only
exact predicates: fraction-free integer determinants after clearing each
column's denominators, and polynomial sign tests in squared radii for
spheres.  No floating point is consulted for any edge decision.

Point (matrix-column) file format: first line `d n`, then n lines of d
rationals (`p/q` or integer).  Sphere file: `d n`, then `c1 .. cd r2`.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from . import kernels
from .hypergraph import KPartiteHypergraph


def parse_rational(tok: str) -> Fraction:
    if "/" in tok:
        num, den = tok.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(tok))


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class PointConfig:
    """Labeled points with exact rational coordinates; doubles as the
    column storage of a d x n matrix (points are the columns)."""

    dim: int
    points: tuple[tuple[Fraction, ...], ...]
    labels: Optional[tuple[str, ...]] = None
    distinct: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        pts = tuple(tuple(Fraction(c) for c in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        for p in pts:
            if len(p) != self.dim:
                raise ValueError(f"point {p} does not have {self.dim} coordinates")
        if self.labels is not None and len(self.labels) != len(pts):
            raise ValueError("one label per point")
        if self.distinct and len(set(pts)) != len(pts):
            raise ValueError("repeated columns are not allowed here")

    @property
    def n(self) -> int:
        return len(self.points)

    def to_text(self) -> str:
        lines = [f"{self.dim} {self.n}"]
        for p in self.points:
            lines.append(" ".join(format_rational(c) for c in p))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, distinct: bool = False) -> "PointConfig":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        d, n = (int(x) for x in lines[0].split())
        pts = [tuple(parse_rational(t) for t in ln.split()) for ln in lines[1:]]
        if len(pts) != n:
            raise ValueError(f"expected {n} points, found {len(pts)}")
        return cls(d, tuple(pts), distinct=distinct)


@dataclass(frozen=True)
class SphereConfig:
    """Spheres stored as (center, radius_squared); radii themselves may be
    irrational, so all predicates are polynomial in radius_squared."""

    dim: int
    spheres: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    distinct: bool = False

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("sphere predicates are implemented for d in {2,3}")
        clean = []
        for center, r2 in self.spheres:
            center = tuple(Fraction(c) for c in center)
            r2 = Fraction(r2)
            if len(center) != self.dim:
                raise ValueError("center dimension mismatch")
            if r2 <= 0:
                raise ValueError("radius_squared must be positive")
            clean.append((center, r2))
        object.__setattr__(self, "spheres", tuple(clean))
        if self.distinct and len(set(clean)) != len(clean):
            raise ValueError("coincident spheres are not allowed here")

    @property
    def n(self) -> int:
        return len(self.spheres)

    def to_text(self) -> str:
        lines = [f"{self.dim} {self.n}"]
        for center, r2 in self.spheres:
            lines.append(" ".join(format_rational(c) for c in center)
                         + " " + format_rational(r2))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, distinct: bool = False) -> "SphereConfig":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        d, n = (int(x) for x in lines[0].split())
        spheres = []
        for ln in lines[1:]:
            toks = [parse_rational(t) for t in ln.split()]
            spheres.append((tuple(toks[:-1]), toks[-1]))
        if len(spheres) != n:
            raise ValueError(f"expected {n} spheres, found {len(spheres)}")
        return cls(d, tuple(spheres), distinct=distinct)


class DetTarget(enum.Enum):
    """det = 1 exactly (the hypergraph predicate) or det = +-1 (the
    unit-volume simplex predicate)."""

    EXACTLY_ONE = "exactly-one"
    PLUS_MINUS_ONE = "plus-minus-one"


# ---------------------------------------------------------------------------
# exact determinants


def det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free Gaussian elimination (Bareiss) over the integers."""
    n = len(rows)
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _lcm_of_denominators(values: Iterable[Fraction]) -> int:
    lcm = 1
    for v in values:
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    return lcm


def _int_array(values: list[int], fits: bool) -> np.ndarray:
    return np.array(values, dtype=np.int64 if fits else object)


def _all_orders(hits: np.ndarray) -> list[tuple[int, ...]]:
    """Every ordering of every hit tuple, as tuples of python ints."""
    k = hits.shape[1]
    perms = list(itertools.permutations(range(k)))
    return list(map(tuple, hits[:, perms].reshape(-1, k).tolist()))


def clear_columns(points: Sequence[Sequence[Fraction]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Scale each column to integers; returns (columns, scalars) with
    original_col = int_col / scalar."""
    cols = []
    scalars = []
    for p in points:
        lcm = _lcm_of_denominators(p)
        cols.append(tuple(int(c * lcm) for c in p))
        scalars.append(lcm)
    return cols, scalars


def det_of_columns(config: PointConfig, idx: Sequence[int]) -> Fraction:
    """Exact determinant of the chosen columns, in the given order."""
    cols, scalars = clear_columns([config.points[i] for i in idx])
    rows = [[cols[c][r] for c in range(len(idx))] for r in range(config.dim)]
    scale = math.prod(scalars)
    return Fraction(det_bareiss(rows), scale)


def _int_matrix_stats(cols: list[tuple[int, ...]], scalars: list[int]):
    maxabs = [max((abs(c[r]) for c in cols), default=0)
              for r in range(len(cols[0]))] if cols else []
    return maxabs, max(scalars, default=1)


def fits_int64(config: PointConfig) -> bool:
    """Conservative check that the cleared-integer determinant sweep for
    d in {2,3} stays inside int64."""
    return _cleared_fit(*clear_columns(config.points), config.dim)


def _cleared_fit(cols: list[tuple[int, ...]], scalars: list[int], d: int) -> bool:
    """`fits_int64` on columns already cleared by `clear_columns`."""
    if not cols:
        return True
    maxabs, smax = _int_matrix_stats(cols, scalars)
    limit = 2**62
    if d == 2:
        return 2 * maxabs[0] * maxabs[1] < limit and smax * smax < limit
    if d == 3:
        m = max(maxabs)
        return 6 * m**3 < limit and smax**3 < limit
    return False


# ---------------------------------------------------------------------------
# unit minors


def unit_minor_hypergraph(M: PointConfig,
                          target: DetTarget = DetTarget.EXACTLY_ONE) -> KPartiteHypergraph:
    """d-partite hypergraph on d copies of the columns: the ordered tuple
    (i_1,...,i_d), indices pairwise distinct, is a hyperedge iff the
    determinant of those columns in tuple order lies in the target set.
    """
    d = M.dim
    if d < 2:
        raise ValueError("need ambient dimension >= 2")
    if len(set(M.points)) != M.n:
        raise ValueError("repeated columns are not allowed")
    hits, signs = _unit_hits(*clear_columns(M.points), d)
    perms = list(itertools.permutations(range(d)))
    orders = hits[:, perms]
    if target is DetTarget.EXACTLY_ONE:
        psign = np.array([_perm_sign(p) for p in perms])
        orders = orders[np.multiply.outer(signs, psign) == 1]
    return KPartiteHypergraph.build((M.n,) * d,
                                    list(map(tuple, orders.reshape(-1, d).tolist())))


def _unit_hits(cols, scalars, d) -> tuple[np.ndarray, np.ndarray]:
    """The increasing d-subsets of the cleared columns with rational
    determinant +-1, as an index array, and the sign of each: from the
    int64 hit sweep for d in {2, 3} under the overflow guard, else from
    the big-integer Bareiss loop."""
    if d in (2, 3) and _cleared_fit(cols, scalars, d):
        sweep = kernels.unit_pair_hits if d == 2 else kernels.unit_triple_hits
        return sweep(*_int64_rows(cols, scalars, d))
    found = list(_unit_minors(cols, scalars, d))
    hits = np.array([combo for combo, _ in found], dtype=np.int64).reshape(-1, d)
    return hits, np.array([sign for _, sign in found], dtype=np.int64)


def _int64_rows(cols, scalars, d) -> list[np.ndarray]:
    """The d coordinate rows and the scalars of cleared columns, as int64."""
    return ([np.array([c[r] for c in cols], dtype=np.int64) for r in range(d)]
            + [np.array(scalars, dtype=np.int64)])


def _unit_minors(cols, scalars, d):
    """Yield (combo, sign) for every increasing d-subset of the cleared
    columns whose Bareiss determinant is sign * (product of its scalars),
    i.e. whose rational determinant is sign = +-1."""
    for combo in itertools.combinations(range(len(cols)), d):
        rows = [[cols[i][r] for i in combo] for r in range(d)]
        det = det_bareiss(rows)
        scale = math.prod(scalars[i] for i in combo)
        if abs(det) == scale:
            yield combo, (1 if det == scale else -1)


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def count_unit_minors(M: PointConfig) -> int:
    """Number of unordered d-subsets of columns with |det| = 1.

    Both determinant targets count the same subsets for d >= 2: a single
    transposition flips the determinant's sign, so some ordering has
    det exactly 1 whenever |det| = 1.
    """
    d = M.dim
    if len(set(M.points)) != M.n:
        raise ValueError("repeated columns are not allowed")
    cols, scalars = clear_columns(M.points)
    if d in (2, 3) and _cleared_fit(cols, scalars, d):
        count = kernels.count_unit_pairs if d == 2 else kernels.count_unit_triples
        return count(*_int64_rows(cols, scalars, d))
    return sum(1 for _ in _unit_minors(cols, scalars, d))


def count_unit_minors_naive(M: PointConfig) -> int:
    """Independent oracle: plain rational Gaussian elimination per subset."""
    d = M.dim
    count = 0
    for combo in itertools.combinations(range(M.n), d):
        m = [[M.points[i][r] for i in combo] for r in range(d)]
        det = _det_fraction_gauss(m)
        if det == 1 or det == -1:
            count += 1
    return count


def _det_fraction_gauss(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if m[i][k] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


# ---------------------------------------------------------------------------
# almost-unit-area triangles


def triangle_double_area(p, q, r) -> Fraction:
    """|cross(q - p, r - p)| = twice the triangle area, exact."""
    cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return abs(cross)


def _area_band_args(P: PointConfig, lo, hi) -> tuple:
    """Arguments of the area-band kernels: coordinates over the common
    denominator L and the band with scale L^2.  int64 when the bound on
    |cross| * denominator and on the band's ends stays below 2^62, else
    object arrays of python ints."""
    if P.dim != 2:
        raise ValueError("triangle areas live in the plane")
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("need lo <= hi")
    lcm = _lcm_of_denominators(c for p in P.points for c in p)
    xs = [int(p[0] * lcm) for p in P.points]
    ys = [int(p[1] * lcm) for p in P.points]
    scale2 = lcm * lcm
    maxc = max([1] + [abs(v) for v in xs] + [abs(v) for v in ys])
    bound = max(8 * maxc * maxc * max(lo.denominator, hi.denominator),
                2 * scale2 * max(abs(lo.numerator), abs(hi.numerator)))
    fits = bound < 2**62
    return (_int_array(xs, fits), _int_array(ys, fits),
            lo.numerator, lo.denominator, hi.numerator, hi.denominator, scale2)


def almost_unit_area_hypergraph(P: PointConfig,
                                lo: Fraction = Fraction(9, 10),
                                hi: Fraction = Fraction(11, 10)) -> KPartiteHypergraph:
    """3 parts, copies of P: ordered (i,j,l), indices distinct, is an edge
    iff the triangle area lies in [lo, hi] (exact integer test)."""
    hits = kernels.area_triple_hits(*_area_band_args(P, lo, hi))
    return KPartiteHypergraph.build((P.n,) * 3, _all_orders(hits))


def count_almost_unit_area(P: PointConfig, lo: Fraction = Fraction(9, 10),
                           hi: Fraction = Fraction(11, 10)) -> int:
    """Number of unordered triangles with area in [lo, hi]."""
    return kernels.count_area_triples(*_area_band_args(P, lo, hi))


def count_almost_unit_area_naive(P: PointConfig, lo=Fraction(9, 10),
                                 hi=Fraction(11, 10)) -> int:
    """Independent oracle: direct rational triple loop."""
    lo, hi = Fraction(lo), Fraction(hi)
    count = 0
    for i, j, l in itertools.combinations(range(P.n), 3):
        a2 = triangle_double_area(P.points[i], P.points[j], P.points[l])
        if 2 * lo <= a2 <= 2 * hi:
            count += 1
    return count


def distance_ratio_squared(P: PointConfig) -> Optional[Fraction]:
    """max/min squared pairwise distance; a reported statistic only."""
    best_hi = None
    best_lo = None
    for p, q in itertools.combinations(P.points, 2):
        d2 = sum((a - b) ** 2 for a, b in zip(p, q))
        best_hi = d2 if best_hi is None else max(best_hi, d2)
        if d2 > 0:
            best_lo = d2 if best_lo is None else min(best_lo, d2)
    if best_hi is None or best_lo is None:
        return None
    return best_hi / best_lo


# ---------------------------------------------------------------------------
# spheres


def circles_intersect(c1, r2_1, c2, r2_2) -> tuple[bool, bool]:
    """(intersects, degenerate): circles meet iff (D - a - b)^2 <= 4ab
    where D is the squared center distance; this is the polynomial form
    of |r1 - r2| <= dist <= r1 + r2 in squared quantities only.
    Degenerate means identical circle (infinite intersection)."""
    D = sum((x - y) ** 2 for x, y in zip(c1, c2))
    a, b = Fraction(r2_1), Fraction(r2_2)
    t = D - a - b
    meets = t * t <= 4 * a * b
    degenerate = D == 0 and a == b
    return meets, degenerate


def spheres_triple_intersect(s1, s2, s3) -> tuple[bool, bool]:
    """Do three spheres in R^3 share a point?  Exact, via radical planes.

    Subtracting sphere equations pairwise gives two planes; the system is
    sphere_1 AND both planes.  Parallel distinct planes mean empty; a
    single effective plane reduces to a circle-nonempty test; otherwise
    the planes meet in a line and the sphere restricts to a quadratic
    whose discriminant decides.  Degenerate flags an identical pair.
    """
    spheres = [s1, s2, s3]
    c1, a1 = spheres[0]
    planes = []
    degenerate = s2 == s3
    for idx in (1, 2):
        cj, aj = spheres[idx]
        normal = tuple(2 * (cj[t] - c1[t]) for t in range(3))
        rhs = sum(cj[t] ** 2 - c1[t] ** 2 for t in range(3)) - (aj - a1)
        if all(x == 0 for x in normal):
            if rhs != 0:
                return False, False  # concentric, different radii
            degenerate = True  # identical sphere; constraint vacuous
        else:
            planes.append((normal, rhs))
    if not planes:
        return True, True  # three identical spheres
    if len(planes) == 2:
        n1, r1 = planes[0]
        n2, r2 = planes[1]
        cx = _cross3(n1, n2)
        if all(x == 0 for x in cx):
            # parallel radical planes: coincident or disjoint
            lam = _parallel_ratio(n1, n2)
            if lam is not None and r2 == lam * r1:
                planes = [planes[0]]
            else:
                return False, degenerate
    if len(planes) == 1:
        n, r = planes[0]
        nn = sum(x * x for x in n)
        pc = sum(nx * cx for nx, cx in zip(n, c1))
        # distance^2 from c1 to the plane <= a1
        return (pc - r) ** 2 <= a1 * nn, degenerate
    n1, r1 = planes[0]
    n2, r2 = planes[1]
    v = _cross3(n1, n2)
    p = _particular_solution(n1, r1, n2, r2)
    w = tuple(p[t] - c1[t] for t in range(3))
    A = sum(x * x for x in v)
    B = sum(vx * wx for vx, wx in zip(v, w))
    C = sum(x * x for x in w) - a1
    disc = B * B - A * C
    return disc >= 0, degenerate


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _parallel_ratio(n1, n2) -> Optional[Fraction]:
    lam = None
    for a, b in zip(n1, n2):
        if a == 0 and b == 0:
            continue
        if a == 0 or b == 0:
            return None
        q = b / a
        if lam is None:
            lam = q
        elif lam != q:
            return None
    return lam


def _particular_solution(n1, r1, n2, r2):
    """One exact point on the line n1.x = r1, n2.x = r2."""
    for drop in (2, 1, 0):
        keep = [t for t in range(3) if t != drop]
        det = n1[keep[0]] * n2[keep[1]] - n1[keep[1]] * n2[keep[0]]
        if det != 0:
            x = (r1 * n2[keep[1]] - r2 * n1[keep[1]]) / det
            y = (n1[keep[0]] * r2 - n2[keep[0]] * r1) / det
            p = [Fraction(0)] * 3
            p[keep[0]] = x
            p[keep[1]] = y
            return tuple(p)
    raise ValueError("planes are parallel; no line")


def _sphere_hits(S: SphereConfig) -> tuple[np.ndarray, np.ndarray]:
    """The intersecting pairs (d=2) or triples (d=3) of S as increasing
    index tuples, and their degenerate flags, from one integer sweep.

    Centres are scaled by L, the lcm of every denominator, and squared
    radii by L^2.  g bounds every |u|^2, |u.w| and |rho| of the sweep,
    whose products stay below 8 g^3 (see kernels.sphere_triple_hits);
    past the int64 guard the sweep runs on python ints."""
    lcm = _lcm_of_denominators(
        [r2 for _, r2 in S.spheres] + [c for center, _ in S.spheres for c in center])
    cs = [int(c * lcm) for center, _ in S.spheres for c in center]
    rs = [int(r2 * lcm * lcm) for _, r2 in S.spheres]
    span = 2 * max([0] + [abs(v) for v in cs])
    g = S.dim * span * span + max([0] + rs)
    fits = 16 * g**3 < 2**62
    c = _int_array(cs, fits).reshape(S.n, S.dim)
    r2 = _int_array(rs, fits)
    if S.dim == 2:
        return kernels.circle_pair_hits(c, r2)
    return kernels.sphere_triple_hits(c, r2)


def sphere_intersection_hypergraph(S: SphereConfig) -> tuple[KPartiteHypergraph, frozenset]:
    """d parts, copies of S.  Returns (hypergraph, degenerate edge set);
    degenerate tuples (containing an identical pair) are present and
    flagged."""
    hits, degenerate = _sphere_hits(S)
    return (KPartiteHypergraph.build((S.n,) * S.dim, _all_orders(hits)),
            frozenset(_all_orders(hits[degenerate])))


def count_sphere_intersections(S: SphereConfig) -> int:
    """Unordered intersecting pairs (d=2) or triples (d=3)."""
    return len(_sphere_hits(S)[0])


def count_sphere_intersections_naive(S: SphereConfig) -> int:
    """Independent oracle: the rational predicates on every pair (d=2)
    or triple (d=3)."""
    if S.dim == 2:
        return sum(
            1 for i, j in itertools.combinations(range(S.n), 2)
            if circles_intersect(S.spheres[i][0], S.spheres[i][1],
                                 S.spheres[j][0], S.spheres[j][1])[0])
    return sum(
        1 for i, j, l in itertools.combinations(range(S.n), 3)
        if spheres_triple_intersect(S.spheres[i], S.spheres[j],
                                    S.spheres[l])[0])


# ---------------------------------------------------------------------------
# extremal configurations


def st_lower_bound_minor_config(d: int, scale: int) -> PointConfig:
    """Columns realizing many unit minors: a slope/intercept family
    (1/b, a/b, 0, ...) for a in [1..s], b in [1..s^2] plus an integer
    grid (x, y, 0, ...) with x in [s+1..2s], y in [1..2s^2], so that
    det((1/b, a/b), (x, y)) = 1 exactly when y = ax + b.  The grid's x
    range starts above s so no grid column collides with a slope column.
    For d > 2 the planar family is padded with chain parts
    (0,...,0, x, 1, 0,...,0); chain values are spaced 2s^2 + 2 apart so
    chain pairs never produce new unit minors against planar columns.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if scale < 2:
        raise ValueError("need scale >= 2")
    s = scale
    cols: list[tuple[Fraction, ...]] = []
    pad = (Fraction(0),) * (d - 2)
    for a in range(1, s + 1):
        for b in range(1, s * s + 1):
            cols.append((Fraction(1, b), Fraction(a, b)) + pad)
    for x in range(s + 1, 2 * s + 1):
        for y in range(1, 2 * s * s + 1):
            cols.append((Fraction(x), Fraction(y)) + pad)
    gap = 2 * s * s + 2
    for part in range(3, d + 1):
        for idx in range(1, s + 1):
            col = [Fraction(0)] * d
            col[part - 2] = Fraction(idx * gap)
            col[part - 1] = Fraction(1)
            cols.append(tuple(col))
    return PointConfig(d, tuple(cols), distinct=True)


def st_incidence_count(scale: int) -> int:
    """Brute-force count of (a, b, x, y) with y = ax + b in the ranges of
    st_lower_bound_minor_config; equals the number of ordered
    (slope, grid) column pairs with determinant exactly 1."""
    s = scale
    count = 0
    for a in range(1, s + 1):
        for x in range(s + 1, 2 * s + 1):
            ax = a * x
            # b in [1..s^2] with 1 <= ax + b <= 2 s^2
            hi = min(s * s, 2 * s * s - ax)
            if hi >= 1:
                count += hi
    return count


def k1uu_config(d: int, u: int) -> PointConfig:
    """The 1 + (d-1)u columns (1,0,...,0) and (0,..,0,x,1,0,..,0) for
    x in [1..u]; its unit-minor hypergraph contains the complete pattern
    with one vertex in part 1 and u in every other part."""
    if d < 2 or u < 1:
        raise ValueError("need d >= 2 and u >= 1")
    cols = [(Fraction(1),) + (Fraction(0),) * (d - 1)]
    for part in range(2, d + 1):
        for x in range(1, u + 1):
            col = [Fraction(0)] * d
            col[part - 2] = Fraction(x)
            col[part - 1] = Fraction(1)
            cols.append(tuple(col))
    return PointConfig(d, tuple(cols), distinct=True)


# ---------------------------------------------------------------------------
# halfplane traces (for shatter-function experiments)


def halfplane_traces(points: Sequence[Sequence[Fraction]]) -> set[frozenset[int]]:
    """All distinct subsets cut off by halfplanes, exactly.

    Every halfplane trace is a prefix of the points sorted along some
    direction; the order only changes at directions perpendicular to a
    difference vector, and ties there are split by the two perpendicular
    tiebreaks.  Enumerating prefixes over that critical direction set
    (both signs, both tiebreaks) yields every realizable trace.
    """
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
                dirs.add(_primitive(v))
    for v in dirs:
        w = (-v[1], v[0])
        for flip in (1, -1):
            order = sorted(range(n), key=lambda t: (
                v[0] * pts[t][0] + v[1] * pts[t][1],
                flip * (w[0] * pts[t][0] + w[1] * pts[t][1])))
            for cut in range(1, n):
                out.add(frozenset(order[:cut]))
    return out


def _primitive(v: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    lcm = v[0].denominator * v[1].denominator // math.gcd(
        v[0].denominator, v[1].denominator)
    a, b = int(v[0] * lcm), int(v[1] * lcm)
    g = math.gcd(abs(a), abs(b))
    return (Fraction(a // g), Fraction(b // g))
