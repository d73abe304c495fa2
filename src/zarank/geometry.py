"""Exact geometric constructions over the rationals.

`PointConfig` and `SphereConfig` store each point or sphere once, as
integer numerators over one positive denominator in lowest terms; the
rational constructor clears denominators once, and generators hand their
integers to `from_integers`.  Builders produce k-partite hypergraphs from
those integers using only exact predicates: fraction-free determinants of
the stored columns, and, over the common-denominator form, the area band
and polynomial sign tests in squared radii for spheres.  No floating
point is consulted for any edge decision.  The `Fraction` views
(`points`, `spheres`) are built on first use, for the independent
`*_naive` oracles and text output.

Point (matrix-column) file format: first line `d n`, then n lines of d
rationals (`p/q` or integer).  Sphere file: `d n`, then `c1 .. cd r2`.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

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


def _int_array(values) -> np.ndarray:
    """Integers as an int64 array, or as an object array of python ints
    when some entry has |v| >= 2^63 (so that abs never wraps)."""
    try:
        a = np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)
    if a.size and a.min() == np.iinfo(np.int64).min:
        return a.astype(object)
    return a


def _distinct_rows(a: np.ndarray) -> int:
    """Number of distinct rows of an (n, k) integer array, by one
    lexicographic sort and a compare of neighbouring rows."""
    if not len(a):
        return 0
    a = a[np.lexsort(a.T)]
    return 1 + int(np.count_nonzero((a[1:] != a[:-1]).any(axis=1)))


def _cleared(rows) -> tuple[list[list[int]], list[int]]:
    """Rows of `Fraction`s as integer numerators over the lcm of each
    row's denominators, which is already in lowest terms."""
    dens = [math.lcm(*(c.denominator for c in row)) for row in rows]
    return ([[c.numerator * (q // c.denominator) for c in row]
             for row, q in zip(rows, dens)], dens)


class _RationalRows:
    """n rows of k rationals, stored as integer numerators over one
    positive denominator per row, in lowest terms: row i is
    numerators[i] / denominators[i], and the gcd of numerators[i] and
    denominators[i] is 1.  Both arrays are int64 when every entry fits,
    else object arrays of python ints, and read-only.  Equal rationals
    give equal integers, so equality, hashing and the repeat check work on
    the integers; the `Fraction` rows are built on first use and kept."""

    __slots__ = ("dim", "distinct", "numerators", "denominators", "_cache")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _store(self, dim, numerators, denominators, distinct, k, rows):
        nums = _int_array(numerators)
        if nums.ndim == 1 and not nums.size:
            nums = nums.reshape(0, k)
        if nums.ndim != 2 or nums.shape[1] != k:
            raise ValueError(f"every row needs {k} integers")
        n = len(nums)
        dens = (np.ones(n, dtype=np.int64) if denominators is None
                else _int_array(denominators).reshape(-1))
        if len(dens) != n:
            raise ValueError("one denominator per row")
        if n and not (dens > 0).all():
            raise ValueError("denominators must be positive")
        g = np.gcd(np.gcd.reduce(nums, axis=1), dens) if n else dens
        if (g != 1).any():
            nums, dens = nums // g[:, None], dens // g
        if nums.dtype == object or dens.dtype == object:
            nums, dens = _int_array(nums), _int_array(dens)
        for a in (nums, dens):
            a.flags.writeable = False
        cache = {} if rows is None else {"rows": rows}
        for name, value in (("dim", dim), ("distinct", bool(distinct)),
                            ("numerators", nums), ("denominators", dens),
                            ("_cache", cache)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.denominators)

    def _rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as `Fraction` tuples, built once."""
        if "rows" not in self._cache:
            self._cache["rows"] = tuple(
                tuple(Fraction(a, q) for a in row)
                for row, q in zip(self.numerators.tolist(),
                                  self.denominators.tolist()))
        return self._cache["rows"]

    def has_repeats(self) -> bool:
        """Whether two rows are equal (never, when built with distinct)."""
        if "repeats" not in self._cache:
            both = np.column_stack((self.numerators, self.denominators))
            self._cache["repeats"] = _distinct_rows(both) != self.n
        return self._cache["repeats"]

    def common_denominator(self) -> tuple[int, np.ndarray]:
        """(L, X): L the lcm of the row denominators and X the (n, k)
        integer array of the rows times L, int64 when it fits, and
        read-only."""
        if "common" not in self._cache:
            dens = self.denominators
            L = math.lcm(*np.unique(dens).tolist())
            scale = (L // dens.astype(object))[:, None]
            X = _int_array(self.numerators.astype(object) * scale)
            X.flags.writeable = False
            self._cache["common"] = (L, X)
        return self._cache["common"]

    def _key(self) -> tuple:
        if "key" not in self._cache:
            self._cache["key"] = (self.dim, self.distinct,
                                  getattr(self, "labels", None),
                                  tuple(map(tuple, self.numerators.tolist())),
                                  tuple(self.denominators.tolist()))
        return self._cache["key"]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"{type(self).__name__}(dim={self.dim}, n={self.n}, "
                f"distinct={self.distinct})")


class PointConfig(_RationalRows):
    """Labeled points with exact rational coordinates; doubles as the
    column storage of a d x n matrix (points are the columns).

    Point i is numerators[i] / denominators[i], the column cleared of its
    denominators, which is what the exact predicates read.  `points` is
    the `Fraction` view, for the independent oracles and text output.
    """

    __slots__ = ("labels",)

    def __init__(self, dim: int, points,
                 labels: Optional[Sequence[str]] = None,
                 distinct: bool = False):
        rows = tuple(tuple(Fraction(c) for c in p) for p in points)
        self._setup(dim, *_cleared(rows), labels, distinct, rows)

    @classmethod
    def from_integers(cls, dim: int, numerators, denominators=None,
                      labels: Optional[Sequence[str]] = None,
                      distinct: bool = False) -> "PointConfig":
        """Points numerators[i] / denominators[i]; denominators default to
        1, must be positive, and are reduced against the numerators."""
        cfg = cls.__new__(cls)
        cfg._setup(dim, numerators, denominators, labels, distinct)
        return cfg

    def __reduce__(self):
        """Copy and pickle through the stored integers."""
        return (type(self).from_integers,
                (self.dim, self.numerators, self.denominators, self.labels,
                 self.distinct))

    def _setup(self, dim, numerators, denominators, labels, distinct,
               rows=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        for p in rows or ():
            if len(p) != dim:
                raise ValueError(f"point {p} does not have {dim} coordinates")
        self._store(dim, numerators, denominators, distinct, dim, rows)
        labels = None if labels is None else tuple(labels)
        if labels is not None and len(labels) != self.n:
            raise ValueError("one label per point")
        object.__setattr__(self, "labels", labels)
        if self.distinct and self.has_repeats():
            raise ValueError("repeated columns are not allowed here")

    @property
    def points(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows()

    def to_text(self) -> str:
        lines = [f"{self.dim} {self.n}"]
        for p in self.points:
            lines.append(" ".join(format_rational(c) for c in p))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, distinct: bool = False) -> "PointConfig":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty input")
        d, n = (int(x) for x in lines[0].split())
        pts = [tuple(parse_rational(t) for t in ln.split()) for ln in lines[1:]]
        if len(pts) != n:
            raise ValueError(f"expected {n} points, found {len(pts)}")
        return cls(d, tuple(pts), distinct=distinct)


class SphereConfig(_RationalRows):
    """Spheres stored as (center, radius_squared); radii themselves may be
    irrational, so all predicates are polynomial in radius_squared.

    Row i of numerators holds the center's numerators and then the squared
    radius's, all over denominators[i].  `spheres` is the `Fraction` view
    of the (center, radius_squared) pairs.
    """

    __slots__ = ()

    def __init__(self, dim: int, spheres, distinct: bool = False):
        rows = tuple(tuple(Fraction(c) for c in center) + (Fraction(r2),)
                     for center, r2 in spheres)
        self._setup(dim, *_cleared(rows), distinct, rows)

    @classmethod
    def from_integers(cls, dim: int, numerators, denominators=None,
                      distinct: bool = False) -> "SphereConfig":
        """Spheres whose row numerators[i] = (center numerators..., squared
        radius numerator) is over denominators[i] (default 1, positive)."""
        cfg = cls.__new__(cls)
        cfg._setup(dim, numerators, denominators, distinct)
        return cfg

    def __reduce__(self):
        """Copy and pickle through the stored integers."""
        return (type(self).from_integers,
                (self.dim, self.numerators, self.denominators, self.distinct))

    def _setup(self, dim, numerators, denominators, distinct, rows=None):
        if dim not in (2, 3):
            raise ValueError("sphere predicates are implemented for d in {2,3}")
        for row in rows or ():
            if len(row) != dim + 1:
                raise ValueError("center dimension mismatch")
        self._store(dim, numerators, denominators, distinct, dim + 1, rows)
        if self.n and not (self.numerators[:, dim] > 0).all():
            raise ValueError("radius_squared must be positive")
        if self.distinct and self.has_repeats():
            raise ValueError("coincident spheres are not allowed here")

    @property
    def spheres(self) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
        if "spheres" not in self._cache:
            self._cache["spheres"] = tuple((row[:-1], row[-1])
                                           for row in self._rows())
        return self._cache["spheres"]

    def to_text(self) -> str:
        lines = [f"{self.dim} {self.n}"]
        for center, r2 in self.spheres:
            lines.append(" ".join(format_rational(c) for c in center)
                         + " " + format_rational(r2))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, distinct: bool = False) -> "SphereConfig":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty input")
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


def _all_orders(hits: np.ndarray) -> list[tuple[int, ...]]:
    """Every ordering of every hit tuple, as tuples of python ints."""
    k = hits.shape[1]
    perms = list(itertools.permutations(range(k)))
    return list(map(tuple, hits[:, perms].reshape(-1, k).tolist()))


def det_of_columns(config: PointConfig, idx: Sequence[int]) -> Fraction:
    """Exact determinant of the chosen columns, in the given order."""
    idx = list(idx)
    cols = config.numerators[idx].tolist()
    rows = [[col[r] for col in cols] for r in range(config.dim)]
    scale = math.prod(config.denominators[idx].tolist())
    return Fraction(det_bareiss(rows), scale)


def fits_int64(config: PointConfig) -> bool:
    """Conservative check that the determinant sweep for d in {2,3} over
    the stored integers stays inside int64."""
    if not config.n:
        return True
    maxabs = [int(m) for m in np.abs(config.numerators).max(axis=0)]
    smax = int(config.denominators.max())
    limit = 2**62
    if config.dim == 2:
        return 2 * maxabs[0] * maxabs[1] < limit and smax * smax < limit
    if config.dim == 3:
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
    if M.has_repeats():
        raise ValueError("repeated columns are not allowed")
    hits, signs = _unit_hits(M)
    perms = list(itertools.permutations(range(d)))
    orders = hits[:, perms]
    if target is DetTarget.EXACTLY_ONE:
        psign = np.array([_perm_sign(p) for p in perms])
        orders = orders[np.multiply.outer(signs, psign) == 1]
    return KPartiteHypergraph.build((M.n,) * d,
                                    list(map(tuple, orders.reshape(-1, d).tolist())))


def _unit_hits(M: PointConfig) -> tuple[np.ndarray, np.ndarray]:
    """The increasing d-subsets of the columns with rational determinant
    +-1, as an index array, and the sign of each: from the int64 hit sweep
    for d in {2, 3} under the overflow guard, else from the big-integer
    Bareiss loop."""
    d = M.dim
    if d in (2, 3) and fits_int64(M):
        sweep = kernels.unit_pair_hits if d == 2 else kernels.unit_triple_hits
        return sweep(*_int64_rows(M))
    found = list(_unit_minors(M.numerators.tolist(),
                              M.denominators.tolist(), d))
    hits = np.array([combo for combo, _ in found], dtype=np.int64).reshape(-1, d)
    return hits, np.array([sign for _, sign in found], dtype=np.int64)


def _int64_rows(M: PointConfig) -> list[np.ndarray]:
    """The coordinate rows of the stored numerators, then the denominators:
    the arguments of the unit-minor kernels."""
    return [M.numerators[:, r] for r in range(M.dim)] + [M.denominators]


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
    if M.has_repeats():
        raise ValueError("repeated columns are not allowed")
    if d in (2, 3) and fits_int64(M):
        count = kernels.count_unit_pairs if d == 2 else kernels.count_unit_triples
        return count(*_int64_rows(M))
    return sum(1 for _ in _unit_minors(M.numerators.tolist(),
                                       M.denominators.tolist(), d))


def count_unit_minors_naive(M: PointConfig) -> int:
    """Independent oracle: plain rational Gaussian elimination per subset."""
    d = M.dim
    count = 0
    for cols in itertools.combinations(M.points, d):
        det = _det_fraction_gauss([[c[r] for c in cols] for r in range(d)])
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
    lo, hi = (q if isinstance(q, Fraction) else Fraction(q) for q in (lo, hi))
    if lo > hi:
        raise ValueError("need lo <= hi")
    L, X = P.common_denominator()
    scale2 = L * L
    maxc = max(1, int(np.abs(X).max(initial=0)))
    bound = max(8 * maxc * maxc * max(lo.denominator, hi.denominator),
                2 * scale2 * max(abs(lo.numerator), abs(hi.numerator)))
    X = X.astype(np.int64 if bound < 2**62 else object)
    return (X[:, 0], X[:, 1],
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
    for p, q, r in itertools.combinations(P.points, 3):
        a2 = triangle_double_area(p, q, r)
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

    Centres are scaled by L, the common denominator, and squared radii
    by L^2.  g bounds every |u|^2, |u.w| and |rho| of the sweep, whose
    products stay below 8 g^3 (see kernels.sphere_triple_hits); past the
    int64 guard the sweep runs on python ints."""
    L, X = S.common_denominator()
    c, r2 = X[:, :S.dim], X[:, S.dim].astype(object) * L
    span = 2 * int(np.abs(c).max(initial=0))
    g = S.dim * span * span + int(r2.max(initial=0))
    dtype = np.int64 if 16 * g**3 < 2**62 else object
    c, r2 = c.astype(dtype), r2.astype(dtype)
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
        pairs = itertools.combinations(S.spheres, 2)
        return sum(1 for (c1, a), (c2, b) in pairs
                   if circles_intersect(c1, a, c2, b)[0])
    return sum(1 for triple in itertools.combinations(S.spheres, 3)
               if spheres_triple_intersect(*triple)[0])


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
    a, b = np.divmod(np.arange(s**3), s * s)
    x, y = np.divmod(np.arange(2 * s**3), 2 * s * s)
    chain = np.arange(1, s + 1) * (2 * s * s + 2)
    nums = np.zeros((3 * s**3 + (d - 2) * s, d), dtype=np.int64)
    dens = np.ones(len(nums), dtype=np.int64)
    nums[:s**3, 0], nums[:s**3, 1], dens[:s**3] = 1, a + 1, b + 1
    nums[s**3:3 * s**3, 0], nums[s**3:3 * s**3, 1] = x + s + 1, y + 1
    for part in range(3, d + 1):
        at = 3 * s**3 + (part - 3) * s
        nums[at:at + s, part - 2], nums[at:at + s, part - 1] = chain, 1
    return PointConfig.from_integers(d, nums, dens, distinct=True)


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
    cols = [[1] + [0] * (d - 1)]
    for part in range(2, d + 1):
        for x in range(1, u + 1):
            col = [0] * d
            col[part - 2], col[part - 1] = x, 1
            cols.append(col)
    return PointConfig.from_integers(d, cols, distinct=True)


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
    lcm = math.lcm(v[0].denominator, v[1].denominator)
    a, b = int(v[0] * lcm), int(v[1] * lcm)
    g = math.gcd(abs(a), abs(b))
    return (Fraction(a // g), Fraction(b // g))
