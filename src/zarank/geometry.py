"""Exact geometric constructions over the rationals.

`PointConfig` and `SphereConfig` store each point or sphere once, as
integer numerators over one positive denominator in lowest terms; the
rational constructor clears denominators once, and generators hand their
integers to `from_integers`.  A configuration is its dimension and those
integers, nothing more; the unit-minor builders reject repeated columns
themselves.

Builders produce k-partite hypergraphs from those integers using only
exact predicates: integer cofactor determinants of the stored columns,
and, over the common-denominator form, the area band and polynomial sign
tests in squared radii for spheres.  The sweeps in `kernels` decide
every family, unit minors in every dimension d >= 2, and pick their own
integer width.  No floating point is consulted for any edge decision.
The independent `*_naive` oracles loop on python ints over the same
stored integers, without the kernels or the common-denominator form.
The `Fraction` views (`points`, `spheres`) are built on first use, for
text output and for the one oracle step that divides: `spheres_meet`,
the Gram-Schmidt elimination of the spheres' radical planes.

Both file formats (`to_text`, `from_text`) are a first line `d n`, then
n lines of rationals (`p/q` or integer): a point's (matrix column's) d
coordinates, or a sphere's centre and squared radius, `c1 .. cd r2`.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import kernels
from .hypergraph import KPartiteHypergraph


def parse_rational(tok: str) -> Fraction:
    """The rational written as an integer "p" or a fraction "p/q"."""
    num, slash, den = tok.partition("/")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError(f"{tok!r} is not an integer p or a fraction p/q"
                         ) from None
    if den == 0:
        raise ValueError(f"{tok!r} has denominator 0")
    return Fraction(num, den)


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
    the integers; the `Fraction` rows are built on first use and kept.

    A subclass names its rows (`_noun`) and gives their width for a
    dimension (`_width`, which rejects a dimension it cannot hold); it
    may turn a constructor item into a row differently (`_row`) and
    check the stored values (`_store`)."""

    __slots__ = ("dim", "numerators", "denominators", "_cache")

    def __init__(self, dim: int, items):
        rows = tuple(map(self._row, items))
        self._store(dim, *_cleared(rows), rows)

    @classmethod
    def from_integers(cls, dim: int, numerators, denominators=None):
        """Rows numerators[i] / denominators[i]; denominators default to
        1, must be positive, and are reduced against the numerators."""
        cfg = cls.__new__(cls)
        cfg._store(dim, numerators, denominators)
        return cfg

    @classmethod
    def from_text(cls, text: str):
        """Parse the file form of `to_text`."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty input")
        d, n = (int(x) for x in lines[0].split())
        rows = tuple(tuple(parse_rational(t) for t in ln.split())
                     for ln in lines[1:])
        if len(rows) != n:
            raise ValueError(f"expected {n} {cls._noun}, found {len(rows)}")
        cfg = cls.__new__(cls)
        cfg._store(d, *_cleared(rows), rows)
        return cfg

    def __reduce__(self):
        """Copy and pickle through the stored integers."""
        return (type(self).from_integers,
                (self.dim, self.numerators, self.denominators))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @staticmethod
    def _row(item) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, item))

    def _store(self, dim, numerators, denominators, rows=None):
        k = self._width(dim)
        for row in rows or ():
            if len(row) != k:
                raise ValueError(f"row {row} does not have {k} entries")
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
        for name, value in (("dim", dim), ("numerators", nums),
                            ("denominators", dens), ("_cache", cache)):
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
        """Whether two rows are equal."""
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

    def to_text(self) -> str:
        """The file form: `d n`, then one row of rationals per line."""
        lines = [f"{self.dim} {self.n}"]
        lines += [" ".join(map(format_rational, row)) for row in self._rows()]
        return "\n".join(lines) + "\n"

    def _key(self) -> tuple:
        if "key" not in self._cache:
            self._cache["key"] = (self.dim,
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
        return f"{type(self).__name__}(dim={self.dim}, n={self.n})"


class PointConfig(_RationalRows):
    """Points with exact rational coordinates; doubles as the column
    storage of a d x n matrix (points are the columns).

    Point i is numerators[i] / denominators[i], the column cleared of its
    denominators, which is what the exact predicates and the
    independent oracles read.  `points` is the `Fraction` view, for text
    output.
    """

    __slots__ = ()
    _noun = "points"

    @staticmethod
    def _width(dim: int) -> int:
        if dim < 1:
            raise ValueError("dimension must be positive")
        return dim

    @property
    def points(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows()


class SphereConfig(_RationalRows):
    """Spheres stored as (center, radius_squared); radii themselves may be
    irrational, so all predicates are polynomial in radius_squared.

    Row i of numerators holds the center's numerators and then the squared
    radius's, all over denominators[i].  `spheres` is the `Fraction` view
    of the (center, radius_squared) pairs.
    """

    __slots__ = ()
    _noun = "spheres"

    @staticmethod
    def _width(dim: int) -> int:
        if dim not in (2, 3):
            raise ValueError("sphere predicates are implemented for d in {2,3}")
        return dim + 1

    @staticmethod
    def _row(item) -> tuple[Fraction, ...]:
        center, r2 = item
        return tuple(map(Fraction, center)) + (Fraction(r2),)

    def _store(self, *args):
        super()._store(*args)
        if self.n and not (self.numerators[:, self.dim] > 0).all():
            raise ValueError("radius_squared must be positive")

    @property
    def spheres(self) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
        if "spheres" not in self._cache:
            self._cache["spheres"] = tuple((row[:-1], row[-1])
                                           for row in self._rows())
        return self._cache["spheres"]


class DetTarget(enum.Enum):
    """det = 1 exactly (the hypergraph predicate) or det = +-1 (the
    unit-volume simplex predicate)."""

    EXACTLY_ONE = "exactly-one"
    PLUS_MINUS_ONE = "plus-minus-one"


# ---------------------------------------------------------------------------
# unit minors


def unit_minor_hypergraph(M: PointConfig,
                          target: DetTarget = DetTarget.EXACTLY_ONE) -> KPartiteHypergraph:
    """d-partite hypergraph on d copies of the columns: the ordered tuple
    (i_1,...,i_d), indices pairwise distinct, is a hyperedge iff the
    determinant of those columns in tuple order lies in the target set.
    """
    d = M.dim
    hits, signs = _unit_hits(M)
    perms = list(itertools.permutations(range(d)))
    orders = hits[:, perms]
    if target is DetTarget.EXACTLY_ONE:
        psign = np.array([_perm_sign(p) for p in perms])
        orders = orders[np.multiply.outer(signs, psign) == 1]
    return KPartiteHypergraph.build((M.n,) * d, orders.reshape(-1, d))


def _unit_hits(M: PointConfig) -> tuple[np.ndarray, np.ndarray]:
    """The increasing d-subsets of the columns with rational determinant
    +-1, as an index array, and the sign of each, from the kernels' hit
    sweep."""
    rows, s = _columns(M)
    if M.dim == 2:
        return kernels.unit_pair_hits(*rows, s)
    return kernels.unit_minor_hits(rows, s)


def _columns(M: PointConfig) -> tuple[list[np.ndarray], np.ndarray]:
    """The coordinate rows of the stored numerators and the denominators:
    the arguments of the unit-minor kernels.  The one check of every
    unit-minor entry point: d >= 2 and no repeated column."""
    if M.dim < 2:
        raise ValueError("need ambient dimension >= 2")
    if M.has_repeats():
        raise ValueError("repeated columns are not allowed")
    return [M.numerators[:, r] for r in range(M.dim)], M.denominators


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
    det exactly 1 whenever |det| = 1.  At d = 3 the count goes through
    `kernels.count_unit_triples`, so that traces name it.
    """
    rows, s = _columns(M)
    if M.dim == 2:
        return kernels.count_unit_pairs(*rows, s)
    if M.dim == 3:
        return kernels.count_unit_triples(*rows, s)
    return len(kernels.unit_minor_hits(rows, s)[0])


def count_unit_minors_naive(M: PointConfig) -> int:
    """Independent oracle: the determinant of every d-subset of columns.

    Column i is numerators[i] / denominators[i], so a subset's rational
    determinant is +-1 exactly when the integer determinant of its
    numerators is +-(the product of its denominators).  That determinant
    is taken on python ints: by cofactors for d in {2, 3}, each pair's
    cross product once for all its third columns at d = 3, and by
    fraction-free elimination (`_det_bareiss`) for d >= 4.
    """
    d = M.dim
    cols = list(zip(M.numerators.tolist(), M.denominators.tolist()))
    if d >= 4:
        return sum(1 for combo in itertools.combinations(cols, d)
                   if abs(_det_bareiss([u for u, _ in combo]))
                   == math.prod(s for _, s in combo))
    if d == 2:
        return sum(1 for ((a, b), s), ((c, e), t)
                   in itertools.combinations(cols, 2)
                   if abs(a * e - b * c) == s * t)
    count = 0
    for i, (u, s) in enumerate(cols):
        for j in range(i + 1, len(cols)):
            v, t = cols[j]
            w0, w1, w2 = _cross3(u, v)
            st = s * t
            count += sum(1 for (x, y, z), q in cols[j + 1:]
                         if abs(w0 * x + w1 * y + w2 * z) == st * q)
    return count


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _det_bareiss(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination on python ints: every division is exact, and a zero pivot
    swaps in the first later row with a nonzero entry in its column."""
    m = [list(row) for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        p, top = m[k][k], m[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
    return sign * m[-1][-1]


# ---------------------------------------------------------------------------
# almost-unit-area triangles


def triangle_double_area(p, q, r) -> Fraction:
    """|cross(q - p, r - p)| = twice the triangle area, exact."""
    cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return abs(cross)


def _area_band(P: PointConfig, lo, hi) -> tuple[Fraction, Fraction]:
    """The band [lo, hi] as `Fraction`s, once P is planar and lo <= hi."""
    if P.dim != 2:
        raise ValueError("triangle areas live in the plane")
    lo, hi = (q if isinstance(q, Fraction) else Fraction(q) for q in (lo, hi))
    if lo > hi:
        raise ValueError("need lo <= hi")
    return lo, hi


def _area_band_args(P: PointConfig, lo, hi) -> tuple:
    """Arguments of the area-band kernels: coordinates over the common
    denominator L and the band with scale L^2."""
    lo, hi = _area_band(P, lo, hi)
    L, X = P.common_denominator()
    return (X[:, 0], X[:, 1],
            lo.numerator, lo.denominator, hi.numerator, hi.denominator, L * L)


def almost_unit_area_hypergraph(P: PointConfig,
                                lo: Fraction = Fraction(9, 10),
                                hi: Fraction = Fraction(11, 10)) -> KPartiteHypergraph:
    """3 parts, copies of P: ordered (i,j,l), indices distinct, is an edge
    iff the triangle area lies in [lo, hi] (exact integer test)."""
    hits = kernels.area_triple_hits(*_area_band_args(P, lo, hi))
    orders = hits[:, list(itertools.permutations(range(3)))]
    return KPartiteHypergraph.build((P.n,) * 3, orders.reshape(-1, 3))


def count_almost_unit_area(P: PointConfig, lo: Fraction = Fraction(9, 10),
                           hi: Fraction = Fraction(11, 10)) -> int:
    """Number of unordered triangles with area in [lo, hi]."""
    return kernels.count_area_triples(*_area_band_args(P, lo, hi))


def count_almost_unit_area_naive(P: PointConfig, lo=Fraction(9, 10),
                                 hi=Fraction(11, 10)) -> int:
    """Independent oracle: direct triple loop on python ints, over each
    anchor's differences to the later points.  The coordinates are taken
    over the lcm L of the stored denominators, so a triangle's doubled
    area is |cross| / L^2 for an integer cross product, and lo <= area
    <= hi exactly when ceil(2 lo L^2) <= |cross| <= floor(2 hi L^2)."""
    lo, hi = _area_band(P, lo, hi)
    dens = P.denominators.tolist()
    L = math.lcm(*dens)
    L2 = L * L
    lo2 = -(-2 * lo.numerator * L2 // lo.denominator)
    hi2 = 2 * hi.numerator * L2 // hi.denominator
    pts = [(x * (L // q), y * (L // q))
           for (x, y), q in zip(P.numerators.tolist(), dens)]
    count = 0
    for i, (px, py) in enumerate(pts):
        rel = [(qx - px, qy - py) for qx, qy in pts[i + 1:]]
        for j, (ux, uy) in enumerate(rel):
            count += sum(1 for vx, vy in rel[j + 1:]
                         if lo2 <= abs(ux * vy - uy * vx) <= hi2)
    return count


# ---------------------------------------------------------------------------
# spheres


def spheres_meet(spheres) -> tuple[bool, bool]:
    """(meets, degenerate) for 2 <= k <= d spheres (centre, r2) in R^d,
    given as `Fraction`s: do they share a point?  Exact.

    In y = x - c_0, sphere j >= 1 cuts sphere 0 along its radical plane
    2u.y = rho, for u = c_j - c_0 and rho = |u|^2 + a_0 - a_j, where a_j
    is sphere j's squared radius.  Gram-Schmidt on the augmented rows
    (u | rho) keeps the solution set: a row that reduces to 0 = 0 is
    dependent and dropped, one that reduces to 0 = rho != 0 leaves no
    common point.  The remaining rows are orthogonal, so the planes'
    nearest point to c_0 lies at squared distance sum rho^2 / (4 |u|^2);
    they meet in at least a line, since k <= d, so the spheres meet iff
    that distance is at most a_0.  Degenerate means the tuple holds an
    identical pair."""
    (c0, a0), rest = spheres[0], spheres[1:]
    if not 1 <= len(rest) < len(c0):
        raise ValueError(f"need 2 <= k <= d spheres, got {len(spheres)} "
                         f"in R^{len(c0)}")
    degenerate = any(s == t for s, t in itertools.combinations(spheres, 2))
    rows, four_dist2 = [], 0
    for c, a in rest:
        u = [x - x0 for x, x0 in zip(c, c0)]
        rho = sum(x * x for x in u) + a0 - a
        for v, sigma, vv in rows:
            t = sum(x * y for x, y in zip(u, v)) / vv
            u = [x - t * y for x, y in zip(u, v)]
            rho -= t * sigma
        uu = sum(x * x for x in u)
        if uu == 0:
            if rho != 0:
                return False, degenerate
            continue
        rows.append((u, rho, uu))
        four_dist2 += rho * rho / uu
    return four_dist2 <= 4 * a0, degenerate


def _sphere_hits(S: SphereConfig) -> tuple[np.ndarray, np.ndarray]:
    """The intersecting pairs (d=2) or triples (d=3) of S as increasing
    index tuples, and their degenerate flags, from one integer sweep.

    Centres are scaled by L, the common denominator, and squared radii
    by L^2."""
    L, X = S.common_denominator()
    c, r2 = X[:, :S.dim], _int_array(X[:, S.dim].astype(object) * L)
    if S.dim == 2:
        return kernels.circle_pair_hits(c, r2)
    return kernels.sphere_triple_hits(c, r2)


def sphere_intersection_hypergraph(S: SphereConfig) -> tuple[KPartiteHypergraph, frozenset]:
    """d parts, copies of S.  Returns (hypergraph, degenerate edge set);
    degenerate tuples (containing an identical pair) are present and
    flagged."""
    hits, degenerate = _sphere_hits(S)
    d = S.dim
    orders = hits[:, list(itertools.permutations(range(d)))]
    return (KPartiteHypergraph.build((S.n,) * d, orders.reshape(-1, d)),
            frozenset(map(tuple, orders[degenerate].reshape(-1, d).tolist())))


def count_sphere_intersections(S: SphereConfig) -> int:
    """Unordered intersecting pairs (d=2) or triples (d=3)."""
    return len(_sphere_hits(S)[0])


def count_sphere_intersections_naive(S: SphereConfig) -> int:
    """Independent oracle: the pair test on every pair (d=2), or (d=3)
    the rational predicate `spheres_meet` on every triangle of the pair
    graph, since spheres that share a point meet pairwise.  The pair
    test is (D - a - b)^2 <= 4ab, for D the squared centre distance and
    a, b the squared radii: the squared form of |r_i - r_j| <= dist <=
    r_i + r_j, on python ints.  Sphere i is numerators[i] / q_i, and
    multiplying D, a and b by (q_i q_j)^2 clears both denominators."""
    d = S.dim
    rows = [(row[:d], row[d], q)
            for row, q in zip(S.numerators.tolist(), S.denominators.tolist())]
    later = []
    for i, (c, r, q) in enumerate(rows):
        nbrs = set()
        for j in range(i + 1, len(rows)):
            e, s, p = rows[j]
            D = sum((x * p - y * q) ** 2 for x, y in zip(c, e))
            a, b = r * q * p * p, s * p * q * q
            if (D - a - b) ** 2 <= 4 * a * b:
                nbrs.add(j)
        later.append(nbrs)
    if d == 2:
        return sum(map(len, later))
    spheres = S.spheres
    return sum(1 for i, nbrs in enumerate(later)
               for j in sorted(nbrs) for l in sorted(nbrs & later[j])
               if spheres_meet((spheres[i], spheres[j], spheres[l]))[0])


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
    return PointConfig.from_integers(d, nums, dens)


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
    return PointConfig.from_integers(d, cols)


# ---------------------------------------------------------------------------
# halfplane traces (for shatter-function experiments)


def halfplane_traces(points: Sequence[Sequence[Fraction]]) -> set[frozenset[int]]:
    """All distinct subsets cut off by halfplanes, exactly.

    A halfplane whose trace is neither empty nor everything can be turned
    and moved, keeping its trace, until its boundary runs through two
    distinct points; the trace is then the points strictly left of that
    directed line plus the points on it up to some position along it.  So
    for each ordered pair of distinct points, the traces are the left
    side, then each group of on-line points added in order along the line.
    Sides are signs of integer cross products over the common denominator
    of the coordinates; equal points get equal keys, so none is split.
    """
    n = len(points)
    pts = [tuple(Fraction(c) for c in p) for p in points]
    L = math.lcm(*(c.denominator for p in pts for c in p))
    X = [tuple(c.numerator * (L // c.denominator) for c in p) for p in pts]
    out = {frozenset(), frozenset(range(n))}
    for xi, yi in X:
        for xj, yj in X:
            dx, dy = xj - xi, yj - yi
            if dx == 0 and dy == 0:
                continue
            left, on = [], {}
            for t, (x, y) in enumerate(X):
                side = dx * (y - yi) - dy * (x - xi)
                if side > 0:
                    left.append(t)
                elif side == 0:
                    on.setdefault(dx * x + dy * y, []).append(t)
            out.add(frozenset(left))
            for along in sorted(on):
                left.extend(on[along])
                out.add(frozenset(left))
    return out
