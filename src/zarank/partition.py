"""Desk-scale constructive polynomial partitioning.

A partition of a rational point set is built level by level: level j
contributes one factor polynomial that simultaneously near-bisects every
current part (a part = one sign class of the previous factors).  Cells
are sign vectors of the factor list; points on any factor's zero set
leave the cell structure and are counted in the boundary census.  This
sign-vector realization refines the connected-component cells of the
underlying theorem and preserves its per-cell counting guarantee, while
staying exactly computable.

At d = 2, while there are at most two parts, the search tries the lines
through two points, scored exactly by a rotational sweep around each
point on cleared integers (O(n^2 log n)).  Otherwise, or when no such
line is acceptable, it fits a polynomial by soft-sign Gauss-Newton in
the monomial basis, seeded from lifted-point subsets.  Acceptance is
gated by exact rational sign verification, so a returned partition is
correct regardless of how the search behaved, and `verify_partition`
re-checks it by its own integer evaluation.  The search is sequential
and consumes candidates in a seeded canonical order, so results are
reproducible.  Linear-time ham-sandwich cuts (Lo, Matousek and Steiger,
DCG 1994) would serve larger n at the two line levels.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Optional, Sequence

import numpy as np

from .geometry import PointConfig
from .polynomials import MultiPoly, monomials_upto, poly_space_dim


class PartitionSearchError(Exception):
    """Search budget exhausted; carries the best partial factor list."""

    def __init__(self, message, partial_factors=()):
        super().__init__(message)
        self.partial_factors = tuple(partial_factors)


@dataclass
class LevelReport:
    level: int
    degree: int
    degree_cap: int
    num_parts: int
    max_side: int
    side_limit: int
    candidates_tried: int


@dataclass
class Partition:
    dim: int
    target_r: int
    slack: int
    factors: tuple[MultiPoly, ...]
    signs: tuple[tuple[int, ...], ...]
    cell_census: dict[tuple[int, ...], int]
    boundary_count: int
    cell_bound: int
    levels: list[LevelReport] = field(default_factory=list)

    @property
    def num_levels(self) -> int:
        return len(self.factors)

    @property
    def total_degree(self) -> int:
        return sum(f.degree for f in self.factors)

    @property
    def c_part(self) -> float:
        return self.total_degree / self.target_r ** (1.0 / self.dim)

    @property
    def max_cell(self) -> int:
        return max(self.cell_census.values(), default=0)

    def cell_assignment(self) -> list[Optional[tuple[int, ...]]]:
        """Per point: its cell key, or None if it lies on the zero set."""
        out = []
        for sv in self.signs:
            out.append(None if 0 in sv else sv)
        return out


def level_degree(dim: int, level: int) -> int:
    """Smallest D whose polynomial space (minus constants) has dimension
    at least 2^level; the degree cap for the level's factor."""
    D = 1
    while poly_space_dim(dim, D) - 1 < 2 ** level:
        D += 1
    return D


# ---------------------------------------------------------------------------
# exact sign evaluation on cleared integers


class _ExactEvaluator:
    """Signs of rational polynomials at rational points via big integers.

    Points are scaled by their common denominator L (the configuration's
    `common_denominator`), giving integer points X; a polynomial of degree
    D with integer coefficients C_e satisfies
        sign g(x) = sign sum_e C_e * X^e * L^(D - |e|).
    """

    def __init__(self, P: PointConfig):
        L, X = P.common_denominator()
        self.L = L
        self.X = X.tolist()
        self._tables: dict[tuple[int, tuple], list[list[int]]] = {}

    def table(self, monos: Sequence[tuple[int, ...]], degree: int) -> list[list[int]]:
        key = (degree, tuple(monos))
        if key not in self._tables:
            tab = []
            for X in self.X:
                row = []
                for e in monos:
                    v = self.L ** (degree - sum(e))
                    for x, p in zip(X, e):
                        if p:
                            v *= x**p
                    row.append(v)
                tab.append(row)
            self._tables[key] = tab
        return self._tables[key]

    def signs(self, coeff_ints: Sequence[int], monos, degree,
              idx: Sequence[int]) -> list[int]:
        tab = self.table(monos, degree)
        out = []
        for i in idx:
            row = tab[i]
            v = 0
            for c, t in zip(coeff_ints, row):
                if c:
                    v += c * t
            out.append((v > 0) - (v < 0))
        return out


def _rationalize_coeffs(coeffs: np.ndarray, shifts: Sequence[int],
                        monos: Sequence[tuple[int, ...]]) -> tuple[list[int], MultiPoly]:
    """Scaled float coefficients -> cleared integer coefficients plus the
    exact polynomial they define (which is what gets verified and kept).

    The search works on columns scaled by 2^shift, so the true coefficient
    of monomial i is coeffs[i] / 2^shifts[i]; floats convert to binary
    rationals exactly, so no precision is lost here."""
    top = float(np.max(np.abs(coeffs))) or 1.0
    fracs = []
    for c, k in zip(coeffs, shifts):
        c = float(c)
        if abs(c) < 1e-12 * top:
            fracs.append(Fraction(0))
        else:
            fracs.append(Fraction(c) / Fraction(2) ** k)
    lcm = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * lcm) for f in fracs]
    nv = len(monos[0])
    poly = MultiPoly(nv, {e: Fraction(c) for e, c in zip(monos, ints)})
    return ints, poly


def _cleared_factor(poly: MultiPoly, dim: int) -> tuple:
    """(integer coefficients, monomials, degree, poly) for an exact factor:
    its coefficients over `monomials_upto(dim, degree)`, cleared by the lcm
    of their denominators."""
    monos = monomials_upto(dim, poly.degree)
    lcm = math.lcm(*(cf.denominator for cf in poly.terms.values()))
    ints = [int(poly.terms.get(e, Fraction(0)) * lcm) for e in monos]
    return ints, monos, poly.degree, poly


# ---------------------------------------------------------------------------
# level search


def _side_limits(parts: Sequence[Sequence[int]], slack: int) -> list[int]:
    return [-(-len(p) // 2) + slack for p in parts]


def _accept(signs_by_part, limits) -> bool:
    for signs, limit in zip(signs_by_part, limits):
        plus = sum(1 for s in signs if s > 0)
        minus = sum(1 for s in signs if s < 0)
        if plus > limit or minus > limit:
            return False
    return True


def _line_pairs(parts) -> tuple[np.ndarray, np.ndarray]:
    """Candidate point pairs as index arrays (first points, second points):
    cross-part pairs first, then within-part; each block in the order
    itertools.product / itertools.combinations list it."""
    def within(idx):
        return (np.repeat(idx, np.arange(len(idx) - 1, -1, -1)),
                np.concatenate([idx[:0]] + [idx[u + 1:]
                                            for u in range(len(idx))]))

    if len(parts) == 2:
        a, b = (np.array(sorted(p), dtype=np.int32) for p in parts)
        blocks = [(np.repeat(a, len(b)), np.tile(b, len(a))),
                  within(a), within(b)]
        return (np.concatenate([bl[0] for bl in blocks]),
                np.concatenate([bl[1] for bl in blocks]))
    return within(np.array(sorted(set().union(*parts)), dtype=np.int32))


# direction components below this keep 2x2 cross products inside int64
_INT64_SPAN = 2 ** 31
# anchors swept at once: about this many directions per block
_SWEEP_BLOCK = 2 ** 18


def _angular_ranks(fx: np.ndarray, fy: np.ndarray,
                   shift: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Per row, dense ranks of directions folded into the angles [0, pi),
    and the mask of zero vectors, which rank after all the others.

    A float angle key orders each row first; the order is then certified
    exactly by the cross product of every adjacent pair (int64 or python
    ints, as the arrays hold), and a row with a pair out of order is
    re-sorted with an exact cross-product comparator.  Equal ranks mean
    exactly parallel directions.  `shift` drops low bits from the float
    key only, so that huge python ints still convert to floats."""
    zero = (fx == 0) & (fy == 0)
    key = np.arctan2((fy >> shift).astype(float), (fx >> shift).astype(float))
    key[zero] = 4.0  # past pi
    order = np.argsort(key, axis=1)

    def steps(fx, fy, order):
        sx = np.take_along_axis(fx, order, axis=-1)
        sy = np.take_along_axis(fy, order, axis=-1)
        return sx[..., :-1] * sy[..., 1:] - sy[..., :-1] * sx[..., 1:]

    step = steps(fx, fy, order)
    for row in np.flatnonzero((step < 0).any(axis=1)):
        xs, ys = fx[row].tolist(), fy[row].tolist()
        live = [t for t in range(len(xs)) if xs[t] or ys[t]]
        live.sort(key=functools.cmp_to_key(
            lambda a, b: ys[a] * xs[b] - xs[a] * ys[b]))
        order[row] = live + [t for t in range(len(xs)) if not (xs[t] or ys[t])]
        step[row] = steps(fx[row], fy[row], order[row])
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.concatenate(
        (np.zeros((len(order), 1), dtype=order.dtype),
         np.cumsum(step > 0, axis=1)), axis=1), axis=1)
    return rank, zero


def _anchor_sides(X: Sequence[Sequence[int]], parts):
    """Rotational sweep around every active point, on integer points X.

    Active points are numbered 0..m-1 in increasing index order.  Yields
    (anchors, on_anchor, left, right) per block of anchors: left[b, p, t] /
    right[b, p, t] count the points of part p strictly left / right of the
    directed line from anchor anchors[b] through active point t; points
    on the line count on neither side.  on_anchor[b, t] marks the points
    equal to the anchor, which span no line (their counts mean nothing).

    The directions from an anchor are folded into one half-plane and
    ranked by angle (`_angular_ranks`); a point of rank r, folded or not,
    lies on a side of the line of rank R fixed by the sign of r - R, so
    prefix sums of a per-part, per-half rank histogram give every line's
    counts.  O(m log m) per anchor."""
    act = sorted(set().union(*parts))
    m = len(act)
    label = {i: p for p, part in enumerate(parts) for i in part}
    labels = np.array([label[i] for i in act], dtype=np.intp)
    cols = [[X[i][c] for i in act] for c in (0, 1)]
    lows = [min(col) for col in cols]
    span = max(max(col) - lo for col, lo in zip(cols, lows))
    dtype = np.int64 if span < _INT64_SPAN else object
    ax, ay = (np.array([v - lo for v in col], dtype=dtype)
              for col, lo in zip(cols, lows))
    shift = max(0, int(span).bit_length() - 1000)
    groups = 2 * len(parts)  # (part, folded); copies of the anchor go past
    block = max(1, _SWEEP_BLOCK // m)
    for lo in range(0, m, block):
        anchors = np.arange(lo, min(lo + block, m))
        dx = ax[None, :] - ax[anchors, None]
        dy = ay[None, :] - ay[anchors, None]
        flip = (dy < 0) | ((dy == 0) & (dx < 0))
        fx, fy = np.where(flip, -dx, dx), np.where(flip, -dy, dy)
        rank, on_anchor = _angular_ranks(fx, fy, shift)
        group = np.where(on_anchor, groups, 2 * labels + flip)
        rows = np.arange(len(anchors))[:, None]
        hist = np.bincount(((rows * (groups + 1) + group) * m + rank).ravel(),
                           minlength=len(anchors) * (groups + 1) * m)
        hist = hist.reshape(len(anchors), groups + 1, m)[:, :groups]
        below = np.cumsum(hist, axis=2) - hist
        above = hist.sum(axis=2, keepdims=True) - below - hist
        # left of a folded direction: unfolded points above it and folded
        # points below it; a folded partner reverses the line
        at = (rows[:, None] * len(parts) + np.arange(len(parts))[:, None]) * m \
            + rank[:, None, :]
        ccw = np.take(above[:, 0::2] + below[:, 1::2], at)
        cw = np.take(below[:, 0::2] + above[:, 1::2], at)
        folded = flip[:, None, :]
        yield anchors, on_anchor, np.where(folded, cw, ccw), \
            np.where(folded, ccw, cw)


def _search_line(points: Sequence[Sequence[Fraction]], parts, limits,
                 evaluator, budget, counter) -> Optional[tuple]:
    """Exact search over the lines through two points of `_line_pairs`.

    Each line's score is its worst side count over the parts, counted
    exactly by the rotational sweep of `_anchor_sides` on the evaluator's
    cleared integers (O(n^2 log n)).  Candidates whose score is within the
    largest side limit are tried in order of increasing score, pair index
    breaking ties; each counts against the budget and passes the exact
    sign gate before it is accepted, so the accepted cut is the most
    balanced acceptable one.  A pair of coincident points spans no line:
    it scores 0 and is skipped.  Deterministic for a fixed input."""
    active = sorted(set().union(*parts)) if parts else []
    if len(active) < 2:
        return None
    pos = np.full(len(points), -1, dtype=np.int32)
    pos[active] = np.arange(len(active))
    score = np.empty((len(active), len(active)), dtype=np.int32)
    for anchors, on_anchor, left, right in _anchor_sides(evaluator.X, parts):
        score[anchors] = np.where(on_anchor, 0,
                                  np.maximum(left, right).max(axis=1))
    pi, pj = _line_pairs(parts)
    scores = score[pos[pi], pos[pj]]
    del score
    for value in np.unique(scores[scores <= max(limits)]):
        for cand in np.flatnonzero(scores == value):
            counter[0] += 1
            if counter[0] > budget:
                raise PartitionSearchError("candidate budget exhausted")
            p, q = points[pi[cand]], points[pj[cand]]
            a = p[1] - q[1]
            b = q[0] - p[0]
            c = a * p[0] + b * p[1]
            if a == 0 and b == 0:
                continue
            found = _cleared_factor(
                MultiPoly(2, {(0, 0): -c, (1, 0): a, (0, 1): b}), 2)
            ints, monos, degree, _ = found
            signs_by_part = [evaluator.signs(ints, monos, degree, sorted(pp))
                             for pp in parts]
            if _accept(signs_by_part, limits):
                return found
    return None


def _search_soft_sign(points_f, parts, limits, degree, evaluator, rng,
                      budget, counter, restarts=64) -> Optional[tuple]:
    """Annealed soft-sign Gauss-Newton in the degree-<=D monomial basis.

    Minimizes the per-part sums of tanh(g/h) while h shrinks; float
    near-balance is then checked exactly.  Starts alternate between
    random directions and null vectors of lifted point subsets.
    """
    dim = points_f.shape[1]
    monos = monomials_upto(dim, degree)
    V = len(monos)
    pts_active = sorted(set().union(*parts)) if parts else []
    if not pts_active:
        return None
    M_full = np.empty((points_f.shape[0], V))
    for col, e in enumerate(monos):
        mono = np.ones(points_f.shape[0])
        for axis, p in enumerate(e):
            if p:
                mono *= points_f[:, axis] ** p
        M_full[:, col] = mono
    # power-of-two column scaling: conditioning for the solver, exactly
    # invertible when the candidate is converted to a rational polynomial
    raw = np.max(np.abs(M_full[pts_active]), axis=0)
    shifts = [int(math.ceil(math.log2(s))) if s > 0 else 0 for s in raw]
    scale = np.array([2.0 ** k for k in shifts])
    M = M_full / scale
    part_rows = [np.array(sorted(p)) for p in parts]

    def float_pass(c) -> bool:
        vals = M @ c
        tol = 1e-7 * (np.max(np.abs(vals[pts_active])) + 1e-30)
        for rows, limit in zip(part_rows, limits):
            v = vals[rows]
            if (np.count_nonzero(v > tol) > limit
                    or np.count_nonzero(v < -tol) > limit):
                return False
        return True

    def exact_check(c) -> Optional[tuple]:
        ints, poly = _rationalize_coeffs(c, shifts, monos)
        if all(v == 0 for v in ints):
            return None
        signs_by_part = [evaluator.signs(ints, monos, degree, list(rows))
                         for rows in part_rows]
        if _accept(signs_by_part, limits):
            return ints, monos, degree, poly
        return None

    for attempt in range(restarts):
        counter[0] += 1
        if counter[0] > budget:
            raise PartitionSearchError("candidate budget exhausted")
        if attempt % 2 == 0 or len(pts_active) < V - 1:
            c = rng.standard_normal(V)
        else:
            # lifted-point-subset start: a polynomial vanishing on V-1 points
            take = rng.choice(pts_active, size=min(V - 1, len(pts_active)),
                              replace=False)
            _, _, vt = np.linalg.svd(M[take], full_matrices=True)
            c = vt[-1] + 1e-3 * rng.standard_normal(V)
        c /= np.linalg.norm(c) + 1e-30
        for _ in range(120):
            if float_pass(c):
                hit = exact_check(c)
                if hit is not None:
                    return hit
                c = c + 1e-6 * rng.standard_normal(V)
            v = M @ c
            # keep a quarter of the active points inside the soft band so
            # the Jacobian never saturates away
            h = max(float(np.quantile(np.abs(v[pts_active]), 0.25)), 1e-12)
            t = np.tanh(v / h)
            F = np.array([t[rows].sum() for rows in part_rows])
            W = (1.0 - t * t) / h
            J = np.stack([(W[rows, None] * M[rows]).sum(axis=0)
                          for rows in part_rows])
            try:
                delta, *_ = np.linalg.lstsq(J, -F, rcond=None)
            except np.linalg.LinAlgError:
                break
            step = np.linalg.norm(delta)
            if step > 1.0:
                delta /= step
            if step < 1e-14:
                break
            c = c + delta
            c /= np.linalg.norm(c) + 1e-30
        # last look plus local nudges for fence-sitting points
        for _ in range(4):
            if float_pass(c):
                hit = exact_check(c)
                if hit is not None:
                    return hit
            c = c + 1e-3 * rng.standard_normal(V)
    return None


def _cut_1d(values: list[Fraction]) -> Fraction:
    vs = sorted(values)
    s = len(vs)
    if s == 1:
        return vs[0] - 1
    mid = -(-s // 2)  # ceil(s/2)
    return (vs[mid - 1] + vs[mid]) / 2


def stone_tukey_partition(P: PointConfig, r: int, seed: int = 0,
                          slack: int = 1,
                          candidate_budget: int = 500_000) -> Partition:
    """Partition P with ceil(log2 r) factor polynomials so that every
    sign-vector cell holds at most ceil(|P|/r) * (1+slack)^levels points
    (verified on the result, along with the per-level side bounds).

    d = 1 uses exact quantile cuts (slack 0 suffices); d >= 2 fits
    soft-sign polynomials under the level degree cap, after, at d = 2 with
    at most two parts, the exact line search (`_search_line`); exact
    verification gates every acceptance.  Raises
    PartitionSearchError (carrying partial factors) on failure.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    n = P.n
    if n < r:
        raise ValueError("need at least r points")
    d = P.dim
    m = max(1, math.ceil(math.log2(r)))
    rng = np.random.default_rng(seed)
    evaluator = _ExactEvaluator(P)
    # x / L is correctly rounded, so this equals float() of each coordinate
    points_f = np.array([[x / evaluator.L for x in p] for p in evaluator.X])

    factors: list[MultiPoly] = []
    levels: list[LevelReport] = []
    signs_acc: list[list[int]] = [[] for _ in range(n)]
    parts: list[list[int]] = [list(range(n))]
    counter = [0]

    for level in range(1, m + 1):
        cap = level_degree(d, level)
        limits = _side_limits(parts, slack)
        found = None
        if not parts:
            # everything already on some zero set: any factor verifies
            shift = min(p[0] for p in P.points) - 1
            poly = MultiPoly.linear([Fraction(1)] + [Fraction(0)] * (d - 1),
                                    -shift)
            found = _cleared_factor(poly, d)
        elif d == 1:
            cuts = [_cut_1d([P.points[i][0] for i in part]) for part in parts]
            cuts = cuts or [P.points[0][0] - 1]
            poly = MultiPoly.constant(1, 1)
            for cval in cuts:
                poly = poly * MultiPoly(1, {(1,): Fraction(1), (0,): -cval})
            found = _cleared_factor(poly, 1)
        else:
            if d == 2 and len(parts) <= 2:
                try:
                    found = _search_line(P.points, parts, limits, evaluator,
                                         candidate_budget, counter)
                except PartitionSearchError as err:
                    raise PartitionSearchError(str(err), factors) from None
            if found is None:
                try:
                    found = _search_soft_sign(points_f, parts, limits, cap,
                                              evaluator, rng,
                                              candidate_budget, counter)
                except PartitionSearchError as err:
                    raise PartitionSearchError(str(err), factors) from None
        if found is None:
            raise PartitionSearchError(
                f"no acceptable factor at level {level}", factors)
        ints, monos, degree, poly = found
        all_signs = evaluator.signs(ints, monos, degree, range(n))
        for i in range(n):
            signs_acc[i].append(all_signs[i])
        new_parts = []
        max_side = 0
        for part in parts:
            plus = [i for i in part if all_signs[i] > 0]
            minus = [i for i in part if all_signs[i] < 0]
            for side in (plus, minus):
                max_side = max(max_side, len(side))
                if side:
                    new_parts.append(side)
        levels.append(LevelReport(level, poly.degree, cap, len(parts),
                                  max_side, max(limits, default=0),
                                  counter[0]))
        parts = new_parts
        factors.append(poly)

    census: dict[tuple[int, ...], int] = {}
    boundary = 0
    signs = tuple(tuple(sv) for sv in signs_acc)
    for sv in signs:
        if 0 in sv:
            boundary += 1
        else:
            census[sv] = census.get(sv, 0) + 1
    bound = (-(-n // r)) * (1 + slack) ** m
    part_obj = Partition(d, r, slack, tuple(factors), signs, census,
                         boundary, bound, levels)
    if part_obj.max_cell > bound:
        raise PartitionSearchError(
            f"cell bound violated: {part_obj.max_cell} > {bound}", factors)
    return part_obj


def _sign_oracle(polys: Sequence[MultiPoly],
                 coords) -> Callable[[Sequence[Fraction]], tuple[int, ...]]:
    """Exact sign vectors of `polys` by integer evaluation, independent of
    the search's evaluator.

    Points may use any coordinates from `coords`; L is the lcm of their
    denominators.  A factor f of degree D with coefficients cleared by the
    lcm k of their denominators satisfies
        sign f(x) = sign sum_e (k c_e) L^(D - |e|) (L x)^e."""
    L = math.lcm(*(c.denominator for c in coords))
    cleared = []
    for f in polys:
        k = math.lcm(*(c.denominator for c in f.terms.values()))
        cleared.append([(c.numerator * (k // c.denominator)
                         * L ** (f.degree - sum(e)), e)
                        for e, c in f.terms.items()])

    def signs(point):
        X = [x.numerator * (L // x.denominator) for x in point]
        out = []
        for terms in cleared:
            v = 0
            for c, e in terms:
                for x, p in zip(X, e):
                    if p:
                        c *= x ** p
                v += c
            out.append((v > 0) - (v < 0))
        return tuple(out)
    return signs


def verify_partition(P: PointConfig, part: Partition) -> bool:
    """Independent pass: recompute every sign by integer evaluation over
    this pass's own common denominator and rebuild the census; everything
    must match."""
    signs_at = _sign_oracle(part.factors,
                            (c for p in P.points for c in p))
    census: dict[tuple[int, ...], int] = {}
    boundary = 0
    for idx, p in enumerate(P.points):
        sv = signs_at(p)
        if sv != part.signs[idx]:
            raise AssertionError(f"sign mismatch at point {idx}")
        if 0 in sv:
            boundary += 1
        else:
            census[sv] = census.get(sv, 0) + 1
    if census != part.cell_census or boundary != part.boundary_count:
        raise AssertionError("census mismatch")
    if part.max_cell > part.cell_bound:
        raise AssertionError("cell bound violated")
    return True


# ---------------------------------------------------------------------------
# product partitions over grids


@dataclass
class ProductPartition:
    blocks: tuple[Partition, ...]
    block_dims: tuple[int, ...]
    factors: tuple[MultiPoly, ...]
    grid_census: dict[tuple, int]
    boundary_count: int
    cell_bound: int

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    @property
    def max_cell(self) -> int:
        return max(self.grid_census.values(), default=0)

    def grid_points(self) -> list[tuple[int, ...]]:
        ranges = [range(len(b.signs)) for b in self.blocks]
        return list(itertools.product(*ranges))

    def grid_cell_assignment(self) -> list[Optional[tuple]]:
        """Cell key per grid point (canonical product order), None on Z(h)."""
        assigns = [b.cell_assignment() for b in self.blocks]
        out = []
        for combo in itertools.product(*(range(len(a)) for a in assigns)):
            keys = tuple(assigns[b][i] for b, i in enumerate(combo))
            out.append(None if any(k is None for k in keys) else keys)
        return out


def _trivial_partition(P: PointConfig) -> Partition:
    poly = MultiPoly.constant(1, P.dim)
    signs = tuple((1,) for _ in range(P.n))
    return Partition(P.dim, 1, 0, (poly,), signs, {(1,): P.n}, 0, P.n, [])


def product_partition(blocks: Sequence[tuple[PointConfig, int]],
                      seed: int = 0, slack: int = 1) -> ProductPartition:
    """Partition a grid of point sets by a product of per-block factors.

    Block i is partitioned on its own (r_i = 1 contributes the constant
    polynomial and a single cell); grid cells are products of block
    cells, and the verified bound is
    prod ceil(n_i/r_i) * (1+slack)^(sum levels).
    """
    parts = []
    for bi, (cfg, r) in enumerate(blocks):
        if r <= 1:
            parts.append(_trivial_partition(cfg))
        else:
            parts.append(stone_tukey_partition(cfg, r, seed=seed + bi,
                                               slack=slack))
    dims = tuple(cfg.dim for cfg, _ in blocks)
    total = sum(dims)
    factors = []
    offset = 0
    for p, dim in zip(parts, dims):
        for f in p.factors:
            factors.append(f.shift_vars(offset, total))
        offset += dim
    census: dict[tuple, int] = {}
    keys = [list(p.cell_census.items()) for p in parts]
    for combo in itertools.product(*keys):
        key = tuple(k for k, _ in combo)
        census[key] = math.prod(c for _, c in combo)
    n_grid = math.prod(cfg.n for cfg, _ in blocks)
    boundary = n_grid - sum(census.values())
    bound = math.prod(-(-cfg.n // max(r, 1)) for cfg, r in blocks)
    bound *= (1 + slack) ** sum(len(p.factors) for p in parts
                                if p.target_r > 1)
    pp = ProductPartition(tuple(parts), dims, tuple(factors), census,
                          boundary, bound)
    if pp.max_cell > bound:
        raise PartitionSearchError(f"grid cell bound violated")
    return pp


def verify_product_partition(blocks: Sequence[tuple[PointConfig, int]],
                             pp: ProductPartition,
                             materialize_budget: int = 200_000) -> bool:
    """Independent verification.  Small grids are materialized and every
    concatenated grid point is re-signed against the shifted factors;
    larger grids re-verify each block independently and recheck the
    product census."""
    for (cfg, _), block in zip(blocks, pp.blocks):
        if block.target_r > 1:
            verify_partition(cfg, block)
    n_grid = math.prod(cfg.n for cfg, _ in blocks)
    if n_grid <= materialize_budget:
        census: dict[tuple, int] = {}
        boundary = 0
        block_assigns = [b.cell_assignment() for b in pp.blocks]
        signs_at = _sign_oracle(pp.factors, (c for cfg, _ in blocks
                                             for p in cfg.points for c in p))
        for combo in itertools.product(*(range(cfg.n) for cfg, _ in blocks)):
            point = tuple(itertools.chain.from_iterable(
                blocks[b][0].points[i] for b, i in enumerate(combo)))
            signs = signs_at(point)
            if 0 in signs:
                boundary += 1
                continue
            keys = tuple(block_assigns[b][i] for b, i in enumerate(combo))
            census[keys] = census.get(keys, 0) + 1
        if census != pp.grid_census or boundary != pp.boundary_count:
            raise AssertionError("grid census mismatch")
    else:
        recount = {}
        keysets = [list(p.cell_census.items()) for p in pp.blocks]
        for combo in itertools.product(*keysets):
            key = tuple(k for k, _ in combo)
            recount[key] = math.prod(c for _, c in combo)
        if recount != pp.grid_census:
            raise AssertionError("grid census mismatch")
    return True


# ---------------------------------------------------------------------------
# sign patterns and the incidence trichotomy


def sign_pattern_count(polys: Sequence[MultiPoly], P: PointConfig) -> int:
    """Distinct sign vectors of the polynomial list over the points; a
    lower bound on the number of realizable sign patterns."""
    if any(f.num_vars != P.dim for f in polys):
        raise ValueError("arity mismatch")
    seen = set()
    for p in P.points:
        seen.add(tuple(f.sign_at(p) for f in polys))
    return len(seen)


@dataclass(frozen=True)
class IncidenceTriple:
    i1: int
    i2: int
    i3: int
    per_cell: dict

    @property
    def total(self) -> int:
        return self.i1 + self.i2 + self.i3


def classify_incidences(cell_assignment: Sequence[Optional[Hashable]],
                        membership: Sequence[Sequence[bool]]) -> IncidenceTriple:
    """Split incidences (set, point) into the proof's three classes.

    cell_assignment: per grid point, its cell key or None when the point
    lies on the partitioning zero set.  membership[s][p] says whether set
    s contains grid point p.  Finite-cell semantics: a set "contains" a
    cell iff it contains every grid point of the cell.

      I1: incidences at points on the zero set
      I2: incidences inside cells fully contained in the set
      I3: incidences inside cells the set properly crosses

    The three classes partition all incidences; the constructor double
    checks I1+I2+I3 against the membership total.
    """
    npts = len(cell_assignment)
    cells: dict[Hashable, list[int]] = {}
    on_zero: list[int] = []
    for p, key in enumerate(cell_assignment):
        if key is None:
            on_zero.append(p)
        else:
            cells.setdefault(key, []).append(p)
    i1 = i2 = i3 = 0
    total = 0
    per_cell: dict[Hashable, list[int]] = {k: [0, 0] for k in cells}
    for row in membership:
        if len(row) != npts:
            raise ValueError("membership table does not cover all points")
        total += sum(1 for x in row if x)
        i1 += sum(1 for p in on_zero if row[p])
        for key, pts in cells.items():
            cnt = sum(1 for p in pts if row[p])
            if cnt == 0:
                continue
            if cnt == len(pts):
                i2 += cnt
                per_cell[key][0] += cnt
            else:
                i3 += cnt
                per_cell[key][1] += cnt
    if i1 + i2 + i3 != total:
        raise AssertionError("incidence classes do not add up")
    return IncidenceTriple(i1, i2, i3, {k: tuple(v) for k, v in per_cell.items()})
