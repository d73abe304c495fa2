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
point on cleared integers (O(n^2 log n)).  The sweep sorts the
directions from every point once per partition; the second line level
reads those angular ranks at its active points instead of sorting again.
Otherwise, or when no such line is acceptable, it fits a polynomial by
soft-sign Gauss-Newton in the monomial basis, seeded from lifted-point
subsets.  Every search hands back an exact `MultiPoly` (or None), and one
gate, `_ExactEvaluator.signs`, clears it and decides its signs, so a
returned partition is correct regardless of how the search behaved.  The
gate evaluates the cleared polynomial in floats first, with a forward
error bound on the result: a point whose float value clears the bound
takes its sign from it, and the rest (points on the zero set among them,
and every point when a coordinate or the common denominator is past the
float range) are decided by the exact python-int sum.
`verify_partition`, `verify_product_partition` (on the materialised
grid, at every size) and `sign_pattern_count` take their signs from one
independent oracle, `_sign_oracle`, which sums python ints read from the
stored integers and builds no `Fraction`.  From those signs
`verify_partition` checks the factor count, every level's side bounds
(counted per part on the (n, levels) sign array with `np.unique` and
`np.bincount`), the census and the cell bound.
The searches share one candidate budget, `_CANDIDATE_BUDGET` per
partition, and consume candidates in a seeded canonical order, so results
are reproducible.  Linear-time ham-sandwich cuts (Lo, Matousek and
Steiger, DCG 1994) would serve larger n at the two line levels.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Optional, Sequence

import numpy as np

from .geometry import PointConfig
from .polynomials import MultiPoly, monomials_upto, poly_space_dim


class PartitionSearchError(Exception):
    """A level found no acceptable factor or the candidate budget ran out;
    carries the factors of the levels before it."""

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
        return [None if 0 in sv else sv for sv in self.signs]


def level_degree(dim: int, level: int) -> int:
    """Smallest D whose polynomial space (minus constants) has dimension
    at least 2^level; the degree cap for the level's factor."""
    D = 1
    while poly_space_dim(dim, D) - 1 < 2 ** level:
        D += 1
    return D


# ---------------------------------------------------------------------------
# exact sign evaluation on cleared integers


# the float filter sends a call with a scaled coefficient below this
# (the least normal float) to the exact sum
_FLOAT_NORMAL = 2.0 ** -1022


class _ExactEvaluator:
    """Signs of rational polynomials at rational points, decided exactly.

    Points are scaled by their common denominator L (the configuration's
    `common_denominator`), giving integer points X.  A polynomial of
    degree D is cleared by the lcm of its coefficient denominators into
    integer coefficients C_e over the V monomials `monomials_upto(dim, D)`,
    and
        sign g(x) = sign v,   v = sum_e C_e * X^e * L^(D - |e|).
    This is the one place where a factor's integer form is made.

    A float filter decides most signs.  Per degree the evaluator keeps one
    table T[i, e] = fl(X_i)^e * fl(L)^(D - |e|), each entry a product of D
    correctly rounded factors formed by D - 1 float multiplications.  A
    call scales the coefficients to c_e = C_e / 2^s, correctly rounded,
    with 2^s the least power of two above every |C_e| (so ints past the
    float range convert), and computes w = T[idx] @ c and S = |T[idx]| @
    |c|.  With u = 2^-53 and gamma_k = k u / (1 - k u): input rounding
    and the table products put each entry within gamma_2D of its true
    value, each coefficient is within u, and a dot product of V terms in
    any summation order is within gamma_V of the sum of its terms'
    magnitudes, which S underestimates by at most gamma_V.  So
    |w - v / 2^s| <= (V + 2D) u S to first order, and a point's sign is
    read off w when w is finite and |w| > (V + 2D + 2) 2^-52 S; the
    factor of two covers the higher-order terms and the rounding of the
    test itself.  The other points, those on the zero set among them, get
    the exact python-int sum, whose integer terms are formed for those
    points only.  So does every point of a call whose table has a
    non-finite entry (coordinates or L past the float range) or whose
    scaled coefficients leave the normal float range.

    At d = 2 the evaluator also keeps the line sweep's dense angular
    ranks of every point seen from every other (`sweep_order`), built on
    first use and read by every line level.
    """

    def __init__(self, P: PointConfig):
        L, X = P.common_denominator()
        self.dim = P.dim
        self.n = P.n
        self.L = L
        self.coords = X
        self.X = X.tolist()
        self._tables: dict[int, tuple[list, Optional[np.ndarray]]] = {}
        self._sweep: Optional[tuple[np.ndarray, np.ndarray]] = None

    @functools.cached_property
    def points_f(self) -> np.ndarray:
        """The points as floats; x / L is correctly rounded, so each
        equals float() of its coordinate."""
        return np.array([[x / self.L for x in p] for p in self.X])

    def _table(self, degree: int) -> tuple[list, Optional[np.ndarray]]:
        """The degree's monomials and float table, None when an entry is
        not a finite float."""
        if degree not in self._tables:
            monos = monomials_upto(self.dim, degree)
            try:
                Xf = self.coords.astype(float)
                Lf = float(self.L)
            except OverflowError:
                table = None
            else:
                table = np.ones((self.n, len(monos)))
                with np.errstate(over="ignore", invalid="ignore"):
                    for col, e in enumerate(monos):
                        for axis, p in enumerate(e):
                            for _ in range(p):
                                table[:, col] *= Xf[:, axis]
                        for _ in range(degree - sum(e)):
                            table[:, col] *= Lf
                if not np.isfinite(table).all():
                    table = None
            self._tables[degree] = monos, table
        return self._tables[degree]

    def signs(self, poly: MultiPoly, idx: Sequence[int]) -> np.ndarray:
        """Signs (int8: -1, 0, +1) of `poly` at the points idx."""
        monos, table = self._table(poly.degree)
        k = math.lcm(*(c.denominator for c in poly.terms.values()))
        ints = [0] * len(monos)
        for e, c in poly.terms.items():
            ints[monos.index(e)] = c.numerator * (k // c.denominator)
        idx = np.asarray(idx, dtype=np.intp)
        out = np.zeros(len(idx), dtype=np.int8)
        s = max(map(abs, ints)).bit_length()
        coeffs = np.array([c / (1 << s) for c in ints])
        if table is None or any(c and abs(f) < _FLOAT_NORMAL
                                for c, f in zip(ints, coeffs)):
            undecided = np.arange(len(idx))
        else:
            rows = table[idx]
            with np.errstate(over="ignore", invalid="ignore"):
                w = rows @ coeffs
                bound = (np.abs(rows) @ np.abs(coeffs)) \
                    * ((len(monos) + 2 * poly.degree + 2) * 2.0 ** -52)
            # False for a NaN or infinite w and for an infinite bound
            sure = (np.abs(w) > bound) & np.isfinite(w)
            out[sure] = np.sign(w[sure])
            undecided = np.flatnonzero(~sure)
        if len(undecided):
            terms = [(c * self.L ** (poly.degree - sum(e)), e)
                     for c, e in zip(ints, monos) if c]
            out[undecided] = self._exact_signs(terms, idx[undecided])
        return out

    def _exact_signs(self, terms, idx) -> list[int]:
        """Signs of sum (C_e L^(D - |e|)) X^e by python ints at the points
        idx; `terms` holds the nonzero (C_e L^(D - |e|), e)."""
        out = []
        for i in idx:
            X = self.X[i]
            v = 0
            for c, e in terms:
                for x, p in zip(X, e):
                    if p:
                        c *= x ** p
                v += c
            out.append((v > 0) - (v < 0))
        return out

    def sweep_order(self) -> tuple[np.ndarray, np.ndarray]:
        """The d = 2 line sweep's orders of the points, built on first use.

        ranks[a, t] is the dense rank of the direction from point a to
        point t among all directions from a, folded into the angles
        [0, pi) (`_angular_ranks`), built in blocks of about `_SWEEP_BLOCK`
        directions and stored as int16 below 2^15 points, int32 otherwise.
        lex[t] is the dense rank of point t in (y, x) order, so the
        direction from a to t is folded exactly when lex[t] < lex[a] and is
        zero exactly when lex[t] == lex[a].  Ranks read at any subset of
        the points keep their order and their ties, which is all the sweep
        needs."""
        if self._sweep is None:
            n = self.n
            by_yx = sorted(range(n), key=lambda i: self.X[i][::-1])
            lex = np.empty(n, dtype=np.intp)
            rank = -1
            for pos, i in enumerate(by_yx):
                if not pos or self.X[i] != self.X[by_yx[pos - 1]]:
                    rank += 1
                lex[i] = rank
            # coordinates less their minima: int64 while 2x2 cross
            # products of differences stay inside int64, else python ints;
            # `shift` drops low bits from the float angle keys only, so
            # that huge python ints still convert
            cols = [[row[c] for row in self.X] for c in (0, 1)]
            lows = [min(col) for col in cols]
            span = max(max(col) - lo for col, lo in zip(cols, lows))
            dtype = np.int64 if span < _INT64_SPAN else object
            ax, ay = (np.array([v - lo for v in col], dtype=dtype)
                      for col, lo in zip(cols, lows))
            shift = max(0, span.bit_length() - 1000)
            ranks = np.empty((n, n), dtype=np.int16 if n < 2 ** 15
                             else np.int32)
            block = max(1, _SWEEP_BLOCK // n)
            for lo in range(0, n, block):
                anchors = np.arange(lo, min(lo + block, n))
                flip = lex[None, :] < lex[anchors, None]
                fx = ax[None, :] - ax[anchors, None]
                fy = ay[None, :] - ay[anchors, None]
                np.negative(fx, out=fx, where=flip)
                np.negative(fy, out=fy, where=flip)
                ranks[anchors] = _angular_ranks(fx, fy, shift)[0]
            self._sweep = ranks, lex
        return self._sweep


def _rationalize_coeffs(coeffs: np.ndarray, shifts: Sequence[int],
                        monos: Sequence[tuple[int, ...]]) -> MultiPoly:
    """Scaled float coefficients -> the exact polynomial they define,
    cleared to integer coefficients (which is what gets verified and kept).

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
    return MultiPoly(len(monos[0]), {e: f * lcm for e, f in zip(monos, fracs)})


# ---------------------------------------------------------------------------
# level search


def _side_limits(parts: Sequence[Sequence[int]], slack: int) -> list[int]:
    return [-(-len(p) // 2) + slack for p in parts]


def _accept(signs_by_part, limits) -> bool:
    return all(np.count_nonzero(signs > 0) <= limit
               and np.count_nonzero(signs < 0) <= limit
               for signs, limit in zip(signs_by_part, limits))


# direction components below this keep 2x2 cross products inside int64
_INT64_SPAN = 2 ** 31
# anchors swept at once: about this many directions per block
_SWEEP_BLOCK = 2 ** 18
# starts of the soft-sign fit per level
_SOFT_SIGN_RESTARTS = 64
# candidates (lines and soft-sign starts) tried per partition
_CANDIDATE_BUDGET = 500_000


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


def _active(parts, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The points of the parts in increasing order, and each one's part."""
    label = np.full(n, -1, dtype=np.intp)
    for p, part in enumerate(parts):
        label[part] = p
    act = np.flatnonzero(label >= 0)
    return act, label[act]


def _anchor_sides(evaluator: _ExactEvaluator, parts):
    """Rotational sweep around every active point, on the evaluator's
    integer points.

    Active points are numbered 0..m-1 in increasing index order.  Yields
    (anchors, on_anchor, left, right) per block of anchors: left[b, p, t] /
    right[b, p, t] count the points of part p strictly left / right of the
    directed line from anchor anchors[b] through active point t; points
    on the line count on neither side.  on_anchor[b, t] marks the points
    equal to the anchor, which span no line (their counts mean nothing).

    The directions from an anchor are folded into one half-plane and
    ranked by angle; the ranks are the evaluator's `sweep_order` of all
    points, read at the active ones.  A point of rank r, folded or not,
    lies on a side of the line of rank R fixed by the sign of r - R, so
    prefix sums of a per-part, per-half rank histogram give every line's
    counts.  O(m log m) per anchor for the first sweep of a partition,
    O(n) per anchor after it."""
    act, labels = _active(parts, evaluator.n)
    m = len(act)
    ranks, lex = evaluator.sweep_order()
    n = len(ranks)  # rank bins
    lex = lex[act]
    groups = 2 * len(parts)  # (part, folded); copies of the anchor go past
    block = max(1, _SWEEP_BLOCK // m)
    for lo in range(0, m, block):
        anchors = np.arange(lo, min(lo + block, m))
        flip = lex[None, :] < lex[anchors, None]
        on_anchor = lex[None, :] == lex[anchors, None]
        rank = ranks[act[anchors]][:, act]
        group = np.where(on_anchor, groups, 2 * labels + flip)
        rows = np.arange(len(anchors))[:, None]
        hist = np.bincount(((rows * (groups + 1) + group) * n + rank).ravel(),
                           minlength=len(anchors) * (groups + 1) * n)
        hist = hist.reshape(len(anchors), groups + 1, n)
        unfolded, folded = hist[:, 0:groups:2], hist[:, 1:groups:2]
        # per bin: folded less unfolded points of rank at most the bin's
        net = np.cumsum(folded - unfolded, axis=2)
        at = (rows[:, None] * len(parts) + np.arange(len(parts))[:, None]) * n \
            + rank[:, None, :]
        # left of an unfolded direction of rank R: unfolded points above R
        # and folded points below it; a folded partner reverses the line
        ccw = unfolded.sum(axis=2, keepdims=True) + np.take(net - folded, at)
        cw = folded.sum(axis=2, keepdims=True) - np.take(net + unfolded, at)
        flip = flip[:, None, :]
        yield anchors, on_anchor, np.where(flip, cw, ccw), \
            np.where(flip, ccw, cw)


def _search_line(parts, limits, evaluator, counter) -> Optional[MultiPoly]:
    """Exact search over the lines through two active points.

    Each line's score is its worst side count over the parts, counted
    exactly by the rotational sweep of `_anchor_sides` on the evaluator's
    cleared integers (O(n^2 log n)).  The candidate pairs come in blocks:
    with two parts, the pairs across them (first point in parts[0]), then
    the pairs inside parts[0], then inside parts[1]; with one part, its
    pairs; inside a part the first point has the lower index.  Pairs whose
    score is within the largest side limit are kept as the sweep yields
    them and tried by increasing score, then block, first and second
    point; each counts against the budget and passes the exact sign gate
    before it is accepted, so the accepted cut is the most balanced
    acceptable one.  A pair of coincident points spans no line: it scores
    0 and is skipped.  Deterministic for a fixed input."""
    active, labels = _active(parts, evaluator.n)
    if len(active) < 2:
        return None
    kept = []
    for anchors, on_anchor, left, right in _anchor_sides(evaluator, parts):
        score = np.where(on_anchor, 0, np.maximum(left, right).max(axis=1))
        row, second = np.nonzero(score <= max(limits))
        first = anchors[row]
        la, lb = labels[first], labels[second]
        # each line once: across the parts from parts[0], inside a part
        # from its lower point
        own = (la < lb) | ((la == lb) & (first < second))
        kept.append((score[row, second][own],
                     np.where(la == lb, 1 + la, 0)[own],
                     first[own], second[own]))
    score, block, first, second = map(np.concatenate, zip(*kept))
    X, L = evaluator.X, evaluator.L
    for cand in np.lexsort((second, first, block, score)):
        counter[0] += 1
        if counter[0] > _CANDIDATE_BUDGET:
            raise PartitionSearchError("candidate budget exhausted")
        (xp, yp), (xq, yq) = X[active[first[cand]]], X[active[second[cand]]]
        if (xp, yp) == (xq, yq):
            continue
        a, b = Fraction(yp - yq, L), Fraction(xq - xp, L)
        poly = MultiPoly(2, {(0, 0): -(a * xp + b * yp) / L, (1, 0): a,
                             (0, 1): b})
        if _accept([evaluator.signs(poly, pp) for pp in parts], limits):
            return poly
    return None


def _search_soft_sign(parts, limits, degree, evaluator, rng,
                      counter) -> Optional[MultiPoly]:
    """Annealed soft-sign Gauss-Newton in the degree-<=D monomial basis.

    Minimizes the per-part sums of tanh(g/h) while h shrinks; float
    near-balance is then checked exactly.  Starts alternate between
    random directions and null vectors of lifted point subsets.
    """
    points_f = evaluator.points_f
    monos = monomials_upto(evaluator.dim, degree)
    V = len(monos)
    pts_active, _ = _active(parts, evaluator.n)
    if not len(pts_active):
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

    def float_pass(c) -> bool:
        vals = M @ c
        tol = 1e-7 * (np.max(np.abs(vals[pts_active])) + 1e-30)
        for rows, limit in zip(parts, limits):
            v = vals[rows]
            if (np.count_nonzero(v > tol) > limit
                    or np.count_nonzero(v < -tol) > limit):
                return False
        return True

    def exact_check(c) -> Optional[MultiPoly]:
        poly = _rationalize_coeffs(c, shifts, monos)
        if poly.terms and _accept([evaluator.signs(poly, rows)
                                   for rows in parts], limits):
            return poly
        return None

    for attempt in range(_SOFT_SIGN_RESTARTS):
        counter[0] += 1
        if counter[0] > _CANDIDATE_BUDGET:
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
            F = np.array([t[rows].sum() for rows in parts])
            W = (1.0 - t * t) / h
            J = np.stack([(W[rows, None] * M[rows]).sum(axis=0)
                          for rows in parts])
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


def _cut_1d(xs: np.ndarray, L: int) -> Fraction:
    """The median cut of the values xs / L, given by their integer
    numerators: midway between the two middle values, or one below a
    single value."""
    vs = np.sort(xs)
    s = len(vs)
    if s == 1:
        return Fraction(int(vs[0]) - L, L)
    mid = -(-s // 2)  # ceil(s/2)
    return Fraction(int(vs[mid - 1]) + int(vs[mid]), 2 * L)


def stone_tukey_partition(P: PointConfig, r: int, seed: int = 0,
                          slack: int = 1) -> Partition:
    """Partition P with ceil(log2 r) factor polynomials so that every
    sign-vector cell holds at most ceil(|P|/r) * (1+slack)^levels points
    (verified on the result, along with the per-level side bounds).

    d = 1 uses exact quantile cuts (slack 0 suffices); d >= 2 fits
    soft-sign polynomials under the level degree cap, after, at d = 2 with
    at most two parts, the exact line search (`_search_line`); exact
    verification gates every acceptance.  Raises PartitionSearchError
    (carrying the partial factors) when a level finds no acceptable
    factor or the searches try more than `_CANDIDATE_BUDGET` candidates.
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

    factors: list[MultiPoly] = []
    levels: list[LevelReport] = []
    sign_cols = np.zeros((n, m), dtype=np.int8)
    parts: list[np.ndarray] = [np.arange(n)]
    counter = [0]

    for level in range(1, m + 1):
        cap = level_degree(d, level)
        limits = _side_limits(parts, slack)
        if not parts:
            # everything already on some zero set: any factor verifies
            low = int(evaluator.coords[:, 0].min())
            poly = MultiPoly.linear([Fraction(1)] + [Fraction(0)] * (d - 1),
                                    -Fraction(low - evaluator.L, evaluator.L))
        elif d == 1:
            poly = MultiPoly.constant(1, 1)
            for part in parts:
                cval = _cut_1d(evaluator.coords[part, 0], evaluator.L)
                poly = poly * MultiPoly(1, {(1,): Fraction(1), (0,): -cval})
        else:
            try:
                poly = None
                if d == 2 and len(parts) <= 2:
                    poly = _search_line(parts, limits, evaluator, counter)
                if poly is None:
                    poly = _search_soft_sign(parts, limits, cap, evaluator,
                                             rng, counter)
            except PartitionSearchError as err:
                raise PartitionSearchError(str(err), factors) from None
            if poly is None:
                raise PartitionSearchError(
                    f"no acceptable factor at level {level}", factors)
        all_signs = evaluator.signs(poly, np.arange(n))
        sign_cols[:, level - 1] = all_signs
        new_parts = []
        max_side = 0
        for part in parts:
            for side in (part[all_signs[part] > 0], part[all_signs[part] < 0]):
                max_side = max(max_side, len(side))
                if len(side):
                    new_parts.append(side)
        levels.append(LevelReport(level, poly.degree, cap, len(parts),
                                  max_side, max(limits, default=0),
                                  counter[0]))
        parts = new_parts
        factors.append(poly)

    signs = tuple(map(tuple, sign_cols.tolist()))
    census = dict(collections.Counter(sv for sv in signs if 0 not in sv))
    boundary = n - sum(census.values())
    bound = (-(-n // r)) * (1 + slack) ** m
    part_obj = Partition(d, r, slack, tuple(factors), signs, census,
                         boundary, bound, levels)
    if part_obj.max_cell > bound:
        raise PartitionSearchError(
            f"cell bound violated: {part_obj.max_cell} > {bound}", factors)
    return part_obj


def _sign_oracle(polys: Sequence[MultiPoly], numerators,
                 denominators) -> np.ndarray:
    """The (n, len(polys)) int8 signs of `polys` at the points
    numerators[i] / denominators[i], independent of the search's evaluator.

    With L the lcm of the denominators and X = numerators * (L //
    denominator), a factor f of degree D whose coefficients are cleared by
    the lcm k of their denominators has
        sign f(x) = sign sum_e (k c_e) L^(D - |e|) X^e,
    summed column-wise on object arrays of python ints."""
    dens = np.asarray(denominators).astype(object)
    L = math.lcm(*set(dens.tolist()))
    X = np.asarray(numerators).astype(object) * (L // dens)[:, None]
    top = max((f.degree for f in polys), default=0)
    powers = [[x ** p for p in range(top + 1)] for x in X.T]
    out = np.empty((len(X), len(polys)), dtype=np.int8)
    for j, f in enumerate(polys):
        k = math.lcm(*(c.denominator for c in f.terms.values()))
        v = np.zeros(len(X), dtype=object)
        for e, c in f.terms.items():
            v += math.prod((powers[t][p] for t, p in enumerate(e) if p),
                           start=c.numerator * (k // c.denominator)
                           * L ** (f.degree - sum(e)))
        out[:, j] = (v > 0).astype(np.int8) - (v < 0)
    return out


def verify_partition(P: PointConfig, part: Partition) -> bool:
    """Independent pass: recompute every sign with `_sign_oracle` on the
    stored integers `P.numerators` and `P.denominators`, and check from
    those signs the contract `stone_tukey_partition` promises.

    There must be max(1, ceil(log2 r)) factors and one sign vector per
    point, equal to the recomputed one.  At every level j each part (a
    class of points with the same nonzero signs under the first j - 1
    factors) has at most ceil(|part| / 2) + slack points on either side
    of factor j.  The census and the boundary count must match, and no
    cell may exceed ceil(n / r) * (1 + slack)^levels, which must be the
    stated cell bound.  Each failure raises an AssertionError that names
    it."""
    levels = max(1, math.ceil(math.log2(part.target_r)))
    if len(part.factors) != levels:
        raise AssertionError(f"factor count {len(part.factors)} != {levels} "
                             f"for r = {part.target_r}")
    if len(part.signs) != P.n:
        raise AssertionError(f"sign list length {len(part.signs)} != "
                             f"{P.n} points")
    table = _sign_oracle(part.factors, P.numerators, P.denominators)
    signs = list(map(tuple, table.tolist()))
    for idx, (sv, stored) in enumerate(zip(signs, part.signs)):
        if sv != stored:
            raise AssertionError(f"sign mismatch at point {idx}")
    census = collections.Counter(sv for sv in signs if 0 not in sv)
    # The rows with no zero among the signs of the levels so far, in point
    # order, and a key per row that is equal exactly within a part.
    rows, keys = table, np.zeros(P.n, dtype=np.int64)
    for level in range(levels):
        _, first, group = np.unique(keys, return_index=True,
                                    return_inverse=True)
        side = rows[:, level]
        plus = np.bincount(group[side > 0], minlength=len(first))
        minus = np.bincount(group[side < 0], minlength=len(first))
        limit = -(-np.bincount(group, minlength=len(first)) // 2) + part.slack
        worst = np.maximum(plus, minus)
        bad = np.flatnonzero(worst > limit)
        if bad.size:
            # The part whose first point comes first, as a point loop finds it.
            g = bad[np.argmin(first[bad])]
            prefix = tuple(rows[first[g], :level].tolist())
            raise AssertionError(f"level {level + 1} side count {worst[g]} > "
                                 f"{limit[g]} in part {prefix}")
        kept = side != 0
        rows, keys = rows[kept], 2 * group[kept] + (side[kept] > 0)
    if census != part.cell_census \
            or P.n - census.total() != part.boundary_count:
        raise AssertionError("census mismatch")
    bound = -(-P.n // part.target_r) * (1 + part.slack) ** levels
    if part.cell_bound != bound:
        raise AssertionError(f"cell bound {part.cell_bound} != {bound}")
    if part.max_cell > bound:
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

    def grid_cell_assignment(self) -> list[Optional[tuple]]:
        """Cell key per grid point (canonical product order), None on Z(h)."""
        return [None if None in keys else keys for keys in
                itertools.product(*(b.cell_assignment() for b in self.blocks))]


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
    parts = [_trivial_partition(cfg) if r <= 1 else
             stone_tukey_partition(cfg, r, seed=seed + bi, slack=slack)
             for bi, (cfg, r) in enumerate(blocks)]
    dims = tuple(cfg.dim for cfg, _ in blocks)
    factors = [f.shift_vars(offset, sum(dims)) for p, offset in
               zip(parts, itertools.accumulate(dims, initial=0))
               for f in p.factors]
    census = {tuple(k for k, _ in combo): math.prod(c for _, c in combo)
              for combo in itertools.product(*(p.cell_census.items()
                                               for p in parts))}
    n_grid = math.prod(cfg.n for cfg, _ in blocks)
    boundary = n_grid - sum(census.values())
    bound = math.prod(-(-cfg.n // max(r, 1)) for cfg, r in blocks)
    bound *= (1 + slack) ** sum(len(p.factors) for p in parts
                                if p.target_r > 1)
    pp = ProductPartition(tuple(parts), dims, tuple(factors), census,
                          boundary, bound)
    if pp.max_cell > bound:
        raise PartitionSearchError("grid cell bound violated")
    return pp


def verify_product_partition(blocks: Sequence[tuple[PointConfig, int]],
                             pp: ProductPartition) -> bool:
    """Independent verification on the materialised grid, at every size.

    The block count and `block_dims` must match, and every block with
    target r > 1 must pass `verify_partition`.  `_sign_oracle` signs every
    factor at every grid point (canonical product order); each sign must
    be the stored sign of the factor's block there.  The boundary count
    is recounted on the grid, and the census from the blocks' cell keys.
    The cell bound must be prod ceil(n_b / max(r_b, 1)) * prod over r_b > 1
    of (1 + slack_b)^(block b's factor count), and no cell may exceed it.
    Each failure raises an AssertionError that names it."""
    if len(pp.blocks) != len(blocks):
        raise AssertionError(f"block count {len(pp.blocks)} != "
                             f"{len(blocks)}")
    dims = tuple(cfg.dim for cfg, _ in blocks)
    if pp.block_dims != dims:
        raise AssertionError(f"block dims {pp.block_dims} != {dims}")
    for (cfg, _), block in zip(blocks, pp.blocks):
        if block.target_r > 1:
            verify_partition(cfg, block)
    sizes = tuple(cfg.n for cfg, _ in blocks)
    n_grid = math.prod(sizes)
    grid = np.indices(sizes).reshape(len(sizes), n_grid)
    L = math.lcm(*{q for cfg, _ in blocks for q in cfg.denominators.tolist()})
    widths = [len(block.factors) for block in pp.blocks]
    if len(pp.factors) != sum(widths):
        raise AssertionError(f"grid factor count {len(pp.factors)} != "
                             f"{sum(widths)}")
    nums = [np.zeros((n_grid, 0), dtype=object)]
    want = [np.zeros((n_grid, 0), dtype=np.int8)]
    for (cfg, _), block, width, at in zip(blocks, pp.blocks, widths, grid):
        scale = L // cfg.denominators.astype(object)
        nums.append((cfg.numerators.astype(object) * scale[:, None])[at])
        want.append(np.array(block.signs, dtype=np.int8)
                    .reshape(cfg.n, width)[at])
    signs = _sign_oracle(pp.factors, np.concatenate(nums, axis=1),
                         np.full(n_grid, L, dtype=object))
    wrong = np.flatnonzero((signs != np.concatenate(want, axis=1))
                           .any(axis=1))
    if len(wrong):
        raise AssertionError(f"grid sign mismatch at grid point {wrong[0]}")
    # the stored block signs are the grid's signs, so the grid points off
    # the zero set with cell keys (k_1, ..., k_B) number prod_b #{k_b}
    counts = [collections.Counter(b.cell_assignment()) for b in pp.blocks]
    census = {keys: math.prod(c[k] for c, k in zip(counts, keys))
              for keys in itertools.product(*(c.keys() - {None}
                                              for c in counts))}
    boundary = np.count_nonzero((signs == 0).any(axis=1))
    if census != pp.grid_census or boundary != pp.boundary_count:
        raise AssertionError("grid census mismatch")
    bound = math.prod(-(-cfg.n // max(r, 1)) for cfg, r in blocks)
    bound *= math.prod((1 + block.slack) ** len(block.factors)
                       for (_, r), block in zip(blocks, pp.blocks) if r > 1)
    if pp.cell_bound != bound:
        raise AssertionError(f"grid cell bound {pp.cell_bound} != {bound}")
    if pp.max_cell > bound:
        raise AssertionError("grid cell bound violated")
    return True


# ---------------------------------------------------------------------------
# sign patterns and the incidence trichotomy


def sign_pattern_count(polys: Sequence[MultiPoly], P: PointConfig) -> int:
    """Distinct sign vectors of the polynomial list over the points; a
    lower bound on the number of realizable sign patterns."""
    if any(f.num_vars != P.dim for f in polys):
        raise ValueError("arity mismatch")
    signs = _sign_oracle(polys, P.numerators, P.denominators)
    return len(np.unique(signs, axis=0))


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
