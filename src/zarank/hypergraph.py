"""k-partite k-uniform hypergraphs and their combinatorial machinery.

Edges are k-tuples taking one 0-based vertex index per part, stored as
the rows of a sorted integer array.  Hypergraphs are immutable after
construction; detection and search routines count
their work against an explicit budget and fail loudly (BudgetExceededError)
rather than run unbounded.

The text file format is: line 1 `k p1 p2 ... pk`, then one edge per line
as k space-separated 0-based indices.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np


class BudgetExceededError(Exception):
    """A configured search budget ran out."""


def _first_of_runs(a: np.ndarray) -> np.ndarray:
    """Mask of the entries (rows, for a 2-d array) of a sorted array that
    differ from the one before them."""
    new = np.ones(len(a), dtype=bool)
    diff = a[1:] != a[:-1]
    new[1:] = diff.any(axis=1) if a.ndim > 1 else diff
    return new


def _row_codes(a: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """int64 codes of the rows of `a`, column i in range(sizes[i]), that
    compare as the rows do lexicographically: mixed-radix codes, or the
    rows' ranks when those codes would not fit int64."""
    if math.prod(sizes) < 2**63:
        strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
        return a @ np.array(strides, dtype=np.int64)
    order = np.lexsort(a.T[::-1])
    ranks = np.empty(len(a), dtype=np.int64)
    ranks[order] = np.cumsum(_first_of_runs(a[order])) - 1
    return ranks


def _edge_error(edges, sizes: tuple[int, ...]) -> ValueError:
    """The error for the first edge of `edges` that is not a k-tuple of
    indices inside its parts."""
    k = len(sizes)
    for e in edges:
        e = tuple(e)
        if len(e) != k:
            return ValueError(f"edge {e} has arity {len(e)}, expected {k}")
        for i, v in enumerate(e):
            if not 0 <= v < sizes[i]:
                return ValueError(f"edge {e}: index {v} out of part {i}")
    return ValueError(f"edges must be {k}-tuples of integers")


@dataclass(frozen=True, eq=False, repr=False)
class KPartiteHypergraph:
    """A k-partite k-uniform hypergraph, backed by `rows`: its edges as a
    read-only, lexicographically sorted (E, k) int64 array without
    repeats.  The constructor takes the edges as an (E, k) integer array
    or an iterable of k-sequences; repeated edges count once.  `edges`,
    the same edges as a frozenset of tuples, is made when something
    first reads it."""

    part_sizes: tuple[int, ...]
    rows: np.ndarray
    _edges: Optional[frozenset] = field(default=None, init=False)

    def __post_init__(self):
        sizes = tuple(self.part_sizes)
        k = len(sizes)
        if k < 1:
            raise ValueError("need at least one part")
        if any(s < 0 for s in sizes):
            raise ValueError("part sizes must be nonnegative")
        edges = self.rows
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            rows = np.asarray(edges)
        except ValueError:  # edges of different lengths
            raise _edge_error(edges, sizes) from None
        if rows.size == 0:
            rows = np.zeros((0, k), dtype=np.int64)
        if rows.dtype.kind not in "iu" or rows.shape[1:] != (k,):
            raise _edge_error(edges, sizes)
        tops = np.array([min(s, 2**63 - 1) for s in sizes], dtype=np.int64)
        if ((rows < 0) | (rows >= tops)).any():
            raise _edge_error(rows.tolist(), sizes)
        rows = rows.astype(np.int64, copy=False)
        code = _row_codes(rows, sizes)
        order = np.argsort(code)
        rows = rows[order[_first_of_runs(code[order])]]
        rows.flags.writeable = False
        object.__setattr__(self, "part_sizes", sizes)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def build(cls, part_sizes: Sequence[int], edges) -> "KPartiteHypergraph":
        return cls(part_sizes, edges)

    @property
    def edges(self) -> frozenset[tuple[int, ...]]:
        if self._edges is None:
            object.__setattr__(self, "_edges",
                               frozenset(map(tuple, self.rows.tolist())))
        return self._edges

    @property
    def k(self) -> int:
        return len(self.part_sizes)

    @property
    def num_edges(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, KPartiteHypergraph):
            return NotImplemented
        return (self.part_sizes == other.part_sizes
                and np.array_equal(self.rows, other.rows))

    def __hash__(self):
        return hash((self.part_sizes, self.rows.tobytes()))

    def __repr__(self):
        return (f"KPartiteHypergraph(part_sizes={self.part_sizes}, "
                f"num_edges={self.num_edges})")

    def neighborhood(self, part: int, others: Sequence[int]) -> set[int]:
        """Vertices v of `part` completing `others` (the tuple of vertices
        in every part except `part`, in part order) to an edge."""
        if len(others) != self.k - 1:
            raise ValueError("need one vertex for every other part")
        out = set()
        for v in range(self.part_sizes[part]):
            e = tuple(others[:part]) + (v,) + tuple(others[part:])
            if e in self.edges:
                out.add(v)
        return out

    def to_text(self) -> str:
        lines = [" ".join(str(x) for x in (self.k,) + self.part_sizes)]
        lines.extend(" ".join(map(str, e)) for e in self.rows.tolist())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "KPartiteHypergraph":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty input")
        head = lines[0].split()
        k = int(head[0])
        sizes = tuple(int(x) for x in head[1:])
        if len(sizes) != k:
            raise ValueError("header part count mismatch")
        edges = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
        return cls.build(sizes, edges)


@dataclass(frozen=True)
class ForbiddenPattern:
    """The complete pattern K_{u_1,...,u_k} searched for."""

    u: tuple[int, ...]

    def __post_init__(self):
        if any(x < 1 for x in self.u):
            raise ValueError("pattern class sizes must be >= 1")

    @property
    def k(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class DetectionResult:
    found: bool
    witness: Optional[tuple[tuple[int, ...], ...]]
    tests: int


def contains_complete(H: KPartiteHypergraph, pat: ForbiddenPattern,
                      budget: int = 10**8) -> DetectionResult:
    """Search for a complete K_{u_1,...,u_k} subhypergraph.

    Returns found/witness; the witness classes U_i are u_i distinct
    vertices of part i such that every transversal tuple is an edge.
    Exhaustive branch-and-bound: parts are processed in order of
    decreasing u_i, vertices below the necessary degree are pruned, and
    work is counted against `budget`, one unit per candidate class tried
    (raising BudgetExceededError when it runs out, never returning a
    silently wrong answer); `tests` is the units spent.

    It works on the edge array `H.rows`.  Degrees are one np.bincount
    per part, and an edge survives pruning if all its vertices do.  The
    surviving edges, columns in search order, are grouped by their first
    vertex; that vertex's link (the rest of its edges) is a Python-int
    bitset over the distinct rest tuples, made when a candidate class
    first uses it, and a class's common link is the AND of its members'
    links.  Deeper levels group the common tuples in sets the same way.
    """
    if pat.k != H.k:
        raise ValueError("pattern arity mismatch")
    if any(u > s for u, s in zip(pat.u, H.part_sizes)):
        return DetectionResult(False, None, 0)
    k, rows = H.k, H.rows

    # degree pruning: a witness vertex of part i lies in at least
    # prod_{j != i} u_j edges of the witness block; indices that reach
    # past the array's size are counted by rank, so that np.bincount
    # never allocates more than the edges hold
    by_rank = rows.size > 0 and rows.max() >= rows.size
    alive = np.ones(len(rows), dtype=bool)
    for i in range(k):
        col = rows[:, i]
        if by_rank:
            col = np.unique(col, return_inverse=True)[1]
        ok = np.bincount(col) >= math.prod(pat.u[:i] + pat.u[i + 1:])
        if np.count_nonzero(ok) < pat.u[i]:
            return DetectionResult(False, None, 0)
        alive &= ok[col]

    order = sorted(range(k), key=lambda i: -pat.u[i])
    # the common link of a class chosen at this level must hold at least
    # this many tuples: one witness block of the later parts
    need = [math.prod(pat.u[p] for p in order[level + 1:])
            for level in range(k)]
    spent = 0

    def classes(level, verts, link, size):
        """Yield (class, common link) for every u-subset of `verts`, in
        lexicographic order, whose common link holds `need[level]`
        tuples; each subset tried costs one budget unit."""
        nonlocal spent
        for combo in itertools.combinations(verts, pat.u[order[level]]):
            spent += 1
            if spent > budget:
                raise BudgetExceededError("pattern search budget exhausted")
            common = link(combo[0])
            for v in combo[1:]:
                common = common & link(v)
                if size(common) < need[level]:
                    break
            else:
                yield combo, common

    def descend(level, tuples, chosen):
        """tuples: edges (projected to parts order[level:]) common to all
        chosen witness vertices so far."""
        u = pat.u[order[level]]
        if level == k - 1:
            verts = sorted({t[0] for t in tuples})
            return chosen + [tuple(verts[:u])] if len(verts) >= u else None
        byv: dict[int, set[tuple[int, ...]]] = {}
        for t in tuples:
            byv.setdefault(t[0], set()).add(t[1:])
        verts = sorted(v for v, rest in byv.items() if len(rest) >= need[level])
        for combo, common in classes(level, verts, byv.__getitem__, len):
            hit = descend(level + 1, common, chosen + [combo])
            if hit is not None:
                return hit
        return None

    start = rows if alive.all() else rows[alive]
    if order != list(range(k)):
        start = start[:, order]
    if k == 1:
        hit = descend(0, set(map(tuple, start.tolist())), [])
    else:
        if order[0] != 0:  # group by the first part searched
            start = start[np.argsort(start[:, 0], kind="stable")]
        # bit j of a link stands for table[j], the j-th distinct rest tuple
        code = _row_codes(start[:, 1:], [H.part_sizes[p] for p in order[1:]])
        by_code = np.argsort(code)
        runs = _first_of_runs(code[by_code])
        table = list(map(tuple, start[by_code[runs], 1:].tolist()))
        bit = np.empty(len(start), dtype=np.int64)
        bit[by_code] = np.cumsum(runs) - 1
        nbytes = (len(table) + 7) // 8
        # span[v]: the rows of start whose first vertex is v, for every v
        # with enough of them
        lead = start[:, 0]
        cuts = np.flatnonzero(_first_of_runs(lead)).tolist() + [len(lead)]
        span = {v: (lo, hi) for v, lo, hi in zip(lead[cuts[:-1]].tolist(),
                                                 cuts, cuts[1:])
                if hi - lo >= need[0]}

        @functools.cache
        def link(v: int) -> int:
            lo, hi = span[v]
            bits = np.zeros(8 * nbytes, dtype=bool)
            bits[bit[lo:hi]] = True
            return int.from_bytes(
                np.packbits(bits, bitorder="little").tobytes(), "little")

        def members(bitset: int) -> set[tuple[int, ...]]:
            bits = format(bitset, "b")[::-1]  # bit j is bits[j]
            out = set()
            j = bits.find("1")
            while j >= 0:
                out.add(table[j])
                j = bits.find("1", j + 1)
            return out

        hit = None
        for combo, common in classes(0, list(span), link, int.bit_count):
            hit = descend(1, members(common), [combo])
            if hit is not None:
                break
    if hit is None:
        return DetectionResult(False, None, spent)
    witness: list = [None] * k
    for pos, part in enumerate(order):
        witness[part] = tuple(sorted(hit[pos]))
    return DetectionResult(True, tuple(witness), spent)


def contains_complete_naive(H: KPartiteHypergraph,
                            pat: ForbiddenPattern) -> bool:
    """No-pruning reference enumerator: try every choice of classes."""
    if pat.k != H.k:
        raise ValueError("pattern arity mismatch")
    ranges = [list(itertools.combinations(range(H.part_sizes[i]), pat.u[i]))
              for i in range(H.k)]
    for classes in itertools.product(*ranges):
        if all(t in H.edges for t in itertools.product(*classes)):
            return True
    return False


def is_witness(H: KPartiteHypergraph, classes: Sequence[Sequence[int]]) -> bool:
    return all(t in H.edges for t in itertools.product(*classes))


# ---------------------------------------------------------------------------
# set systems


@dataclass(frozen=True)
class SetSystem:
    """A multiset of subsets of ground set {0..ground_size-1}."""

    ground_size: int
    members: tuple[frozenset[int], ...]

    def __post_init__(self):
        for m in self.members:
            if any(not 0 <= x < self.ground_size for x in m):
                raise ValueError("member not inside the ground set")

    @classmethod
    def build(cls, ground_size: int,
              members: Iterable[Iterable[int]]) -> "SetSystem":
        return cls(ground_size, tuple(frozenset(m) for m in members))


def neighborhood_system(G: KPartiteHypergraph, ground_part: int) -> SetSystem:
    """For bipartite G, the system {N(p)} over the chosen ground part."""
    if G.k != 2:
        raise ValueError("neighborhood systems are defined for k = 2")
    other = 1 - ground_part
    members: dict[int, set[int]] = {v: set() for v in range(G.part_sizes[other])}
    for e in G.edges:
        members[e[other]].add(e[ground_part])
    return SetSystem.build(G.part_sizes[ground_part],
                           [members[v] for v in sorted(members)])


def traces(F: SetSystem, subset: Sequence[int]) -> set[frozenset[int]]:
    s = frozenset(subset)
    return {m & s for m in F.members}


def primal_shatter(F: SetSystem, z: int, mode: str = "exhaustive",
                   seed: int = 0, trials: int = 1000,
                   budget: int = 2 * 10**6) -> int:
    """Primal shatter function pi_F(z): the maximum number of distinct
    traces of the system on a z-point ground subset.

    Exhaustive mode enumerates all C(ground, z) subsets and must fit the
    budget (measured in subset-member intersections); otherwise it raises
    with a pointer at sampled mode, which maximizes over `trials` seeded
    random subsets and returns a lower bound.
    """
    if not 1 <= z <= F.ground_size:
        raise ValueError(f"z = {z} out of range")
    if mode == "exhaustive":
        work = math.comb(F.ground_size, z) * max(1, len(F.members))
        if work > budget:
            raise BudgetExceededError(
                f"exhaustive shatter needs {work} operations > budget "
                f"{budget}; use mode='sampled'")
        subsets = itertools.combinations(range(F.ground_size), z)
    elif mode == "sampled":
        rng = random.Random(seed)
        ground = list(range(F.ground_size))
        subsets = (rng.sample(ground, z) for _ in range(trials))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return max((len(traces(F, subset)) for subset in subsets), default=0)


def crossing_count(F: SetSystem, B: Iterable[int]) -> int:
    """Number of members A with A cap B notin {empty, B}."""
    b = frozenset(B)
    if any(not 0 <= x < F.ground_size for x in b):
        raise ValueError("B not inside the ground set")
    n = 0
    for m in F.members:
        inter = m & b
        if inter and inter != b:
            n += 1
    return n


@dataclass(frozen=True)
class LowCrossingResult:
    subset: tuple[int, ...]
    crossings: int
    exhaustive: bool


def find_low_crossing_tuple(G: KPartiteHypergraph, u: int,
                            budget: int = 5 * 10**6, seed: int = 0,
                            trials: int = 2000) -> LowCrossingResult:
    """u-subset of part 1 (the `Q` side) minimizing how many part-0
    neighborhoods N(p) cross it.

    Exhaustive over C(|Q|, u) subsets when that fits the budget; else a
    seeded sample of subsets, returning the best found with
    exhaustive=False.
    """
    if G.k != 2:
        raise ValueError("low-crossing search is defined for k = 2")
    nq = G.part_sizes[1]
    if u > nq:
        raise ValueError("u larger than |Q|")
    F = neighborhood_system(G, 1)
    exhaustive = math.comb(nq, u) * len(F.members) <= budget
    if exhaustive:
        combos = itertools.combinations(range(nq), u)
    else:
        rng = random.Random(seed)
        combos = (tuple(sorted(rng.sample(range(nq), u)))
                  for _ in range(trials))
    best = None
    for combo in combos:
        c = crossing_count(F, combo)
        if best is None or c < best[1]:
            best = (combo, c)
    return LowCrossingResult(best[0], best[1], exhaustive)


# ---------------------------------------------------------------------------
# the classical double count


@dataclass(frozen=True)
class DoubleCountReport:
    by_neighborhoods: int
    by_enumeration: int
    chain: tuple[tuple[str, Fraction, Fraction], ...]

    @property
    def equal(self) -> bool:
        return self.by_neighborhoods == self.by_enumeration

    @property
    def chain_ok(self) -> bool:
        return all(lhs >= rhs for _, lhs, rhs in self.chain)


def erdos_double_count(H: KPartiteHypergraph, u1: int) -> DoubleCountReport:
    """Count pairs (y, X): y a tuple in P_2 x ... x P_k, X a u1-subset of
    P_1 with (x, y) an edge for every x in X.  Two ways:

      (a) sum over y of C(N_y, u1), N_y = #part-0 extensions of y;
      (b) direct enumeration over u1-subsets X of P_1 of the common
          extension count.

    Also evaluates the inequality chain behind the classical bound with
    explicit constants, in exact rationals:
      Q >= sum_{N_y >= u1} (N_y/u1)^{u1}
        >= (sum_{N_y >= u1} N_y)^{u1} / (u1^{u1} G^{u1-1}),  G = #{y: N_y >= u1}
      sum_{N_y >= u1} N_y >= |E| - (u1-1) prod_{i>=2} n_i.
    """
    if H.k < 2:
        raise ValueError("double count needs k >= 2")
    if u1 < 1:
        raise ValueError("u1 must be positive")
    ny: dict[tuple[int, ...], int] = {}
    ext: dict[int, set[tuple[int, ...]]] = {}
    for e in H.edges:
        y = e[1:]
        ny[y] = ny.get(y, 0) + 1
        ext.setdefault(e[0], set()).add(y)
    count_a = sum(math.comb(c, u1) for c in ny.values())

    count_b = 0
    verts = sorted(ext)
    for X in itertools.combinations(verts, u1):
        common = set(ext[X[0]])
        for x in X[1:]:
            common &= ext[x]
            if not common:
                break
        count_b += len(common)

    big = [c for c in ny.values() if c >= u1]
    G = len(big)
    S = sum(big)
    rest = math.prod(H.part_sizes[1:])
    chain = [
        ("sum C(N_y,u1) >= sum (N_y/u1)^u1",
         Fraction(count_a),
         sum((Fraction(c, u1) ** u1 for c in big), Fraction(0))),
        ("sum (N_y/u1)^u1 >= (sum N_y)^u1 / (u1^u1 G^(u1-1))",
         sum((Fraction(c, u1) ** u1 for c in big), Fraction(0)),
         Fraction(S ** u1, u1 ** u1 * G ** (u1 - 1)) if G else Fraction(0)),
        ("sum_{N_y>=u1} N_y >= |E| - (u1-1) prod n_i",
         Fraction(S),
         Fraction(len(H.edges) - (u1 - 1) * rest)),
    ]
    return DoubleCountReport(count_a, count_b, tuple(chain))


# ---------------------------------------------------------------------------
# exact extremal numbers (tiny instances)

_EXTREMAL_BUDGET = 10**7  # subset checks one max_edges_avoiding call may make


@dataclass(frozen=True)
class MaxEdgesResult:
    value: int
    exact: bool


def max_edges_avoiding(pat: ForbiddenPattern,
                       part_sizes: Sequence[int]) -> MaxEdgesResult:
    """Exact maximum edge count of a pattern-free hypergraph with the
    given part sizes, the Zarankiewicz number z(n_1,...,n_k; u_1,...,u_k),
    by one depth-first search for every k.

    A row is the neighbourhood of one vertex of part 0: a bitmask over
    the cells of parts 1..k-1 in itertools.product order.  Rows are
    added in non-increasing integer order, masks with more cells first,
    and a branch is cut once its edges plus full remaining rows cannot
    beat the best.  A new row is checked against every (u_1 - 1)-subset
    of the earlier rows: the AND of the u_1 rows is their common
    neighbourhood, which must not contain K_{u_2,...,u_k}
    (contains_complete, memoised per mask; at k = 1 it must be empty).
    Tiny instances only: after _EXTREMAL_BUDGET subset checks the best
    count found so far is returned with exact=False.
    """
    k = len(part_sizes)
    if pat.k != k:
        raise ValueError("pattern arity mismatch")
    if any(u > s for u, s in zip(pat.u, part_sizes)):
        # pattern cannot fit: the complete hypergraph avoids it
        return MaxEdgesResult(math.prod(part_sizes), True)

    u1, n1 = pat.u[0], part_sizes[0]
    rest_sizes = tuple(part_sizes[1:])
    rest = ForbiddenPattern(pat.u[1:])
    cells = list(itertools.product(*(range(s) for s in rest_sizes)))
    width = len(cells)
    masks = sorted(range(1 << width), key=lambda m: (-m.bit_count(), m))
    best = 0
    spent = _EXTREMAL_BUDGET

    @functools.cache
    def holds_rest(common: int) -> bool:
        if k == 1:
            return common != 0
        H = KPartiteHypergraph.build(
            rest_sizes, (c for i, c in enumerate(cells) if common >> i & 1))
        return contains_complete(H, rest).found

    def pattern_free(rows: list[int]) -> bool:
        # adding rows[-1]: check every u1-subset containing the new row
        nonlocal spent
        for combo in itertools.combinations(rows[:-1], u1 - 1):
            spent -= 1
            if spent < 0:
                raise BudgetExceededError("extremal search budget exhausted")
            common = rows[-1]
            for r in combo:
                common &= r
            if holds_rest(common):
                return False
        return True

    def dfs(rows: list[int], edges: int):
        nonlocal best
        if edges + (n1 - len(rows)) * width <= best:
            return
        if len(rows) == n1:
            best = edges
            return
        for m in masks:
            # canonical order: non-increasing as integers
            if rows and m > rows[-1]:
                continue
            rows.append(m)
            if pattern_free(rows):
                dfs(rows, edges + m.bit_count())
            rows.pop()

    try:
        dfs([], 0)
    except BudgetExceededError:
        return MaxEdgesResult(best, False)
    return MaxEdgesResult(best, True)
