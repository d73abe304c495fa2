"""k-partite k-uniform hypergraphs and their combinatorial machinery.

Edges are k-tuples taking one 0-based vertex index per part.  Hypergraphs
are immutable after construction; detection and search routines count
their work against an explicit budget and fail loudly (BudgetExceededError)
rather than run unbounded.

The text file format is: line 1 `k p1 p2 ... pk`, then one edge per line
as k space-separated 0-based indices.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence


class BudgetExceededError(Exception):
    """A configured search budget ran out.  Carries partial results."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class KPartiteHypergraph:
    part_sizes: tuple[int, ...]
    edges: frozenset[tuple[int, ...]]

    def __post_init__(self):
        k = len(self.part_sizes)
        if k < 1:
            raise ValueError("need at least one part")
        if any(s < 0 for s in self.part_sizes):
            raise ValueError("part sizes must be nonnegative")
        for e in self.edges:
            if len(e) != k:
                raise ValueError(f"edge {e} has arity {len(e)}, expected {k}")
            for i, v in enumerate(e):
                if not 0 <= v < self.part_sizes[i]:
                    raise ValueError(f"edge {e}: index {v} out of part {i}")

    @classmethod
    def build(cls, part_sizes: Sequence[int],
              edges: Iterable[Sequence[int]]) -> "KPartiteHypergraph":
        return cls(tuple(part_sizes), frozenset(tuple(e) for e in edges))

    @property
    def k(self) -> int:
        return len(self.part_sizes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, part: int, v: int) -> int:
        return sum(1 for e in self.edges if e[part] == v)

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
        for e in sorted(self.edges):
            lines.append(" ".join(str(v) for v in e))
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
    work is counted against `budget` (raising BudgetExceededError when
    it runs out, never returning a silently wrong answer).
    """
    if pat.k != H.k:
        raise ValueError("pattern arity mismatch")
    if any(u > s for u, s in zip(pat.u, H.part_sizes)):
        return DetectionResult(False, None, 0)
    spent = [budget]

    # degree pruning: a witness vertex of part i lies in at least
    # prod_{j != i} u_j edges of the witness block
    deg: list[dict[int, int]] = [dict() for _ in range(H.k)]
    for e in H.edges:
        for i, v in enumerate(e):
            deg[i][v] = deg[i].get(v, 0) + 1
    needs = [math.prod(pat.u[:i] + pat.u[i + 1:]) for i in range(H.k)]
    alive = [set(v for v, c in deg[i].items() if c >= needs[i])
             for i in range(H.k)]
    if any(len(alive[i]) < pat.u[i] for i in range(H.k)):
        return DetectionResult(False, None, budget - spent[0])

    order = sorted(range(H.k), key=lambda i: -pat.u[i])

    def recurse(level: int, tuples: set[tuple[int, ...]],
                chosen: list[tuple[int, ...]]) -> Optional[list[tuple[int, ...]]]:
        """tuples: edges (projected to parts order[level:]) common to all
        chosen witness vertices so far."""
        part = order[level]
        u = pat.u[part]
        if level == H.k - 1:
            verts = sorted({t[0] for t in tuples})
            if len(verts) >= u:
                return chosen + [tuple(verts[:u])]
            return None
        # group remaining tuples by this part's vertex
        byv: dict[int, set[tuple[int, ...]]] = {}
        for t in tuples:
            byv.setdefault(t[0], set()).add(t[1:])
        need_rest = math.prod(pat.u[order[l]] for l in range(level + 1, H.k))
        verts = sorted(v for v, rest in byv.items() if len(rest) >= need_rest)
        if len(verts) < u:
            return None
        for combo in itertools.combinations(verts, u):
            spent[0] -= 1
            if spent[0] < 0:
                raise BudgetExceededError("pattern search budget exhausted")
            common = set(byv[combo[0]])
            ok = True
            for v in combo[1:]:
                common &= byv[v]
                if len(common) < need_rest:
                    ok = False
                    break
            if ok:
                hit = recurse(level + 1, common, chosen + [combo])
                if hit is not None:
                    return hit
        return None

    start = set()
    for e in H.edges:
        if all(e[i] in alive[i] for i in range(H.k)):
            start.add(tuple(e[i] for i in order))
    hit = recurse(0, start, [])
    if hit is None:
        return DetectionResult(False, None, budget - spent[0])
    witness: list = [None] * H.k
    for pos, part in enumerate(order):
        witness[part] = tuple(sorted(hit[pos]))
    return DetectionResult(True, tuple(witness), budget - spent[0])


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
        best = 0
        for subset in itertools.combinations(range(F.ground_size), z):
            best = max(best, len(traces(F, subset)))
        return best
    if mode == "sampled":
        rng = random.Random(seed)
        ground = list(range(F.ground_size))
        best = 0
        for _ in range(trials):
            subset = rng.sample(ground, z)
            best = max(best, len(traces(F, subset)))
        return best
    raise ValueError(f"unknown mode {mode!r}")


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
# brute-force extremal numbers (tiny instances)


@dataclass(frozen=True)
class MaxEdgesResult:
    value: int
    exact: bool


def max_edges_avoiding(pat: ForbiddenPattern, part_sizes: Sequence[int],
                       budget: int = 10**7) -> MaxEdgesResult:
    """Exact maximum edge count of a pattern-free hypergraph with the
    given part sizes, by exhaustive search.  Tiny instances only; when
    the budget runs out the best count found so far is returned with
    exact=False.
    """
    k = len(part_sizes)
    if pat.k != k:
        raise ValueError("pattern arity mismatch")
    if any(u > s for u, s in zip(pat.u, part_sizes)):
        # pattern cannot fit: the complete hypergraph avoids it
        return MaxEdgesResult(math.prod(part_sizes), True)

    if k == 2:
        return _max_edges_bipartite(pat.u[0], pat.u[1], part_sizes[0],
                                    part_sizes[1], budget)

    cells = list(itertools.product(*(range(s) for s in part_sizes)))
    total = len(cells)
    spent = [budget]

    # greedy floor: add cells in order, skipping any that completes the pattern
    greedy: list[tuple[int, ...]] = []
    for c in cells:
        trial = KPartiteHypergraph.build(part_sizes, greedy + [c])
        try:
            if not contains_complete(trial, pat, budget=max(spent[0], 1)).found:
                greedy.append(c)
        except BudgetExceededError:
            return MaxEdgesResult(len(greedy), False)
    floor = len(greedy)

    # exhaustive from the top: the first pattern-free size is the answer
    for m in range(total, floor, -1):
        for chosen in itertools.combinations(cells, m):
            spent[0] -= 1
            if spent[0] < 0:
                return MaxEdgesResult(floor, False)
            H = KPartiteHypergraph.build(part_sizes, chosen)
            try:
                if not contains_complete(H, pat, budget=spent[0]).found:
                    return MaxEdgesResult(m, True)
            except BudgetExceededError:
                return MaxEdgesResult(floor, False)
    return MaxEdgesResult(floor, True)


def _max_edges_bipartite(u1: int, u2: int, n1: int, n2: int,
                         budget: int) -> MaxEdgesResult:
    """Row-by-row DFS with symmetry reduction (rows sorted as integers
    descending) and an edge-count bound prune."""
    masks = list(range(2 ** n2))
    masks.sort(key=lambda m: (-m.bit_count(), m))
    best = [0]
    spent = [budget]

    def free_ok(rows: list[int]) -> bool:
        # adding rows[-1]: check every u1-subset containing the new row
        if len(rows) < u1:
            return True
        new = rows[-1]
        for combo in itertools.combinations(rows[:-1], u1 - 1):
            spent[0] -= 1
            if spent[0] < 0:
                raise BudgetExceededError("bipartite oracle budget exhausted")
            inter = new
            for r in combo:
                inter &= r
            if inter.bit_count() >= u2:
                return False
        return True

    def dfs(rows: list[int], edges: int, last_sort_key: int):
        if edges + (n1 - len(rows)) * n2 <= best[0]:
            return
        if len(rows) == n1:
            best[0] = max(best[0], edges)
            return
        for m in masks:
            # canonical order: non-increasing as integers
            if rows and m > last_sort_key:
                continue
            rows.append(m)
            try:
                ok = free_ok(rows)
            except BudgetExceededError:
                rows.pop()
                raise
            if ok:
                dfs(rows, edges + m.bit_count(), m)
            rows.pop()

    try:
        dfs([], 0, 2 ** n2)
    except BudgetExceededError:
        return MaxEdgesResult(best[0], False)
    return MaxEdgesResult(best[0], True)
