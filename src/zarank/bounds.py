"""Bound calculus: the extremal bound functions and their exact identities.

Everything here is exact.  Exponents are Fractions built from a cleared
integer form that never divides by zero when some dimension equals 1,
values are PowerProducts/PowerSums (see exactnum), and every identity
check reports rational residuals or exact power-product comparisons
rather than float differences.

Conventions for k = 1: the product bound E is identically 1, the full
bound F and the classical counting bound degenerate to n_1 (every vertex
may be a hyperedge on its own).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactnum import (
    ComparisonUndecided,
    PowerProduct,
    PowerSum,
    Rational,
    products_from_terms,
)


@dataclass(frozen=True)
class DimProfile:
    """Ambient dimensions d_1..d_k of the k vertex classes."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) < 1:
            raise ValueError("need at least one dimension")
        if any(d < 1 or d != int(d) for d in self.dims):
            raise ValueError(f"dimensions must be positive integers: {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def k(self) -> int:
        return len(self.dims)

    def drop(self, i: int) -> "DimProfile":
        return DimProfile(self.dims[:i] + self.dims[i + 1:])

    def decrement(self, i: int) -> "DimProfile":
        if self.dims[i] < 2:
            raise ValueError(f"d_{i} = {self.dims[i]} cannot be decremented")
        dims = list(self.dims)
        dims[i] -= 1
        return DimProfile(tuple(dims))


@dataclass(frozen=True)
class SizeProfile:
    """Class sizes n_1..n_k, paired with a DimProfile of the same length."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) < 1:
            raise ValueError("need at least one size")
        if any(n < 1 or n != int(n) for n in self.sizes):
            raise ValueError(f"sizes must be positive integers: {self.sizes}")
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))

    @property
    def k(self) -> int:
        return len(self.sizes)

    def drop(self, i: int) -> "SizeProfile":
        return SizeProfile(self.sizes[:i] + self.sizes[i + 1:])


@dataclass(frozen=True)
class ExponentVector:
    alphas: tuple[Fraction, ...]

    @property
    def k(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class BoundValue:
    """Exact bound value: a sum of power-product terms.

    `pairs` keeps one (base, exponent) list per term in the original
    n_i^alpha style for display; `value` is the canonical exact sum, and
    float() encloses it.
    """

    value: PowerSum
    pairs: tuple[tuple[tuple[Fraction, Fraction], ...], ...]

    @staticmethod
    def build(terms: Sequence[Sequence[tuple[Rational, Rational]]]
              ) -> "BoundValue":
        pairs = tuple(tuple((Fraction(b), Fraction(e)) for b, e in term)
                      for term in terms)
        return BoundValue(PowerSum.from_products(products_from_terms(terms)),
                          pairs)

    def __float__(self) -> float:
        return float(self.value)


def exponents(d: DimProfile) -> ExponentVector:
    """Exact exponents alpha_i of the product bound, in cleared form.

    alpha_i = 1 - prod_{l != i}(d_l - 1) /
              [(k-1) prod_l (d_l - 1) + sum_l prod_{j != l}(d_j - 1)]

    which agrees with 1 - (1/(d_i-1)) / (k-1 + sum_l 1/(d_l-1)) whenever
    all d_l >= 2 and extends it continuously to a single d_l = 1.  With
    two or more dimensions equal to 1 the cleared form is 0/0 and the
    directional limits disagree, so that case is rejected.
    """
    return ExponentVector(_alphas(d.dims))


def _alphas(dims: tuple[int, ...]) -> tuple[Fraction, ...]:
    """The exponents of `exponents` for a dims tuple, each built as
    Fraction(D - P_i, D) from the cleared integers D and P_i."""
    k = len(dims)
    if k >= 2 and dims.count(1) >= 2:
        raise ValueError(
            f"exponents undefined for {dims}: more than one d_i equals 1")
    partials = [math.prod(dims[l] - 1 for l in range(k) if l != i)
                for i in range(k)]
    denom = (k - 1) * math.prod(x - 1 for x in dims) + sum(partials)
    for part in partials:
        # alpha_i = 1 - P_i / D lies in [0, 1] iff 0 <= P_i <= D, as D > 0.
        if not 0 <= part <= denom:
            raise AssertionError(f"exponent {1 - Fraction(part, denom)} "
                                 f"out of [0,1] for {dims}")
    return tuple(Fraction(denom - part, denom) for part in partials)


def eval_E(d: DimProfile, n: SizeProfile) -> BoundValue:
    """The product bound prod n_i^{alpha_i} as an exact power product."""
    if d.k != n.k:
        raise ValueError("profile lengths differ")
    alphas = exponents(d).alphas
    term = [(Fraction(n.sizes[i]), alphas[i]) for i in range(d.k)]
    return BoundValue.build([term])


def _f_terms(d: DimProfile, n: SizeProfile, eps: Fraction
             ) -> list[tuple[frozenset[int], list[tuple[int, Rational]]]]:
    """All terms of the full bound as (index set, (base, exponent) list)
    pairs, k >= 1.

    Subset terms for |I| >= 2, with index set I, then the k trailing terms
    prod_{j != l} n_j (the expansion of (sum 1/n_l) prod n_l), with index
    set {l}.  A term does not involve i when i is not in its set.
    """
    k = d.k
    dims, sizes = d.dims, n.sizes
    terms = []
    for r in range(2, k + 1):
        for idx in itertools.combinations(range(k), r):
            sub_alphas = _alphas(tuple(dims[i] for i in idx))
            inside = frozenset(idx)
            term = [(sizes[i], alpha + eps if eps else alpha)
                    for i, alpha in zip(idx, sub_alphas)]
            term += [(sizes[i], 1) for i in range(k) if i not in inside]
            terms.append((inside, term))
    for l in range(k):
        term = [(sizes[j], 1) for j in range(k) if j != l]
        terms.append((frozenset((l,)), term or [(1, 1)]))
    return terms


def eval_F(d: DimProfile, n: SizeProfile, eps: Rational = 0) -> BoundValue:
    """The full multi-term bound, iterating all 2^k - k - 1 subsets.

    For k = 1 the subset sum is empty and the bound degenerates; we
    return n_1, the trivial 1-uniform edge bound, mirroring the k = 1
    convention of the classical counting bound.
    """
    if d.k != n.k:
        raise ValueError("profile lengths differ")
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if d.k == 1:
        return BoundValue.build([[(Fraction(n.sizes[0]), Fraction(1))]])
    return BoundValue.build([term for _, term in _f_terms(d, n, eps)])


def _at_most(small: PowerSum, large: PowerSum) -> bool:
    """small <= large, exactly; a comparison that the intervals cannot
    decide counts as not holding."""
    try:
        return small.compare(large) <= 0
    except ComparisonUndecided:
        return False


@dataclass(frozen=True)
class MatrixIdentityReport:
    dims: tuple[int, ...]
    alphas: tuple[Fraction, ...]
    residuals: tuple[Fraction, ...]

    @property
    def ok(self) -> bool:
        return all(r == 0 for r in self.residuals)


def check_matrix_identity(d: DimProfile) -> MatrixIdentityReport:
    """Verify alpha_i = sum_{j != i} d_j (1 - alpha_j) in exact rationals.

    With alpha_j = N_j / D over one denominator D, residual i is
    (N_i - sum_{j != i} d_j (D - N_j)) / D, summed on integers.
    """
    alphas = exponents(d).alphas
    den = math.lcm(*(a.denominator for a in alphas))
    nums = [a.numerator * (den // a.denominator) for a in alphas]
    total = sum(dj * (den - nj) for dj, nj in zip(d.dims, nums))
    residuals = tuple(Fraction(ni - total + di * (den - ni), den)
                      for di, ni in zip(d.dims, nums))
    return MatrixIdentityReport(d.dims, alphas, residuals)


@dataclass(frozen=True)
class ScalingReport:
    special_index: int
    r: Fraction
    lhs_r_exponent: Fraction
    lhs_value: PowerProduct
    rhs_value: PowerProduct

    @property
    def ok(self) -> bool:
        # Formal identity: the residual exponent of r must vanish and the
        # concrete power products must coincide.
        return self.lhs_r_exponent == 0 and self.lhs_value == self.rhs_value


def check_scaling_identity(d: DimProfile, n: SizeProfile, r: Rational,
                           special_index: int) -> ScalingReport:
    """Exact check of r^{sum_{j != i} d_j} E(..., n_j/r^{d_j}, ..., n_i/r) = E(n).

    `special_index` is 0-based: coordinate i is scaled by r, every other
    coordinate j by r^{d_j}.  Compared two ways: formally (the exponent
    of the symbol r on the left side must cancel to zero; the n_j
    exponents match by construction) and concretely on power products.
    """
    if d.k != n.k:
        raise ValueError("profile lengths differ")
    i = special_index
    if not 0 <= i < d.k:
        raise ValueError(f"special index {i} out of range")
    r = Fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    alphas = exponents(d).alphas
    lead = sum(d.dims[j] for j in range(d.k) if j != i)
    r_exp = Fraction(lead)
    for j in range(d.k):
        scale_pow = Fraction(1) if j == i else Fraction(d.dims[j])
        r_exp -= scale_pow * alphas[j]

    lhs, rhs = products_from_terms([
        [(r, lead)]
        + [(Fraction(n.sizes[j]) / r**(1 if j == i else d.dims[j]), alphas[j])
           for j in range(d.k)],
        zip(n.sizes, alphas)])
    return ScalingReport(i, r, r_exp, lhs, rhs)


@dataclass(frozen=True)
class MonotonicityReport:
    index: int
    hypothesis_met: bool
    failed_pairs: tuple[tuple[int, int], ...]
    holds: Optional[bool]


def check_monotonicity(d: DimProfile, n: SizeProfile, i: int,
                       eps: Rational = 0) -> MonotonicityReport:
    """Decrementing d_i can only lower the full bound, under the side
    condition n_i >= n_j^{1/d_j} for all j != i (checked exactly as
    n_i^{d_j} >= n_j).

    When the hypothesis fails this is reported, not asserted.  The
    comparison itself is exact: the two bounds share the same term
    structure and are compared termwise as power products, falling back
    to an interval comparison of the sums if any single term resists.
    """
    if d.k != n.k:
        raise ValueError("profile lengths differ")
    if d.dims[i] < 2:
        raise ValueError(f"d_{i} must be >= 2 to decrement")
    eps = Fraction(eps)
    failed = tuple((i, j) for j in range(d.k)
                   if j != i and n.sizes[i] ** d.dims[j] < n.sizes[j])
    if failed:
        return MonotonicityReport(i, False, failed, None)

    lo_terms = [term for _, term in _f_terms(d.decrement(i), n, eps)]
    hi_terms = [term for _, term in _f_terms(d, n, eps)]
    prods = products_from_terms(lo_terms + hi_terms)
    lo_prods, hi_prods = prods[:len(lo_terms)], prods[len(lo_terms):]
    holds = (all(lo.compare(hi) <= 0 for lo, hi in zip(lo_prods, hi_prods))
             or _at_most(PowerSum.from_products(lo_prods),
                         PowerSum.from_products(hi_prods)))
    return MonotonicityReport(i, True, (), holds)


@dataclass(frozen=True)
class DominanceReport:
    hypothesis_met: bool
    failed_indices: tuple[int, ...]
    constant: Fraction
    holds: Optional[bool]
    ratio: Optional[float]


def check_dominance(d: DimProfile, n: SizeProfile,
                    eps: Rational = 0) -> DominanceReport:
    """Under the hypothesis n_i^{-1/d_i} prod n_j >= n_i * F(d w/o i,
    n w/o i) for every i, the product term dominates the full bound:
    E(n) prod n_i^eps >= F(n) / 2^{k+1}.

    The constant 1/2^{k+1} is safe because the full bound has 2^k - 1
    terms and, under the hypothesis, each is at most the product term.
    The measured ratio E prod n^eps / F is reported so a sharper
    constant can be read off.

    n_i * F(d w/o i, n w/o i) is exactly the sum of the terms of F(d, n)
    that do not involve i, so every product is built once, from the
    terms of F(d, n).  For k = 2 the trailing term n_i is what reduces
    the hypothesis to the paper-side condition n_j >= n_i^{1/d_i}.
    """
    if d.k != n.k:
        raise ValueError("profile lengths differ")
    k = d.k
    if k < 2:
        raise ValueError(f"dominance needs at least two dimensions, got {k}")
    eps = Fraction(eps)
    alphas = exponents(d).alphas
    f_terms = _f_terms(d, n, eps)
    prods = products_from_terms(
        [term for _, term in f_terms]
        + [[(n.sizes[i], Fraction(-1, d.dims[i]))]
           + [(size, 1) for size in n.sizes] for i in range(k)]
        + [[(size, alpha + eps) for size, alpha in zip(n.sizes, alphas)]])
    f_prods, lhs_prods, dominant = (prods[:len(f_terms)],
                                    prods[len(f_terms):-1], prods[-1])
    failed = []
    for i in range(k):
        rhs = PowerSum.from_products(
            prod for (inside, _), prod in zip(f_terms, f_prods)
            if i not in inside)
        if not _at_most(rhs, PowerSum.from_product(lhs_prods[i])):
            failed.append(i)
    constant = Fraction(1, 2 ** (k + 1))
    if failed:
        return DominanceReport(False, tuple(failed), constant, None, None)

    dominant_sum = PowerSum.from_product(dominant)
    full = PowerSum.from_products(f_prods)
    # Termwise: every term of F is at most the dominant term, hence
    # F <= (2^k - 1) * dominant <= dominant / constant.
    holds = (all(prod.compare(dominant) <= 0 for prod in f_prods)
             or _at_most(full.scale(constant), dominant_sum))
    # Both enclosures read one prime-log table; the floats stay the same.
    logs: dict = {}
    ratio = dominant_sum.to_float(logs) / full.to_float(logs)
    return DominanceReport(True, (), constant, holds, ratio)


def erdos_bound(k: int, u: Sequence[int], n: SizeProfile) -> BoundValue:
    """Shape of the classical counting bound:
    (n_k^{-1/(u_1...u_{k-1})} + n_1^{-1} + ... + n_{k-1}^{-1}) prod n_i.

    Constant-free.  For k = 1 the bracket is degenerate and the bound is
    defined as n_1 (every vertex can be a hyperedge).
    """
    if k < 1 or len(u) != k or n.k != k:
        raise ValueError("inconsistent arity")
    if any(x < 1 for x in u):
        raise ValueError("pattern sizes must be positive")
    if k == 1:
        return BoundValue.build([[(Fraction(n.sizes[0]), Fraction(1))]])
    uprod = math.prod(u[:-1])
    terms = []
    lead = [(Fraction(n.sizes[k - 1]), Fraction(-1, uprod))]
    lead += [(Fraction(n.sizes[i]), Fraction(1)) for i in range(k)]
    terms.append(lead)
    for i in range(k - 1):
        term = [(Fraction(n.sizes[i]), Fraction(-1))]
        term += [(Fraction(n.sizes[j]), Fraction(1)) for j in range(k)]
        terms.append(term)
    return BoundValue.build(terms)
