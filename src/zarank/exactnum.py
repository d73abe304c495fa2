"""Exact arithmetic for positive reals of the form prod_i b_i^{e_i}.

The bound formulas evaluate to products and sums of rational powers of
positive rationals (e.g. 8^(2/3) * 5^(1/2)).  Floats cannot compare such
values reliably, so every value is kept in a canonical prime-factored
form: a PowerProduct stores its exponents cleared over one denominator,
a prime -> int numerator map `nums` and an int `den` coprime to them, and
a PowerSum is a rational-coefficient combination of PowerProducts.  Every
reader works on those integers; no exponent denominator is cleared twice.

Single power products compare exactly by a filtered test: a float sum of
(m_p / den) * log p with a forward error bound decides the sign whenever
the sum clears the bound, and otherwise big integers compare the positive
and negative powers p^|m_p|.  Sums compare exactly when they share the
same irrational parts (termwise).  Otherwise a float filter of the same
kind evaluates each term c * exp(sum_p (m_p / den) log p) with a forward
error bound and decides when the two float enclosures are disjoint; sums
that it cannot separate (near ties, or terms whose floats overflow or
underflow) fall through to enclosures in mpmath's interval arithmetic
(the routines behind mpmath.iv) at escalating precision.  mpmath is
imported on the first enclosure, so code that never needs one does not
load it.

Products are built from (base, exponent) terms by `products_from_terms`,
which factorizes each distinct base once per call and takes int and
Fraction bases and exponents as they are.  A product keeps its split into
rational part and residue, so a term shared by several sums splits once,
and sums enclosed at one precision may share one prime-log table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

Rational = Union[int, Fraction]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    if n <= 0:
        raise ValueError(f"factorize needs a positive integer, got {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 41
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _prime_exponents(q: Rational) -> dict[int, int]:
    """Prime -> integer exponent map of a positive rational."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    if q <= 0:
        raise ValueError(f"PowerProduct values are positive, got {q}")
    exps = factorize(q.numerator)
    if q.denominator != 1:
        # Numerator and denominator are coprime, so their primes differ.
        for p, m in factorize(q.denominator).items():
            exps[p] = -m
    return exps


class ComparisonUndecided(Exception):
    """Raised when interval refinement cannot separate two sums."""


# Forward error bound of the float filter in PowerProduct.compare, per
# term and relative to the sum of the terms' magnitudes; _FILTER_TINY
# covers exponents or products that underflow.
_FILTER_EPS = 2.0 ** -48
_FILTER_TINY = 2.0 ** -960
# The float filter of PowerSum.compare: the least relative radius of a
# sum's enclosure, and the range of a term's float log it accepts
# (exp stays a normal float well inside it).
_SUM_FILTER_REL = 2.0 ** -40
_SUM_FILTER_LOG = 700.0
_SUM_FILTER_NORMAL = 2.0 ** -1000
# PowerSum.compare doubles its interval precision from 64 bits up to this
_MAX_PREC = 4096


class PowerProduct:
    """An exact positive real ``prod p^(m_p / den)`` with p prime.

    The exponents are stored cleared over one denominator: `nums` maps
    each prime to its nonzero int numerator m_p, in the order the primes
    came in, and `den` is an int >= 1 with gcd(den, m_p, ...) = 1, so
    equal values store equal integers.  `exps` views them as Fractions.
    """

    # `nums` and `den` are never mutated after construction, so the hash
    # and the split into rational part and residue are computed on first
    # use and kept.
    __slots__ = ("nums", "den", "_hash", "_split")

    def __new__(cls, exps: Mapping[int, Rational] | None = None):
        pairs = [(p, Fraction(e)) for p, e in (exps or {}).items()]
        den = math.lcm(*(e.denominator for _, e in pairs))
        return cls._of({p: e.numerator * (den // e.denominator)
                        for p, e in pairs if e}, den)

    @classmethod
    def _of(cls, nums: dict[int, int], den: int) -> "PowerProduct":
        """prod p^(nums[p] / den) from a prime -> nonzero int map, which
        it keeps (divided by the common gcd with den, if any)."""
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {p: m // g for p, m in nums.items()}
            den //= g
        out = object.__new__(cls)
        out.nums = nums
        out.den = den
        out._hash = out._split = None
        return out

    @classmethod
    def one(cls) -> "PowerProduct":
        return cls()

    @classmethod
    def from_rational(cls, q: Rational) -> "PowerProduct":
        return product_from_pairs([(q, 1)])

    @classmethod
    def from_base_exp(cls, base: Rational, exp: Rational) -> "PowerProduct":
        """base**exp for a positive rational base and rational exponent."""
        return product_from_pairs([(base, exp)])

    @property
    def exps(self) -> dict[int, Fraction]:
        """Prime -> rational exponent, a fresh dict."""
        return {p: Fraction(m, self.den) for p, m in self.nums.items()}

    def _combine(self, other: "PowerProduct", sign: int) -> "PowerProduct":
        """self * other**sign over lcm(self.den, other.den): the primes of
        self first, then those new in other, and a cancelled one leaves."""
        den = math.lcm(self.den, other.den)
        scale, other_scale = den // self.den, sign * (den // other.den)
        nums = {p: m * scale for p, m in self.nums.items()}
        for p, m in other.nums.items():
            new = nums.get(p, 0) + m * other_scale
            if new:
                nums[p] = new
            else:
                del nums[p]
        return PowerProduct._of(nums, den)

    def __mul__(self, other: "PowerProduct") -> "PowerProduct":
        return self._combine(other, 1)

    def __truediv__(self, other: "PowerProduct") -> "PowerProduct":
        return self._combine(other, -1)

    def __pow__(self, q: Rational) -> "PowerProduct":
        if q == 1:
            return self
        if q == 0:
            return PowerProduct()
        q = Fraction(q)
        return PowerProduct._of({p: m * q.numerator
                                 for p, m in self.nums.items()},
                                self.den * q.denominator)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PowerProduct) and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.den, frozenset(self.nums.items())))
        return self._hash

    def is_one(self) -> bool:
        return not self.nums

    def is_rational(self) -> bool:
        return self.den == 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self.split_rational()[0]

    def split_rational(self) -> tuple[Fraction, "PowerProduct"]:
        """Factor into (rational part, residue with exponents in [0,1))."""
        if self._split is not None:
            return self._split
        num = den = 1
        residue: dict[int, int] = {}
        for p, m in self.nums.items():
            whole, rem = divmod(m, self.den)
            if whole > 0:
                num *= p**whole
            elif whole < 0:
                den *= p**-whole
            if rem:
                residue[p] = rem
        self._split = Fraction(num, den), PowerProduct._of(residue, self.den)
        return self._split

    def compare(self, other: "PowerProduct") -> int:
        """Exact three-way comparison: -1, 0 or +1.

        The sign of log(self / other) = sum_p (m_p / den) log p is first
        read off the float sum S = sum_p fl(m_p / den) * fl(log p).  The
        int quotient m_p / den is correctly rounded; the bound assumes
        math.log(p) is within 4 ulps (relative error 2^-50) of log p.
        glibc's log is within 1 ulp, and CPython's reduction of integers
        past the float range stays within 4.  Each term is then within
        2^-49 of its true value, and summing n terms adds at most
        (n - 1) * 2^-53 of the sum of their magnitudes, so
        |S - log(self / other)| is below
        (n + 4) * (2^-48 * sum_p |term_p| + 2^-960).  When |S| exceeds
        that bound its sign is the answer; otherwise, or when an exponent
        does not fit a float, the big-integer test decides.
        """
        diff = self / other
        if diff.is_one():
            return 0
        try:
            total, bound = _float_log(diff)
        except OverflowError:
            return _compare_exact(diff)
        # False for an infinite bound or a NaN sum, which fall through.
        if abs(total) > bound:
            return 1 if total > 0 else -1
        return _compare_exact(diff)

    def __le__(self, other: "PowerProduct") -> bool:
        return self.compare(other) <= 0

    def __lt__(self, other: "PowerProduct") -> bool:
        return self.compare(other) < 0

    def __float__(self) -> float:
        return float(PowerSum.from_product(self))

    def base_exp_pairs(self) -> list[tuple[int, Fraction]]:
        return sorted(self.exps.items())

    def __repr__(self) -> str:
        if self.is_one():
            return "1"
        return "*".join(f"{p}^({e})" for p, e in self.base_exp_pairs())


def _float_log(prod: PowerProduct) -> tuple[float, float]:
    """The float sum S of fl(m_p / den) * fl(log p) over the primes of
    `prod`, and the bound (n + 4) * (2^-48 * sum_p |term_p| + 2^-960) on
    |S - log(prod)| derived in PowerProduct.compare."""
    total = size = 0.0
    den = prod.den
    for p, m in prod.nums.items():
        term = m / den * math.log(p)
        total += term
        size += abs(term)
    return total, (len(prod.nums) + 4) * (_FILTER_EPS * size + _FILTER_TINY)


def _compare_exact(diff: PowerProduct) -> int:
    """Sign of log(diff) by big integers: compare the products of the
    positive and negative powers p^|m_p| of the cleared numerators."""
    hi = 1
    lo = 1
    for p, m in diff.nums.items():
        if m > 0:
            hi *= p**m
        else:
            lo *= p**(-m)
    return (hi > lo) - (hi < lo)


class PowerSum:
    """A finite sum ``sum_j c_j * X_j`` with c_j rational > 0 and X_j products.

    Terms are keyed by the fractional part of their exponent vector, so
    rationally-commensurable terms merge and sums that are formally equal
    compare as equal without any numerics.
    """

    __slots__ = ("terms",)

    def __init__(self):
        self.terms: dict[PowerProduct, Fraction] = {}

    def _add(self, prod: PowerProduct, coeff: Fraction) -> None:
        if coeff == 0:
            return
        extra, residue = prod.split_rational()
        old = self.terms.get(residue)
        c = coeff * extra if old is None else old + coeff * extra
        if c == 0:
            self.terms.pop(residue, None)
        else:
            if c < 0:
                raise ValueError("PowerSum terms must stay positive")
            self.terms[residue] = c

    @classmethod
    def from_product(cls, prod: PowerProduct, coeff: Rational = 1) -> "PowerSum":
        s = cls()
        s._add(prod, Fraction(coeff))
        return s

    @classmethod
    def from_products(cls, products: Iterable[PowerProduct]) -> "PowerSum":
        """The sum of the products, each with coefficient 1."""
        s = cls()
        for prod in products:
            s._add(prod, Fraction(1))
        return s

    @classmethod
    def zero(cls) -> "PowerSum":
        return cls()

    def __add__(self, other: "PowerSum") -> "PowerSum":
        out = PowerSum()
        out.terms = dict(self.terms)
        for prod, coeff in other.terms.items():
            out._add(prod, coeff)
        return out

    def scale(self, coeff: Rational) -> "PowerSum":
        coeff = Fraction(coeff)
        out = PowerSum()
        for prod, c in self.terms.items():
            out._add(prod, c * coeff)
        return out

    def times_product(self, prod: PowerProduct) -> "PowerSum":
        out = PowerSum()
        for residue, c in self.terms.items():
            out._add(residue * prod, c)
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PowerSum) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def is_rational(self) -> bool:
        return all(r.is_one() for r in self.terms)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("sum has irrational terms")
        return sum(self.terms.values(), Fraction(0))

    def bounds(self, prec: int, logs: dict | None = None) -> tuple:
        """Rigorous enclosure [lo, hi] of the sum by `prec`-bit intervals,
        as two mpmath mpf.

        The intervals are mpmath's (the libmpi routines behind mpmath.iv,
        which round every endpoint outward), imported on first use: an
        interval log per prime, each residue's cleared numerators over its
        denominator, an interval exp per term and each rational
        coefficient as the interval of its two directed roundings.
        `logs`, a prime -> interval log table at `prec` bits, is read and
        filled when given, so sums enclosed at one precision can share it.
        """
        import mpmath
        from mpmath.libmp import (from_int, from_rational, mpi_add, mpi_div,
                                  mpi_exp, mpi_log, mpi_mul, round_ceiling,
                                  round_floor)

        def point(n: int) -> tuple:
            x = from_int(n)
            return x, x

        logs = {} if logs is None else logs
        total = point(0)
        for residue, coeff in self.terms.items():
            log = point(0)
            for p, m in residue.nums.items():
                if p not in logs:
                    logs[p] = mpi_log(point(p), prec)
                log = mpi_add(log, mpi_mul(point(m), logs[p], prec), prec)
            value = mpi_exp(mpi_div(log, point(residue.den), prec), prec)
            a, b = coeff.numerator, coeff.denominator
            c = (from_rational(a, b, prec, round_floor),
                 from_rational(a, b, prec, round_ceiling))
            total = mpi_add(total, mpi_mul(c, value, prec), prec)
        return mpmath.mp.make_mpf(total[0]), mpmath.mp.make_mpf(total[1])

    def compare(self, other: "PowerSum") -> int:
        """Exact three-way comparison: a float filter, then intervals.

        Equal sums have equal terms, since terms are keyed by residue.
        Otherwise each sum's float enclosure (see `_float_enclosure`)
        decides when the two are disjoint, and any other pair goes to
        `_compare_intervals`.
        """
        if self.terms == other.terms:
            return 0
        if self.is_rational() and other.is_rational():
            a, b = self.as_rational(), other.as_rational()
            return (a > b) - (a < b)
        a = b = None
        try:
            a = self._float_enclosure()
            if a is not None:
                b = other._float_enclosure()
        except OverflowError:
            pass
        if a is not None and b is not None:
            if a[1] < b[0]:
                return -1
            if a[0] > b[1]:
                return 1
        return self._compare_intervals(other)

    def _float_enclosure(self) -> tuple[float, float] | None:
        """Floats lo <= hi with the sum in [lo, hi], or None.

        Term j is c_j * exp(L_j) with L_j = sum_p e_p log p.  Its float
        log comes from `_float_log`, under the libm assumption of
        PowerProduct.compare, and is within the bound b_j returned with
        it.  math.exp is assumed within 4 ulps (relative error 2^-50),
        and float(c_j) and the product are correctly rounded while they
        stay normal floats.  Each float term is then within a relative b_j + 2^-49 of its
        true value, and summing m positive terms adds at most
        (m - 1) * 2^-53 of the sum, so the sum S of the float terms is
        within a relative rho = 2 * (max_j b_j + 2^-49 + m * 2^-53) of
        the true sum while rho is small.  The enclosure is S times
        1 -+ r with r the larger of 2 * rho (twice, for the rounding of
        its own endpoints) and 2^-40, so sums within 2^-40 of each other
        always fall through.  None (or an OverflowError from float()) is
        returned when r exceeds 2^-20, when a float log leaves
        [-700, 700], when a coefficient or term is not a normal float
        (so that underflow never shrinks a term), or when S is not
        finite.
        """
        total = 0.0
        err = 0.0
        for residue, coeff in self.terms.items():
            log, log_err = _float_log(residue)
            # False for an infinite or NaN log as well.
            if not -_SUM_FILTER_LOG <= log <= _SUM_FILTER_LOG:
                return None
            c = float(coeff)
            value = c * math.exp(log)
            if c < _SUM_FILTER_NORMAL or value < _SUM_FILTER_NORMAL:
                return None
            total += value
            err = max(err, log_err)
        rel = max(4 * (err + 2.0 ** -49 + len(self.terms) * 2.0 ** -53),
                  _SUM_FILTER_REL)
        if rel > 2.0 ** -20 or not math.isfinite(total):
            return None
        return total * (1 - rel), total * (1 + rel)

    def _compare_intervals(self, other: "PowerSum") -> int:
        """Compare by interval enclosures, doubling the precision from 64
        bits; a pair that _MAX_PREC bits cannot separate raises
        ComparisonUndecided."""
        prec = 64
        while prec <= _MAX_PREC:
            alo, ahi = self.bounds(prec)
            blo, bhi = other.bounds(prec)
            if ahi < blo:
                return -1
            if alo > bhi:
                return 1
            prec *= 2
        raise ComparisonUndecided(f"cannot separate {self} and {other}")

    def __le__(self, other: "PowerSum") -> bool:
        return self.compare(other) <= 0

    def __float__(self) -> float:
        return self.to_float()

    def to_float(self, logs: dict | None = None) -> float:
        """The midpoint of the sum's 80-bit enclosure, the same float
        whether or not `logs` (see `bounds`) is shared."""
        import mpmath

        with mpmath.workprec(80):
            lo, hi = self.bounds(80, logs)
            return float((lo + hi) / 2)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        terms = sorted(self.terms.items(), key=lambda t: repr(t[0]))
        return " + ".join(f"{c}*{r!r}" for r, c in terms)


def products_from_terms(
        terms: Iterable[Iterable[tuple[Rational, Rational]]]
) -> list[PowerProduct]:
    """prod base^exp for each list of (base, exp) pairs, with positive
    rational bases.

    Each distinct base is factorized once for the whole call.  A term's
    exponents are added as integer numerators over the lcm of its
    exponent denominators, which become the product's cleared form.  Primes
    enter the product in the order the pairs bring them in, and one whose
    exponent cancels to 0 leaves it, as when the pairs' powers are
    multiplied one by one; so equal terms give products with the same
    prime order, which the interval enclosures of their sums follow.
    """
    primes: dict[Rational, dict[int, int]] = {}
    out = []
    for term in terms:
        term = [(base, exp if isinstance(exp, (int, Fraction))
                 else Fraction(exp)) for base, exp in term]
        den = math.lcm(*(exp.denominator for _, exp in term))
        nums: dict[int, int] = {}
        for base, exp in term:
            factors = primes.get(base)
            if factors is None:
                factors = primes[base] = _prime_exponents(base)
            if not exp:
                continue
            scale = exp.numerator * (den // exp.denominator)
            for p, m in factors.items():
                new = nums.get(p, 0) + m * scale
                if new:
                    nums[p] = new
                else:
                    del nums[p]
        out.append(PowerProduct._of(nums, den))
    return out


def product_from_pairs(pairs: Iterable[tuple[Rational, Rational]]) -> PowerProduct:
    """Build prod base^exp from (base, exp) pairs with positive rational bases."""
    return products_from_terms([pairs])[0]
