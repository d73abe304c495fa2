"""Exact arithmetic for positive reals of the form prod_i b_i^{e_i}.

The bound formulas evaluate to products and sums of rational powers of
positive rationals (e.g. 8^(2/3) * 5^(1/2)).  Floats cannot compare such
values reliably, so every value is kept in a canonical prime-factored
form: a PowerProduct is a map prime -> rational exponent, and a PowerSum
is a rational-coefficient combination of PowerProducts.

Single power products compare exactly by a filtered test: a float sum of
e_p * log p with a forward error bound decides the sign whenever the sum
clears the bound, and otherwise the exponent denominators are cleared and
big integers compared.  Sums compare exactly when they share the same
irrational parts (termwise).  Otherwise a float filter of the same kind
evaluates each term c * exp(sum_p e_p log p) with a forward error bound
and decides when the two float enclosures are disjoint; sums that it
cannot separate (near ties, or terms whose floats overflow or underflow)
fall through to enclosures in mpmath's interval arithmetic (the routines
behind mpmath.iv) at escalating precision.

Products are built from (base, exponent) terms by `products_from_terms`,
which factorizes each distinct base once per call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

import mpmath
from mpmath.libmp import (
    from_int,
    from_rational,
    mpi_add,
    mpi_div,
    mpi_exp,
    mpi_log,
    mpi_mul,
    round_ceiling,
    round_floor,
)

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
    """An exact positive real ``prod p^e`` with p prime and e rational."""

    # `exps` is never mutated after construction, so the hash is computed
    # on first use and kept.
    __slots__ = ("exps", "_hash")

    def __init__(self, exps: Mapping[int, Rational] | None = None):
        cleaned = {}
        if exps:
            for p, e in exps.items():
                e = Fraction(e)
                if e != 0:
                    cleaned[p] = e
        self.exps: dict[int, Fraction] = cleaned
        self._hash: int | None = None

    @classmethod
    def _of(cls, exps: dict[int, Fraction]) -> "PowerProduct":
        """Wrap a prime -> nonzero Fraction map as is, without copying."""
        out = object.__new__(cls)
        out.exps = exps
        out._hash = None
        return out

    @classmethod
    def one(cls) -> "PowerProduct":
        return cls()

    @classmethod
    def from_rational(cls, q: Rational) -> "PowerProduct":
        return cls._of({p: Fraction(m)
                        for p, m in _prime_exponents(q).items()})

    @classmethod
    def from_base_exp(cls, base: Rational, exp: Rational) -> "PowerProduct":
        """base**exp for a positive rational base and rational exponent."""
        primes = _prime_exponents(base)
        exp = Fraction(exp)
        if not exp:
            return cls()
        return cls._of({p: exp * m for p, m in primes.items()})

    def __mul__(self, other: "PowerProduct") -> "PowerProduct":
        exps = dict(self.exps)
        for p, e in other.exps.items():
            _add_exponent(exps, p, e)
        return PowerProduct._of(exps)

    def __truediv__(self, other: "PowerProduct") -> "PowerProduct":
        exps = dict(self.exps)
        for p, e in other.exps.items():
            _add_exponent(exps, p, -e)
        return PowerProduct._of(exps)

    def __pow__(self, q: Rational) -> "PowerProduct":
        if q == 1:
            return self
        if q == 0:
            return PowerProduct()
        q = Fraction(q)
        return PowerProduct._of({p: e * q for p, e in self.exps.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PowerProduct) and self.exps == other.exps

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.exps.items()))
        return self._hash

    def is_one(self) -> bool:
        return not self.exps

    def is_rational(self) -> bool:
        return all(e.denominator == 1 for e in self.exps.values())

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        val = Fraction(1)
        for p, e in self.exps.items():
            val *= Fraction(p) ** int(e)
        return val

    def split_rational(self) -> tuple[Fraction, "PowerProduct"]:
        """Factor into (rational part, residue with exponents in [0,1))."""
        num = den = 1
        residue: dict[int, Fraction] = {}
        for p, e in self.exps.items():
            whole, rem = divmod(e.numerator, e.denominator)
            if whole > 0:
                num *= p**whole
            elif whole < 0:
                den *= p**-whole
            if rem:
                residue[p] = e if whole == 0 else Fraction(rem, e.denominator)
        return Fraction(num, den), PowerProduct._of(residue)

    def compare(self, other: "PowerProduct") -> int:
        """Exact three-way comparison: -1, 0 or +1.

        The sign of log(self / other) = sum_p e_p log p is first read off
        the float sum S = sum_p fl(e_p) * fl(log p).  float(Fraction) is
        correctly rounded; the bound assumes math.log(p) is within 4 ulps
        (relative error 2^-50) of log p.  glibc's log is within 1 ulp,
        and CPython's reduction of integers past the float range stays
        within 4.  Each term is then within 2^-49 of its true value, and
        summing n terms adds at most (n - 1) * 2^-53 of the sum of their
        magnitudes, so |S - log(self / other)| is below
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
    """The float sum S of fl(e_p) * fl(log p) over the primes of `prod`,
    and the bound (n + 4) * (2^-48 * sum_p |term_p| + 2^-960) on
    |S - log(prod)| derived in PowerProduct.compare."""
    total = size = 0.0
    for p, e in prod.exps.items():
        term = float(e) * math.log(p)
        total += term
        size += abs(term)
    return total, (len(prod.exps) + 4) * (_FILTER_EPS * size + _FILTER_TINY)


def _add_exponent(exps: dict[int, Fraction], p: int, e: Fraction) -> None:
    """exps[p] += e, dropping p when its exponent cancels to zero."""
    old = exps.get(p)
    if old is None:
        exps[p] = e
        return
    new = old + e
    if new:
        exps[p] = new
    else:
        del exps[p]


def _compare_exact(diff: PowerProduct) -> int:
    """Sign of log(diff) by big integers: clear the exponent denominators
    and compare the products of the positive and negative powers."""
    lcm = math.lcm(*(e.denominator for e in diff.exps.values()))
    hi = 1
    lo = 1
    for p, e in diff.exps.items():
        m = int(e * lcm)
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

    def __init__(self, terms: Mapping[PowerProduct, Fraction] | None = None):
        self.terms: dict[PowerProduct, Fraction] = {}
        if terms:
            for prod, coeff in terms.items():
                self._add(prod, Fraction(coeff))

    def _add(self, prod: PowerProduct, coeff: Fraction) -> None:
        if coeff == 0:
            return
        extra, residue = prod.split_rational()
        c = self.terms.get(residue, Fraction(0)) + coeff * extra
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

    def term_list(self) -> list[tuple[Fraction, PowerProduct]]:
        return sorted(
            ((c, r) for r, c in self.terms.items()),
            key=lambda t: repr(t[1]),
        )

    def bounds(self, prec: int) -> tuple[mpmath.mpf, mpmath.mpf]:
        """Rigorous enclosure [lo, hi] of the sum by `prec`-bit intervals.

        The intervals are mpmath's (the libmpi routines behind mpmath.iv,
        which round every endpoint outward): an interval log per prime,
        integer exponent numerators over one denominator per term, an
        interval exp per term and each rational coefficient as the
        interval of its two directed roundings.
        """
        logs = {}
        total = _point(0)
        for residue, coeff in self.terms.items():
            den = math.lcm(*(e.denominator for e in residue.exps.values()))
            log = _point(0)
            for p, e in residue.exps.items():
                if p not in logs:
                    logs[p] = mpi_log(_point(p), prec)
                m = _point(e.numerator * (den // e.denominator))
                log = mpi_add(log, mpi_mul(m, logs[p], prec), prec)
            value = mpi_exp(mpi_div(log, _point(den), prec), prec)
            total = mpi_add(total, mpi_mul(_interval(coeff, prec), value,
                                           prec), prec)
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
        with mpmath.workprec(80):
            lo, hi = self.bounds(80)
            return float((lo + hi) / 2)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{r!r}" for c, r in self.term_list())


def _point(n: int) -> tuple:
    """The exact interval [n, n] of an integer."""
    x = from_int(n)
    return x, x


def _interval(q: Fraction, prec: int) -> tuple:
    """`q` rounded down and up to `prec` bits."""
    return (from_rational(q.numerator, q.denominator, prec, round_floor),
            from_rational(q.numerator, q.denominator, prec, round_ceiling))


def products_from_terms(
        terms: Iterable[Iterable[tuple[Rational, Rational]]]
) -> list[PowerProduct]:
    """prod base^exp for each list of (base, exp) pairs, with positive
    rational bases.

    Each distinct base is factorized once for the whole call.  A term's
    exponents are added as integer numerators over the lcm of its
    exponent denominators, so each prime costs one Fraction.  Primes
    enter the product in the order the pairs bring them in, and one whose
    exponent cancels to 0 leaves it, as when the pairs' powers are
    multiplied one by one; so equal terms give products with the same
    prime order, which the interval enclosures of their sums follow.
    """
    primes: dict[Rational, dict[int, int]] = {}
    out = []
    for term in terms:
        term = [(base, Fraction(exp)) for base, exp in term]
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
        out.append(PowerProduct._of({p: Fraction(v, den)
                                     for p, v in nums.items()}))
    return out


def product_from_pairs(pairs: Iterable[tuple[Rational, Rational]]) -> PowerProduct:
    """Build prod base^exp from (base, exp) pairs with positive rational bases."""
    return products_from_terms([pairs])[0]
