"""Exact power-product arithmetic sanity checks."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import zarank
from zarank import exactnum
from zarank.exactnum import (
    PowerProduct,
    PowerSum,
    factorize,
    product_from_pairs,
)


def test_factorize_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 10**6)
        f = factorize(n)
        assert math.prod(p**e for p, e in f.items()) == n


def test_known_surd_comparison():
    # 2^(1/2) vs 3^(1/3): cleared to 2^3 = 8 vs 3^2 = 9, so sqrt(2) < cbrt(3)
    a = PowerProduct.from_base_exp(2, Fraction(1, 2))
    b = PowerProduct.from_base_exp(3, Fraction(1, 3))
    assert a.compare(b) == -1
    assert b.compare(a) == 1
    assert a.compare(a) == 0


def test_rational_powers_evaluate_exactly():
    # 8^(2/3) = 4, 32^(4/5) = 16
    assert PowerProduct.from_base_exp(8, Fraction(2, 3)).as_rational() == 4
    assert PowerProduct.from_base_exp(32, Fraction(4, 5)).as_rational() == 16
    v = product_from_pairs([(8, Fraction(2, 3)), (8, Fraction(2, 3))])
    assert v.as_rational() == 16


def test_rational_base_handling():
    v = PowerProduct.from_base_exp(Fraction(9, 4), Fraction(1, 2))
    assert v.as_rational() == Fraction(3, 2)
    with pytest.raises(ValueError):
        PowerProduct.from_rational(0)


def test_float_approximation_tight():
    v = product_from_pairs([(10, Fraction(4, 5))])
    assert float(v) == pytest.approx(10 ** 0.8, rel=1e-12)


def test_sum_merges_commensurable_terms():
    # 2*sqrt(2) + 8^(1/2) = 2*sqrt(2) + 2*sqrt(2) = 4*sqrt(2)
    s = PowerSum.from_product(PowerProduct.from_base_exp(2, Fraction(1, 2)), 2)
    s = s + PowerSum.from_product(PowerProduct.from_base_exp(8, Fraction(1, 2)))
    assert len(s.terms) == 1
    t = PowerSum.from_product(PowerProduct.from_base_exp(2, Fraction(1, 2)), 4)
    assert s == t
    assert s.compare(t) == 0


def test_sum_comparison_escalates():
    # sqrt(2) + sqrt(3) vs sqrt(5 + 2 sqrt(6)): equal mathematically, but we
    # only ever compare sums that differ by a rational margin; check a close
    # unequal pair instead: 1 + sqrt(2) vs sqrt(2) + 10001/10000.
    a = PowerSum.from_product(PowerProduct.one()) + \
        PowerSum.from_product(PowerProduct.from_base_exp(2, Fraction(1, 2)))
    b = PowerSum.from_product(PowerProduct.one(), Fraction(10001, 10000)) + \
        PowerSum.from_product(PowerProduct.from_base_exp(2, Fraction(1, 2)))
    assert a.compare(b) == -1
    assert b.compare(a) == 1


def test_sum_comparison_undecided_past_max_precision(monkeypatch):
    # 1 + sqrt(2) vs (1 + 2^-100) + sqrt(2): 64-bit intervals overlap
    root2 = PowerSum.from_product(
        PowerProduct.from_base_exp(2, Fraction(1, 2)))
    a = PowerSum.from_product(PowerProduct.one()) + root2
    b = PowerSum.from_product(PowerProduct.one(),
                              1 + Fraction(1, 2 ** 100)) + root2
    assert a.compare(b) == -1
    monkeypatch.setattr(exactnum, "_MAX_PREC", 64)
    with pytest.raises(exactnum.ComparisonUndecided):
        a.compare(b)


def test_sum_rational_fast_path():
    a = PowerSum.from_product(PowerProduct.from_rational(Fraction(1, 3)))
    b = PowerSum.from_product(PowerProduct.from_rational(Fraction(2, 3)))
    assert a.compare(b) == -1
    assert (a + a + a).as_rational() == 1


def test_random_product_comparisons_against_floats():
    rng = random.Random(11)
    for _ in range(300):
        a = product_from_pairs([(rng.randint(2, 50), Fraction(rng.randint(-6, 6), rng.randint(1, 5)))])
        b = product_from_pairs([(rng.randint(2, 50), Fraction(rng.randint(-6, 6), rng.randint(1, 5)))])
        fa, fb = float(a), float(b)
        if abs(fa - fb) > 1e-9 * max(abs(fa), abs(fb)):
            want = -1 if fa < fb else 1
            assert a.compare(b) == want


# ---------------------------------------------------------------------------
# filtered comparison against the big-integer test

PRIMES = (2, 3, 5, 7, 11, 13, 101, 1_000_003)

exponents = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
products = st.dictionaries(st.sampled_from(PRIMES), exponents,
                           max_size=5).map(PowerProduct)


def _convergents(a: int, b: int, limit: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents p/q of log_a(b), so a^p ~ b^q,
    with q up to `limit`."""
    out = []
    with mpmath.workdps(100):
        x = mpmath.log(b) / mpmath.log(a)
        h0, h1, k0, k1 = 0, 1, 1, 0
        while True:
            c = int(mpmath.floor(x))
            h0, h1 = h1, c * h1 + h0
            k0, k1 = k1, c * k1 + k0
            if k1 > limit:
                return out
            out.append((h1, k1))
            x = 1 / (x - c)


# (p, b, q) with 2^p close to b^q.
NEAR_TIES = [(p, b, q) for b in (3, 5) for p, q in _convergents(2, b, 10**5)]


def _agrees_with_big_integers(a: PowerProduct, b: PowerProduct) -> int:
    want = exactnum._compare_exact(a / b)
    assert a.compare(b) == want
    assert b.compare(a) == -want
    return want


@settings(max_examples=300, deadline=None)
@given(products, products)
def test_filtered_compare_matches_big_integers(a, b):
    _agrees_with_big_integers(a, b)


@settings(max_examples=100, deadline=None)
@given(products, products, st.integers(1, 6))
def test_formally_equal_products_compare_equal(a, c, k):
    # a written two ways: a * c / c, and with every base raised to k and
    # its exponent divided by k.
    assert _agrees_with_big_integers(a * c / c, a) == 0
    b = product_from_pairs((p**k, e / k) for p, e in a.exps.items())
    assert _agrees_with_big_integers(a, b) == 0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NEAR_TIES), st.integers(1, 9), st.booleans(),
       products)
def test_near_ties_match_big_integers(tie, m, swap, common):
    # 2^(p/m) against 3^(q/m) or 5^(q/m), both times a common factor.
    # The last convergents leave gaps of 4e-7 and 4e-6 between logs
    # near 2e5 and 3e5, 50 and 1000 times the filter's bound.
    p, base, q = tie
    a = product_from_pairs([(2, Fraction(p, m))]) * common
    b = product_from_pairs([(base, Fraction(q, m))]) * common
    if swap:
        a, b = b, a
    want = _agrees_with_big_integers(a, b)
    with mpmath.workdps(60):
        gap = mpmath.fsum(mpmath.mpf(e.numerator) / e.denominator
                          * mpmath.log(prime)
                          for prime, e in (a / b).exps.items())
    assert want == (gap > 0) - (gap < 0)


def test_filter_decides_without_big_integers(monkeypatch):
    calls = []
    real = exactnum._compare_exact
    monkeypatch.setattr(exactnum, "_compare_exact",
                        lambda diff: calls.append(diff) or real(diff))
    a = product_from_pairs([(2, Fraction(1, 2))])
    b = product_from_pairs([(3, Fraction(1, 3))])
    assert a.compare(b) == -1
    assert calls == []


def test_inconclusive_filter_falls_back_to_big_integers(monkeypatch):
    calls = []
    real = exactnum._compare_exact
    monkeypatch.setattr(exactnum, "_compare_exact",
                        lambda diff: calls.append(diff) or real(diff))
    monkeypatch.setattr(exactnum, "_FILTER_EPS", 1.0)
    a = product_from_pairs([(2, Fraction(1, 2))])
    b = product_from_pairs([(3, Fraction(1, 3))])
    assert a.compare(b) == -1
    assert b.compare(a) == 1
    assert calls == [a / b, b / a]


def test_construction_shortcuts():
    x = PowerProduct({2: 1, 3: Fraction(-1, 2), 5: 0})
    assert x.exps == {2: 1, 3: Fraction(-1, 2)}
    assert all(type(e) is Fraction for e in x.exps.values())
    assert x ** 1 is x
    assert (x ** 0).is_one()
    assert PowerProduct.from_base_exp(Fraction(4, 9), Fraction(3, 2)) == \
        PowerProduct.from_rational(Fraction(8, 27))
    with pytest.raises(ValueError):
        PowerProduct.from_base_exp(-3, 0)


# ---------------------------------------------------------------------------
# interval enclosures of sums

sum_terms = st.lists(
    st.tuples(st.builds(Fraction, st.integers(1, 10**6),
                        st.integers(1, 10**3)),
              st.dictionaries(st.sampled_from(PRIMES[:6]), exponents,
                              max_size=4)),
    min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(sum_terms, st.sampled_from((24, 53, 64, 80, 200)))
def test_sum_bounds_enclose_a_tenfold_precise_value(terms, prec):
    s = PowerSum.zero()
    for coeff, exps in terms:
        s = s + PowerSum.from_product(PowerProduct(exps), coeff)
    lo, hi = s.bounds(prec)
    assert lo <= hi
    with mpmath.workprec(10 * prec):
        value = mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * mpmath.exp(mpmath.fsum(
                mpmath.mpf(e.numerator) / e.denominator * mpmath.log(p)
                for p, e in exps.items()))
            for c, exps in terms)
        # The reference itself is off by far less than `slack`, which
        # only matters where the enclosure is exact (rational sums).
        slack = value * mpmath.mpf(2) ** (-9 * prec)
        assert lo <= value + slack and value - slack <= hi
        assert hi - lo <= value * mpmath.mpf(2) ** (24 - prec)


def _assert_canonical(x: PowerProduct) -> None:
    assert x.den >= 1 and math.gcd(x.den, *x.nums.values()) == 1
    assert all(type(m) is int and m for m in x.nums.values())


@settings(max_examples=100, deadline=None)
@given(products, products, st.integers(-3, 3))
def test_equal_products_hash_equal_after_arithmetic(a, b, q):
    # Hash a and b first, so a kept hash would show if it went stale.
    hash(a), hash(b)
    root2 = PowerProduct({2: Fraction(1, 2)})
    for x, y in (((a * b) / b, a), ((a * b) ** q, a ** q * b ** q),
                 (a / b, a * b ** -1), (a ** q / a ** q, PowerProduct.one()),
                 (root2 ** 2, PowerProduct.from_rational(2)),
                 (a ** 2 * root2 ** 4 / a ** 2, PowerProduct.from_rational(4))):
        assert x == y
        assert hash(x) == hash(y) == hash(PowerProduct(dict(x.exps)))
        assert (x.nums, x.den) == (y.nums, y.den)
        _assert_canonical(x)
    assert (root2 ** 2).den == 1


PRIMES_TO_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
small_exps = st.dictionaries(
    st.sampled_from(PRIMES_TO_50),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    max_size=6)


def _reference_product(a: dict, b: dict, sign: int) -> dict:
    """a * b**sign on prime -> Fraction maps: the primes of a first, then
    those new in b, without the ones that cancel."""
    out = dict(a)
    for p, e in b.items():
        out[p] = out.get(p, 0) + sign * e
    return {p: e for p, e in out.items() if e}


@settings(max_examples=200, deadline=None)
@given(small_exps, small_exps,
       st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12)))
def test_cleared_form_matches_a_fraction_reference(ea, eb, q):
    a, b = PowerProduct(ea), PowerProduct(eb)
    ra = {p: e for p, e in ea.items() if e}
    cases = [(a, ra), (a * b, _reference_product(ra, eb, 1)),
             (a / b, _reference_product(ra, eb, -1)),
             (a ** q, {p: e * q for p, e in ra.items() if e * q})]
    for x, want in cases:
        # the same exponents, primes in the same order, stored canonically
        assert list(x.exps.items()) == list(want.items())
        _assert_canonical(x)
        rational, residue = x.split_rational()
        assert rational == math.prod(
            (Fraction(p) ** math.floor(e) for p, e in want.items()),
            start=Fraction(1))
        assert list(residue.exps.items()) == [
            (p, e - math.floor(e)) for p, e in want.items()
            if e.denominator != 1]
        _assert_canonical(residue)


# ---------------------------------------------------------------------------
# the float filter of sum comparisons against the interval-only path


def _sum(terms) -> PowerSum:
    s = PowerSum.zero()
    for coeff, exps in terms:
        s = s + PowerSum.from_product(PowerProduct(exps), coeff)
    return s


@settings(max_examples=50, deadline=None)
@given(sum_terms, sum_terms)
def test_shared_log_table_keeps_the_enclosures(ta, tb):
    """Sums enclosed against one prime-log table give the enclosures and
    floats they give alone, and the table holds each of their primes."""
    a, b = _sum(ta), _sum(tb)
    logs = {}
    assert a.bounds(80, logs) == a.bounds(80)
    assert (a.to_float(logs), b.to_float(logs)) == (float(a), float(b))
    assert set(logs) == {p for s in (a, b) for r in s.terms for p in r.exps}


@settings(max_examples=50, deadline=None)
@given(products)
def test_split_is_kept(a):
    first = a.split_rational()
    assert a.split_rational() is first
    assert first == PowerProduct(dict(a.exps)).split_rational()
    assert first[1].split_rational() == (1, first[1])


def _agrees_with_intervals(a: PowerSum, b: PowerSum) -> int:
    want = 0 if a == b else a._compare_intervals(b)
    assert a.compare(b) == want
    assert b.compare(a) == -want
    return want


def _overlap(a: PowerSum, b: PowerSum) -> bool:
    """The float enclosures cannot separate a and b (or do not exist)."""
    try:
        ea, eb = a._float_enclosure(), b._float_enclosure()
    except OverflowError:
        return True
    return ea is None or eb is None or not (ea[1] < eb[0] or eb[1] < ea[0])


@settings(max_examples=200, deadline=None)
@given(sum_terms, sum_terms)
def test_sum_filter_matches_intervals(ta, tb):
    _agrees_with_intervals(_sum(ta), _sum(tb))


@settings(max_examples=100, deadline=None)
@given(sum_terms, st.integers(42, 200), st.booleans())
def test_sum_near_ties_fall_through(terms, shift, swap):
    # b exceeds a by about 2^-shift of a, below the filter's least radius.
    a = _sum(terms)
    b = a + PowerSum.from_product(
        PowerProduct.one(), Fraction(float(a)) / 2 ** shift)
    if swap:
        a, b = b, a
    assert _overlap(a, b)
    assert _agrees_with_intervals(a, b) == (1 if swap else -1)


def test_sum_filter_decides_without_intervals(monkeypatch):
    calls = []
    bounds = PowerSum.bounds
    monkeypatch.setattr(PowerSum, "bounds", lambda self, prec: (
        calls.append(prec) or bounds(self, prec)))
    root = PowerSum.from_product(PowerProduct.from_base_exp(2, Fraction(1, 2)))
    cbrt = PowerSum.from_product(PowerProduct.from_base_exp(3, Fraction(1, 3)))
    assert root.compare(cbrt) == -1
    assert (root + cbrt).compare(root.scale(2)) == 1
    assert calls == []


ROOT3 = PowerProduct.from_base_exp(3, Fraction(1, 2))
ROOT15 = PowerProduct({3: Fraction(1, 2), 5: Fraction(1, 2)})


@pytest.mark.parametrize("a, b", [
    # coefficients past the float range: float() overflows
    (PowerSum.from_product(ROOT3, 2 ** 1100),
     PowerSum.from_product(PowerProduct.from_base_exp(2, Fraction(1, 2)),
                           2 ** 1100)),
    # one normal coefficient whose term overflows to inf
    (PowerSum.from_product(ROOT15, 2 ** 1023),
     PowerSum.from_product(ROOT3, 2 ** 1023)),
    # coefficients that underflow to 0 or a subnormal
    (PowerSum.from_product(ROOT3, Fraction(1, 2 ** 1100)),
     PowerSum.from_product(ROOT15, Fraction(1, 2 ** 1100))),
    (PowerSum.from_product(ROOT3, Fraction(1, 2 ** 1030)),
     PowerSum.from_product(ROOT15, Fraction(1, 2 ** 1030))),
    # float logs between 700 and 710, where exp still fits a float
    (PowerSum.from_product(PowerProduct({10 ** 610 + 1: Fraction(1, 2)})),
     PowerSum.from_product(PowerProduct({10 ** 610 + 1: Fraction(1, 2),
                                         2: Fraction(1, 2)}))),
])
def test_sum_filter_falls_back_outside_the_float_range(a, b):
    assert _overlap(a, b)
    assert _agrees_with_intervals(a, b) != 0


# ---------------------------------------------------------------------------
# mpmath is loaded on the first interval enclosure


def test_cli_import_leaves_mpmath_unloaded():
    # A fresh interpreter: this module has imported mpmath already.
    script = "\n".join([
        "import sys, zarank.cli",
        "from zarank.exactnum import PowerSum, product_from_pairs",
        "print('mpmath' in sys.modules)",
        "float(PowerSum.from_product(product_from_pairs([(2, 1 / 2)])))",
        "print('mpmath' in sys.modules)",
    ])
    path = [str(Path(zarank.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]
