"""Bound calculus: exponent formulas, bound values, identity checks.

Independent oracles: closed-form two-part exponents
alpha_1 = 1 - (d2-1)/(d1 d2 - 1), hand expansions of the full bound for
small k, and float evaluation cross-checks.
"""

import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zarank import bounds, exactnum
from zarank.bounds import (
    BoundValue,
    DimProfile,
    SizeProfile,
    check_dominance,
    check_matrix_identity,
    check_monotonicity,
    check_scaling_identity,
    erdos_bound,
    eval_E,
    eval_F,
    exponents,
    _f_terms,
)
from zarank.exactnum import (
    ComparisonUndecided,
    PowerProduct,
    PowerSum,
    product_from_pairs,
    products_from_terms,
)


def two_part_alphas(d1, d2):
    """Closed form printed after the defining equation, used as oracle."""
    return (Fraction(1) - Fraction(d2 - 1, d1 * d2 - 1),
            Fraction(1) - Fraction(d1 - 1, d1 * d2 - 1))


class TestExponents:
    def test_two_two(self):
        assert exponents(DimProfile((2, 2))).alphas == (Fraction(2, 3),) * 2

    def test_single_dimension_gives_zero(self):
        for d in (1, 2, 3, 7):
            assert exponents(DimProfile((d,))).alphas == (Fraction(0),)

    def test_triple_two(self):
        assert exponents(DimProfile((2, 2, 2))).alphas == (Fraction(4, 5),) * 3

    def test_two_three_matches_closed_form(self):
        assert exponents(DimProfile((2, 3))).alphas == two_part_alphas(2, 3)
        assert two_part_alphas(2, 3) == (Fraction(3, 5), Fraction(4, 5))

    def test_all_two_part_profiles_match_closed_form(self):
        for d1 in range(1, 8):
            for d2 in range(1, 8):
                if d1 == d2 == 1:
                    continue
                got = exponents(DimProfile((d1, d2))).alphas
                assert got == two_part_alphas(d1, d2)

    def test_single_one_dimension(self):
        assert exponents(DimProfile((1, 5))).alphas == (Fraction(0), Fraction(1))
        assert exponents(DimProfile((1, 2, 2))).alphas == (
            Fraction(0), Fraction(1), Fraction(1))

    def test_double_one_rejected(self):
        with pytest.raises(ValueError):
            exponents(DimProfile((1, 1)))
        with pytest.raises(ValueError):
            exponents(DimProfile((1, 1, 3)))

    def test_matrix_identity_seeded_profiles(self):
        rng = random.Random(2024)
        for _ in range(300):
            k = rng.randint(1, 6)
            dims = tuple(rng.randint(2, 9) for _ in range(k))
            rep = check_matrix_identity(DimProfile(dims))
            assert rep.ok
            assert all(r == 0 for r in rep.residuals)

    def test_every_small_profile_matches_formula(self):
        """alpha_i = 1 - (1/(d_i-1)) / (k-1 + sum_l 1/(d_l-1)) in Fractions,
        for every profile with d_i in 2..7 and k <= 4."""
        for k in range(1, 5):
            for dims in itertools.product(range(2, 8), repeat=k):
                inv = [Fraction(1, x - 1) for x in dims]
                want = tuple(1 - v / (k - 1 + sum(inv)) for v in inv)
                assert exponents(DimProfile(dims)).alphas == want, dims

    def test_single_one_dimension_is_the_limit(self):
        """With d_i = 1 the cleared form gives alpha_i = 0 and 1 elsewhere,
        the limit of the formula as d_i falls to 1 (d_i = 1 + 1/m)."""
        for k in range(1, 5):
            for rest in itertools.product(range(2, 8), repeat=k - 1):
                for i in range(k):
                    dims = rest[:i] + (1,) + rest[i:]
                    got = exponents(DimProfile(dims)).alphas
                    assert got == tuple(Fraction(j != i) for j in range(k))
                    for m in (10**3, 10**6):
                        inv = [Fraction(1, x - 1) if j != i else Fraction(m)
                               for j, x in enumerate(dims)]
                        near = [1 - v / (k - 1 + sum(inv)) for v in inv]
                        assert all(abs(a - b) <= Fraction(2 * k, m)
                                   for a, b in zip(near, got)), (dims, m)

    @pytest.mark.parametrize("perturb", [
        lambda al: (al[0] + Fraction(1, 1000),) + al[1:],
        lambda al: al[::-1],
    ], ids=["shifted", "reversed"])
    def test_matrix_identity_catches_wrong_exponents(self, monkeypatch,
                                                     perturb):
        """The integer residuals still check the exponents they are given."""
        real = bounds.exponents
        monkeypatch.setattr(
            bounds, "exponents",
            lambda d: bounds.ExponentVector(perturb(real(d).alphas)))
        for dims in ((2, 3), (2, 3, 5), (1, 4, 6), (3, 4, 5, 7)):
            assert not check_matrix_identity(DimProfile(dims)).ok, dims

    def test_matrix_identity_examples(self):
        rep = check_matrix_identity(DimProfile((2, 3)))
        assert rep.alphas == (Fraction(3, 5), Fraction(4, 5))
        assert rep.ok
        assert check_matrix_identity(DimProfile((2, 2))).ok
        # k = 1: empty sum equals alpha_1 = 0, vacuously true
        assert check_matrix_identity(DimProfile((4,))).ok


class TestEvalE:
    def test_exact_integer_powers(self):
        v = eval_E(DimProfile((2, 2)), SizeProfile((8, 8)))
        assert v.value.as_rational() == 16
        assert float(v) == pytest.approx(16.0)

    def test_triple(self):
        v = eval_E(DimProfile((2, 2, 2)), SizeProfile((32, 32, 32)))
        assert v.value.as_rational() == 4096

    def test_two_three_exponents_surface_in_pairs(self):
        v = eval_E(DimProfile((2, 3)), SizeProfile((100, 200)))
        assert v.pairs == (((Fraction(100), Fraction(3, 5)),
                            (Fraction(200), Fraction(4, 5))),)

    def test_float_matches_log_formula(self):
        rng = random.Random(5)
        for _ in range(50):
            k = rng.randint(1, 4)
            d = DimProfile(tuple(rng.randint(2, 6) for _ in range(k)))
            n = SizeProfile(tuple(rng.randint(2, 10**4) for _ in range(k)))
            alphas = exponents(d).alphas
            want = math.exp(sum(float(a) * math.log(x)
                                for a, x in zip(alphas, n.sizes)))
            assert float(eval_E(d, n)) == pytest.approx(want, rel=1e-9)


def brute_force_F_float(dims, sizes, eps):
    """Independent float expansion of the full bound, for cross-checks."""
    import itertools
    k = len(dims)
    total = 0.0
    for r in range(2, k + 1):
        for idx in itertools.combinations(range(k), r):
            alphas = exponents(DimProfile(tuple(dims[i] for i in idx))).alphas
            term = 1.0
            for pos, i in enumerate(idx):
                term *= sizes[i] ** (float(alphas[pos]) + float(eps))
            for i in range(k):
                if i not in idx:
                    term *= sizes[i]
            total += term
    total += sum(1.0 / x for x in sizes) * math.prod(sizes)
    return total


class TestEvalF:
    def test_hand_expansion_k2(self):
        # only I = {1,2} plus the trailing terms: 16 + 8 + 8 = 32
        v = eval_F(DimProfile((2, 2)), SizeProfile((8, 8)), 0)
        assert v.value.as_rational() == 32

    def test_k1_convention(self):
        for d in (1, 2, 5):
            v = eval_F(DimProfile((d,)), SizeProfile((17,)), 0)
            assert v.value.as_rational() == 17

    def test_k3_term_shape_matches_abstract(self):
        # equal dims d=2: terms (mnp)^{4/5}, m(np)^{2/3} and cyclic, mn+np+pm
        d = DimProfile((2, 2, 2))
        n = SizeProfile((7, 11, 13))
        v = eval_F(d, n, 0)
        exps = sorted(tuple(sorted((int(b), e) for b, e in term))
                      for term in v.pairs)
        want = sorted([
            ((7, Fraction(4, 5)), (11, Fraction(4, 5)), (13, Fraction(4, 5))),
            ((7, Fraction(1)), (11, Fraction(2, 3)), (13, Fraction(2, 3))),
            ((7, Fraction(2, 3)), (11, Fraction(1)), (13, Fraction(2, 3))),
            ((7, Fraction(2, 3)), (11, Fraction(2, 3)), (13, Fraction(1))),
            ((7, Fraction(1)), (11, Fraction(1))),
            ((11, Fraction(1)), (13, Fraction(1))),
            ((7, Fraction(1)), (13, Fraction(1))),
        ])
        assert exps == want

    def test_float_against_brute_force(self):
        rng = random.Random(9)
        for _ in range(40):
            k = rng.randint(2, 4)
            dims = tuple(rng.randint(2, 5) for _ in range(k))
            sizes = tuple(rng.randint(2, 500) for _ in range(k))
            eps = Fraction(rng.randint(0, 3), 100)
            got = float(eval_F(DimProfile(dims), SizeProfile(sizes), eps))
            want = brute_force_F_float(dims, sizes, eps)
            assert got == pytest.approx(want, rel=1e-9)

    def test_F_at_least_E(self):
        rng = random.Random(13)
        for _ in range(60):
            k = rng.randint(1, 4)
            dims = tuple(rng.randint(2, 5) for _ in range(k))
            sizes = tuple(rng.randint(1, 100) for _ in range(k))
            E = eval_E(DimProfile(dims), SizeProfile(sizes)).value
            F = eval_F(DimProfile(dims), SizeProfile(sizes), 0).value
            assert E.compare(F) <= 0

    def test_F_monotone_in_each_size(self):
        rng = random.Random(17)
        for _ in range(40):
            k = rng.randint(2, 4)
            dims = tuple(rng.randint(2, 5) for _ in range(k))
            sizes = [rng.randint(1, 60) for _ in range(k)]
            i = rng.randrange(k)
            bumped = list(sizes)
            bumped[i] += rng.randint(1, 20)
            lo = eval_F(DimProfile(dims), SizeProfile(tuple(sizes)), 0).value
            hi = eval_F(DimProfile(dims), SizeProfile(tuple(bumped)), 0).value
            assert lo.compare(hi) <= 0

    def test_k2_remark_shape(self):
        # m^{(d1d2-d2)/(d1d2-1)+eps} n^{(d1d2-d1)/(d1d2-1)+eps} + m + n
        d1, d2, m, n = 3, 4, 50, 70
        eps = Fraction(1, 100)
        v = eval_F(DimProfile((d1, d2)), SizeProfile((m, n)), eps)
        a1 = Fraction(d1 * d2 - d2, d1 * d2 - 1)
        a2 = Fraction(d1 * d2 - d1, d1 * d2 - 1)
        want = BoundValue.build([
            [(m, a1 + eps), (n, a2 + eps)],
            [(n, 1)],
            [(m, 1)],
        ]).value
        assert v.value == want


class TestScaling:
    def test_worked_example(self):
        # d=(2,2), n=(64,8), r=8, special index 2 (0-based 1):
        # both sides equal 64
        rep = check_scaling_identity(DimProfile((2, 2)), SizeProfile((64, 8)),
                                     8, special_index=1)
        assert rep.ok
        assert rep.lhs_value.as_rational() == 64
        assert rep.rhs_value.as_rational() == 64

    def test_r_one_is_identity(self):
        rep = check_scaling_identity(DimProfile((3, 2, 4)),
                                     SizeProfile((10, 20, 30)), 1, 0)
        assert rep.ok
        assert rep.lhs_value == rep.rhs_value

    def test_seeded_draws_exact(self):
        rng = random.Random(4096)
        for _ in range(100):
            k = rng.randint(1, 5)
            d = DimProfile(tuple(rng.randint(2, 7) for _ in range(k)))
            n = SizeProfile(tuple(rng.randint(1, 10**4) for _ in range(k)))
            r = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            i = rng.randrange(k)
            rep = check_scaling_identity(d, n, r, i)
            assert rep.ok, (d, n, r, i)
            assert rep.lhs_r_exponent == 0


class TestMonotonicity:
    def test_worked_example(self):
        rep = check_monotonicity(DimProfile((3, 2)), SizeProfile((100, 100)),
                                 i=0, eps=0)
        assert rep.hypothesis_met
        assert rep.holds
        # independent float check: F_{(2,2)} <= F_{(3,2)}
        lo = brute_force_F_float((2, 2), (100, 100), 0)
        hi = brute_force_F_float((3, 2), (100, 100), 0)
        assert lo <= hi

    def test_all_ones_sizes(self):
        rep = check_monotonicity(DimProfile((3, 2)), SizeProfile((1, 1)),
                                 i=0, eps=0)
        assert rep.hypothesis_met
        assert rep.holds

    def test_hypothesis_failure_reported(self):
        # n_1 = 2, n_2 = 2^{10}: 2^{d_2} = 4 < 1024 fails the side condition
        rep = check_monotonicity(DimProfile((3, 2)), SizeProfile((2, 1024)),
                                 i=0, eps=0)
        assert not rep.hypothesis_met
        assert rep.holds is None
        assert rep.failed_pairs == ((0, 1),)

    def test_seeded_draws(self):
        rng = random.Random(31337)
        done = 0
        while done < 100:
            k = rng.randint(2, 4)
            dims = tuple(rng.randint(2, 6) for _ in range(k))
            sizes = tuple(rng.randint(2, 10**3) for _ in range(k))
            i = rng.randrange(k)
            rep = check_monotonicity(DimProfile(dims), SizeProfile(sizes),
                                     i, Fraction(1, 100))
            if not rep.hypothesis_met:
                continue
            assert rep.holds, (dims, sizes, i)
            done += 1


class TestDominance:
    def test_worked_example(self):
        N = 10**6
        rep = check_dominance(DimProfile((2, 2)), SizeProfile((N, N)), 0)
        assert rep.hypothesis_met
        assert rep.holds
        assert rep.constant == Fraction(1, 8)
        assert rep.ratio >= 1 / 8

    def test_tiny_sizes_fail_hypothesis(self):
        rep = check_dominance(DimProfile((2, 2, 2)), SizeProfile((1, 1, 1)), 0)
        assert not rep.hypothesis_met
        assert rep.holds is None

    def test_one_dimension_rejected(self):
        with pytest.raises(ValueError, match="at least two dimensions"):
            check_dominance(DimProfile((5,)), SizeProfile((10,)), 0)

    def test_seeded_draws(self):
        rng = random.Random(777)
        done = 0
        while done < 100:
            k = rng.randint(2, 3)
            dims = tuple(rng.randint(2, 4) for _ in range(k))
            sizes = tuple(rng.randint(10**3, 10**6) for _ in range(k))
            rep = check_dominance(DimProfile(dims), SizeProfile(sizes),
                                  Fraction(1, 1000))
            if not rep.hypothesis_met:
                continue
            assert rep.holds, (dims, sizes)
            assert rep.ratio >= float(rep.constant)
            done += 1


def _old_hypothesis_side(d, n, eps, i):
    """n_i * F(d w/o i, n w/o i), built as the dominance check once built
    it: the (k-1)-part bound's products summed one by one, then
    multiplied by n_i."""
    sub = PowerSum.zero()
    for _, term in _f_terms(d.drop(i), n.drop(i), eps):
        sub = sub + PowerSum.from_product(product_from_pairs(term))
    return sub.times_product(PowerProduct.from_rational(n.sizes[i]))


@st.composite
def profiles(draw):
    k = draw(st.integers(2, 4))
    dims = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k)
                .filter(lambda ds: ds.count(1) <= 1))
    sizes = draw(st.lists(st.integers(1, 10**6), min_size=k, max_size=k))
    eps = draw(st.builds(Fraction, st.integers(0, 50), st.integers(1, 1000)))
    return DimProfile(tuple(dims)), SizeProfile(tuple(sizes)), eps


@settings(max_examples=80, deadline=None)
@given(profiles())
def test_hypothesis_sides_are_sub_sums_of_F(profile):
    """n_i * F(d w/o i, n w/o i) is the sum of the terms of F(d, n) whose
    index set leaves out i, the identity check_dominance relies on."""
    d, n, eps = profile
    terms = _f_terms(d, n, eps)
    prods = products_from_terms(term for _, term in terms)
    for i in range(d.k):
        sub = PowerSum.from_products(
            prod for (inside, _), prod in zip(terms, prods)
            if i not in inside)
        assert sub == _old_hypothesis_side(d, n, eps, i)


class TestFactorizeOnce:
    """Each check builds all its products in one call, which factorizes
    every distinct size once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        factorize = exactnum.factorize
        monkeypatch.setattr(exactnum, "factorize",
                            lambda m: calls.update([m]) or factorize(m))
        return calls

    def test_dominance(self, calls):
        rep = check_dominance(DimProfile((2, 2, 3)),
                              SizeProfile((10**6, 720720, 10**6)),
                              Fraction(1, 1000))
        assert rep.hypothesis_met and rep.holds
        assert calls == Counter({10**6: 1, 720720: 1})

    def test_monotonicity(self, calls):
        rep = check_monotonicity(DimProfile((3, 2, 4)),
                                 SizeProfile((360, 100, 360)), 0,
                                 Fraction(1, 100))
        assert rep.hypothesis_met and rep.holds
        assert calls == Counter({360: 1, 100: 1})


class TestExponentsOnce:
    """Each check builds the exponents of each dims tuple of its subsets
    once, also across the two profiles of a monotonicity check."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        alphas = bounds._alphas
        monkeypatch.setattr(bounds, "_alphas",
                            lambda dims: calls.update([dims]) or alphas(dims))
        return calls

    def test_dominance(self, calls):
        check_dominance(DimProfile((2, 2, 3)),
                        SizeProfile((10**6, 720720, 10**6)), Fraction(1, 1000))
        assert calls == Counter({(2, 2): 1, (2, 3): 1, (2, 2, 3): 1})

    def test_monotonicity(self, calls):
        check_monotonicity(DimProfile((3, 2, 4)),
                           SizeProfile((360, 100, 360)), 0, Fraction(1, 100))
        assert calls == Counter({(2, 2): 1, (2, 4): 1, (2, 2, 4): 1,
                                 (3, 2): 1, (3, 4): 1, (3, 2, 4): 1})


class TestSumFallbacks:
    """The branches behind the termwise comparison: the sums, and an
    undecided sum comparison counting as not holding."""

    MONO = (DimProfile((3, 2)), SizeProfile((100, 100)), 0)
    DOM = (DimProfile((2, 2)), SizeProfile((10**6, 10**6)), 0)

    def test_termwise_monotonicity_encloses_nothing(self, monkeypatch):
        calls = []
        bounds = PowerSum.bounds
        monkeypatch.setattr(PowerSum, "bounds", lambda self, prec: (
            calls.append(prec) or bounds(self, prec)))
        assert check_monotonicity(*self.MONO).holds
        assert calls == []

    def test_sums_decide_when_a_term_resists(self, monkeypatch):
        sums = []
        compare = PowerSum.compare
        monkeypatch.setattr(PowerProduct, "compare", lambda self, other: 1)
        monkeypatch.setattr(PowerSum, "compare", lambda self, other: (
            sums.append(other) or compare(self, other)))
        assert check_monotonicity(*self.MONO).holds
        assert len(sums) == 1
        sums.clear()
        rep = check_dominance(*self.DOM)
        assert rep.hypothesis_met and rep.holds
        # two hypotheses, then the fallback against F / 2^{k+1}
        assert len(sums) == 3

    def test_undecided_sums_do_not_hold(self, monkeypatch):
        def undecided(self, other):
            raise ComparisonUndecided("forced")

        monkeypatch.setattr(PowerProduct, "compare", lambda self, other: 1)
        monkeypatch.setattr(PowerSum, "compare", undecided)
        rep = check_monotonicity(*self.MONO)
        assert rep.hypothesis_met and rep.holds is False
        rep = check_dominance(*self.DOM)
        assert not rep.hypothesis_met
        assert rep.failed_indices == (0, 1)
        assert rep.holds is None


class TestErdosBound:
    def test_k2_leading_exponent(self):
        v = erdos_bound(2, (2, 2), SizeProfile((100, 100)))
        # bracket: n^{-1/2} n^2 = n^{3/2} plus n^{-1} n^2 = n
        floats = sorted(
            math.prod(float(b) ** float(e) for b, e in term)
            for term in v.pairs)
        assert floats == pytest.approx([100.0, 100.0 ** 1.5])

    def test_k3_leading_exponent(self):
        n = 16
        v = erdos_bound(3, (2, 2, 2), SizeProfile((n, n, n)))
        lead = max(math.prod(float(b) ** float(e) for b, e in term)
                   for term in v.pairs)
        assert lead == pytest.approx(n ** (3 - 0.25))

    def test_k1_convention(self):
        v = erdos_bound(1, (3,), SizeProfile((12,)))
        assert v.value.as_rational() == 12


def _parity_reports(seed):
    """The reprs of bound reports and values on inputs drawn from `seed`:
    matrix identities (a single d_i = 1 among them), scaling identities
    with E and F, monotonicity, and dominance with its float ratio."""
    rng = random.Random(f"parity:{seed}")
    out = []
    for _ in range(40):
        k = rng.randint(1, 5)
        dims = [rng.randint(2, 9) for _ in range(k)]
        if k >= 2 and rng.random() < 0.25:
            dims[rng.randrange(k)] = 1
        out.append(check_matrix_identity(DimProfile(tuple(dims))))
    for _ in range(6):
        k = rng.randint(1, 4)
        d = DimProfile(tuple(rng.randint(2, 7) for _ in range(k)))
        n = SizeProfile(tuple(rng.randint(1, 10**4) for _ in range(k)))
        r = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        out += [check_scaling_identity(d, n, r, i) for i in range(k)]
        out += [eval_E(d, n), eval_F(d, n, Fraction(rng.randint(0, 3), 100))]
    for t in range(12):
        k = 2 + t % 3
        d = DimProfile(tuple(rng.randint(2, 6) for _ in range(k)))
        n = SizeProfile(tuple(rng.randint(2, 10**3) for _ in range(k)))
        out.append(check_monotonicity(d, n, rng.randrange(k),
                                      Fraction(rng.randint(0, 2), 100)))
    for t in range(8):
        k = 2 + t % 2
        d = DimProfile(tuple(rng.randint(2, 4) for _ in range(k)))
        n = SizeProfile(tuple(rng.randint(10**3, 10**6) for _ in range(k)))
        out.append(check_dominance(d, n, Fraction(1, 1000)))
    return "\n".join(map(repr, out))


# sha256 of _parity_reports(seed): every report, down to the bits of each
# dominance ratio, stays as the bound checks first computed it.
PARITY_DIGESTS = {
    0: "a4e75b18e2e83ac0583cd4da732d7e8f81a229dd98a9f2172272cf9d71bb7792",
    1: "9d00d5920d694aad802ecae620ab39c7d35c21fb734bce0896aa6b45612161b9",
    2: "36255340ee90a028c04e852e1acc23ea0548c7e2873c0799a9df28d577118fb2",
}


@pytest.mark.parametrize("seed", sorted(PARITY_DIGESTS))
def test_report_parity(seed):
    text = _parity_reports(seed)
    assert hashlib.sha256(text.encode()).hexdigest() == PARITY_DIGESTS[seed]
