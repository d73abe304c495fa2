"""Sparse multivariate polynomials with exact rational coefficients."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence


class MultiPoly:
    """Immutable map from exponent vectors to nonzero rational coefficients."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int,
                 terms: Mapping[tuple[int, ...], Fraction]):
        self.num_vars = num_vars
        clean = {}
        for expvec, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if len(expvec) != num_vars or any(e < 0 for e in expvec):
                raise ValueError(f"bad exponent vector {expvec}")
            clean[tuple(int(e) for e in expvec)] = coeff
        self.terms: dict[tuple[int, ...], Fraction] = clean

    @classmethod
    def constant(cls, c, num_vars: int) -> "MultiPoly":
        return cls(num_vars, {(0,) * num_vars: Fraction(c)})

    @classmethod
    def linear(cls, coeffs: Sequence, offset) -> "MultiPoly":
        """sum coeffs[i] * x_i + offset."""
        nv = len(coeffs)
        terms = {(0,) * nv: Fraction(offset)}
        for i, c in enumerate(coeffs):
            e = [0] * nv
            e[i] = 1
            terms[tuple(e)] = Fraction(c)
        return cls(nv, terms)

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.num_vars:
            raise ValueError("point dimension mismatch")
        total = Fraction(0)
        for expvec, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, expvec):
                if e:
                    v *= Fraction(x) ** e
            total += v
        return total

    def sign_at(self, point: Sequence[Fraction]) -> int:
        v = self.evaluate(point)
        return (v > 0) - (v < 0)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return MultiPoly(self.num_vars, terms)

    def shift_vars(self, offset: int, total_vars: int) -> "MultiPoly":
        """Embed into a larger variable space starting at `offset`."""
        if offset + self.num_vars > total_vars:
            raise ValueError("shift exceeds the target space")
        terms = {}
        for expvec, coeff in self.terms.items():
            key = (0,) * offset + expvec + (0,) * (total_vars - offset - self.num_vars)
            terms[key] = coeff
        return MultiPoly(total_vars, terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly)
                and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for expvec in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[expvec]
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                            for i, e in enumerate(expvec) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def monomials_upto(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree <= degree, graded lex order."""
    out = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(num_vars), total):
            e = [0] * num_vars
            for v in combo:
                e[v] += 1
            out.append(tuple(e))
    return out


def poly_space_dim(num_vars: int, degree: int) -> int:
    return math.comb(degree + num_vars, num_vars)
