"""The `Fraction` determinant that the tests check integer
determinants against."""

from fractions import Fraction


def det_fraction_gauss(m: list[list[Fraction]]) -> Fraction:
    """The determinant of a square matrix of rationals by `Fraction`
    Gaussian elimination with row swaps: the tests' reference, which
    shares no code with the integer determinants it checks."""
    n = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if m[i][k] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det
