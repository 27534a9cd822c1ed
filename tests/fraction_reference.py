"""Plain-Fraction reference arithmetic for number field elements.

An element is the list of its d Fraction coefficients in the power basis.
Sums are taken coefficientwise and products as pmod(pmul(a, b), P).  None
of it touches FieldElem's integer vectors or the field's X^k mod P table,
so the tests can check that arithmetic against this one.  Norms are
checked against the resultant Res(P, g), read off as the determinant of
the Sylvester matrix: for monic P it is the product of g over the roots of
P, and it uses neither the automorphisms nor the field's multiplication.
"""

from fractions import Fraction

from ksalgebra.polynomials import pmod, pmul, trim


def pad(cs, d: int) -> list[Fraction]:
    return list(cs) + [Fraction(0)] * (d - len(cs))


def add(a, b) -> list[Fraction]:
    return [x + y for x, y in zip(a, b)]


def sub(a, b) -> list[Fraction]:
    return [x - y for x, y in zip(a, b)]


def mul(field, a, b) -> list[Fraction]:
    return pad(pmod(pmul(list(a), list(b)), field.min_poly), field.degree)


def sylvester_resultant(f, g):
    """Oracle: determinant of the Sylvester matrix, by exact elimination."""
    f, g = trim(f), trim(g)
    m, n = len(f) - 1, len(g) - 1
    assert m >= 0 and n >= 0
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows = []
    for i in range(n):  # n rows of f coefficients
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):  # m rows of g coefficients
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    # fraction Gaussian elimination, tracking row swaps
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] == 0:
                continue
            factor = rows[r][col] * inv
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det
