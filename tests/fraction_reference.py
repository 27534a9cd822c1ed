"""Plain-Fraction reference arithmetic for number field elements.

An element is the list of its d Fraction coefficients in the power basis.
Sums are taken coefficientwise and products as pmod(pmul(a, b), P).  None
of it touches FieldElem's integer vectors or the field's X^k mod P table,
so the tests can check that arithmetic against this one.
"""

from fractions import Fraction

from ksalgebra.polynomials import pmod, pmul


def pad(cs, d: int) -> list[Fraction]:
    return list(cs) + [Fraction(0)] * (d - len(cs))


def add(a, b) -> list[Fraction]:
    return [x + y for x, y in zip(a, b)]


def sub(a, b) -> list[Fraction]:
    return [x - y for x, y in zip(a, b)]


def mul(field, a, b) -> list[Fraction]:
    return pad(pmod(pmul(list(a), list(b)), field.min_poly), field.degree)
