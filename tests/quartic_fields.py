"""Two stock degree-4 field descriptors, as test fixtures.

Both are totally real Galois quartics with subgroups of order 2, so their
Z(A) has monomials whose stabiliser is neither trivial nor all of G: the
fixed field E^H there is a quadratic subfield.  The fixed algebra's
coordinates are read at the pivots of every E^H and checked against its
rows at the other columns; only here are there pivots and other columns
that are neither all of them (E^H = E) nor all but coordinate 0 (E^H = Q).

- the cyclic quartic X^4 - 4X^2 + 2, the real subfield of Q(zeta_16);
- the biquadratic X^4 - 10X^2 + 1 = Q(sqrt 2, sqrt 3), with G = C2 x C2.
"""

from fractions import Fraction as F

from ksalgebra.exactfield import FieldDescriptor


def cyclic_quartic_field() -> FieldDescriptor:
    return FieldDescriptor(
        [2, 0, -4, 0, 1],
        [[0, 1], [0, -3, 0, 1], [0, 3, 0, -1], [0, -1]],
        [(F(9, 5), F(19, 10)), (F(7, 10), F(4, 5)), (F(-4, 5), F(-7, 10)), (F(-19, 10), F(-9, 5))],
    )


def biquadratic_field() -> FieldDescriptor:
    return FieldDescriptor(
        [1, 0, -10, 0, 1],
        [[0, 1], [0, 10, 0, -1], [0, -10, 0, 1], [0, -1]],
        [(F(31, 10), F(16, 5)), (F(3, 10), F(2, 5)), (F(-2, 5), F(-3, 10)), (F(-16, 5), F(-31, 10))],
    )
