"""The table of a quaternion algebra (a, b), given by its symbol.

The package certifies C0 of a rank-3 form as (a, b) by the presentation
i^2 = a, j^2 = b, ij = -ji on C0's own table (clifford.even_rank3_to_symbol)
and never builds (a, b) as a table of its own.  The tests use one as a
small associative algebra with known constants: the Hamilton and split
quaternions, a table whose constants need a common denominator, and the
algebras whose Z(A) and fixed algebra the kernel oracle compares.
"""

from ksalgebra.brauer import QuaternionSymbol
from ksalgebra.csa import StructureAlgebra, monomial_algebra


def quaternion_table(s: QuaternionSymbol) -> StructureAlgebra:
    """The 4-dimensional algebra 1, i, j, k with i^2 = a, j^2 = b, k = ij."""
    a, b = s.a, s.b
    one = s.field.one()
    cells = [
        [(0, one), (1, one), (2, one), (3, one)],
        [(1, one), (0, a), (3, one), (2, a)],
        [(2, one), (3, -one), (0, b), (1, -b)],
        [(3, one), (2, -a), (1, b), (0, -(a * b))],
    ]
    return monomial_algebra(s.field, cells)
