"""Tables whose cells are sums of monomials, for the tests' other algebras.

csa.StructureAlgebra stores one nonzero monomial (k, v) per cell, as every
table the package builds has.  The fixed algebra B, materialized from its
blocks, the kernel oracle's fixed algebra, the dual numbers, the matrix
units and the like have cells that are sums or zero, so the tests hold them
in an EntriesTable: cell (i, j) a list of (index, tuple of d ints) over one
denominator, brought to lowest terms, so that equal tables are ==.  Nothing
is checked here; the Fraction oracles read these tables, and entries reads
a cell of either form.
"""

from math import gcd


class EntriesTable:
    """u_i u_j = sum of v u_k over the (k, v) in table[i][j], over den."""

    def __init__(self, field, constants, *, den: int = 1):
        g = gcd(den, *(x for row in constants for cell in row for _, v in cell for x in v))
        self.field, self.dim, self.den = field, len(constants), den // g
        self.table = [[[(k, tuple([x // g for x in v])) for k, v in cell] for cell in row] for row in constants]

    def __eq__(self, other) -> bool:
        return isinstance(other, EntriesTable) and (self.field, self.den, self.table) == (
            other.field, other.den, other.table)


def entries(cell) -> list:
    """A cell of either form as its list of (index, vector): a
    StructureAlgebra cell (k, v) is the one entry [(k, v)]."""
    return cell if isinstance(cell, list) else [cell]
