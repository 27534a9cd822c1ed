"""The Clifford blade product written out cell by cell, as the tests' oracle.

clifford.even_part builds C0 on subset masks: the products of the diagonal
entries by doubling over the masks, and one prefix parity per column.  This
module keeps the formula itself, with no code in common with even_part:

    e_s e_t = (-1)^#{(i, j) : i in s, j in t, j < i} * prod_{i in s & t} a_i * e_(s ^ t)

the sign counted bit by bit and the coefficient multiplied out over s & t.
"""

from ksalgebra.csa import StructureAlgebra, monomial_algebra
from ksalgebra.exactfield import FieldElem


class Blades:
    """The blades e_s of the Clifford algebra of diag(diag) over field, s a
    bitmask (bit i for the entry diag[i]); int entries are read as rationals."""

    def __init__(self, field, diag):
        self.field = field
        self.diag = [e if isinstance(e, FieldElem) else field.rational(e) for e in diag]
        self.dim = 1 << len(self.diag)

    def blade_product(self, s: int, t: int) -> tuple:
        """(coefficient, mask) with e_s e_t = coefficient * e_mask."""
        sign = 0
        for i in range(len(self.diag)):
            if s >> i & 1:
                sign += bin(t & ((1 << i) - 1)).count("1")
        coeff = self.field.one()
        for i, a in enumerate(self.diag):
            if (s & t) >> i & 1:
                coeff = coeff * a
        return (coeff if sign % 2 == 0 else -coeff), s ^ t


def reference_even_part(field, diag) -> StructureAlgebra:
    """C0 of diag(diag), the even blades ascending, through monomial_algebra."""
    c = Blades(field, diag)
    masks = [m for m in range(c.dim) if bin(m).count("1") % 2 == 0]
    index = {m: i for i, m in enumerate(masks)}
    cells = [[(index[mask], coeff) for coeff, mask in (c.blade_product(s, t) for t in masks)] for s in masks]
    return monomial_algebra(field, cells)
