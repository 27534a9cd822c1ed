"""Clifford algebras of diagonal quadratic forms, on subset bitmasks.

Basis blades e_S for S a subset of {1..n}, encoded as bitmasks (bit i-1
for index i).  The defining relations are v.v = q(v).1, so e_i e_i = a_i
and e_i e_j = -e_j e_i for i != j; the general blade product is

    e_S e_T = sign(S,T) * prod_{i in S cap T} a_i * e_{S xor T}

with sign(S,T) = (-1)^#{(s,t) in S x T : s > t}.  The even blades form a
subalgebra C0 of dimension 2^(n-1), built by even_part as a
structure-constant table.  For n = 3 it is the quaternion algebra
(-a1 a2, -a1 a3), via i -> e1 e2, j -> e1 e3, k = ij -> -a1 e2 e3; that
identification is certified on C0's table itself, the table the invariant
route corestricts.
"""

from functools import lru_cache

from .errors import CertificateFailure, DimensionMismatch, FieldMismatch, ZeroDiagonalEntry
from .exactfield import FieldDescriptor, FieldElem
from .brauer import QuaternionSymbol
from .csa import StructureAlgebra, from_symbol, monomial_algebra


class CliffordAlgebra:
    def __init__(self, field: FieldDescriptor, diag):
        self.field = field
        self.diag = [e if isinstance(e, FieldElem) else field.rational(e) for e in diag]
        for e in self.diag:
            if e.field != field:
                raise FieldMismatch("diagonal entry in the wrong field")
            if not e:
                raise ZeroDiagonalEntry("Clifford algebra needs nonzero diagonal entries")
        self.n = len(self.diag)
        self.dim = 1 << self.n
        self._square = lru_cache(maxsize=None)(self._square)  # once per mask

    def blade_product(self, s: int, t: int) -> tuple[FieldElem, int]:
        """(coefficient, mask) with e_s e_t = coefficient * e_mask."""
        sign = 0
        for i in range(self.n):
            if s >> i & 1:
                sign += bin(t & ((1 << i) - 1)).count("1")
        coeff = self._square(s & t)
        return (coeff if sign % 2 == 0 else -coeff), s ^ t

    def _square(self, common: int) -> FieldElem:
        """prod_{i in common} a_i, from the product without the top bit."""
        if not common:
            return self.field.one()
        top = common.bit_length() - 1
        return self._square(common ^ 1 << top) * self.diag[top]


def even_part(c: CliffordAlgebra) -> StructureAlgebra:
    """The even subalgebra as a structure-constant table, blades ascending."""
    masks = [m for m in range(c.dim) if bin(m).count("1") % 2 == 0]
    index = {m: i for i, m in enumerate(masks)}
    cells = []
    for s in masks:
        row = []
        for t in masks:
            coeff, mask = c.blade_product(s, t)
            row.append((index[mask], coeff))
        cells.append(row)
    return monomial_algebra(c.field, cells)


def even_rank3_to_symbol(c0: StructureAlgebra, entries) -> QuaternionSymbol:
    """The quaternion symbol (-a1 a2, -a1 a3) of c0, the even part of
    diag(a1, a2, a3) for entries = [a1, a2, a3].

    The identification 1, i, j, k -> u_0, u_1, u_2, -a1 u_3 (c0's basis is
    1, e1e2, e1e3, e2e3) is certified on c0's table before the symbol is
    returned: it must be multiplicative on all 16 basis pairs, and the
    first pair where it is not raises CertificateFailure.  The row-3 (k)
    relations follow: (1, 2) makes k = ij on both sides, both swept associative.
    """
    if c0.dim != 4 or len(entries) != 3:
        raise DimensionMismatch(
            f"rank-3 identification needs a dim-4 C0 and 3 entries, got dim {c0.dim} and {len(entries)}"
        )
    a1, a2, a3 = entries
    symbol = QuaternionSymbol(-(a1 * a2), -(a1 * a3))
    quaternions = from_symbol(symbol)
    one = c0.field.one()
    image = [one, one, one, -a1]  # 1, i, j, k map to image[x] u_x
    for x in range(4):
        for y in range(4):
            got = {k: image[x] * image[y] * c for k, c in c0.row(x, y)}
            want = {k: image[k] * c for k, c in quaternions.row(x, y)}
            if got != want:
                raise CertificateFailure(f"quaternion relation fails at ({x},{y})")
    return symbol
