"""Clifford algebras of diagonal quadratic forms, on subset bitmasks.

Basis blades e_S for S a subset of {1..n}, encoded as bitmasks (bit i-1
for index i).  The defining relations are v.v = q(v).1, so e_i e_i = a_i
and e_i e_j = -e_j e_i for i != j; the general blade product is

    e_S e_T = sign(S,T) * prod_{i in S cap T} a_i * e_{S xor T}

with sign(S,T) = (-1)^#{(s,t) in S x T : s > t}.  The even blades form a
subalgebra C0 of dimension 2^(n-1), built by even_part as a
structure-constant table.  For n = 3 it is the quaternion algebra
(-a1 a2, -a1 a3), with i = e1 e2, j = e1 e3 and ij = -a1 e2 e3, certified
by i^2 = a, j^2 = b and ij = -ji on four cells of C0's table itself, the
table the invariant route corestricts.
"""

from functools import lru_cache

from .errors import DimensionMismatch, FieldMismatch, ZeroDiagonalEntry
from .exactfield import FieldDescriptor, FieldElem
from .brauer import QuaternionSymbol
from .csa import StructureAlgebra, check_products, monomial_algebra


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

    c0 (basis 1, e1e2, e1e3, e2e3) is certified to be (a, b) by the
    presentation (Voight, Quaternion Algebras, GTM 288, Ch. 2) on four of
    its stored cells: i = u_1 and j = u_2 with i^2 = a, j^2 = b,
    ij = -a1 u_3 and ji = a1 u_3.  With c0 swept associative, ij + ji = 0
    and 1, i, j, ij a basis (a1 != 0, as a is), c0 is (a, b).  The first
    failing cell raises CertificateFailure naming its relation.
    """
    if c0.dim != 4 or len(entries) != 3:
        raise DimensionMismatch(
            f"rank-3 identification needs a dim-4 C0 and 3 entries, got dim {c0.dim} and {len(entries)}"
        )
    a1, a2, a3 = entries
    symbol = QuaternionSymbol(-(a1 * a2), -(a1 * a3))
    check_products(c0, [
        ("quaternion relation i^2 = a", 1, 1, 0, symbol.a),
        ("quaternion relation j^2 = b", 2, 2, 0, symbol.b),
        ("quaternion relation ij = -a1 u_3", 1, 2, 3, -a1),
        ("quaternion relation ji = -ij", 2, 1, 3, a1),
    ])
    return symbol
