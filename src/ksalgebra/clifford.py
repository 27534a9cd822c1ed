"""The even Clifford algebra C0 of a diagonal quadratic form, on subset bitmasks.

Basis blades e_S for S a subset of {1..m}, encoded as bitmasks (bit i-1
for index i).  The defining relations are v.v = q(v).1, so e_i e_i = a_i
and e_i e_j = -e_j e_i for i != j; the general blade product is

    e_S e_T = (-1)^#{(s,t) in S x T : s > t} * prod_{i in S cap T} a_i * e_{S xor T}

(Lam, Introduction to Quadratic Forms over Fields, Ch. V), so a cell
depends only on S xor T, S cap T and one sign bit: the parity of
|S cap p(T)|, where bit i of the prefix parity p(T) is the parity of the
bits of T below i.  The even blades form C0, of dimension 2^(m-1), built by
even_part as a structure-constant table.  For m = 3 it is the quaternion
algebra (-a1 a2, -a1 a3), with i = e1 e2, j = e1 e3 and ij = -a1 e2 e3,
certified by i^2 = a, j^2 = b and ij = -ji on four cells of C0's table
itself, the table the invariant route corestricts.
"""

from .errors import DimensionMismatch, FieldMismatch, ZeroDiagonalEntry
from .exactfield import FieldDescriptor, FieldElem
from .brauer import QuaternionSymbol
from .csa import StructureAlgebra, check_products, monomial_algebra


def even_part(field: FieldDescriptor, diag) -> StructureAlgebra:
    """C0 of diag(a_1..a_m) over field as a structure-constant table, blades
    ascending; an int entry is read as a rational of field.

    The products sq[S] = prod_{i in S} a_i are formed once for all 2^m
    masks, by doubling, and negated once.  The cell (s, t) is e_(s ^ t)
    with the coefficient sq[s & t], negated when s & p(t) has odd weight:
    p(t), the prefix parity of t shifted up one bit, is formed once per t
    by the doubling XOR of Knuth, TAOCP 4A, 7.1.3.  A zero entry raises
    ZeroDiagonalEntry, an entry of another field FieldMismatch.
    """
    diag = [e if isinstance(e, FieldElem) else field.rational(e) for e in diag]
    for e in diag:
        if e.field != field:
            raise FieldMismatch("diagonal entry in the wrong field")
        if not e:
            raise ZeroDiagonalEntry("Clifford algebra needs nonzero diagonal entries")
    sq = [field.one()]
    for a in diag:
        sq += [x * a for x in sq]
    signed = (sq, [-x for x in sq])
    masks = [s for s in range(len(sq)) if not s.bit_count() & 1]
    index = {s: i for i, s in enumerate(masks)}
    parities = []
    for t in masks:
        p, k = t << 1, 1
        while k < len(diag):  # bit i of p: the parity of the bits of t below i
            p ^= p << k
            k <<= 1
        parities.append(p)
    cells = [[(index[s ^ t], signed[(s & p).bit_count() & 1][s & t]) for t, p in zip(masks, parities)] for s in masks]
    return monomial_algebra(field, cells)


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
