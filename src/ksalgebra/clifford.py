"""Clifford algebras of diagonal quadratic forms, on subset bitmasks.

Basis blades e_S for S a subset of {1..n}, encoded as bitmasks (bit i-1
for index i).  The defining relations are v.v = q(v).1, so e_i e_i = a_i
and e_i e_j = -e_j e_i for i != j; the general blade product is

    e_S e_T = sign(S,T) * prod_{i in S cap T} a_i * e_{S xor T}

with sign(S,T) = (-1)^#{(s,t) in S x T : s > t}.  The even blades form a
subalgebra of dimension 2^(n-1); for n = 3 that subalgebra is the
quaternion algebra (-ab, -ac), via i -> e1 e2, j -> e1 e3.
"""

from .errors import AlgebraMismatch, CertificateFailure, FieldMismatch, ZeroDiagonalEntry
from .exactfield import FieldDescriptor, FieldElem
from .brauer import QuaternionSymbol
from .csa import StructureAlgebra, from_symbol


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

    def blade_product(self, s: int, t: int) -> tuple[FieldElem, int]:
        """(coefficient, mask) with e_s e_t = coefficient * e_mask."""
        sign = 0
        for i in range(self.n):
            if s >> i & 1:
                sign += bin(t & ((1 << i) - 1)).count("1")
        coeff = self.field.one() if sign % 2 == 0 else -self.field.one()
        common = s & t
        for i in range(self.n):
            if common >> i & 1:
                coeff = coeff * self.diag[i]
        return coeff, s ^ t

    def element(self, comps: dict) -> "CliffordElement":
        return CliffordElement(self, comps)

    def blade(self, mask: int) -> "CliffordElement":
        assert 0 <= mask < self.dim
        return CliffordElement(self, {mask: self.field.one()})

    def one(self) -> "CliffordElement":
        return self.blade(0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CliffordAlgebra)
            and self.field == other.field
            and self.diag == other.diag
        )


class CliffordElement:
    __slots__ = ("algebra", "comps")

    def __init__(self, algebra: CliffordAlgebra, comps: dict):
        object.__setattr__(self, "algebra", algebra)
        clean = {}
        for mask, c in comps.items():
            if not isinstance(c, FieldElem):
                c = algebra.field.rational(c)
            assert 0 <= mask < algebra.dim
            if c:
                clean[mask] = c
        object.__setattr__(self, "comps", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CliffordElement is immutable")

    def _same(self, other: "CliffordElement") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatch("elements of different Clifford algebras")

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._same(other)
        out = dict(self.comps)
        for mask, c in other.comps.items():
            out[mask] = out[mask] + c if mask in out else c
        return CliffordElement(self.algebra, out)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.algebra, {m: -c for m, c in self.comps.items()})

    def scale(self, c) -> "CliffordElement":
        if not isinstance(c, FieldElem):
            c = self.algebra.field.rational(c)
        return CliffordElement(self.algebra, {m: v * c for m, v in self.comps.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CliffordElement)
            and self.algebra == other.algebra
            and self.comps == other.comps
        )

    def to_json_dict(self) -> dict:
        return {str(mask): c.to_json() for mask, c in sorted(self.comps.items())}

    def __repr__(self) -> str:
        if not self.comps:
            return "0"
        parts = []
        for mask, c in sorted(self.comps.items()):
            blade = "".join(f"e{i + 1}" for i in range(self.algebra.n) if mask >> i & 1) or "1"
            parts.append(f"({c!r})*{blade}")
        return " + ".join(parts)


def clifford_mul(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    x._same(y)
    alg = x.algebra
    out: dict[int, FieldElem] = {}
    for s, cx in x.comps.items():
        for t, cy in y.comps.items():
            coeff, mask = alg.blade_product(s, t)
            v = cx * cy * coeff
            out[mask] = out[mask] + v if mask in out else v
    return CliffordElement(alg, out)


def even_part(c: CliffordAlgebra) -> StructureAlgebra:
    """The even subalgebra as a structure-constant table, blades ascending."""
    masks = [m for m in range(c.dim) if bin(m).count("1") % 2 == 0]
    index = {m: i for i, m in enumerate(masks)}
    constants = []
    for s in masks:
        row = []
        for t in masks:
            coeff, mask = c.blade_product(s, t)
            row.append([(index[mask], coeff)])
        constants.append(row)
    unit = [c.field.one()] + [c.field.zero()] * (len(masks) - 1)
    return StructureAlgebra(c.field, constants, unit)


def _diag_data(diag):
    entries = list(diag.entries) if hasattr(diag, "entries") else list(diag)
    field = diag.field if hasattr(diag, "field") else entries[0].field
    return field, entries


def rank3_map(diag) -> tuple[QuaternionSymbol, list[CliffordElement]]:
    """The symbol (-ab, -ac) and the images of 1, i, j, k inside C0."""
    field, entries = _diag_data(diag)
    assert len(entries) == 3, "rank-3 identification needs exactly 3 entries"
    c = CliffordAlgebra(field, entries)
    a, b = c.diag[0] * c.diag[1], c.diag[0] * c.diag[2]
    symbol = QuaternionSymbol(-a, -b)
    img_i = c.blade(0b011)  # e1 e2
    img_j = c.blade(0b101)  # e1 e3
    images = [c.one(), img_i, img_j, clifford_mul(img_i, img_j)]
    return symbol, images


def even_rank3_to_symbol(diag) -> QuaternionSymbol:
    """Identify C0 of a rank-3 diagonal form as a quaternion symbol.

    The identification is certified on the spot: all 16 products of the
    images of 1, i, j, k are checked against the symbol's multiplication
    table before the symbol is returned; a failure raises CertificateFailure.
    """
    symbol, images = rank3_map(diag)
    table = from_symbol(symbol)
    for x in range(4):
        for y in range(4):
            got = clifford_mul(images[x], images[y])
            expected = images[0].algebra.element({})
            for k, c in table.row(x, y):
                expected = expected + images[k].scale(c)
            if got != expected:
                raise CertificateFailure(f"quaternion relation fails at ({x},{y})")
    return symbol
