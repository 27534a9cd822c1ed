"""A product of basis elements of a StructureAlgebra as FieldElems.

StructureAlgebra stores u_i u_j as integer vectors over one denominator,
and every check in the package reads them in that form.  The tests compare
products with FieldElem constants and feed the Fraction-based oracles, so
basis_product gives one product as (index, FieldElem) pairs.
"""

from ksalgebra.csa import StructureAlgebra
from ksalgebra.exactfield import FieldElem


def basis_product(alg: StructureAlgebra, i: int, j: int) -> list[tuple[int, FieldElem]]:
    """u_i u_j as (index, FieldElem) pairs."""
    return [(k, alg.field.from_integers(v, alg.den)) for k, v in alg.table[i][j]]
