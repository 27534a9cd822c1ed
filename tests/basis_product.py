"""A product of basis elements of a table as FieldElems.

StructureAlgebra stores u_i u_j as one integer vector over one denominator,
an EntriesTable as a list of them, and every check in the package reads
them in that form.  The tests compare products with FieldElem constants and
feed the Fraction-based oracles, so basis_product gives one product of
either as (index, FieldElem) pairs.
"""

from ksalgebra.exactfield import FieldElem

from entries_table import entries


def basis_product(alg, i: int, j: int) -> list[tuple[int, FieldElem]]:
    """u_i u_j as (index, FieldElem) pairs."""
    return [(k, alg.field.from_integers(v, alg.den)) for k, v in entries(alg.table[i][j])]
