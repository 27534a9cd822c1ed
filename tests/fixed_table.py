"""The n x n table of a fixed algebra, materialized from its orbit blocks.

csa.invariants keeps B = Cor_{E/Q}(A) as its orbit blocks (FixedAlgebra)
and never builds its table.  The tests compare B with the kernel oracle's
table, the dense center and trace-form oracles and the associativity
oracle, so fixed_table builds one from the blocks: cell (i, j) holds (e,
(x,)) for each nonzero coordinate x at b_e, and cell (j, i) (e, (beta
x,)).  B's cells are sums, so it is an EntriesTable, checked by the
Fraction oracles alone.
"""

from itertools import product

from ksalgebra.csa import FixedAlgebra
from ksalgebra.exactfield import RATIONAL_FIELD

from entries_table import EntriesTable


def fixed_table(b: FixedAlgebra) -> EntriesTable:
    """B's table over Q, from the blocks of b."""
    n, first = b.dim, {rep: start for start, _, rep in b.orbits}
    table = [[[] for _ in range(n)] for _ in range(n)]
    for (o, o2), by_k in sorted(b.blocks.items()):
        (i0, m, _), (j0, mr, _) = b.orbits[o], b.orbits[o2]
        for k, (beta, coordinates) in sorted(by_k.items()):
            for e, xs in enumerate(coordinates, first[k]):
                for (i, j), x in zip(product(range(i0, i0 + m), range(j0, j0 + mr)), xs):
                    if x:
                        table[i][j].append((e, (x,)))
                        if o < o2:  # an (I, I) block holds both orders
                            table[j][i].append((e, (beta * x,)))
    return EntriesTable(RATIONAL_FIELD, table, den=b.den)
