"""The test oracles' exact linear algebra: their Fraction rref, and their
kernel against a brute-force check.

kernel_oracle.kernel is read off rref, so ranks here come from minors
instead: the largest nonzero one, by cofactor expansion, shares no code
with either.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from kernel_oracle import coords_in_rref_sparse, kernel, rref

F = Fraction


def mat(rows):
    return [[F(c) for c in row] for row in rows]


def mulvec(rows, v):
    return [sum((c * x for c, x in zip(row, v)), F(0)) for row in rows]


def det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return F(1)
    return sum(
        ((-1) ** j * c * det([row[:j] + row[j + 1:] for row in m[1:]]) for j, c in enumerate(m[0]) if c),
        F(0),
    )


def rank(rows):
    """Size of the largest nonzero minor."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    for k in range(min(nr, nc), 0, -1):
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                if det([[rows[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def test_kernel_known():
    a = mat([[1, 2, 3], [2, 4, 6]])
    basis = kernel(a, 3)
    assert len(basis) == 2
    for v in basis:
        assert mulvec(a, v) == [0, 0]
    assert rank(a) == 1


def test_kernel_full_rank_is_trivial():
    a = mat([[2, 1], [1, 1]])
    assert kernel(a, 2) == []
    assert rank(a) == 2


def test_kernel_no_rows():
    basis = kernel([], 2)
    assert basis == mat([[1, 0], [0, 1]])


def test_kernel_frozen_basis_in_leading_coordinate_order():
    # pivots 0, 1, 2, free columns 3 and 4.  Column 3 is zero, so e_3 is in
    # the kernel.  Free column 4 gives x_4 = 1 and, by hand from
    # 2 x0 + x1 = 0, x1/3 - 3 x2/2 + 1/2 = 0 and -x0/2 + x2 + 2 = 0,
    # x0 = 42/17, x1 = -84/17, x2 = -13/17.  Its leading coordinate is 0,
    # so it comes first although its free column comes last.
    a = mat([[2, 1, 0, 0, 0], [0, F(1, 3), F(-3, 2), 0, F(1, 2)], [F(-1, 2), 0, 1, 0, 2]])
    assert kernel(a, 5) == [
        [F(42, 17), F(-84, 17), F(-13, 17), 0, 1],
        [0, 0, 0, 1, 0],
    ]
    assert rank(a) == 3


def test_kernel_block_structure():
    # two independent blocks, one untouched column
    a = mat([[1, -1, 0, 0, 0], [0, 0, 2, -4, 0]])
    basis = kernel(a, 5)
    assert len(basis) == 3
    for v in basis:
        assert mulvec(a, v) == [0, 0]
    # deterministic order by leading coordinate
    leads = [next(i for i, c in enumerate(v) if c) for v in basis]
    assert leads == sorted(leads)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3), min_size=4, max_size=4),
        min_size=0,
        max_size=6,
    )
)
def test_kernel_vectors_annihilate_and_count(rows):
    a = mat(rows)
    basis = kernel(a, 4)
    for v in basis:
        assert mulvec(a, v) == [F(0)] * len(a)
    assert len(basis) == 4 - rank(a)
    # kernel basis must itself be independent
    assert rank(basis) == len(basis)


def test_rref_and_coords():
    b = mat([[1, 2, 0, 1], [0, 0, 1, 3], [1, 2, 1, 4]])
    basis, pivots = rref(b)
    assert len(basis) == 2 and pivots == [0, 2]
    sparse = [[(c, x) for c, x in enumerate(row) if x] for row in basis]
    v = {0: F(2), 1: F(4), 2: F(3), 3: F(11)}  # 2*row0 + 3*row1
    assert coords_in_rref_sparse(sparse, pivots, v) == [F(2), F(3)]
    assert coords_in_rref_sparse(sparse, pivots, {1: F(1)}) is None
