"""Exact linear algebra over Q: one elimination, the reduced row echelon form.

RREF gives the canonical basis of a span: the fixed algebra of Z(A) takes
its orbit bases from the RREF of each fixed field E^H, and the center is
returned in RREF.  Kernels are read off the same RREF: each free column f
gives the vector with x_f = 1, x_c = -row[f] at each pivot column c and 0
at the other free columns.
"""

from fractions import Fraction

Vec = list[Fraction]
Mat = list[Vec]


def kernel(rows: Mat, ncols: int) -> Mat:
    """Basis of {x : A x = 0}, deterministic order by leading coordinate."""
    for row in rows:
        assert len(row) == ncols
    reduced, pivots = rref(rows)
    is_pivot = set(pivots)
    basis = []
    for f in range(ncols):
        if f in is_pivot:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            x[c] = -row[f]
        basis.append(x)

    def leading(v: Vec) -> int:
        return next(i for i, c in enumerate(v) if c != 0)

    basis.sort(key=leading)
    return basis


def rref(rows: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form over Fraction; zero rows dropped."""
    mat = [list(r) for r in rows]
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        p = next((i for i in range(r, nr) if mat[i][c] != 0), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [a * inv for a in mat[r]]
        for i in range(nr):
            if i != r and mat[i][c] != 0:
                fac = mat[i][c]
                mat[i] = [a - fac * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return mat[:r], pivots
