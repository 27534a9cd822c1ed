"""Exact linear algebra over Q.

Kernels are computed by fraction-free forward elimination (Bareiss two-term
updates on denominator-cleared integer rows, so every intermediate entry is
a minor of the input) followed by back substitution over Fraction.  Before
eliminating, the columns are split into connected components, so a sparse
system (the commutator maps of a monomial algebra, when its center is
computed) becomes many tiny independent ones without any special casing.

RREF gives the canonical basis of a span: the fixed algebra of Z(A) takes
its orbit bases from the RREF of each fixed field E^H, and the center is
returned in RREF.
"""

from fractions import Fraction
from math import lcm

Vec = list[Fraction]
Mat = list[Vec]


def _to_int_rows(rows: Mat) -> list[list[int]]:
    out = []
    for row in rows:
        den = lcm(*[c.denominator for c in row]) if row else 1
        out.append([int(c * den) for c in row])
    return out


def _eliminate_int(mat: list[list[int]]) -> list[tuple[int, int]]:
    """In-place fraction-free echelon form; returns pivot (row, col) pairs."""
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    pivots: list[tuple[int, int]] = []
    r, prev = 0, 1
    for c in range(nc):
        p = next((i for i in range(r, nr) if mat[i][c] != 0), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, nr):
            fac = mat[i][c]
            row_i, row_r = mat[i], mat[r]
            # Bareiss: every entry below, zero leads included, gets rescaled,
            # or the exact-division invariant breaks at the next step
            for j in range(c, nc):
                num = row_i[j] * piv - fac * row_r[j]
                q, rem = divmod(num, prev)
                assert rem == 0, "fraction-free division must be exact"
                row_i[j] = q
        prev = piv
        pivots.append((r, c))
        r += 1
        if r == nr:
            break
    return pivots


def _kernel_dense(rows: Mat, ncols: int) -> Mat:
    mat = _to_int_rows(rows)
    if not mat:
        return [[Fraction(i == j) for j in range(ncols)] for i in range(ncols)]
    pivots = _eliminate_int(mat)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, c in reversed(pivots):
            s = sum((mat[r][j] * x[j] for j in range(c + 1, ncols) if x[j]), Fraction(0))
            x[c] = Fraction(-s, mat[r][c]) if s else Fraction(0)
        basis.append(x)
    return basis


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def kernel(rows: Mat, ncols: int) -> Mat:
    """Basis of {x : A x = 0}, deterministic order by leading coordinate."""
    for row in rows:
        assert len(row) == ncols
    uf = _UnionFind(ncols)
    supports = []
    for row in rows:
        sup = [j for j, c in enumerate(row) if c != 0]
        supports.append(sup)
        for j in sup[1:]:
            uf.union(sup[0], j)
    comp_cols: dict[int, list[int]] = {}
    touched = set()
    for sup in supports:
        touched.update(sup)
    for j in sorted(touched):
        comp_cols.setdefault(uf.find(j), []).append(j)

    basis: Mat = []
    for j in range(ncols):  # columns no equation touches are free
        if j not in touched:
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            basis.append(v)
    for root in sorted(comp_cols, key=lambda r: comp_cols[r][0]):
        cols = comp_cols[root]
        local_rows = [
            [row[j] for j in cols]
            for row, sup in zip(rows, supports)
            if sup and uf.find(sup[0]) == root
        ]
        for local in _kernel_dense(local_rows, len(cols)):
            v = [Fraction(0)] * ncols
            for jj, c in zip(cols, local):
                v[jj] = c
            basis.append(v)

    def leading(v: Vec) -> int:
        return next((i for i, c in enumerate(v) if c != 0), ncols)

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
