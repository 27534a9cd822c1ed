"""The fixed algebra of Z(A) and the center of an algebra over Q computed
the long way, as test oracles, with the dense eliminations they rely on.
The oracles share no elimination with the package, block_trace_signature
(below) aside: rref is a Fraction RREF, and congruence is the symmetric
Gauss congruence the package ran on FieldElems before its integer Bareiss
elimination, kept here as the reference on plain Fraction coefficient
lists (fraction_reference's arithmetic, inverses solved with rref).

kernel reads a kernel basis off rref: each free column f gives the vector
with x_f = 1, x_c = -row[f] at each pivot column c and 0 at the other free
columns.

oracle_center is how csa.center used to find the center: it intersects the
kernels of the commutator maps x -> [x, u_i] and returns the RREF basis.

oracle_tensor is the tensor product of monomial tables of any sizes on
Fraction coefficient lists with fraction_reference's arithmetic, swept as a
StructureAlgebra.  On the slots of
Z(A) it is how csa.GaloisModuleAlgebra used to store Z(A), its whole n^2
table, and it shares no code with GaloisModuleAlgebra.products, only the
slots.  It also builds the reference tensors of quaternion tables, which
csa no longer forms.

oracle_action_failure is how csa.GaloisModuleAlgebra used to certify its
action: the walk over all n^2 products of Z(A)'s oracle_tensor table, each
moved by the monomial permutations with its coefficients pushed through
the automorphisms, which must give the product of the moved monomials.

oracle_invariants is how csa.invariants used to build the fixed algebra.
Z(A) is laid out on the Q-basis alpha^l u_t (index t*d + l), each sigma_g
becomes a sparse Q-linear operator rebuilt here from the field's
composition table, the fixed subspace is the kernel of the stacked
operators act(g) - id, and every product of two RREF basis vectors is
re-expressed in that basis by reading it at the pivot columns and checking
the residual exactly, into an EntriesTable.  It shares with csa.invariants
only the slots of Z(A), read through oracle_tensor.

oracle_dense_trace_signature is how csa.trace_form_signature used to find
the signature: it assembles the whole n x n Gram matrix of Tr(L_{xy}) in
Fractions and runs one dense congruence diagonalization on it.

block_trace_signature is the trace form of any Q-algebra as
csa.trace_form_signature computed it before it was narrowed to fixed
algebras, where it reads the Gram matrix off the unit column: the basis
traces from every cell, the Gram matrix summed term by term against them
and split into interval blocks, each diagonalized by the package's
qform.congruence_diagonalize.  It is the reference for the algebras that
are not fixed algebras of a Z(A): quaternion and matrix-unit tables, their
tensors and the dual numbers.
"""

from fractions import Fraction
from itertools import product
from math import lcm

import fraction_reference as ref
from ksalgebra.csa import StructureAlgebra
from ksalgebra.errors import DimensionMismatch, NotClosedUnderMultiplication
from ksalgebra.exactfield import RATIONAL_FIELD, apply_automorphism
from ksalgebra.qform import congruence_diagonalize

from basis_product import basis_product
from entries_table import EntriesTable, entries


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
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


def inverse(field, x: list[Fraction]) -> list[Fraction]:
    """1 / x for a nonzero coefficient list: the solution y of x y = 1,
    read off the RREF of [M_x | e_0], M_x the matrix of multiplication by x."""
    d = field.degree
    columns = [ref.mul(field, x, [0] * k + [1]) for k in range(d)]
    rows, _ = rref([[columns[k][i] for k in range(d)] + [Fraction(i == 0)] for i in range(d)])
    return [row[d] for row in rows]


def congruence(matrix, field) -> tuple[list, list]:
    """Symmetric Gauss on coefficient lists: (diag, P) with P^T A P = diag.
    The pivot is the first nonzero diagonal entry of the active block; if
    the whole active diagonal vanishes, e_i += e_j for the first nonzero
    a[i][j] makes one; a totally isotropic active block ends it."""
    m, d = len(matrix), field.degree
    a = [[list(e) for e in row] for row in matrix]
    zero, one = [Fraction(0)] * d, [Fraction(1)] + [Fraction(0)] * (d - 1)
    p = [[one if i == j else zero for j in range(m)] for i in range(m)]

    def col_add(dst: int, src: int, lam) -> None:
        # basis op v_dst += lam * v_src, applied congruently
        for r in range(m):
            a[r][dst] = ref.add(a[r][dst], ref.mul(field, lam, a[r][src]))
        for r in range(m):
            a[dst][r] = ref.add(a[dst][r], ref.mul(field, lam, a[src][r]))
        for r in range(m):
            p[r][dst] = ref.add(p[r][dst], ref.mul(field, lam, p[r][src]))

    def swap(i: int, j: int) -> None:
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(m):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    for k in range(m):
        piv = next((i for i in range(k, m) if any(a[i][i])), None)
        if piv is None:
            off = next(((i, j) for i in range(k, m) for j in range(i + 1, m) if any(a[i][j])), None)
            if off is None:
                break
            i, j = off
            col_add(i, j, one)
            piv = i
        if piv != k:
            swap(k, piv)
        inv = inverse(field, a[k][k])
        for j in range(k + 1, m):
            if any(a[k][j]):
                col_add(j, k, ref.sub(zero, ref.mul(field, a[k][j], inv)))
    return [a[i][i] for i in range(m)], p


def kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
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
    basis.sort(key=lambda v: next(i for i, c in enumerate(v) if c != 0))
    return basis


def oracle_center(a) -> list[list[Fraction]]:
    """RREF basis of the center of a Q-algebra, by successive restriction:
    intersect the kernels of the commutator maps x -> [x, u_i], shrinking
    the candidate space."""
    assert a.field.degree == 1, "the oracle center is for Q-algebras only"
    n = a.dim
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def commutator_with(v: list[Fraction], i: int) -> list[Fraction]:
        out = [Fraction(0)] * n
        for j, vj in enumerate(v):
            if not vj:
                continue
            for k, c in basis_product(a, j, i):
                out[k] += vj * c.rational_value()
            for k, c in basis_product(a, i, j):
                out[k] -= vj * c.rational_value()
        return out

    for i in range(n):
        if len(basis) == 1:
            break  # the unit line is always central; cannot shrink further
        images = [commutator_with(v, i) for v in basis]
        if all(not any(img) for img in images):
            continue
        rows = [[images[c][r] for c in range(len(basis))] for r in range(n)]
        basis = [
            [sum((y[c] * basis[c][r] for c in range(len(y))), Fraction(0)) for r in range(n)]
            for y in kernel(rows, len(basis))
        ]
        assert basis, "the unit line is central"
    return rref(basis)[0]


def coords_in_rref_sparse(basis, pivots: list[int], v: dict) -> list[Fraction] | None:
    """Coordinates of v in the span of RREF basis rows, or None if outside.

    Rows are (column, value) pairs and v is a column -> value dict of
    nonzeros.  The candidate coordinates are v at the pivot columns; an
    exact residual check then decides membership.
    """
    zero = Fraction(0)
    coords = [v.get(c, zero) for c in pivots]
    residual = dict(v)
    for x, row in zip(coords, basis):
        if x:
            for j, b in row:
                residual[j] = residual.get(j, zero) - x * b
    if any(residual.values()):
        return None
    return coords


def action_columns(f, m: int, g: int) -> list[list[tuple[int, Fraction]]]:
    """Sparse columns of act(sigma_g) on the Q-basis (monomial t, alpha^l)."""
    d = f.degree
    tuples = list(product(range(m), repeat=d))
    t_index = {kt: t for t, kt in enumerate(tuples)}
    # slot s (0-based) moves to the slot hosting sigma_g . sigma_{s+1}
    slot_to = [f.compose(g, s + 1) - 1 for s in range(d)]
    perm_t = []
    for kt in tuples:
        img = [0] * d
        for s in range(d):
            img[slot_to[s]] = kt[s]
        perm_t.append(t_index[tuple(img)])
    tau_gen = f.elem(list(f.automorphisms[g - 1]))
    tau_pow = [f.one()]
    for _ in range(d - 1):
        tau_pow.append(tau_pow[-1] * tau_gen)
    return [
        [(perm_t[t] * d + lp, c) for lp, c in enumerate(tau_pow[l].coeffs) if c]
        for t in range(len(tuples))
        for l in range(d)
    ]


def oracle_tensor(field, tables) -> StructureAlgebra:
    """The tensor product of (constants, den) monomial tables of any sizes,
    swept: u_s u_t is the product over the factors of the cells at the
    digits of s and t (the first factor the leading one), its coefficients
    Fraction lists multiplied with fraction_reference, and the table is
    stored over the common denominator of all of them."""
    factors = [[[(k, [Fraction(x, den) for x in v]) for k, v in row] for row in table] for table, den in tables]
    sizes = [range(len(table)) for table in factors]
    one = ref.pad([Fraction(1)], field.degree)
    rows = []
    for s in product(*sizes):  # the digits of s and t, in index order
        row = []
        for t in product(*sizes):
            k, c = 0, one
            for table, i, j in zip(factors, s, t):
                k2, c2 = table[i][j]
                k, c = k * len(table) + k2, ref.mul(field, c, c2)
            row.append((k, c))
        rows.append(row)
    den = lcm(1, *(x.denominator for row in rows for _, c in row for x in c))
    return StructureAlgebra(field, [[(k, tuple(int(x * den) for x in c)) for k, c in row] for row in rows], den=den)


def oracle_action_failure(z, alg: StructureAlgebra) -> tuple[int, int, int] | None:
    """The first (g, t1, t2) at which sigma_g, acting by z.moves, does not
    take u_t1 u_t2 of alg, the oracle_tensor table of z's slots, to the
    product of the moved monomials; None if there is none."""
    n = alg.dim
    for g, pt in z.moves.items():
        for t1 in range(n):
            for t2 in range(n):
                moved = {pt[k]: apply_automorphism(c, g) for k, c in basis_product(alg, t1, t2)}
                if moved != dict(basis_product(alg, pt[t1], pt[t2])):
                    return g, t1, t2
    return None


def oracle_invariants(z, base_dim: int) -> EntriesTable:
    """The fixed algebra of z = build_ZG(a, f) by the stacked kernel over
    Q, base_dim the dim of a."""
    f, alg = z.field, oracle_tensor(z.field, z.slots)
    d, want = f.degree, alg.dim
    n = want * d
    alpha_pow = [f.one()]
    for _ in range(2 * d - 2):
        alpha_pow.append(alpha_pow[-1] * f.gen())

    def mul_q(xs: dict, ys: dict) -> dict:
        out: dict[int, Fraction] = {}
        for p, xv in xs.items():
            t1, l1 = divmod(p, d)
            for q, yv in ys.items():
                t2, l2 = divmod(q, d)
                w = xv * yv
                for t3, c in basis_product(alg, t1, t2):
                    for lp, coeff in enumerate((c * alpha_pow[l1 + l2]).coeffs):
                        if coeff:
                            r = t3 * d + lp
                            out[r] = out.get(r, Fraction(0)) + w * coeff
        return {r: v for r, v in out.items() if v}

    stacked: list[list[Fraction]] = []
    for g in range(2, d + 1):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for p, col in enumerate(action_columns(f, base_dim, g)):
            for r, c in col:
                rows[r][p] += c
        for r in range(n):
            rows[r][r] -= 1
        stacked.extend(rows)
    fixed = kernel(stacked, n)
    if len(fixed) != want:
        raise DimensionMismatch(f"invariant dimension {len(fixed)}, expected {want}")
    basis, pivots = rref(fixed)
    sparse_basis = [[(c, x) for c, x in enumerate(row) if x] for row in basis]
    vecs = [dict(row) for row in sparse_basis]
    constants = []
    for xa in vecs:
        row_out = []
        for xb in vecs:
            coords = coords_in_rref_sparse(sparse_basis, pivots, mul_q(xa, xb))
            if coords is None:
                raise NotClosedUnderMultiplication("product leaves the fixed subspace")
            row_out.append([(k, c) for k, c in enumerate(coords) if c])
        constants.append(row_out)
    # the Fraction table as integers over its common denominator; u_0 is
    # fixed, so the first RREF row is u_0 and the unit law holds on it
    den = lcm(1, *(c.denominator for row in constants for cell in row for _, c in cell))
    table = [[[(k, (int(c * den),)) for k, c in cell] for cell in row] for row in constants]
    return EntriesTable(RATIONAL_FIELD, table, den=den)


def oracle_dense_trace_signature(a) -> tuple[int, int, int]:
    """Signature (pos, neg, null) of (x, y) -> Tr(L_{xy}) over Q, from the
    dense Gram matrix assembled from basis traces."""
    assert a.field.degree == 1, "trace form is computed for Q-algebras only"
    n = a.dim
    tr = [Fraction(0)] * n
    for k in range(n):
        for t in range(n):
            for s, c in basis_product(a, k, t):
                if s == t:
                    tr[k] += c.rational_value()
    gram = [[[Fraction(0)]] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = Fraction(0)
            for k, c in basis_product(a, i, j):
                acc += c.rational_value() * tr[k]
            gram[i][j] = gram[j][i] = [acc]
    diag, _ = congruence(gram, RATIONAL_FIELD)
    return sum(e > 0 for e, in diag), sum(e < 0 for e, in diag), sum(e == 0 for e, in diag)


def block_trace_signature(a) -> tuple[int, int, int]:
    """Signature (pos, neg, null) of (x, y) -> Tr(L_{xy}) over Q, on the
    integer table of a StructureAlgebra or an EntriesTable: the basis
    traces, then the Gram matrix over L^2, closed into a block at every
    index that no nonzero entry crosses."""
    n, table = a.dim, [[entries(cell) for cell in row] for row in a.table]
    tr = [sum(v[0] for t, cell in enumerate(row) for k, v in cell if k == t) for row in table]
    gram: dict[tuple[int, int], int] = {}
    pos = neg = start = end = 0  # the open block starts at start; end is its last nonzero column
    for i in range(n):
        for j in range(i, n):
            x = sum(v[0] * tr[k] for k, v in table[i][j])
            if x:
                gram[i, j] = gram[j, i] = x
                end = max(end, j)
        if end <= i:  # no nonzero entry crosses i
            block = range(start, i + 1)
            for e in congruence_diagonalize([[(gram.get((r, c), 0),) for c in block] for r in block], RATIONAL_FIELD):
                pos += e.num[0] > 0
                neg += e.num[0] < 0
            start, gram = i + 1, {}
    return pos, neg, n - pos - neg
