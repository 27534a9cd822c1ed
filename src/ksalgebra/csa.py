"""Associative algebras by structure constants, and Galois descent machinery.

Everything is basis-and-constants: an algebra is a table c with
u_i u_j = sum_k c_ijk u_k, stored sparsely since the algebras that matter
here (even Clifford algebras, quaternion tables, their tensor powers) are
monomial or close to it.  One checking rule: unit laws and the Galois
action on Z(A) are always certified; a table built from given constants is
swept for associativity on every basis triple, and a tensor, twist or fixed
subalgebra of swept tables is swept while its dim is at most SWEEP_MAX_DIM.
Failures raise NotAssociative or CertificateFailure, under python -O too.

The descent part: for E/Q Galois with group G = {sigma_1..sigma_d}, the
twisted algebra A_{sigma_i} is A with sigma_i applied to its constants,
and Z = A_{sigma_1} tensor ... tensor A_{sigma_d} carries a G-action that
permutes tensor slots (slot i moves to the slot of tau targeting
tau.sigma_i) and twists coefficients by tau.  The fixed points form a
Q-algebra of dimension (dim_E A)^d: the corestriction of A to Q.  That
fixed algebra is computed literally, as the kernel of the stacked
operators act(tau) - id over Q, with products re-expressed in the kernel
basis and closure verified by exact residuals.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from .errors import (
    CertificateFailure,
    DimensionMismatch,
    FieldMismatch,
    NotAssociative,
    NotClosedUnderMultiplication,
    ZeroSlot,
)
from .exactfield import (
    RATIONAL_FIELD,
    FieldDescriptor,
    FieldElem,
    apply_automorphism,
    sign_at_embedding,
)
from .brauer import QuaternionSymbol
from .linalg import coords_in_rref_sparse, kernel, rref
from .qform import DiagForm, congruence_diagonalize

# Derived tables up to this dim are swept for associativity; bigger ones
# inherit it.  Sweeping both dim-64 tables of a rank-4 report would more
# than double its cost.
SWEEP_MAX_DIM = 16


def _normalize_row(field: FieldDescriptor, pairs) -> list[tuple[int, FieldElem]]:
    acc: dict[int, FieldElem] = {}
    for k, c in pairs:
        if not isinstance(c, FieldElem):
            c = field.rational(c)
        elif c.field != field:
            raise FieldMismatch("structure constant in the wrong field")
        if k in acc:
            acc[k] = acc[k] + c
        else:
            acc[k] = c
    return sorted((k, c) for k, c in acc.items() if c)


def _integer_table(constants) -> list:
    """The table with every constant scaled by one common denominator L to
    an integer coefficient vector: entries (k, tuple of ints)."""
    den = lcm(1, *(
        x.denominator for row in constants for cell in row for _, c in cell for x in c.coeffs
    ))
    return [
        [[(k, tuple(x.numerator * (den // x.denominator) for x in c.coeffs)) for k, c in cell]
         for cell in row]
        for row in constants
    ]


def check_associativity(field: FieldDescriptor, constants) -> None:
    """Exact check of (u_i u_j) u_k = u_i (u_j u_k) on every basis triple.

    constants is a normalized sparse table as held by StructureAlgebra.
    The constants are scaled once to integer vectors over one denominator
    L, so both sides of each identity carry the same factor L^2 and are
    compared as integers.  Each side is accumulated per output index as
    unreduced integer convolutions and, where the two differ, reduced
    once through the field's integer table of X^k mod P.  A failure raises
    NotAssociative naming the first failing triple (i, j, k).
    """
    n = len(constants)
    d = field.degree
    table = _integer_table(constants)
    if d == 1:
        # Q: a coefficient vector is one integer and nothing needs reducing
        table = [[[(k, v[0]) for k, v in cell] for cell in row] for row in table]
        zero = 0

        def reduce(acc: int) -> int:
            return acc

        def accumulate(into: dict, a: int, row) -> None:
            for s, b in row:
                into[s] = into.get(s, 0) + a * b
    else:
        width = 2 * d - 1
        den_p, high = field._power_den, field._power_rows[d:]
        zero = [0] * width

        def reduce(acc: list[int]) -> list[int]:
            out = [den_p * x for x in acc[:d]]
            for m, c in enumerate(acc[d:]):
                if c:
                    for l, r in enumerate(high[m]):
                        out[l] += c * r
            return out

        def accumulate(into: dict, a: tuple, row) -> None:
            for s, b in row:
                acc = into.get(s)
                if acc is None:
                    acc = into[s] = [0] * width
                for p, ap in enumerate(a):
                    if ap:
                        for q, bq in enumerate(b):
                            acc[p + q] += ap * bq

    for i in range(n):
        ti = table[i]
        for j in range(n):
            rij, tj = ti[j], table[j]
            for k in range(n):
                lhs: dict = {}
                for t, a in rij:
                    accumulate(lhs, a, table[t][k])
                rhs: dict = {}
                for t, a in tj[k]:
                    accumulate(rhs, a, ti[t])
                if lhs == rhs:
                    continue
                for s in lhs.keys() | rhs.keys():
                    if reduce(lhs.get(s, zero)) != reduce(rhs.get(s, zero)):
                        raise NotAssociative(f"associativity fails at ({i},{j},{k})")


class StructureAlgebra:
    """Finite-dimensional associative unital algebra over an exact field.

    constants[i][j] is the sparse row of u_i u_j as (index, coeff) pairs,
    0-based.  check=True verifies associativity on all basis triples (only
    the SWEEP_MAX_DIM rule passes False); the unit law is always verified.
    """

    def __init__(self, field: FieldDescriptor, constants, unit, check: bool = True):
        self.field = field
        self.dim = len(constants)
        self.constants = [
            [_normalize_row(field, constants[i][j]) for j in range(self.dim)]
            for i in range(self.dim)
        ]
        self.unit = [c if isinstance(c, FieldElem) else field.rational(c) for c in unit]
        assert len(self.unit) == self.dim
        self._check_unit()
        if check:
            check_associativity(field, self.constants)

    def row(self, i: int, j: int) -> list[tuple[int, FieldElem]]:
        return self.constants[i][j]

    def mul_sparse(self, xs: dict, ys: dict) -> dict:
        out: dict[int, FieldElem] = {}
        for i, xi in xs.items():
            for j, yj in ys.items():
                w = xi * yj
                for k, c in self.constants[i][j]:
                    v = w * c
                    if k in out:
                        out[k] = out[k] + v
                    else:
                        out[k] = v
        return {k: v for k, v in out.items() if v}

    def _check_unit(self) -> None:
        us = {i: v for i, v in enumerate(self.unit) if v}
        if not us:
            raise CertificateFailure("unit law fails: the unit is zero")
        for i in range(self.dim):
            e = {i: self.field.one()}
            if self.mul_sparse(us, e) != e:
                raise CertificateFailure(f"left unit law fails at u_{i}")
            if self.mul_sparse(e, us) != e:
                raise CertificateFailure(f"right unit law fails at u_{i}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StructureAlgebra)
            and self.field == other.field
            and self.constants == other.constants
            and self.unit == other.unit
        )

    def to_json_dict(self) -> dict:
        entries = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k, c in self.constants[i][j]:
                    entries.append([i, j, k, c.to_json()])
        return {"dim": self.dim, "constants": entries}


def from_symbol(s: QuaternionSymbol) -> StructureAlgebra:
    """The 4-dimensional algebra 1, i, j, k with i^2 = a, j^2 = b, k = ij."""
    f = s.field
    a, b = s.a, s.b
    if not a or not b:
        raise ZeroSlot("symbol slots must be nonzero")
    one = f.one()
    e = lambda k, c: [(k, c)]
    table = [
        [e(0, one), e(1, one), e(2, one), e(3, one)],
        [e(1, one), e(0, a), e(3, one), e(2, a)],
        [e(2, one), e(3, -one), e(0, b), e(1, -b)],
        [e(3, one), e(2, -a), e(1, b), e(0, -(a * b))],
    ]
    return StructureAlgebra(f, table, [one, f.zero(), f.zero(), f.zero()])


def tensor(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    """Plain tensor product over the common base field.

    Swept while its dim is at most SWEEP_MAX_DIM; a tensor product of
    associative algebras is associative, so for big tables the sweep
    certifies nothing the factors' checks did not.
    """
    if a.field != b.field:
        raise FieldMismatch("tensor factors over different fields")
    na, nb = a.dim, b.dim
    n = na * nb
    constants = [[None] * n for _ in range(n)]
    for i1 in range(na):
        for j1 in range(nb):
            p = i1 * nb + j1
            for i2 in range(na):
                ra = a.row(i1, i2)
                for j2 in range(nb):
                    rb = b.row(j1, j2)
                    constants[p][i2 * nb + j2] = [
                        (k1 * nb + k2, c1 * c2) for k1, c1 in ra for k2, c2 in rb
                    ]
    unit = [a.unit[i] * b.unit[j] for i in range(na) for j in range(nb)]
    return StructureAlgebra(a.field, constants, unit, check=n <= SWEEP_MAX_DIM)


# -- the G-module Z_G(A) -------------------------------------------------------------


def _action_columns(f: FieldDescriptor, m: int, g: int) -> list[list[tuple[int, Fraction]]]:
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
    cols: list[list[tuple[int, Fraction]]] = []
    for t in range(len(tuples)):
        for l in range(d):
            col = [
                (perm_t[t] * d + lp, c)
                for lp, c in enumerate(tau_pow[l].coeffs)
                if c
            ]
            cols.append(col)
    return cols


class GaloisModuleAlgebra:
    """Z(A) = A_{sigma_1} tensor ... tensor A_{sigma_d} with its G-action.

    underlying is the E-algebra on monomial basis u_{k_1..k_d}; the Q-basis
    is indexed p = t*d + l for monomial t and power alpha^l.  actions[g]
    holds sparse columns of the Q-linear operator of sigma_g.

    The action columns are always certified (linear in the basis size).
    The monomial table is swept for associativity while its dim is at most
    SWEEP_MAX_DIM; the big tables are twists of a checked table by ring
    automorphisms followed by tensoring, both of which preserve
    associativity.
    """

    def __init__(self, a: StructureAlgebra, f: FieldDescriptor):
        if a.field != f:
            raise FieldMismatch("algebra is not defined over the given field")
        self.field = f
        self.base = a
        d = f.degree
        m = a.dim
        self.q_dim = (m ** d) * d
        tuples = list(product(range(m), repeat=d))
        t_index = {kt: t for t, kt in enumerate(tuples)}
        twisted = [
            [[[(k, apply_automorphism(c, i)) for k, c in a.row(p, q)] for q in range(m)] for p in range(m)]
            for i in range(1, d + 1)
        ]
        constants = [[None] * len(tuples) for _ in tuples]
        for t1, k1 in enumerate(tuples):
            for t2, k2 in enumerate(tuples):
                combos = [((), f.one())]
                for s in range(d):
                    step = twisted[s][k1[s]][k2[s]]
                    combos = [(kt + (k,), c * cs) for kt, c in combos for k, cs in step]
                constants[t1][t2] = [(t_index[kt], c) for kt, c in combos]
        unit_slots = [
            [apply_automorphism(w, i) for w in a.unit] for i in range(1, d + 1)
        ]
        unit = []
        for kt in tuples:
            w = f.one()
            for s in range(d):
                w = w * unit_slots[s][kt[s]]
            unit.append(w)
        self.underlying = StructureAlgebra(f, constants, unit, check=len(tuples) <= SWEEP_MAX_DIM)
        self._alpha_pow = [f.one()]
        for _ in range(2 * d - 2):
            self._alpha_pow.append(self._alpha_pow[-1] * f.gen())
        self._qrows: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
        self.actions = {g: _action_columns(f, m, g) for g in range(1, d + 1)}
        self._check_actions()

    def qrow(self, p: int, q: int) -> list[tuple[int, Fraction]]:
        """Sparse Q-structure row: product of basis elements p and q."""
        cached = self._qrows.get((p, q))
        if cached is not None:
            return cached
        d = self.field.degree
        t1, l1 = divmod(p, d)
        t2, l2 = divmod(q, d)
        out: dict[int, Fraction] = {}
        pw = self._alpha_pow[l1 + l2]
        for t3, c in self.underlying.row(t1, t2):
            e = c * pw
            for lp, coeff in enumerate(e.coeffs):
                if coeff:
                    r = t3 * d + lp
                    out[r] = out.get(r, Fraction(0)) + coeff
        row = sorted((r, v) for r, v in out.items() if v)
        self._qrows[(p, q)] = row
        return row

    def mul_q(self, xs: dict, ys: dict) -> dict:
        out: dict[int, Fraction] = {}
        for p, xv in xs.items():
            for q, yv in ys.items():
                w = xv * yv
                for r, c in self.qrow(p, q):
                    out[r] = out.get(r, Fraction(0)) + w * c
        return {r: v for r, v in out.items() if v}

    def act_vec(self, g: int, xs: dict) -> dict:
        cols = self.actions[g]
        out: dict[int, Fraction] = {}
        for p, xv in xs.items():
            for r, c in cols[p]:
                out[r] = out.get(r, Fraction(0)) + xv * c
        return {r: v for r, v in out.items() if v}

    def unit_qvec(self) -> list[Fraction]:
        d = self.field.degree
        v = [Fraction(0)] * self.q_dim
        for t, w in enumerate(self.underlying.unit):
            for l, c in enumerate(w.coeffs):
                v[t * d + l] = c
        return v

    def _check_actions(self) -> None:
        """Exact certification of the stored action columns.

        A multiplicativity sweep over all pairs of Q-basis vectors is
        quadratic in q_dim and redundant: every basis vector is a monomial
        times a power of the generator, so it suffices to verify the facts
        that jointly imply multiplicativity on products of such vectors.

        1. power-0 columns are unit monomial moves col = [(pt*d, 1)], and
           the move t -> pt is a bijection;
        2. the move is an algebra map for the twisted table: row(pt1, pt2)
           equals row(t1, t2) with coefficients pushed through the
           automorphism (coefficient automorphisms are ring maps, checked
           at field construction);
        3. column coefficients follow the tau(alpha)-power recurrence and
           stay inside the image block, so the coefficient part of the
           operator is exactly that automorphism.

        The group law is still checked directly on whole columns.
        """
        f = self.field
        d = f.degree
        nt = self.underlying.dim
        one = Fraction(1)
        for g in range(1, d + 1):
            cols = self.actions[g]
            pt = []
            for t in range(nt):
                col = cols[t * d]
                if not (len(col) == 1 and col[0][1] == one and col[0][0] % d == 0):
                    raise CertificateFailure(
                        f"action {g}: power-0 column at monomial {t} is not a unit move"
                    )
                pt.append(col[0][0] // d)
            if sorted(pt) != list(range(nt)):
                raise CertificateFailure(f"action {g}: monomial move is not a bijection")
            for t1 in range(nt):
                for t2 in range(nt):
                    moved = sorted(
                        (pt[t3], apply_automorphism(c, g))
                        for t3, c in self.underlying.row(t1, t2)
                    )
                    if moved != sorted(self.underlying.row(pt[t1], pt[t2])):
                        raise CertificateFailure(
                            f"action {g} is not multiplicative on monomials ({t1},{t2})"
                        )
            tau_gen = f.elem(list(f.automorphisms[g - 1]))
            for t in range(nt):
                prev = f.one()
                for l in range(1, d):
                    coeffs = [Fraction(0)] * d
                    for r, c in cols[t * d + l]:
                        tr, lr = divmod(r, d)
                        if tr != pt[t]:
                            raise CertificateFailure(
                                f"action {g}: column ({t},{l}) leaves its block"
                            )
                        coeffs[lr] = c
                    prev = prev * tau_gen
                    if f.elem(coeffs) != prev:
                        raise CertificateFailure(
                            f"action {g}: coefficient twist at ({t},{l}) is off"
                        )
        for g1 in range(1, d + 1):
            for g2 in range(1, d + 1):
                g12 = self.field.compose(g1, g2)
                for p in range(self.q_dim):
                    step = self.act_vec(g1, dict(self.actions[g2][p]))
                    if step != dict(self.actions[g12][p]):
                        raise CertificateFailure(
                            f"action group law fails for ({g1},{g2}) at basis vector {p}"
                        )


def build_ZG(a: StructureAlgebra, f: FieldDescriptor) -> GaloisModuleAlgebra:
    return GaloisModuleAlgebra(a, f)


def _generating_set(f: FieldDescriptor) -> list[int]:
    d = f.degree
    if d == 1:
        return []
    for g in range(2, d + 1):
        order, cur = 1, g
        while cur != 1:
            cur = f.compose(g, cur)
            order += 1
        if order == d:
            return [g]
    return list(range(2, d + 1))


def invariants(z: GaloisModuleAlgebra) -> StructureAlgebra:
    """The Q-algebra of G-fixed points of Z(A): the corestriction to Q.

    The resulting table is swept for associativity while its dim is at
    most SWEEP_MAX_DIM.  Beyond that the fixed subalgebra inherits
    associativity from Z(A), whose table is a twist of a checked table by
    field automorphisms followed by tensoring; closure residuals and the
    unit law are always verified exactly.
    """
    n = z.q_dim
    want = z.underlying.dim
    sweep = want <= SWEEP_MAX_DIM
    gens = _generating_set(z.field)
    if not gens:
        # E = Q: the fixed algebra is Z(A) itself, already over Q
        rows = [
            [[(k, c.rational_value()) for k, c in z.underlying.row(i, j)] for j in range(want)]
            for i in range(want)
        ]
        unit = [c.rational_value() for c in z.underlying.unit]
        return StructureAlgebra(RATIONAL_FIELD, rows, unit, check=sweep)
    stacked: list[list[Fraction]] = []
    for g in gens:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for p, col in enumerate(z.actions[g]):
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
    unit_coords = coords_in_rref_sparse(
        sparse_basis, pivots, {p: x for p, x in enumerate(z.unit_qvec()) if x}
    )
    if unit_coords is None:
        raise NotClosedUnderMultiplication("unit is not in the fixed subspace")
    vecs = [{p: x for p, x in enumerate(row) if x} for row in basis]
    constants = []
    for xa in vecs:
        row_out = []
        for xb in vecs:
            w = z.mul_q(xa, xb)
            coords = coords_in_rref_sparse(sparse_basis, pivots, w)
            if coords is None:
                raise NotClosedUnderMultiplication("product leaves the fixed subspace")
            row_out.append([(k, c) for k, c in enumerate(coords) if c])
        constants.append(row_out)
    return StructureAlgebra(RATIONAL_FIELD, constants, unit_coords, check=sweep)


# -- centers and trace forms ---------------------------------------------------------


def center(a: StructureAlgebra) -> list[list[Fraction]]:
    """Basis of the center; restricted to algebras over Q (coords are exact
    rationals).  Computed by successive restriction: intersect kernels of
    the commutator maps x -> [x, u_i], shrinking the candidate space."""
    assert a.field.degree == 1, "center is computed for Q-algebras only"
    n = a.dim
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def commutator_with(v: list[Fraction], i: int) -> list[Fraction]:
        out = [Fraction(0)] * n
        for j, vj in enumerate(v):
            if not vj:
                continue
            for k, c in a.row(j, i):
                out[k] += vj * c.rational_value()
            for k, c in a.row(i, j):
                out[k] -= vj * c.rational_value()
        return out

    for i in range(n):
        if len(basis) == 1:
            break  # the unit line is always central; cannot shrink further
        images = [commutator_with(v, i) for v in basis]
        if all(not any(img) for img in images):
            continue
        rows = [[images[c][r] for c in range(len(basis))] for r in range(n)]
        combos = kernel(rows, len(basis))
        basis = [
            [sum((y[c] * basis[c][r] for c in range(len(y))), Fraction(0)) for r in range(n)]
            for y in combos
        ]
        assert basis, "center lost the unit line"
    return rref(basis)[0]


def trace_form_signature(a: StructureAlgebra) -> tuple[int, int, int]:
    """Signature (pos, neg, null) of (x, y) -> Tr(L_{xy}) over Q.

    Associativity makes Tr(L_x L_y) = Tr(L_{xy}); the Gram matrix is
    assembled from basis traces and diagonalized exactly.
    """
    assert a.field.degree == 1, "trace form is computed for Q-algebras only"
    n = a.dim
    tr = [Fraction(0)] * n
    for k in range(n):
        for t in range(n):
            for s, c in a.row(k, t):
                if s == t:
                    tr[k] += c.rational_value()
    gram = [[RATIONAL_FIELD.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = Fraction(0)
            for k, c in a.row(i, j):
                acc += c.rational_value() * tr[k]
            gram[i][j] = gram[j][i] = RATIONAL_FIELD.rational(acc)
    diag, _ = congruence_diagonalize(gram, RATIONAL_FIELD, allow_degenerate=True)
    signs = [sign_at_embedding(e, 1) if e else 0 for e in diag]
    return signs.count(1), signs.count(-1), signs.count(0)


# -- the twisted-Clifford comparison --------------------------------------------------


def verify_twisted_iso(diag_q: DiagForm, f: FieldDescriptor, zg: GaloisModuleAlgebra | None = None) -> bool:
    """Check Z(C0(Q)) against the tensor of conjugate even Clifford algebras.

    The two sides are built through different code paths: the left twists
    the structure constants of C0(Q) by each sigma_i, the right runs the
    Clifford construction on the sigma_i-conjugated diagonal entries.  The
    identity map on monomials must be an algebra isomorphism, and the
    stored G-action must match the slot-permutation action recomputed from
    scratch.  Pass a prebuilt (possibly corrupted) zg to test against it.
    """
    from .clifford import CliffordAlgebra, even_part  # layering: clifford builds on csa

    a = even_part(CliffordAlgebra(f, diag_q.entries))
    d = f.degree
    if d == 1:
        return True
    if zg is None:
        zg = build_ZG(a, f)
    conj_algebras = []
    for i in range(1, d + 1):
        entries = [apply_automorphism(e, i) for e in diag_q.entries]
        conj_algebras.append(even_part(CliffordAlgebra(f, entries)))
    right = conj_algebras[0]
    for c in conj_algebras[1:]:
        right = tensor(right, c)
    left = zg.underlying
    if left.dim != right.dim or left.unit != right.unit:
        return False
    for i in range(left.dim):
        for j in range(left.dim):
            if left.row(i, j) != right.row(i, j):
                return False
    for g in range(1, d + 1):
        if zg.actions[g] != _action_columns(f, a.dim, g):
            return False
    return True
