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
and Z = A_{sigma_1} tensor ... tensor A_{sigma_d}, built one slot at a
time with the index arithmetic of tensor, carries a semilinear G-action:
sigma_g permutes the tensor slots (slot i moves to the slot of tau
targeting tau.sigma_i), so it sends c u_t to sigma_g(c) u_{t'} for one
monomial t' = moves[g][t].  The fixed points form a Q-algebra of dimension
(dim_E A)^d: the corestriction of A to Q.  A fixed element is determined
by its coefficients at the monomial orbit representatives, so the fixed
algebra is built in closed form from orbit traces and its products are
read off at the representatives, on integer vectors.  Z(A) is monomial,
so its center is spanned by its central monomials, and the center of the
fixed algebra is counted from the two tables.  The trace form of a
Q-algebra is diagonalized block by block; for the fixed algebra the
blocks are the monomial orbits.
"""

from functools import reduce
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
)
from .brauer import QuaternionSymbol
from .linalg import rref
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


def _integer_table(constants) -> tuple[int, list]:
    """(L, table): the table with every constant scaled by one common
    denominator L to an integer coefficient vector, entries (k, tuple of
    ints)."""
    den = lcm(1, *{c.den for row in constants for cell in row for _, c in cell})
    return den, [
        [
            [(k, c.num if c.den == den else tuple([x * (den // c.den) for x in c.num])) for k, c in cell]
            for cell in row
        ]
        for row in constants
    ]


def _convolve_into(acc: list[int], a, b) -> None:
    """acc += a * b as polynomials, unreduced, on integer vectors."""
    for p, ap in enumerate(a):
        if ap:
            for q, bq in enumerate(b):
                acc[p + q] += ap * bq


def check_associativity(field: FieldDescriptor, constants) -> None:
    """Exact check of (u_i u_j) u_k = u_i (u_j u_k) on every basis triple.

    constants is a normalized sparse table as held by StructureAlgebra.
    The constants are scaled once to integer vectors over one denominator
    L, as FieldElem stores them, so both sides of each identity carry the
    same factor L^2 and are compared as integers.  Each side is
    accumulated per output index as unreduced integer convolutions and,
    where the two differ, reduced through FieldDescriptor.reduce, the
    reduction FieldElem multiplication uses.  A failure raises
    NotAssociative naming the first failing triple (i, j, k).
    """
    n = len(constants)
    d = field.degree
    _, table = _integer_table(constants)
    if d == 1:
        # Q: a coefficient vector is one integer and nothing needs reducing
        table = [[[(k, v[0]) for k, v in cell] for cell in row] for row in table]
        zero = 0

        def accumulate(into: dict, a: int, row) -> None:
            for s, b in row:
                into[s] = into.get(s, 0) + a * b
    else:
        width = 2 * d - 1
        zero = [0] * width

        def accumulate(into: dict, a: tuple, row) -> None:
            for s, b in row:
                acc = into.get(s)
                if acc is None:
                    acc = into[s] = [0] * width
                _convolve_into(acc, a, b)

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
                    x, y = lhs.get(s, zero), rhs.get(s, zero)
                    if x != y and (d == 1 or field.reduce(x) != field.reduce(y)):
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
    constants, unit = _tensor_table((a.constants, a.unit), (b.constants, b.unit))
    return StructureAlgebra(a.field, constants, unit, check=len(unit) <= SWEEP_MAX_DIM)


def _tensor_table(a: tuple, b: tuple) -> tuple[list, list]:
    """(constants, unit) of the tensor product of two (constants, unit)
    tables, with u_i tensor u_j at index i * nb + j."""
    (ta, ua), (tb, ub) = a, b
    nb = len(ub)
    constants = []
    for row_a in ta:
        for row_b in tb:
            constants.append([
                [(k1 * nb + k2, c1 * c2) for k1, c1 in ra for k2, c2 in rb]
                for ra in row_a
                for rb in row_b
            ])
    return constants, [x * y for x in ua for y in ub]


# -- the G-module Z_G(A) -------------------------------------------------------------


def _slot_moves(f: FieldDescriptor, m: int, g: int) -> list[int]:
    """moves[t]: the monomial u_t goes to under sigma_g.  Slot s holds
    A_{sigma_{s+1}} and moves to the slot hosting sigma_g . sigma_{s+1}."""
    d = f.degree
    slot_to = [f.compose(g, s + 1) - 1 for s in range(d)]
    moves = []
    for kt in product(range(m), repeat=d):
        img = [0] * d
        for s in range(d):
            img[slot_to[s]] = kt[s]
        moves.append(sum(k * m ** (d - 1 - s) for s, k in enumerate(img)))
    return moves


class GaloisModuleAlgebra:
    """Z(A) = A_{sigma_1} tensor ... tensor A_{sigma_d} with its G-action.

    underlying is the E-algebra on monomial basis u_{k_1..k_d}, indexed in
    product order.  sigma_g acts semilinearly by the monomial permutation
    moves[g]: sigma_g(c u_t) = sigma_g(c) u_{moves[g][t]}.

    The moves are always certified.  The monomial table is swept for
    associativity while its dim is at most SWEEP_MAX_DIM; the big tables
    are twists of a checked table by ring automorphisms followed by
    tensoring, both of which preserve associativity.
    """

    def __init__(self, a: StructureAlgebra, f: FieldDescriptor):
        if a.field != f:
            raise FieldMismatch("algebra is not defined over the given field")
        self.field = f
        self.base = a
        d = f.degree
        # the slots A_{sigma_i}, tensored on one at a time
        slots = [
            ([[[(k, apply_automorphism(c, i)) for k, c in cell] for cell in row] for row in a.constants],
             [apply_automorphism(w, i) for w in a.unit])
            for i in range(1, d + 1)
        ]
        constants, unit = reduce(_tensor_table, slots)
        self.underlying = StructureAlgebra(f, constants, unit, check=len(unit) <= SWEEP_MAX_DIM)
        self.moves = {g: _slot_moves(f, a.dim, g) for g in range(1, d + 1)}
        self._check_actions()

    def _check_actions(self) -> None:
        """Exact certification of the stored moves.

        Each move is a bijection of the monomials and an algebra map for
        the twisted table: row(pt1, pt2) equals row(t1, t2) moved and with
        its coefficients pushed through sigma_g.  Together the moves follow
        the group law of G.  The coefficient part of the action is the
        field automorphism itself, certified with the field.  sigma_g is
        applied once to each distinct constant of the table.

        The cells are not compared for sigma_1, and nothing is lost: the
        field pins sigma_1 to X, and the group law at (1, 1) gives
        p_1 o p_1 = p_1, which for a bijection p_1 forces p_1 = id.
        """
        alg = self.underlying
        nt = alg.dim
        for g, pt in self.moves.items():
            if sorted(pt) != list(range(nt)):
                raise CertificateFailure(f"action {g}: monomial move is not a bijection")
            if g == 1:
                continue
            images: dict = {}

            def image(c: FieldElem) -> FieldElem:
                key = c.num, c.den
                if key not in images:
                    images[key] = apply_automorphism(c, g)
                return images[key]

            for t1 in range(nt):
                for t2 in range(nt):
                    moved = sorted((pt[t3], image(c)) for t3, c in alg.row(t1, t2))
                    if moved != sorted(alg.row(pt[t1], pt[t2])):
                        raise CertificateFailure(
                            f"action {g} is not multiplicative on monomials ({t1},{t2})"
                        )
        for g1, p1 in self.moves.items():
            for g2, p2 in self.moves.items():
                p12 = self.moves[self.field.compose(g1, g2)]
                for t in range(nt):
                    if p1[p2[t]] != p12[t]:
                        raise CertificateFailure(
                            f"action group law fails for ({g1},{g2}) at monomial {t}"
                        )


def build_ZG(a: StructureAlgebra, f: FieldDescriptor) -> GaloisModuleAlgebra:
    return GaloisModuleAlgebra(a, f)


def invariants(z: GaloisModuleAlgebra) -> StructureAlgebra:
    """The Q-algebra of G-fixed points of Z(A): the corestriction to Q.

    A fixed element is determined by its coefficients at the orbit
    representatives, the monomials t with no smaller image; the one at t
    ranges over E^H, H the stabiliser of t.  The basis is Tr_{G/H}(b u_t)
    for the RREF rows b of E^H, which the H-traces of 1, alpha, ...,
    alpha^(d-1) span: in the Q-basis alpha^l u_t this is the RREF basis of
    the fixed subspace.  A basis element that gives one monomial two
    values raises CertificateFailure.

    Products run on integer vectors: Z(A)'s table is scaled to one
    denominator, the basis to another.  For each basis element x the
    products u_s x are formed once at the representatives, and each
    product's coefficient at a representative is accumulated from them as
    unreduced integer convolutions and reduced through
    FieldDescriptor.reduce.  Its coordinates are the
    coefficient read at the pivots of E^H; at every other column the RREF
    rows, combined by those coordinates, must give the coefficient back,
    or it lies outside E^H and NotClosedUnderMultiplication is raised (at
    a pivot they give it back by construction).  The moves are trusted as
    certified when z was built; one corrupted later is caught where it
    breaks these checks or the dimension count.

    The resulting table is swept for associativity while its dim is at
    most SWEEP_MAX_DIM.  Beyond that the fixed subalgebra inherits
    associativity from Z(A), whose table is a twist of a checked table by
    field automorphisms followed by tensoring; the unit law is always
    verified exactly.
    """
    f, alg = z.field, z.underlying
    d, n = f.degree, alg.dim
    gs = range(1, d + 1)
    zero, quotient = f.zero(), RATIONAL_FIELD.quotient
    powers = [f.elem([0] * l + [1]) for l in range(d)]
    # representative -> (first coordinate, pivots, free columns, S, the
    # RREF rows of E^H scaled by their common denominator S to integer rows)
    blocks = {}
    basis = []  # fixed elements as {monomial: coefficient}
    for t in range(n):
        images = [z.moves[g][t] for g in gs]
        if min(images) < t:
            continue
        stab = [g for g, s in zip(gs, images) if s == t]
        rows, pivots = rref([sum((apply_automorphism(x, h) for h in stab), zero).coeffs for x in powers])
        scale = lcm(1, *(x.denominator for row in rows for x in row))
        free = [l for l in range(d) if l not in pivots]
        blocks[t] = len(basis), pivots, free, scale, [
            [x.numerator * (scale // x.denominator) for x in row] for row in rows
        ]
        for row in rows:
            b, vec = f.elem(row), {}
            for g, s in zip(gs, images):
                c = apply_automorphism(b, g)
                if vec.setdefault(s, c) != c:
                    raise CertificateFailure(f"basis element at monomial {t} is not fixed")
            basis.append(vec)
    if len(basis) != n:
        raise DimensionMismatch(f"invariant dimension {len(basis)}, expected {n}")

    def coords(w: dict, den: int, failure: str) -> list[tuple[int, FieldElem]]:
        """Coordinates of the sum of w[t] / den u_t, w[t] an integer vector."""
        out = []
        for t, v in w.items():
            first, pivots, free, scale, rows = blocks[t]
            xs = [v[p] for p in pivots]
            if free and any(sum(x * r[l] for x, r in zip(xs, rows)) != scale * v[l] for l in free):
                raise NotClosedUnderMultiplication(failure)
            out.extend((first + i, quotient(x, den)) for i, x in enumerate(xs) if x)
        return out

    unit_den = lcm(1, *(alg.unit[t].den for t in blocks))
    unit_at = {t: [x * (unit_den // alg.unit[t].den) for x in alg.unit[t].num] for t in blocks}
    unit = [RATIONAL_FIELD.zero()] * n
    for k, x in coords(unit_at, unit_den, "unit is not in the fixed subspace"):
        unit[k] = x

    # the basis over one denominator M and the table over one L; a
    # product's coefficient then comes out over M^2 L D^2, D the
    # denominator every reduction returns
    tden, table = _integer_table(alg.constants)
    bden = lcm(1, *(c.den for vec in basis for c in vec.values()))
    ibasis = [[(s, [x * (bden // c.den) for x in c.num]) for s, c in vec.items()] for vec in basis]
    rden = f.reduce(())[1]
    den = bden * bden * tden * rden * rden
    width = 2 * d - 1
    constants = [[None] * n for _ in range(n)]
    for j, xb in enumerate(ibasis):
        # right[s]: u_s times xb at the representatives, reduced
        right = []
        for ts in table:
            terms = []
            for r, b in xb:
                for k, c in ts[r]:
                    if k in blocks:
                        acc = [0] * width
                        _convolve_into(acc, b, c)
                        terms.append((k, f.reduce(acc)[0]))
            right.append(terms)
        for i, xa in enumerate(ibasis):
            w: dict[int, list[int]] = {}
            for s, a in xa:
                for k, v in right[s]:
                    acc = w.get(k)
                    if acc is None:
                        acc = w[k] = [0] * width
                    _convolve_into(acc, a, v)
            reduced = {k: f.reduce(acc)[0] for k, acc in w.items()}
            constants[i][j] = coords(reduced, den, "product leaves the fixed subspace")
    return StructureAlgebra(RATIONAL_FIELD, constants, unit, check=n <= SWEEP_MAX_DIM)


# -- centers and trace forms ---------------------------------------------------------


def center(z: GaloisModuleAlgebra, b: StructureAlgebra) -> int:
    """dim_Q of the center of b = invariants(z), fixed by two counts.

    Upper bound, on the table of Z(A): every product u_s u_t must be one
    nonzero monomial, u_s u_t and u_t u_s must land on the same monomial,
    and for each s, t -> that monomial must be injective.  Then
    conjugation by u_s scales each u_t, so the center of Z(A) is spanned
    by its central monomials (Lam, Introduction to Quadratic Forms over
    Fields, Ch. V), the u_t with u_s u_t = u_t u_s for every s.  Their
    number bounds dim_Q Z(b) from above, as Z(b) tensor E lies in the
    center of Z(A).  Lower bound, on b's table: the basis elements that
    commute with every basis element are independent and central.  A
    failed shape check, or bounds that differ, raise CertificateFailure.
    """
    alg = z.underlying
    n = alg.dim
    monomials = []
    for s, row in enumerate(alg.constants):
        ms = [cell[0][0] if len(cell) == 1 and cell[0][1] else None for cell in row]
        if None in ms:
            raise CertificateFailure(f"Z(A) product u_{s} u_{ms.index(None)} is not one monomial")
        t = next((t for t in range(s) if monomials[t][s] != ms[t]), None)
        if t is not None:
            raise CertificateFailure(
                f"Z(A) products u_{s} u_{t} and u_{t} u_{s} land on different monomials"
            )
        if len(set(ms)) != n:
            raise CertificateFailure(f"Z(A) products u_{s} u_t repeat a monomial")
        monomials.append(ms)
    upper = sum(all(alg.row(s, t) == alg.row(t, s) for s in range(n)) for t in range(n))
    lower = sum(all(b.row(i, j) == b.row(j, i) for j in range(b.dim)) for i in range(b.dim))
    if lower != upper:
        raise CertificateFailure(
            f"center bounds differ: {lower} central basis elements in B,"
            f" {upper} central monomials in Z(A)"
        )
    return upper


def trace_form_signature(a: StructureAlgebra) -> tuple[int, int, int]:
    """Signature (pos, neg, null) of (x, y) -> Tr(L_{xy}) over Q.

    Associativity makes Tr(L_x L_y) = Tr(L_{xy}).  With the constants
    scaled to integers over one denominator L, the basis traces and the
    Gram matrix are integers over L and L^2, positive factors the
    signature does not see.  The Gram matrix splits into the connected
    blocks of its nonzero pattern, and each block is diagonalized exactly
    with its own P^T G P certificate (Conner and Perlis, A Survey of Trace
    Forms).  For a fixed algebra of Z(A) these are the monomial orbits: u_s
    u_t has a unit component only when s = t.
    """
    if a.field.degree != 1:
        raise FieldMismatch("trace form is computed for Q-algebras only")
    n = a.dim
    table = _integer_table(a.constants)[1]
    tr = [sum(v[0] for t, cell in enumerate(row) for k, v in cell if k == t) for row in table]
    gram: dict[tuple[int, int], int] = {}
    links: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = sum(v[0] * tr[k] for k, v in table[i][j])
            if x:
                gram[i, j] = gram[j, i] = x
                if i != j:
                    links[i].append(j)
                    links[j].append(i)
    q = RATIONAL_FIELD
    pos = neg = 0
    seen = [False] * n
    for i in range(n):
        if seen[i]:
            continue
        seen[i], block = True, [i]
        for j in block:  # grows while it is read: the component of i
            for k in links[j]:
                if not seen[k]:
                    seen[k] = True
                    block.append(k)
        block.sort()
        diag, _ = congruence_diagonalize(
            [[q.rational(gram.get((r, c), 0)) for c in block] for r in block], q, allow_degenerate=True
        )
        for e in diag:
            x = e.rational_value()
            pos += x > 0
            neg += x < 0
    return pos, neg, n - pos - neg


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
    return all(zg.moves[g] == _slot_moves(f, a.dim, g) for g in range(1, d + 1))
