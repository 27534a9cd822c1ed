"""Associative algebras by structure constants, and Galois descent machinery.

An algebra is a table with u_i u_j = c u_k, one nonzero monomial (k, c)
per cell, as every table built here is, C0 and its sigma-twists: blades
multiply to one blade (Lam, Introduction to Quadratic Forms over Fields,
Ch. V).  StructureAlgebra holds c as an integer vector over one common
denominator, with unit u_0, built and checked on those integers with the
field's kernel (FieldDescriptor multiply, accumulate, reduce and the packed
products); FieldElem constants become cells only in monomial_algebra, and
check_products compares named cells with FieldElem constants on those
integers.  One checking rule: the unit law and Z(A)'s slots and Galois
action are always certified, and every StructureAlgebra is swept for
associativity (check_associativity) where it is built; the fixed algebra
B of Z(A) is never built as one, and invariants checks its readout with
one exact checksum at every dim.  Failures raise NotAssociative,
NotClosedUnderMultiplication, DimensionMismatch or CertificateFailure,
under python -O too.

For E/Q Galois with group G = {sigma_1..sigma_d}, Z(A) = A_{sigma_1}
tensor ... tensor A_{sigma_d} (GaloisModuleAlgebra), A with sigma_i applied
to its constants in slot i, carries a semilinear G-action that permutes its
monomials.  Its fixed points, built by invariants, are the corestriction B
of A to Q (Knus, Merkurjev, Rost and Tignol, The Book of Involutions, 3.B),
kept as orbit blocks (FixedAlgebra), which center and trace_form_signature
read alone.  Building Z(A) certifies its action, invariants its slots' shape.
"""
from functools import lru_cache
from itertools import chain, product
from math import gcd, lcm, prod
from operator import add, mul

from .errors import (
    CertificateFailure,
    DimensionMismatch,
    FieldMismatch,
    NotAssociative,
    NotClosedUnderMultiplication,
)
from .exactfield import (
    RATIONAL_FIELD,
    FieldDescriptor,
    apply_automorphism,
)
from .linalg import echelon_reduce
from .qform import DiagForm, congruence_diagonalize


def check_associativity(field: FieldDescriptor, table) -> None:
    """Exact check of associativity on a generating set.

    The right nucleus {z : (x, y, z) = 0 for all x, y} is a subalgebra
    (Schafer, An Introduction to Nonassociative Algebras, 1966), so
    (u_i u_j) g = u_i (u_j g) for every basis pair and every g in a set S
    that generates the algebra, from _generators, makes it associative:
    n^2 |S| triples instead of n^3.

    table is a StructureAlgebra's: cell (i, j) = (k, a) is u_i u_j = a u_k,
    a nonzero over one denominator L.  With u_k u_g = b u_l, u_j u_g = c
    u_m and u_i u_m = e u_p the two sides are ab u_l and ce u_p over L^2,
    equal exactly when l = p and multiply(a, b) = multiply(c, e), with
    FieldDescriptor.multiply memoized for this call.  A failure raises
    NotAssociative naming the first failing triple (i, j, g).
    """
    gens, multiply = _generators(table), lru_cache(maxsize=None)(field.multiply)
    for i, ti in enumerate(table):
        for j, (k, a) in enumerate(ti):
            tj, tk = table[j], table[k]
            for g in gens:
                (l, b), (m, c) = tk[g], tj[g]
                p, e = ti[m]
                if l != p or multiply(a, b) != multiply(c, e):
                    raise NotAssociative(f"associativity fails at ({i},{j},{g})")


def _generators(table) -> list[int]:
    """Greedy generators of a table of nonzero monomials: each is the
    smallest index outside the span of the left-normed words in the ones
    before it.  Each word is a nonzero multiple of one u_t, so the walk
    tracks monomials: from u_0, each reached u_t is multiplied by every
    generator once, u_t u_g landing on table[t][g][0]; when it stalls, the
    smallest unreached index is the next generator, reached as a word of
    its own.  So the walk cannot stall, and the words span the table.
    """
    n, gens, reached, pending = len(table), [], {0}, []  # pending: (t, g), u_t to multiply by u_g
    while len(reached) < n:
        if pending:
            t, g = pending.pop()
            k = table[t][g][0]
            if k in reached:
                continue
        else:
            k = next(k for k in range(n) if k not in reached)
            gens.append(k)
            pending = [(t, k) for t in reached]
        reached.add(k)
        pending += [(k, g) for g in gens]
    return gens


class StructureAlgebra:
    """Finite-dimensional associative unital algebra over an exact field.

    The constructor takes the table in the one form it stores:
    constants[i][j] = (k, v) is u_i u_j = v u_k, 0-based, v a nonzero
    tuple of d ints over the denominator den; a zero v raises
    CertificateFailure naming the cell.  It is brought to lowest terms, so
    equal algebras store equal tables.  The unit is u_0, and the unit law
    and associativity (check_associativity) are always verified.
    monomial_algebra builds a table given by FieldElem constants, and
    check_products certifies named cells against them.
    """

    def __init__(self, field: FieldDescriptor, constants, *, den: int = 1):
        table = constants
        zero = next(((i, j) for i, row in enumerate(table) for j, (_, v) in enumerate(row) if not any(v)), None)
        if zero is not None:
            raise CertificateFailure("u_{} u_{} is zero: a cell must be one nonzero monomial".format(*zero))
        g = gcd(den, *{x for row in table for _, v in row for x in v})
        if g > 1:  # to lowest terms, so that equal algebras store equal tables
            den //= g
            table = [[(k, tuple([x // g for x in v])) for k, v in row] for row in table]
        self.field, self.dim, self.den, self.table = field, len(table), den, table
        self._check_unit()
        check_associativity(field, table)

    def _check_unit(self) -> None:
        """u_0 u_i = u_i = u_i u_0 for each basis element u_i: both stored
        cells must be u_i with the coefficient 1 over den, (den, 0, ..., 0)."""
        table = self.table
        if not table:
            raise CertificateFailure("unit law fails: the table is empty")
        one = (self.den,) + (0,) * (self.field.degree - 1)
        for i in range(self.dim):
            for side, cell in (("left", table[0][i]), ("right", table[i][0])):
                if cell != (i, one):
                    raise CertificateFailure(f"{side} unit law fails at u_{i}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StructureAlgebra)
            and self.field == other.field
            and self.den == other.den
            and self.table == other.table
        )


class _Entries(dict):
    """The entries at index k of a table being built, for one call: the first
    lookup of a key makes the tuple (k, vector(key)), later ones return it."""

    def __init__(self, k: int, vector):
        self.k, self.vector = k, vector

    def __missing__(self, key):
        self[key] = entry = (self.k, self.vector(key))
        return entry


def monomial_algebra(field: FieldDescriptor, cells) -> StructureAlgebra:
    """The algebra with u_i u_j = c u_k for cells[i][j] = (k, c), c a
    nonzero FieldElem of field, over the constants' common denominator and
    always swept; cells[0] and column 0 must make u_0 the unit.  Equal
    entries are one shared tuple: rank 9's 65,536 cells hold 512."""
    given = [c for row in cells for _, c in row]
    if any(c.field != field for c in given):
        raise FieldMismatch("structure constant in the wrong field")
    den = lcm(1, *{c.den for c in given})
    shared = [_Entries(k, lambda c: tuple([x * (den // c.den) for x in c.num])) for k in range(len(cells))]
    return StructureAlgebra(field, [[shared[k][c] for k, c in row] for row in cells], den=den)


def check_products(alg: StructureAlgebra, products) -> None:
    """u_i u_j = c u_k for each (relation, i, j, k, c) in products, c a
    FieldElem of alg's field: the stored cell must be (k, v) with v c.den =
    c.num alg.den, else CertificateFailure names the relation."""
    den, table = alg.den, alg.table
    for relation, i, j, k, c in products:
        if c.field != alg.field:
            raise FieldMismatch("structure constant in the wrong field")
        k2, v = table[i][j]
        if k2 != k or [x * c.den for x in v] != [x * den for x in c.num]:
            raise CertificateFailure(f"{relation} fails at ({i},{j})")


def _twist(field: FieldDescriptor, table, den: int, i: int) -> tuple[list, int]:
    """(constants, den) of the table over den with sigma_i applied to each
    of its distinct integer vectors once."""
    images = {}
    for v in {v for row in table for _, v in row}:
        r, scale = field.automorphism(i, v)  # the same scale for every v
        images[v] = tuple(r)
    return [[(k, images[v]) for k, v in row] for row in table], den * scale


def _scaled(table, by: int) -> list:
    """table with each of its distinct integer vectors times by, once."""
    images = {v: tuple([x * by for x in v]) for v in {v for row in table for _, v in row}}
    return [[(k, images[v]) for k, v in row] for row in table]


# -- the G-module Z_G(A) -------------------------------------------------------------


def _slot_moves(f: FieldDescriptor, m: int, g: int) -> list[int]:
    """moves[t]: the monomial u_t goes to under sigma_g.  Slot s holds
    A_{sigma_{s+1}} and moves to the slot hosting sigma_g . sigma_{s+1}."""
    d = f.degree
    weights = [m ** (d - f.compose(g, s + 1)) for s in range(d)]
    return [sum(k * w for k, w in zip(kt, weights)) for kt in product(range(m), repeat=d)]


class GaloisModuleAlgebra:
    """Z(A) = A_{sigma_1} tensor ... tensor A_{sigma_d} with its G-action.

    slots[s] is A_{sigma_{s+1}} as (constants, den), slots[0] A's own.  Z(A)
    has dim (dim A)^d and the monomial basis u_t, t read in base dim A with
    slot 0 the leading digit; products gives its products over den, the slot
    denominators times reduction_den^(d-1).  sigma_g acts semilinearly by the
    monomial permutation moves[g]: sigma_g(c u_t) = sigma_g(c) u_{moves[g][t]}.
    The action is certified at construction; the slots' shape, each cell one
    nonzero monomial, by invariants, which reads it.
    """

    def __init__(self, a: StructureAlgebra, f: FieldDescriptor):
        if a.field != f:
            raise FieldMismatch("algebra is not defined over the given field")
        self.field, d = f, f.degree
        self.slots = [(a.table, a.den)] + [_twist(f, a.table, a.den, i) for i in range(2, d + 1)]
        self.dim = a.dim ** d
        self.den = f.reduction_den ** (d - 1) * prod(den for _, den in self.slots)
        self.moves = {g: _slot_moves(f, a.dim, g) for g in range(1, d + 1)}
        self._check_actions()

    def products(self, keep, signs):
        """(s, t, k, beta, c) for each product u_s u_t = c u_k with k in keep,
        c as d ints over den: the slot cells at the digits of s and t
        multiplied, the last slot's only where k is kept.  u_t u_s = beta c
        u_k, beta the product of the slots' signs u_j u_i = +-u_i u_j, signs
        as _certify_slot_shapes returned them for these slots."""
        m, mul = len(self.slots[0][0]), lru_cache(maxsize=None)(self.field.multiply)
        *heads, last = [[(s, t, *cell, sign[s][t]) for s, row in enumerate(table) for t, cell in enumerate(row)]
                        for (table, _), sign in zip(self.slots, signs)]
        pairs = [(0, 0, 0, None, 1)]
        for slot in heads:
            pairs = [(s * m + s1, t * m + t1, k * m + k1, v1 if v is None else mul(v, v1), b * b1)
                     for s, t, k, v, b in pairs for s1, t1, k1, v1, b1 in slot]
        for s, t, k, v, b in pairs:
            s, t, k = s * m, t * m, k * m
            for s1, t1, k1, v1, b1 in last:
                if k + k1 in keep:
                    yield s + s1, t + t1, k + k1, b * b1, v1 if v is None else mul(v, v1)

    def _check_actions(self) -> None:
        """Exact certification of the Galois action on the slots and moves.

        Each move is a bijection.  sigma_g, applied by _twist once to each
        distinct vector of slot s, takes its cells (k, v) to those of slot
        pi_g(s), hosting sigma_g . sigma_{s+1}, over one denominator.  So
        each slot is certified as sigma_g(A), associative by A's sweep, and
        so is Z(A), their tensor product (Pierce, Associative Algebras, GTM
        88); the slots' shape is certified where it is read, by invariants.
        The moves follow the group law of G; each carries digit s of every
        monomial to slot pi_g(s) as _slot_moves made it, not compared again.
        The coefficient part of the action is the field automorphism,
        certified with the field.

        The cells are not compared for sigma_1, and nothing is lost: the
        field pins sigma_1 to X, and the group law at (1, 1) gives
        p_1 o p_1 = p_1, which for a bijection p_1 forces p_1 = id.
        """
        f, slots, n, m = self.field, self.slots, self.dim, len(self.slots[0][0])
        for g, pt in self.moves.items():
            if sorted(pt) != list(range(n)):
                raise CertificateFailure(f"action {g}: monomial move is not a bijection")
            for s, (table, den) in enumerate(slots if g > 1 else ()):
                s2 = f.compose(g, s + 1) - 1
                (image, den1), (target, den2) = _twist(f, table, den, g), slots[s2]
                if den1 != den2:  # then over den1 den2; never for integral automorphism matrices
                    image, target = _scaled(image, den2), _scaled(target, den1)
                if image != target:
                    i, j = next((i, j) for i, j in product(range(m), repeat=2) if image[i][j] != target[i][j])
                    raise CertificateFailure(f"action {g} does not take slot {s} to slot {s2} at ({i},{j})")
        for (g1, p1), (g2, p2) in product(self.moves.items(), repeat=2):
            p12 = self.moves[f.compose(g1, g2)]
            t = next((t for t in range(n) if p1[p2[t]] != p12[t]), None)
            if t is not None:
                raise CertificateFailure(f"action group law fails for ({g1},{g2}) at monomial {t}")


def _certify_slot_shapes(slots) -> list[list[list[int]]]:
    """The slot shape every reader of Z(A) needs, walked once per report by
    invariants, before it reads a product.  In slot s every product u_i u_j
    must have a nonzero coefficient (all cells first), the same monomial as
    u_j u_i, with u_j u_i = +-u_i u_j on the stored integers, and injective
    in j, else CertificateFailure: even Clifford slots are, as e_S e_T =
    +-e_T e_S (Lam, Introduction to Quadratic Forms over Fields, Ch. V).
    Returns the signs: u_j u_i = signs[s][i][j] u_i u_j in slot s."""
    signs = []
    for s, (table, _) in enumerate(slots):
        for i, j in product(range(len(table)), repeat=2):
            if not any(table[i][j][1]):
                raise CertificateFailure(f"slot {s} product u_{i} u_{j} is not one monomial")
        sign = [[1] * len(table) for _ in table]
        for i, row in enumerate(table):
            for j in range(i):
                (k, v), (k2, w) = table[i][j], table[j][i]
                if k != k2 or w not in (v, tuple([-x for x in v])):
                    how = "land on different monomials" if k != k2 else "differ by more than a sign"
                    raise CertificateFailure(f"slot {s} products u_{i} u_{j} and u_{j} u_{i} {how}")
                sign[i][j] = sign[j][i] = 1 if w == v else -1
            if len({k for k, _ in row}) != len(row):
                raise CertificateFailure(f"slot {s} products u_{i} u_j repeat a monomial")
        signs.append(sign)
    return signs


def build_ZG(a: StructureAlgebra, f: FieldDescriptor) -> GaloisModuleAlgebra:
    return GaloisModuleAlgebra(a, f)


class FixedAlgebra:
    """B = invariants(z) over Q as its orbit blocks, with no n x n table.

    orbits[o] = (first, m, rep): orbit o has the basis elements b_first ..
    b_(first+m-1), m = dim E^H at its representative rep.  blocks[o, o2],
    o <= o2, maps each target k, a representative, to (beta, coordinates):
    coordinates[c][i m2 + j], m2 the dim of orbit o2, is the coordinate at
    basis element c of k's orbit of b_(first+i) b_(first2+j), over den, and
    b_(first2+j) b_(first+i) is beta times it; blocks read from one sum share
    one tuple of tuples.  central_monomials is Z(A)'s count, for center.  The
    unit law on the (0, J) blocks is checked: e_0 e_j is den at j alone, beta 1.
    """

    def __init__(self, orbits: list, blocks: dict, den: int, central_monomials: int):
        self.orbits, self.blocks, self.den, self.dim = orbits, blocks, den, sum(m for _, m, _ in orbits)
        self.central_monomials = central_monomials
        for o, (first, m, rep) in enumerate(orbits):
            by_k = blocks.get((0, o), {})
            for j in range(m):
                if [(k, c, xs[j]) for k, (_, cs) in by_k.items() for c, xs in enumerate(cs) if xs[j]] != [(rep, j, den)]:
                    raise CertificateFailure(f"left unit law fails at u_{first + j}")
                if by_k[rep][0] != 1:
                    raise CertificateFailure(f"right unit law fails at u_{first + j}")


def invariants(z: GaloisModuleAlgebra) -> FixedAlgebra:
    """The Q-algebra B of G-fixed points of Z(A), of dim (dim_E A)^d: the
    corestriction to Q, as its orbit blocks.

    A fixed element is determined by its coefficients at the orbit
    representatives, the monomials t with no smaller image; the one at t
    ranges over E^H, H the stabiliser of t.  The basis is Tr_{G/H}(b u_t)
    for the RREF rows b of E^H, which the H-traces of 1, alpha, ...,
    alpha^(d-1) span (reduced with linalg.echelon_reduce over Q), so in the
    Q-basis alpha^l u_t it is the RREF basis of the fixed subspace.  A
    basis element that gives one monomial two values raises
    CertificateFailure.  Every move fixes monomial 0, so E^H = Q there and
    basis element 0 is 1 u_0, the unit of B.

    Products run on integer vectors, one unordered pair of orbits I <= J
    (by representative) at a time: a term c u_k of u_s u_s', s in I and s'
    in J, at a representative k, formed once by z.products, adds one
    product of FieldDescriptor.pack_matrices of the coefficients a at s of
    the basis elements and pack_vectors of the b c, b those at s', which
    sums M_a (b c) = reduce(a b c) for every pair of basis elements.  Each
    distinct a is packed, and each b c formed, once; each distinct (E^H at
    k, terms) is summed once, and each (E^H, shape, sum) read once, by an
    unpacker memoized for this call only, into one tuple shared by its
    blocks: the pivot columns, which the RREF rows, over one S, must take
    to S times each free column, else NotClosedUnderMultiplication.  The
    moves are trusted as certified when z was built; a later corruption is
    caught by these checks, the dimension count or the orbit partition.

    z.products gives u_s' u_s = beta c u_k with one beta per target (I, J,
    k), else CertificateFailure, so b_j b_i = beta b_i b_j at k: on even
    Clifford slots e_S e_T = (-1)^|S n T| e_T e_S (Lam, Ch. V), 2 |S n T| =
    |S| + |T| - |S xor T|, and each size summed over the slots is constant
    on an orbit.  b_j b_i is in E^H at k exactly when b_i b_j is, so the
    closure tests cover every product.

    The closure tests see the free columns only.  Once FixedAlgebra has
    checked the unit law, one exact checksum covers every read, its pivot
    columns too: the d column sums of all reads must equal the sum over
    their terms (a, b, c) of multiply(sum_l a_l, sum_j b_j c), folded by
    bilinearity into one FieldDescriptor.multiply per distinct id a and
    formed without packing, else CertificateFailure.  A misread digit, such
    as a packing width too narrow for the sums gives, shows in its column's
    sum unless errors cancel there: this is Freivalds' product check (IFIP
    1977) with the all-ones vector.
    """
    f, d, n, signs = z.field, z.field.degree, z.dim, _certify_slot_shapes(z.slots)  # the one walk of the slots
    gs, powers = range(1, d + 1), [f.elem([0] * l + [1]) for l in range(d)]
    dim, orbits, members, fields, targets, where, interned = 0, [], [], {}, {}, {}, {}  # targets[rep]: H
    for t in range(n):
        images = [z.moves[g][t] for g in gs]
        if min(images) < t:
            continue
        stab = targets[t] = tuple(g for g, s in zip(gs, images) if s == t)
        if stab not in fields:  # the reduced echelon of E^H, each row primitive
            echelon: dict = {}
            for x in powers:
                trace = sum((apply_automorphism(x, h) for h in stab), f.zero()).num
                w = echelon_reduce(RATIONAL_FIELD, echelon, {l: (c,) for l, c in enumerate(trace) if c})
                if w:
                    echelon = {p: echelon_reduce(RATIONAL_FIELD, {min(w): w}, r) for p, r in echelon.items()}
                    echelon[min(w)] = w
            # a primitive row over its pivot is an RREF row, of denominators with lcm |pivot|
            pivots = sorted(echelon)
            scale = lcm(*(echelon[p][p][0] for p in pivots))
            rows = [[echelon[p].get(l, (0,))[0] * (scale // echelon[p][p][0]) for l in range(d)] for p in pivots]
            conjugates = [tuple([apply_automorphism(f.from_integers(r, scale), g) for r in rows]) for g in gs]
            free = [(l, [r[l] for r in rows]) for l in range(d) if l not in pivots]
            fields[stab] = pivots, free, scale, [interned.setdefault(a, len(interned)) for a in conjugates]
        pivots, free, scale, conjugate_ids = fields[stab]  # the id of the basis elements at each sigma_g(t)
        orbits.append((dim, len(pivots), t))
        members.append(sorted(set(images)))
        if len(set(zip(images, conjugate_ids))) != len(set(images)):
            raise CertificateFailure(f"basis element at monomial {t} is not fixed")
        dim += len(pivots)
        where.update((s, (len(orbits) - 1, i)) for s, i in zip(images, conjugate_ids))  # s: (orbit, id)
    if dim != n:
        raise DimensionMismatch(f"invariant dimension {dim}, expected {n}")
    if sorted(s for orbit in members for s in orbit) != list(range(n)):
        raise CertificateFailure("the orbits do not cover each monomial exactly once")
    # the basis over one denominator M, the blocks over one L: products over M^2 L D^2, D = reduction_den
    bden = lcm(1, *(c.den for a in interned for c in a))
    den = bden * bden * z.den * f.reduction_den ** 2
    vectors = [tuple([tuple([x * (bden // c.den) for x in c.num]) for c in a]) for a in interned]
    # per pair of orbits I <= J and per k, beta and the terms (id at s, id at s', c); ys[id at s', c], the b c
    pairs, multiply, ys = {}, lru_cache(maxsize=None)(f.multiply), {}
    for s, s2, k, beta, c in z.products(targets, signs):
        (o, a), (o2, b) = where[s], where[s2]
        if o > o2:
            continue
        sign, group = pairs.setdefault((o, o2), {}).setdefault(k, (beta, []))
        if sign != beta:
            raise CertificateFailure(f"products of orbits of u_{orbits[o][2]} and u_{orbits[o2][2]} at u_{k} carry both signs")
        group.append((a, b, c))
        if (b, c) not in ys:
            ys[b, c] = [multiply(x, c) for x in vectors[b]]
    terms = max(len(group) for by_k in pairs.values() for _, group in by_k.values())
    width = f.packing_width(terms, {a for v in vectors for a in v}, {y for v in ys.values() for y in v})
    packed_a = [f.pack_matrices(v, width) for v in vectors]
    packed_y = {key: f.pack_vectors(v, width) for key, v in ys.items()}
    unpacker, summed, read = lru_cache(maxsize=None)(f.unpacker), {}, {}
    read_columns, read_terms = [], []  # the checksum's input: the columns and the terms of every read
    for (o, o2), by_k in sorted(pairs.items()):
        shape = orbits[o][1], orbits[o2][1]
        for k, (beta, group) in by_k.items():
            key = targets[k], tuple(group)
            if key not in summed:
                summed[key] = total = (targets[k], *shape, sum(packed_a[a] * packed_y[b, c] for a, b, c in group))
                if total not in read:
                    pivots, free, scale, _ = fields[targets[k]]
                    columns = unpacker(*shape, width)(total[-1])
                    read[total] = coordinates = tuple([tuple(columns[p]) for p in pivots])
                    for l, rs in free:  # the RREF rows must take the coordinates back to column l
                        if any(scale * y != sum(map(mul, rs, xs)) for y, xs in zip(columns[l], zip(*coordinates))):
                            raise NotClosedUnderMultiplication("product leaves the fixed subspace")
                    read_columns.append(columns)
                    read_terms += group
            by_k[k] = beta, read[summed[key]]
    fixed = FixedAlgebra(orbits, pairs, den, prod(sum(-1 not in row for row in sign) for sign in signs))
    paired = {}  # per id a, the b c of its terms in every read
    for a, b, c in read_terms:
        paired.setdefault(a, []).extend(ys[b, c])
    checksum = [0] * d  # the sum over the ids a of (sum_l a_l)(sum of those b c)
    for a, y in paired.items():
        checksum = list(map(add, checksum, f.multiply(list(map(sum, zip(*vectors[a]))), list(map(sum, zip(*y))))))
    column_sums = [sum(chain.from_iterable(column)) for column in zip(*read_columns)]
    i = next((i for i, (x, y) in enumerate(zip(column_sums, checksum)) if x != y), None)
    if i is not None:
        raise CertificateFailure(f"readout checksum fails at column {i}")
    return fixed


# -- centers and trace forms ---------------------------------------------------------


def center(b: FixedAlgebra) -> int:
    """dim_Q of the center of b = invariants(z), fixed by two counts.

    Upper bound, b.central_monomials, counted by invariants on its slot
    walk's signs: in a slot of that shape conjugation by u_i scales u_j by
    the sign of the pair, so the slot's center is spanned by the monomials
    whose signs are all +1 (Lam, Ch. V); the center of Z(A), the tensor of
    the slots' centers (Pierce), has dim the product of their counts, and
    Z(b) tensor E lies in it.  Lower bound: the basis elements that commute
    with every basis element, read off the blocks: across orbits b_j b_i =
    beta b_i b_j, equal where beta = 1 or the entry is 0; an (I, I) block
    holds both orders.  Bounds that differ raise CertificateFailure.
    """
    central, differ = [True] * b.dim, {}  # per (id(coordinates), o == o2) of this call, the p where x != y
    for (o, o2), by_k in b.blocks.items():
        (i0, m, _), (j0, mr, _) = b.orbits[o], b.orbits[o2]
        for beta, coordinates in by_k.values() if any(central[i0:i0 + m] + central[j0:j0 + mr]) else ():
            if o == o2 or beta != 1:  # x = b_i b_j at p = i mr + j; b_j b_i is at j m + i in an (I, I) block, else -x
                if (key := (id(coordinates), o == o2)) not in differ:
                    differ[key] = {p for xs in coordinates for p, x in enumerate(xs)
                                   if x != (xs[p % m * m + p // m] if o == o2 else 0)}
                for p in differ[key]:
                    central[i0 + p // mr] = central[j0 + p % mr] = False
    if sum(central) != b.central_monomials:
        raise CertificateFailure(f"center bounds differ: {sum(central)} central basis elements in B,"
                                 f" {b.central_monomials} central monomials in Z(A)")
    return b.central_monomials


def trace_form_signature(b: FixedAlgebra) -> tuple[int, int, int]:
    """Signature (pos, neg, null) of (x, y) -> Tr(L_{xy}) on b = invariants(z).

    invariants certified every slot's shape when b was built: u_s u_t in a
    slot is one monomial, symmetric and injective in s and t, so it lies on
    u_t = u_0 u_t only for s = 0; traces multiply over the slots, so in Z(A)
    Tr(L_{u_t}) is n at t = 0 and 0 elsewhere.  b tensor E = Z(A) (Knus,
    Merkurjev, Rost and Tignol, 3.B), and b_0 = u_0 alone has a u_0 term, so
    Tr(L_{xy}) = n (xy)_0.  A pair of orbits I != J with a target u_0 raises
    CertificateFailure, so the Gram matrix is n/L times one (I, I) block per
    orbit at u_0, read on and above the diagonal;
    qform.congruence_diagonalize certifies P^T G P in integers (Conner and
    Perlis, A Survey of Trace Forms), once per distinct block in a call.
    """
    pos, neg, counts = 0, 0, {}  # counts: (pos, neg) per distinct Gram block, for this call
    for (o, o2), by_k in b.blocks.items():
        if 0 not in by_k:
            continue
        if o != o2:
            raise CertificateFailure(f"products of orbits of u_{b.orbits[o][2]} and u_{b.orbits[o2][2]} reach u_0")
        m, [xs] = b.orbits[o][1], by_k[0][1]
        if xs not in counts:
            es = congruence_diagonalize([[(xs[min(r, c) * m + max(r, c)],) for c in range(m)] for r in range(m)],
                                        RATIONAL_FIELD)
            counts[xs] = sum(e.num[0] > 0 for e in es), sum(e.num[0] < 0 for e in es)
        pos, neg = pos + counts[xs][0], neg + counts[xs][1]
    return pos, neg, b.dim - pos - neg


# -- the twisted-Clifford comparison --------------------------------------------------


def verify_twisted_iso(diag_q: DiagForm, f: FieldDescriptor) -> bool:
    """Check Z(C0(Q)) against the tensor of conjugate even Clifford algebras.

    The two sides are built through different code paths: the left is the
    slots of build_ZG, the structure constants of C0(Q) twisted by each
    sigma_i, each swept as a table; the right runs the Clifford
    construction on the sigma_i-conjugated diagonal entries.  They are
    compared slot by slot, which compares their tensor products: each
    factor's unit is u_0, so (u_i x u_0 x ...)(u_j x u_0 x ...) is the
    first factor's u_i u_j times the unit, likewise in every slot, and two
    tensor tables are equal exactly when their factors are (Pierce,
    Associative Algebras, GTM 88); StructureAlgebra stores each in lowest
    terms, so == is canonical.  The stored G-action must match the
    slot-permutation action recomputed from scratch.
    """
    from .clifford import CliffordAlgebra, even_part  # layering: clifford builds on csa

    a, gs = even_part(CliffordAlgebra(f, diag_q.entries)), range(1, f.degree + 1)
    zg = build_ZG(a, f)
    left = [StructureAlgebra(f, table, den=den) for table, den in zg.slots]
    right = [even_part(CliffordAlgebra(f, [apply_automorphism(e, i) for e in diag_q.entries])) for i in gs]
    return left == right and all(zg.moves[g] == _slot_moves(f, a.dim, g) for g in gs)
