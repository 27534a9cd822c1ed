import re
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import pytest

from ksalgebra import csa, exactfield
from ksalgebra.brauer import QuaternionSymbol, rational_symbol
from ksalgebra.csa import (
    StructureAlgebra,
    build_ZG,
    center,
    invariants,
    monomial_algebra,
    trace_form_signature,
    verify_twisted_iso,
)
from ksalgebra.clifford import even_part
from ksalgebra.errors import CertificateFailure, FieldMismatch
from ksalgebra.exactfield import (
    RATIONAL_FIELD,
    FieldDescriptor,
    apply_automorphism,
    cyclic_cubic_field,
    quadratic_field,
)
from ksalgebra.pipeline import ks_report, search_cubic_diagonal
from ksalgebra.qform import GramForm, congruence_diagonalize, diagonalize

from basis_product import basis_product
from entries_table import EntriesTable
from fixed_table import fixed_table
from kernel_oracle import (
    block_trace_signature,
    congruence,
    oracle_action_failure,
    oracle_center,
    oracle_dense_trace_signature,
    oracle_invariants,
    oracle_tensor,
)
from quartic_fields import biquadratic_field, cyclic_quartic_field
from quaternion_table import quaternion_table
from test_associativity import corrupted_moves

Q2 = quadratic_field(2)

HAMILTON = quaternion_table(rational_symbol(-1, -1))
SPLIT = quaternion_table(rational_symbol(1, 1))


def tensor_q(*algebras: StructureAlgebra) -> StructureAlgebra:
    """The tensor product of Q-algebras, built by kernel_oracle.oracle_tensor."""
    return oracle_tensor(RATIONAL_FIELD, [(a.table, a.den) for a in algebras])


def family_diag(d: int, c: int):
    f = quadratic_field(d)
    a = f.gen()
    return f, diagonalize(GramForm.diagonal(f, [a, a, c * a - d]))


# -- oracle: trace form assembled from explicit regular-representation matrices


def oracle_trace_signature(alg) -> tuple[int, int, int]:
    n = alg.dim
    mats = []
    for k in range(n):
        m = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n):
            for s, c in basis_product(alg, k, j):
                m[s][j] = c.rational_value()
        mats.append(m)
    gram = []
    for x in range(n):
        row = []
        for y in range(n):
            tr = Fraction(0)
            for r in range(n):
                tr += sum(mats[x][r][t] * mats[y][t][r] for t in range(n))
            row.append([tr])
        gram.append(row)
    diag, _ = congruence(gram, RATIONAL_FIELD)
    pos = sum(1 for e, in diag if e > 0)
    neg = sum(1 for e, in diag if e < 0)
    return pos, neg, n - pos - neg


def matrix_units_algebra(n: int) -> EntriesTable:
    # n x n matrices on the basis u_0 = 1 and the matrix units E_pq,
    # (p, q) != (0, 0), at index p n + q, as integers over 1: E_pq E_rs =
    # delta_qr E_ps, with E_00 = 1 - sum_{p > 0} E_pp
    dim = n * n

    def unit_matrix(p: int, s: int) -> list:
        if p or s:
            return [(p * n + s, (1,))]
        return [(0, (1,))] + [(p * (n + 1), (-1,)) for p in range(1, n)]

    constants = [[[(i + j, (1,))] if not i or not j else [] for j in range(dim)] for i in range(dim)]
    for p, q, s in product(range(n), repeat=3):
        i, j = p * n + q, q * n + s
        if i and j:
            constants[i][j] = unit_matrix(p, s)
    return EntriesTable(RATIONAL_FIELD, constants)


# -- quaternion tables ---------------------------------------------------------------


def test_hamilton_table():
    h = HAMILTON
    one = RATIONAL_FIELD.one()
    assert basis_product(h, 1, 1) == [(0, -one)]
    assert basis_product(h, 1, 2) == [(3, one)]
    assert basis_product(h, 2, 1) == [(3, -one)]
    assert basis_product(h, 3, 3) == [(0, -one)]
    assert basis_product(h, 1, 3) == [(2, -one)]  # ik = aj with a = -1


def test_split_table_over_E():
    s = QuaternionSymbol(Q2.rational(-2), Q2.gen() - 1)
    alg = quaternion_table(s)
    assert alg.dim == 4 and alg.field == Q2
    assert basis_product(alg, 1, 1) == [(0, Q2.rational(-2))]


def test_hamilton_trace_form_by_hand():
    # regular trace of 1, i, j, k is (4, 0, 0, 0); Tr(L_{x^2}) gives diag(4,-4,-4,-4)
    assert oracle_trace_signature(HAMILTON) == (1, 3, 0)
    assert block_trace_signature(HAMILTON) == (1, 3, 0)


def test_split_signature_matches_matrix_algebra():
    assert block_trace_signature(SPLIT) == oracle_trace_signature(SPLIT) == (3, 1, 0)
    assert block_trace_signature(matrix_units_algebra(2)) == (3, 1, 0)


def test_trace_signature_cross_oracle_on_tensors():
    mat2_h = tensor_q(SPLIT, HAMILTON)
    mat4 = tensor_q(SPLIT, SPLIT)
    assert block_trace_signature(mat2_h) == oracle_trace_signature(mat2_h) == (6, 10, 0)
    assert block_trace_signature(mat4) == oracle_trace_signature(mat4) == (10, 6, 0)
    assert block_trace_signature(matrix_units_algebra(4)) == (10, 6, 0)


def test_signature_components_sum_to_dim():
    for alg in (HAMILTON, SPLIT, tensor_q(HAMILTON, HAMILTON)):
        pos, neg, null = block_trace_signature(alg)
        assert pos + neg + null == alg.dim


def test_builder_rejects_a_constant_in_the_wrong_field():
    q5 = quadratic_field(5)
    with pytest.raises(FieldMismatch, match="structure constant in the wrong field"):
        monomial_algebra(RATIONAL_FIELD, [[(0, Q2.gen())]])
    one = Q2.one()
    cells = [[(0, one), (1, one)], [(1, one), (0, q5.rational(2))]]
    with pytest.raises(FieldMismatch, match="structure constant in the wrong field"):
        monomial_algebra(Q2, cells)


def test_builder_unit_is_u0_over_the_constants_denominator():
    # E[x]/(x^2 - c) over Q(sqrt 2), c = (1 + sqrt 2)/3: the table and the
    # unit u_0 are stored over 3, and the unit law holds
    one, c = Q2.one(), (Q2.one() + Q2.gen()) / 3
    alg = monomial_algebra(Q2, [[(0, one), (1, one)], [(1, one), (0, c)]])
    assert alg.den == 3
    assert alg.table[0] == [(0, (3, 0)), (1, (3, 0))]
    assert basis_product(alg, 1, 1) == [(0, c)]


def hamilton_table_with(cells: dict) -> list:
    """A copy of HAMILTON's stored table with the cells at (i, j) replaced."""
    table = [list(row) for row in HAMILTON.table]
    for (i, j), cell in cells.items():
        table[i][j] = cell
    return table


def test_unit_law_reads_row_and_column_0_of_the_stored_table():
    # u_0 u_2 = u_3 breaks row 0 only; u_3 u_0 = -u_3 breaks column 0 only
    with pytest.raises(CertificateFailure, match=r"left unit law fails at u_2"):
        StructureAlgebra(RATIONAL_FIELD, hamilton_table_with({(0, 2): (3, (1,))}))
    with pytest.raises(CertificateFailure, match=r"right unit law fails at u_3"):
        StructureAlgebra(RATIONAL_FIELD, hamilton_table_with({(3, 0): (3, (-1,))}))


def test_a_zero_cell_is_refused_before_the_unit_law():
    # u_2 u_3 = 0 is no monomial; so is a zero u_0 u_1, which the unit law would name
    with pytest.raises(CertificateFailure, match=re.escape("u_2 u_3 is zero: a cell must be one nonzero monomial")):
        StructureAlgebra(RATIONAL_FIELD, hamilton_table_with({(2, 3): (1, (0,))}))
    with pytest.raises(CertificateFailure, match=re.escape("u_0 u_1 is zero")):
        StructureAlgebra(RATIONAL_FIELD, hamilton_table_with({(0, 1): (1, (0,))}))


def test_unit_law_rejects_an_empty_table():
    with pytest.raises(CertificateFailure, match="unit law fails"):
        StructureAlgebra(RATIONAL_FIELD, [])


# -- tensor products ------------------------------------------------------------------


def test_hamilton_squared_is_full_matrix_class():
    assert block_trace_signature(tensor_q(HAMILTON, HAMILTON)) == (10, 6, 0)


# -- center ---------------------------------------------------------------------------


def test_center_dimensions():
    # the dense oracle on algebras that are not fixed algebras of a Z(A)
    assert len(oracle_center(HAMILTON)) == 1
    assert len(oracle_center(SPLIT)) == 1
    assert len(oracle_center(matrix_units_algebra(3))) == 1
    # commutative quadratic etale algebra: dim-2 center
    one = RATIONAL_FIELD.one()
    comm = monomial_algebra(
        RATIONAL_FIELD, [[(0, one), (1, one)], [(1, one), (0, RATIONAL_FIELD.rational(2))]]
    )
    assert len(oracle_center(comm)) == 2


def test_center_vector_is_unit_line():
    basis = oracle_center(HAMILTON)
    assert basis == [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)]]


# the six-lines family triples (d, c, e) and the rank-4 forms
# diag(sqrt d + s) over Q(sqrt d) of the benchmark, and four small forms
FAMILY_TRIPLES = (
    (2, 1, 1), (5, 1, 2), (5, 2, 1), (10, 1, 3), (10, 3, 1), (13, 2, 3),
    (13, 3, 2), (17, 1, 4), (2, Fraction(7, 5), Fraction(1, 5)),
)
RANK4_SHIFTS = ((2, (0, 0, -2, -2)), (2, (0, 1, -2, -3)), (5, (0, 0, -3, -3)), (5, (0, 1, -3, -4)))
CENTER_CASES = (
    *(pytest.param("family", (d, c), id=f"family {d},{c},{e}") for d, c, e in FAMILY_TRIPLES),
    *(pytest.param("rank 4", (d, s), id=f"rank 4 Q(sqrt {d}) shifts {s}") for d, s in RANK4_SHIFTS),
    pytest.param("cubic search form", None, id="cubic search form"),
    pytest.param("cubic", (0, -1), id="cubic rank 2"),
    pytest.param("Q", (1, 2, -3), id="Q rank 3"),
    pytest.param("Q", (1, 2, -3, 5), id="Q rank 4"),
)


def center_case(kind: str, args):
    """Z(A) of the even Clifford algebra of one diagonal form."""
    if kind == "family":  # diag(a, a, c a - d), a = sqrt d
        d, c = args
        f = quadratic_field(d)
        entries = [f.gen(), f.gen(), f.elem([-d, c])]
    elif kind == "rank 4":  # diag(a + s), a = sqrt d
        d, shifts = args
        f = quadratic_field(d)
        entries = [f.gen() + s for s in shifts]
    elif kind == "cubic search form":
        f = cyclic_cubic_field()
        form = search_cubic_diagonal(f)
        entries = [form.entries[i][i] for i in range(form.dim)]
    elif kind == "cubic":  # diag(a + s), a the cubic generator
        f = cyclic_cubic_field()
        entries = [f.gen() + s for s in args]
    else:
        f, entries = RATIONAL_FIELD, list(args)
    return build_ZG(even_part(f, entries), f)


@pytest.mark.parametrize("kind, args", CENTER_CASES)
def test_center_counts_match_the_dense_oracle(kind, args):
    z = center_case(kind, args)
    b = invariants(z)
    assert center(b) == len(oracle_center(fixed_table(b)))


def dual_numbers() -> EntriesTable:
    """Q[x]/(x^2): its trace form <2, 0> has a radical."""
    return EntriesTable(RATIONAL_FIELD, [[[(0, (1,))], [(1, (1,))]], [[(1, (1,))], []]])


# Q-algebras that are not fixed algebras of a Z(A); in the matrix units
# E_pq pairs with E_qp in a block with a zero diagonal
TRACE_ALGEBRAS = {
    "HAMILTON": lambda: HAMILTON,
    "SPLIT": lambda: SPLIT,
    "matrix units 2": lambda: matrix_units_algebra(2),
    "matrix units 4": lambda: matrix_units_algebra(4),
    "SPLIT x HAMILTON": lambda: tensor_q(SPLIT, HAMILTON),
    "SPLIT x SPLIT": lambda: tensor_q(SPLIT, SPLIT),
    "dual numbers": dual_numbers,
}
TRACE_CASES = (
    *CENTER_CASES,
    *(pytest.param("algebra", name, id=name) for name in TRACE_ALGEBRAS),
)


@pytest.mark.parametrize("kind, args", TRACE_CASES)
def test_trace_signature_matches_the_dense_oracle(kind, args):
    # fixed algebras through the package's unit column, the others through
    # the general block reference
    if kind == "algebra":
        alg = TRACE_ALGEBRAS[args]()
        sig = block_trace_signature(alg)
    else:
        z = center_case(kind, args)
        b = invariants(z)
        sig, alg = trace_form_signature(b), fixed_table(b)
    assert sig == oracle_dense_trace_signature(alg)


# center and trace_form_signature of each CENTER_CASES entry as the readers
# counted them on B's n x n table, before B was kept as its orbit blocks
TABLE_COUNTS = {
    **{f"family {d},{c},{e}": (1, (6, 10, 0)) for d, c, e in FAMILY_TRIPLES},
    **{f"rank 4 Q(sqrt {d}) shifts {s}": (4, (24, 40, 0)) for d, s in RANK4_SHIFTS},
    "cubic search form": (1, (36, 28, 0)),
    "cubic rank 2": (8, (4, 4, 0)),
    "Q rank 3": (1, (3, 1, 0)),
    "Q rank 4": (2, (4, 4, 0)),
}


@pytest.mark.parametrize(
    "kind, args, counts", [pytest.param(*case.values, TABLE_COUNTS[case.id], id=case.id) for case in CENTER_CASES]
)
def test_block_readers_give_the_table_counts(kind, args, counts):
    z = center_case(kind, args)
    b = invariants(z)
    assert (center(b), trace_form_signature(b)) == counts


# (degree of E, dim) of each table a report builds: C0 alone, since the
# symbol route certifies C0 as (a, b) on C0's own cells; over Q the rank-3
# sweep count below pins the same
REPORT_TABLES = {
    "family Q(sqrt 2)": [(2, 4)],
    "Q(sqrt 2) rank 4": [(2, 8)],
    "cubic search form": [(3, 4)],
}


def report_form(name: str):
    """(field, form) of a REPORT_TABLES case."""
    if name == "cubic search form":
        f = cyclic_cubic_field()
        return f, search_cubic_diagonal(f)
    a = Q2.gen()
    return Q2, GramForm.diagonal(Q2, [a, a, a - 2] if name == "family Q(sqrt 2)" else [a, a, a - 2, a - 2])


@pytest.mark.parametrize("name", REPORT_TABLES)
def test_no_report_builds_a_table_for_the_fixed_algebra(monkeypatch, name):
    # B, over Q and of dim 16, 64 and 64 here, is kept as its blocks at
    # every dim and checked by the readout checksum, never built as a table
    built = []
    real = StructureAlgebra.__init__

    def init(alg, field, constants, **kwargs):
        built.append((field.degree, len(constants)))
        real(alg, field, constants, **kwargs)

    monkeypatch.setattr(StructureAlgebra, "__init__", init)
    ks_report(*report_form(name))
    assert built == REPORT_TABLES[name]


# the slots each _certify_slot_shapes call of a report walks: one call, in
# invariants, of every slot, d of them (before, build_ZG and center walked
# slot 0 besides, [1, d, 1])
SLOT_WALKS = {"family Q(sqrt 2)": [2], "Q(sqrt 2) rank 4": [2], "cubic search form": [3]}


@pytest.mark.parametrize("name", SLOT_WALKS)
def test_a_report_walks_each_slot_once(monkeypatch, name):
    walks, built = [], []
    walk, init = csa._certify_slot_shapes, csa.GaloisModuleAlgebra.__init__

    def counted(slots):
        walks.append(len(slots))
        return walk(slots)

    def kept(z, a, f):
        init(z, a, f)
        built.append((z, a))

    monkeypatch.setattr(csa, "_certify_slot_shapes", counted)
    monkeypatch.setattr(csa.GaloisModuleAlgebra, "__init__", kept)
    ks_report(*report_form(name))
    [(z, c0)] = built
    assert walks == SLOT_WALKS[name]
    assert z.slots[0][0] is c0.table  # slot 0 is C0's stored table, not a copy


# -- Z_G construction ------------------------------------------------------------------


def test_zg_dimension_bookkeeping():
    a = quaternion_table(QuaternionSymbol(Q2.rational(-1), Q2.gen() - 1))
    zg = build_ZG(a, Q2)
    assert zg.dim == 16
    # one monomial permutation per automorphism; sigma_2 swaps the slots, so
    # it fixes the 4 monomials u_k (x) u_k, each adding [Q:Q] = 1 to the
    # fixed algebra, and pairs the other 12, each pair adding [E:Q] = 2
    assert sorted(zg.moves) == [1, 2]
    assert zg.moves[1] == list(range(16))
    assert sorted(zg.moves[2]) == list(range(16))
    assert [t for t in range(16) if zg.moves[2][t] == t] == [0, 5, 10, 15]
    assert invariants(zg).dim == 4 * 1 + 12 // 2 * 2


def test_zg_field_guard():
    with pytest.raises(FieldMismatch):
        build_ZG(HAMILTON, Q2)


def test_zg_action_group_law_public():
    a = quaternion_table(QuaternionSymbol(Q2.rational(-1), Q2.gen() - 1))
    zg = build_ZG(a, Q2)

    def act(g: int, x: dict) -> dict:  # sigma_g(c u_t) = sigma_g(c) u_{moves[g][t]}
        return {zg.moves[g][t]: apply_automorphism(c, g) for t, c in x.items()}

    # sigma_2 is an involution on every Q-basis vector alpha^l u_t
    for t in range(zg.dim):
        for c in (Q2.one(), Q2.gen()):
            x = {t: c}
            assert act(2, act(2, x)) == x
            assert act(1, x) == x


def test_zg_group_law_certificate_rejects_a_wrong_move():
    # E[x]/(x^2 - 2) over the cubic: its constants are rational, so every
    # slot permutation is multiplicative, and only the group law can fail
    f = cyclic_cubic_field()
    one = f.one()
    etale = monomial_algebra(f, [[(0, one), (1, one)], [(1, one), (0, f.rational(2))]])
    zg = build_ZG(etale, f)
    zg.moves[2] = list(range(zg.dim))
    with pytest.raises(CertificateFailure, match=r"group law fails for \(2,2\)"):
        zg._check_actions()


@pytest.mark.parametrize("f", [Q2, cyclic_cubic_field()], ids=["sqrt2", "cubic"])
def test_zg_identity_move_is_certified_without_its_cells(f):
    # sigma_1's cells are not compared; a move that is a bijection but not
    # the identity still fails the group law at (1, 1)
    a = quaternion_table(QuaternionSymbol(f.rational(-1), f.gen() - 1))
    zg = build_ZG(a, f)
    moves = list(zg.moves[1])
    moves[1], moves[2] = moves[2], moves[1]
    zg.moves[1] = moves
    with pytest.raises(CertificateFailure, match=r"group law fails for \(1,1\)"):
        zg._check_actions()


class S3Stub:
    """The composition table of S3 as a degree-6 field would give it:
    sigma_1..sigma_6 are the permutations of (0, 1, 2), the identity
    first, and compose(g, h) is the index of sigma_g . sigma_h, sigma_h
    applied first."""

    degree = 6
    perms = sorted(permutations(range(3)))

    def compose(self, g: int, h: int) -> int:
        pg, ph = self.perms[g - 1], self.perms[h - 1]
        return self.perms.index(tuple(pg[ph[x]] for x in range(3))) + 1


def test_slot_moves_follow_a_non_abelian_composition():
    # slot s hosts sigma_{s+1}, and sigma_g moves it to the slot hosting
    # sigma_g . sigma_{s+1}, which differs from sigma_{s+1} . sigma_g in S3
    f, m = S3Stub(), 3
    assert any(f.compose(g, h) != f.compose(h, g) for g, h in product(range(1, 7), repeat=2))
    for g in range(1, 7):
        moves = csa._slot_moves(f, m, g)
        assert sorted(moves) == list(range(m ** 6))
        for t, digits in enumerate(product(range(m), repeat=6)):
            image = [moves[t] // m ** (5 - s) % m for s in range(6)]
            assert all(image[f.compose(g, s + 1) - 1] == k for s, k in enumerate(digits)), (g, t)


def test_invariants_of_E_itself():
    zg = build_ZG(StructureAlgebra(Q2, [[(0, (1, 0))]]), Q2)
    inv = invariants(zg)
    assert inv.dim == 1
    assert fixed_table(inv).field == RATIONAL_FIELD


def test_invariants_dim16_center1():
    a = quaternion_table(QuaternionSymbol(Q2.rational(-1), Q2.gen() - 1))
    zg = build_ZG(a, Q2)
    inv = invariants(zg)
    assert inv.dim == 16
    assert center(inv) == 1


def test_invariants_trivial_degree_one():
    zg = build_ZG(HAMILTON, RATIONAL_FIELD)
    inv = invariants(zg)
    assert inv.dim == 4
    assert trace_form_signature(inv) == (1, 3, 0)


def test_family_invariant_route_matches_mat2_hamilton():
    f, diag = family_diag(2, 1)
    a = even_part(f, diag.entries)
    zg = build_ZG(a, f)
    inv = invariants(zg)
    assert inv.dim == 16
    assert center(inv) == 1
    sig = trace_form_signature(inv)
    assert sig == block_trace_signature(tensor_q(SPLIT, HAMILTON))
    assert sig != block_trace_signature(tensor_q(SPLIT, SPLIT))


def quarter_field() -> FieldDescriptor:
    """Q(sqrt 17) generated by (1 + sqrt 17)/4, a root of X^2 - X/2 - 1:
    sigma_2 takes it to 1/2 minus it, so its automorphism matrix has
    denominator 2 and Z(A)'s two slots have different denominators."""
    return FieldDescriptor([-1, Fraction(-1, 2), 1], [[0, 1], [Fraction(1, 2), -1]],
                           [(1, Fraction(3, 2)), (-1, Fraction(-1, 2))], name="b")


def oracle_case(name: str):
    """The even Clifford algebra of one small diagonal form."""
    if name == "Q rank 3":
        return even_part(RATIONAL_FIELD, [1, 2, -3])
    if name == "Q(sqrt 17) by a quarter":
        f = quarter_field()
        return even_part(f, [f.gen(), f.gen() + 1, f.gen() - 3])
    if name == "Q(sqrt 2) rank 4":
        f = Q2
        entries = [f.gen(), f.gen(), f.gen() - 2, f.gen() - 2]
    elif name == "cubic rank 2":
        f = cyclic_cubic_field()
        entries = [f.gen(), f.gen() - 1]
    elif name == "cyclic quartic rank 2":
        f = cyclic_quartic_field()
        entries = [f.gen(), f.gen() - 1]
    elif name == "biquadratic rank 2":
        f = biquadratic_field()
        entries = [f.gen(), f.gen() - 2]
    else:  # the six-lines family form for (d, c)
        d, c = {"Q(sqrt 2)": (2, 1), "Q(sqrt 5)": (5, 1), "Q(sqrt 13)": (13, 2)}[name]
        f, diag = family_diag(d, c)
        entries = diag.entries
    return even_part(f, entries)


ORACLE_CASES = (
    "Q rank 3", "Q(sqrt 2)", "Q(sqrt 5)", "Q(sqrt 13)", "Q(sqrt 2) rank 4", "cubic rank 2",
    "cyclic quartic rank 2", "biquadratic rank 2", "Q(sqrt 17) by a quarter",
)


def test_slots_over_two_denominators_are_compared_on_both():
    # the action certificate compares both sides in lowest terms: it
    # accepts Z(A) over quarter_field(), whose slots are over 2 and 4, and
    # names the cell of slot 1 corrupted after construction
    z = build_ZG(oracle_case("Q(sqrt 17) by a quarter"), quarter_field())
    assert [den for _, den in z.slots] == [2, 4]
    table, _ = z.slots[1]
    k, v = table[2][3]
    table[2][3] = k, tuple(x + x for x in v)
    with pytest.raises(CertificateFailure, match=re.escape("action 2 does not take slot 1 to slot 0 at (2,3)")):
        z._check_actions()


def test_a_slot_over_another_denominator_is_named():
    # equal cells over another denominator are another algebra: every
    # constant of slot 1 halved
    z = build_ZG(oracle_case("Q(sqrt 17) by a quarter"), quarter_field())
    table, den = z.slots[1]
    z.slots[1] = table, 2 * den
    with pytest.raises(CertificateFailure, match="action 2 does not take slot 1 to slot 0 at its denominator"):
        z._check_actions()


@pytest.mark.parametrize("name, twists", [("Q(sqrt 2)", 2), ("cubic rank 2", 6), ("cyclic quartic rank 2", 12)])
def test_build_ZG_twists_each_slot_by_each_g_once(monkeypatch, name, twists):
    # d - 1 twists of A make the slots, and the action certificate twists
    # each slot s >= 1 by each g >= 2: d(d - 1) in all, slot 0 not again
    a, real, calls = oracle_case(name), csa._twist, []
    monkeypatch.setattr(csa, "_twist", lambda *args: calls.append(args[3]) or real(*args))
    build_ZG(a, a.field)
    assert len(calls) == twists


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_every_slot_is_stored_in_lowest_terms(name):
    # C0 and each twist over the smallest denominator, so that == compares
    # algebras: the quarter field's twist over 2 and 4 too
    a = oracle_case(name)
    for table, den in build_ZG(a, a.field).slots:
        assert gcd(den, *(x for row in table for _, v in row for x in v)) == 1


# the two quartic cases (n = 16) have an orbit of size 2, where E^H is a
# quadratic subfield: coordinates read at its pivots, checked by its rows
@pytest.mark.parametrize("name", ORACLE_CASES)
def test_invariants_match_kernel_oracle(name):
    a = oracle_case(name)
    z = build_ZG(a, a.field)
    inv, oracle = fixed_table(invariants(z)), oracle_invariants(z, a.dim)
    assert inv.dim == oracle.dim == z.dim
    assert inv.den == oracle.den
    assert inv.table == oracle.table
    assert inv == oracle


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_slot_products_match_the_materialized_table(name):
    # oracle_tensor builds and sweeps Z(A)'s n^2 table from the slots on
    # Fractions; products, over z.den, must give every one of its cells,
    # and each sign beta must take cell (s, t) to cell (t, s)
    a = oracle_case(name)
    z = build_ZG(a, a.field)
    signs = csa._certify_slot_shapes(z.slots)
    alg = oracle_tensor(z.field, z.slots)
    got = [[[] for _ in range(z.dim)] for _ in range(z.dim)]
    mirrored = [[[] for _ in range(z.dim)] for _ in range(z.dim)]
    for s, t, k, beta, c in z.products(range(z.dim), signs):
        got[s][t].append((k, [Fraction(x, z.den) for x in c]))
        mirrored[t][s].append((k, [Fraction(beta * x, z.den) for x in c]))
    want = [[[(k, [Fraction(x, alg.den) for x in v])] for k, v in row] for row in alg.table]
    assert got == want
    assert mirrored == want


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_the_n2_action_walk_accepts_the_slot_certified_action(name):
    a = oracle_case(name)
    z = build_ZG(a, a.field)
    assert oracle_action_failure(z, oracle_tensor(z.field, z.slots)) is None


def test_the_n2_action_walk_rejects_corrupted_moves():
    z = corrupted_moves("Q(sqrt 2)")
    assert oracle_action_failure(z, oracle_tensor(z.field, z.slots)) == (2, 1, 1)


def test_products_form_only_the_kept_monomials():
    a = oracle_case("cubic rank 2")
    z = build_ZG(a, a.field)
    keep, signs = {0, 3, 5}, csa._certify_slot_shapes(z.slots)
    kept = list(z.products(keep, signs))
    assert {k for _, _, k, _, _ in kept} == keep
    assert kept == [p for p in z.products(range(z.dim), signs) if p[2] in keep]


def test_a_rank_3_report_over_Q_sweeps_only_c0(monkeypatch):
    # the symbol route reads C0's own cells and builds no quaternion table;
    # Z(A), kept as its one slot, is not copied into a table of its own,
    # and the fixed algebra B is kept as its blocks
    swept = []
    real = csa.check_associativity

    def sweep(field, table):
        swept.append(len(table))
        real(field, table)

    monkeypatch.setattr(csa, "check_associativity", sweep)
    q = RATIONAL_FIELD
    ks_report(q, GramForm.diagonal(q, [q.rational(x) for x in (1, 2, -3)]))
    assert swept == [4]


def test_invariants_keep_no_packing_layout_across_calls(monkeypatch):
    # the unpackers are memoized for one invariants call: after calls at
    # two packing widths no lru_cache of exactfield holds an entry and the
    # field has no new attribute
    widths = []
    real = FieldDescriptor.packing_width

    def packing_width(field, *args):
        widths.append(real(field, *args))
        return widths[-1]

    monkeypatch.setattr(FieldDescriptor, "packing_width", packing_width)
    caches = [x for owner in (exactfield, FieldDescriptor) for x in vars(owner).values() if hasattr(x, "cache_info")]
    attributes = set(vars(Q2))
    for name in ("Q(sqrt 2)", "Q(sqrt 2) rank 4"):
        a = oracle_case(name)
        invariants(build_ZG(a, a.field))
    assert len(set(widths)) == 2
    assert [c.cache_info().currsize for c in caches] == [0] * len(caches)
    assert set(vars(Q2)) == attributes


def test_invariants_of_the_cubic_search_form_build_no_rational_field_elements(monkeypatch):
    f = cyclic_cubic_field()
    form = search_cubic_diagonal(f)
    z = build_ZG(even_part(f, [form.entries[i][i] for i in range(form.dim)]), f)
    calls = []
    real = FieldDescriptor.quotient

    def quotient(field, num, den):
        if field == RATIONAL_FIELD:
            calls.append((num, den))
        return real(field, num, den)

    monkeypatch.setattr(FieldDescriptor, "quotient", quotient)
    b = invariants(z)
    assert calls == []
    assert b.dim == 64


@pytest.mark.parametrize(
    "name", ["cubic search form", "Q(sqrt 2) rank 4", "Q rank 5", "Q(sqrt 5) rank 4", "cubic rank 4"]
)
def test_tables_hold_one_tuple_per_distinct_entry(name):
    # C0 from monomial_algebra, and each slot build_ZG twists from it: every
    # equal cell (k, v) is the one tuple, so the ids over all cells count
    # the distinct cells, far fewer than the cells themselves
    if name == "Q(sqrt 5) rank 4":
        f = quadratic_field(5)
        a = f.gen()
        c0 = even_part(f, [a, (a + 1) / 2, a - 3, a - 3])
    elif name == "cubic search form":
        f = cyclic_cubic_field()
        form = search_cubic_diagonal(f)
        c0 = even_part(f, [form.entries[i][i] for i in range(form.dim)])
    elif name == "Q rank 5":
        c0 = even_part(RATIONAL_FIELD, [1, 1, -1, -1, -1])
    elif name == "cubic rank 4":
        f = cyclic_cubic_field()
        a = f.gen()
        c0 = even_part(f, [a, a, a - 1, a - 2])
    else:
        c0 = oracle_case(name)
    slots = build_ZG(c0, c0.field).slots
    assert len(slots) == c0.field.degree and slots[0][0] is c0.table
    for table, _ in slots:
        cells = [cell for row in table for cell in row]
        assert len({id(cell) for cell in cells}) == len(set(cells)) < len(cells)
        if name == "cubic rank 4":
            assert (len(cells), len(set(cells))) == (64, 42)


# the targets k of every ordered pair of orbits: the sums a readout of both orders unpacks
ORDERED_TARGETS = {"cubic search form": 1296, "Q(sqrt 2) rank 4": 2080}
# the sums invariants reads: one per distinct (sum, E^H) over the unordered targets
READS = {"cubic search form": 305, "Q(sqrt 2) rank 4": 170}


def dim64_zg(name):
    """Z(A) of one of the two dim-64 cases of ORDERED_TARGETS."""
    if name == "cubic search form":
        f = cyclic_cubic_field()
        form = search_cubic_diagonal(f)
        c0 = even_part(f, [form.entries[i][i] for i in range(form.dim)])
    else:
        c0 = oracle_case(name)
    return build_ZG(c0, c0.field)


def read_invariants(monkeypatch, name):
    """(z, invariants(z), reads) for a dim-64 case: reads holds (sum,
    columns) for each packed sum read through FieldDescriptor.unpacker, in
    order."""
    z = dim64_zg(name)
    reads = []
    real = FieldDescriptor.unpacker

    def unpacker(field, *args):
        unpack = real(field, *args)

        def read(packed):
            reads.append((packed, unpack(packed)))
            return reads[-1][1]
        return read

    monkeypatch.setattr(FieldDescriptor, "unpacker", unpacker)
    return z, invariants(z), reads


@pytest.mark.parametrize("name", ORDERED_TARGETS)
def test_invariants_read_each_distinct_sum_once_per_fixed_field(monkeypatch, name):
    # every target k that some u_s u_t lands on, s in orbit I, t in orbit J,
    # I <= J by their representatives, gets a block, and a sum is read once
    # per fixed field E^H of its target: blocks with equal terms or equal
    # sums there share the read
    z, b, reads = read_invariants(monkeypatch, name)
    m, d = len(z.slots[0][0]), z.field.degree
    rep = [min(moves[t] for moves in z.moves.values()) for t in range(z.dim)]
    digits = list(product(range(m), repeat=d))

    def monomial(s, t):  # of u_s u_t, slot by slot
        return sum(table[i][j][0] * m ** (d - 1 - p) for p, ((table, _), i, j)
                   in enumerate(zip(z.slots, digits[s], digits[t])))

    targets = {(rep[s], rep[t], k) for s, t in product(range(z.dim), repeat=2)
               if rep[k := monomial(s, t)] == k}
    assert len(targets) == ORDERED_TARGETS[name]
    unordered = {(r, r2, k) for r, r2, k in targets if r <= r2}
    assert {(b.orbits[o][2], b.orbits[o2][2], k) for (o, o2), by_k in b.blocks.items() for k in by_k} == unordered
    # the reads follow the blocks in order, one at each new coordinates object,
    # whose rows are the read's columns at the pivots of E^H (1 for Q, all for E)
    first = {}
    for (o, o2), by_k in sorted(b.blocks.items()):
        for k, (_, coordinates) in by_k.items():
            first.setdefault(id(coordinates), (coordinates, tuple(g for g, moves in z.moves.items() if moves[k] == k)))
    assert len(first) == len(reads)
    assert all(c == tuple(map(tuple, columns[:len(c)])) for (c, _), (_, columns) in zip(first.values(), reads))
    read_at = {(packed, stab) for (packed, _), (_, stab) in zip(reads, first.values())}
    assert len(read_at) == len(reads) == READS[name] < len(unordered)


@pytest.mark.parametrize("name", ORDERED_TARGETS)
def test_invariants_share_one_tuple_of_coordinates_per_read(monkeypatch, name):
    # blocks hold immutable tuples, and every block whose sum was read once
    # holds that read's one object
    _, b, reads = read_invariants(monkeypatch, name)
    coordinates = [c for by_k in b.blocks.values() for _, c in by_k.values()]
    assert all(type(c) is tuple and all(type(xs) is tuple for xs in c) for c in coordinates)
    assert len({id(c) for c in coordinates}) == len(reads) < len(coordinates)


def test_trace_form_reads_each_block_at_u0_on_and_above_the_diagonal():
    # orbit 1 of the family form over Q(sqrt 2) has the Gram matrix
    # [[-4, 0], [0, -8]] at u_0; rebuilt asymmetric, its signature follows
    # the upper triangle: (-4, 8, 0, -8) reads as [[-4, 8], [8, -8]]
    a = oracle_case("Q(sqrt 2)")
    z = build_ZG(a, a.field)
    b = invariants(z)
    beta, [xs] = b.blocks[1, 1][0]
    assert (b.orbits[1][1], xs, trace_form_signature(b)) == (2, (-4, 0, 0, -8), (6, 10, 0))
    for gram, signature in (((-4, 0, 8, -8), (6, 10, 0)), ((-4, 8, 0, -8), (7, 9, 0)), ((-4, 8, 8, -8), (7, 9, 0))):
        b.blocks[1, 1][0] = beta, (gram,)
        assert trace_form_signature(b) == signature
    # orbits 2 and 3 share the block (-4, -8, -8, -8), of signature (1, 1);
    # orbit 3 rebuilt with another value below the diagonal is a new key of
    # the same signature, and with another value above it, [[-4, 0], [0, -8]]
    b.blocks[1, 1][0] = beta, (xs,)
    assert b.blocks[2, 2][0][1] == b.blocks[3, 3][0][1] == ((-4, -8, -8, -8),)
    for gram, signature in (((-4, -8, 0, -8), (6, 10, 0)), ((-4, 0, -8, -8), (5, 11, 0)), ((-4, -8, -8, -8), (6, 10, 0))):
        b.blocks[3, 3][0] = beta, (gram,)
        assert trace_form_signature(b) == signature


# the (I, I) blocks at u_0, and the distinct ones among them, each diagonalized once
GRAM_BLOCKS = {"cubic search form": (24, 12), "Q(sqrt 2) rank 4": (36, 14)}


@pytest.mark.parametrize("name", GRAM_BLOCKS)
def test_trace_form_diagonalizes_each_distinct_gram_block_once(monkeypatch, name):
    z = dim64_zg(name)
    b = invariants(z)
    calls = []
    real = csa.congruence_diagonalize

    def congruence_diagonalize(gram, field):
        calls.append(gram)
        return real(gram, field)

    monkeypatch.setattr(csa, "congruence_diagonalize", congruence_diagonalize)
    signature = trace_form_signature(b)
    blocks = [by_k[0][1] for by_k in b.blocks.values() if 0 in by_k]
    assert (len(blocks), len(calls)) == GRAM_BLOCKS[name]
    assert len({gram for [gram] in blocks}) == len(calls)
    # a second call diagonalizes them all again: the memo lives for one call
    assert trace_form_signature(b) == signature
    assert len(calls) == 2 * GRAM_BLOCKS[name][1]


@pytest.mark.parametrize("orbit", [2, 3])
def test_trace_form_memo_is_keyed_by_the_gram_block(orbit):
    # orbits 2 and 3 of the cubic search form share one 3 x 3 Gram block at
    # u_0; either one rebuilt negated, the first seen or its repeat, moves
    # the signature by that orbit's (pos, neg) exchanged, and the other
    # orbit keeps its own
    z = dim64_zg("cubic search form")
    b = invariants(z)
    (beta, [xs]), [twin] = b.blocks[orbit, orbit][0], b.blocks[5 - orbit, 5 - orbit][0][1]
    assert xs == twin and b.orbits[orbit][1] == 3
    pos, neg, null = trace_form_signature(b)
    es = [e.num[0] for e in congruence_diagonalize([[(xs[3 * min(r, c) + max(r, c)],) for c in range(3)]
                                                    for r in range(3)], RATIONAL_FIELD)]
    p, q = sum(e > 0 for e in es), sum(e < 0 for e in es)
    assert p != q
    b.blocks[orbit, orbit][0] = beta, (tuple([-x for x in xs]),)
    assert trace_form_signature(b) == (pos - p + q, neg - q + p, null)


def test_invariants_multiply_each_distinct_pair_once(monkeypatch):
    # the field multiplies of one invariants call on the cubic search form:
    # 203 for its products' slot cells and 563 for the b c, b a basis
    # conjugate at s' and c a structure constant of a kept term, each
    # distinct pair once in its own memo, and 4 for the readout checksum,
    # one per distinct coefficient id a at s
    z = dim64_zg("cubic search form")
    calls = []
    real = FieldDescriptor.multiply

    def multiply(field, a, b):
        calls.append((a, b))
        return real(field, a, b)

    monkeypatch.setattr(FieldDescriptor, "multiply", multiply)
    invariants(z)
    assert len(calls) == 770


def test_field_elem_rows_and_integers_over_6_store_the_same_table():
    # the quaternion table (1/2, 2/3) over Q, whose constants 1/2, 2/3 and
    # 1/3 need the common denominator 6, and the Hamilton table, whose
    # integer constants given over 6 must come back to lowest terms; the
    # builder takes the FieldElem rows, the constructor integers over 6
    for symbol in (rational_symbol(Fraction(1, 2), Fraction(2, 3)), rational_symbol(-1, -1)):
        a = quaternion_table(symbol)
        rows = [[basis_product(a, i, j) for j in range(4)] for i in range(4)]
        assert monomial_algebra(RATIONAL_FIELD, [[cell for [cell] in row] for row in rows]) == a
        over_6 = [[(k, (int(6 * c.rational_value()),)) for [(k, c)] in row] for row in rows]
        b = StructureAlgebra(RATIONAL_FIELD, over_6, den=6)
        assert b == a
        assert (b.den, b.table) == (a.den, a.table)
        assert [[basis_product(b, i, j) for j in range(4)] for i in range(4)] == rows
    assert quaternion_table(rational_symbol(Fraction(1, 2), Fraction(2, 3))).den == 6
    assert HAMILTON.den == 1


# -- twisted-Clifford comparison --------------------------------------------------------


def test_twisted_iso_family_form():
    f, diag = family_diag(2, 1)
    assert verify_twisted_iso(diag, f) is True


def test_twisted_iso_degree_one():
    g = GramForm.diagonal(RATIONAL_FIELD, [1, 1, -1])
    assert verify_twisted_iso(diagonalize(g), RATIONAL_FIELD) is True


@pytest.mark.parametrize("name", ["cubic search form", "Q(sqrt 2) rank 4"])
def test_twisted_iso_beyond_the_family_form(name):
    # d = 3 slots, and m = 4 with dim-8 slots
    if name == "cubic search form":
        f = cyclic_cubic_field()
        diag = diagonalize(search_cubic_diagonal(f))
    else:
        f, a = Q2, Q2.gen()
        diag = diagonalize(GramForm.diagonal(f, [a, a, a - 2, a - 2]))
    assert verify_twisted_iso(diag, f) is True


def verify_against(monkeypatch, diag, f, zg) -> bool:
    """verify_twisted_iso with zg standing in for the Z(A) it builds."""
    monkeypatch.setattr(csa, "build_ZG", lambda a, field: zg)
    return verify_twisted_iso(diag, f)


def corrupt_a_slot_constant(zg, s: int) -> None:
    """Double u_1 u_2 in slot s of zg."""
    table, _ = zg.slots[s]
    k, v = table[1][2]
    table[1][2] = k, tuple(x + x for x in v)


def negate_a_slot_constant(zg, s: int) -> None:
    """Negate u_1 u_2 in slot s of zg."""
    table, _ = zg.slots[s]
    k, v = table[1][2]
    table[1][2] = k, tuple(-x for x in v)


def test_twisted_iso_degree_one_checks_a_passed_zg(monkeypatch):
    # the slot is compared with C0 as stored, so each corrupted coefficient
    # action gives False: slot 0 over twice its denominator, or with one
    # constant doubled
    diag = diagonalize(GramForm.diagonal(RATIONAL_FIELD, [1, 1, -1]))
    a = even_part(RATIONAL_FIELD, diag.entries)
    zg = build_ZG(a, RATIONAL_FIELD)
    table, den = zg.slots[0]
    zg.slots[0] = table, 2 * den
    assert verify_against(monkeypatch, diag, RATIONAL_FIELD, zg) is False
    zg2 = build_ZG(a, RATIONAL_FIELD)
    corrupt_a_slot_constant(zg2, 0)
    assert verify_against(monkeypatch, diag, RATIONAL_FIELD, zg2) is False


def test_twisted_iso_negative_controls(monkeypatch):
    f, diag = family_diag(2, 1)
    a = even_part(f, diag.entries)
    # a corrupted coefficient action: one constant of the twisted slot
    # negated, or doubled
    zg = build_ZG(a, f)
    negate_a_slot_constant(zg, 1)
    assert verify_against(monkeypatch, diag, f, zg) is False
    zg2 = build_ZG(a, f)
    corrupt_a_slot_constant(zg2, 1)
    assert verify_against(monkeypatch, diag, f, zg2) is False
    # or store the two slots, each associative, in the wrong order
    zg3 = build_ZG(a, f)
    zg3.slots.reverse()
    assert verify_against(monkeypatch, diag, f, zg3) is False


@pytest.mark.parametrize("name", ["Q rank 3", "family form", "cubic search form"])
def test_twisted_iso_sweeps_once_per_slot(monkeypatch, name):
    # C0 for sigma_1 and one conjugate even_part per other sigma_i: d
    # sweeps, none of Z(A)'s slots swept again
    if name == "Q rank 3":
        f, diag = RATIONAL_FIELD, diagonalize(GramForm.diagonal(RATIONAL_FIELD, [1, 1, -1]))
    elif name == "family form":
        f, diag = family_diag(2, 1)
    else:
        f = cyclic_cubic_field()
        diag = diagonalize(search_cubic_diagonal(f))
    swept = []
    real = csa.check_associativity

    def sweep(field, table):
        swept.append(len(table))
        real(field, table)

    monkeypatch.setattr(csa, "check_associativity", sweep)
    assert verify_twisted_iso(diag, f) is True
    assert swept == [4] * f.degree


def test_twisted_iso_rejects_slot_0_in_slot_1(monkeypatch):
    # slot 0 is C0 itself: associative, so no sweep would catch it, but it
    # is not sigma_2(C0), which the Clifford construction builds for slot 1
    f, diag = family_diag(2, 1)
    zg = build_ZG(even_part(f, diag.entries), f)
    zg.slots[1] = zg.slots[0]
    assert verify_against(monkeypatch, diag, f, zg) is False
