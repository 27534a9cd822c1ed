from fractions import Fraction

import pytest

from ksalgebra.brauer import QuaternionSymbol, rational_symbol
from ksalgebra.csa import (
    GaloisModuleAlgebra,
    StructureAlgebra,
    build_ZG,
    center,
    from_symbol,
    invariants,
    tensor,
    trace_form_signature,
    verify_twisted_iso,
)
from ksalgebra.clifford import CliffordAlgebra, even_part
from ksalgebra.errors import FieldMismatch
from ksalgebra.exactfield import RATIONAL_FIELD, cyclic_cubic_field, quadratic_field
from ksalgebra.qform import GramForm, congruence_diagonalize, diagonalize

Q2 = quadratic_field(2)

HAMILTON = from_symbol(rational_symbol(-1, -1))
SPLIT = from_symbol(rational_symbol(1, 1))


def family_diag(d: int, c: int):
    f = quadratic_field(d)
    a = f.gen()
    return f, diagonalize(GramForm.diagonal(f, [a, a, c * a - d]))


# -- oracle: trace form assembled from explicit regular-representation matrices


def oracle_trace_signature(alg: StructureAlgebra) -> tuple[int, int, int]:
    n = alg.dim
    mats = []
    for k in range(n):
        m = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n):
            for s, c in alg.row(k, j):
                m[s][j] = c.rational_value()
        mats.append(m)
    gram = []
    for x in range(n):
        row = []
        for y in range(n):
            tr = Fraction(0)
            for r in range(n):
                tr += sum(mats[x][r][t] * mats[y][t][r] for t in range(n))
            row.append(RATIONAL_FIELD.rational(tr))
        gram.append(row)
    diag, _ = congruence_diagonalize(gram, RATIONAL_FIELD, allow_degenerate=True)
    pos = sum(1 for e in diag if e and e.rational_value() > 0)
    neg = sum(1 for e in diag if e and e.rational_value() < 0)
    return pos, neg, n - pos - neg


def matrix_units_algebra(n: int) -> StructureAlgebra:
    # n x n matrix units: E_pq E_rs = delta_qr E_ps
    dim = n * n
    one = RATIONAL_FIELD.one()
    constants = [[[] for _ in range(dim)] for _ in range(dim)]
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    i, j = p * n + q, r * n + s
                    if q == r:
                        constants[i][j] = [(p * n + s, one)]
    unit = [one if p == q else RATIONAL_FIELD.zero() for p in range(n) for q in range(n)]
    return StructureAlgebra(RATIONAL_FIELD, constants, unit)


# -- from_symbol ---------------------------------------------------------------------


def test_hamilton_table():
    h = HAMILTON
    one = RATIONAL_FIELD.one()
    assert h.row(1, 1) == [(0, -one)]
    assert h.row(1, 2) == [(3, one)]
    assert h.row(2, 1) == [(3, -one)]
    assert h.row(3, 3) == [(0, -one)]
    assert h.row(1, 3) == [(2, -one)]  # ik = aj with a = -1


def test_split_table_over_E():
    s = QuaternionSymbol(Q2.rational(-2), Q2.gen() - 1)
    alg = from_symbol(s)
    assert alg.dim == 4 and alg.field == Q2
    assert alg.row(1, 1) == [(0, Q2.rational(-2))]


def test_hamilton_trace_form_by_hand():
    # regular trace of 1, i, j, k is (4, 0, 0, 0); Tr(L_{x^2}) gives diag(4,-4,-4,-4)
    assert oracle_trace_signature(HAMILTON) == (1, 3, 0)
    assert trace_form_signature(HAMILTON) == (1, 3, 0)


def test_split_signature_matches_matrix_algebra():
    assert trace_form_signature(SPLIT) == oracle_trace_signature(SPLIT) == (3, 1, 0)
    assert trace_form_signature(matrix_units_algebra(2)) == (3, 1, 0)


def test_trace_signature_cross_oracle_on_tensors():
    mat2_h = tensor(SPLIT, HAMILTON)
    mat4 = tensor(SPLIT, SPLIT)
    assert trace_form_signature(mat2_h) == oracle_trace_signature(mat2_h) == (6, 10, 0)
    assert trace_form_signature(mat4) == oracle_trace_signature(mat4) == (10, 6, 0)
    assert trace_form_signature(matrix_units_algebra(4)) == (10, 6, 0)


def test_signature_components_sum_to_dim():
    for alg in (HAMILTON, SPLIT, tensor(HAMILTON, HAMILTON)):
        pos, neg, null = trace_form_signature(alg)
        assert pos + neg + null == alg.dim


# -- tensor ---------------------------------------------------------------------------


def test_tensor_with_unit_algebra():
    s = StructureAlgebra(RATIONAL_FIELD, [[[(0, 1)]]], [1])
    t = tensor(HAMILTON, s)
    assert t.dim == 4
    assert all(t.row(i, j) == HAMILTON.row(i, j) for i in range(4) for j in range(4))


def test_tensor_dims_and_field_guard():
    assert tensor(HAMILTON, SPLIT).dim == 16
    with pytest.raises(FieldMismatch):
        tensor(HAMILTON, StructureAlgebra(Q2, [[[(0, 1)]]], [1]))


def test_hamilton_squared_is_full_matrix_class():
    assert trace_form_signature(tensor(HAMILTON, HAMILTON)) == (10, 6, 0)


# -- center ---------------------------------------------------------------------------


def test_center_dimensions():
    assert len(center(HAMILTON)) == 1
    assert len(center(SPLIT)) == 1
    assert len(center(matrix_units_algebra(3))) == 1
    # commutative quadratic etale algebra: dim-2 center
    one = RATIONAL_FIELD.one()
    comm = StructureAlgebra(
        RATIONAL_FIELD,
        [[[(0, one)], [(1, one)]], [[(1, one)], [(0, RATIONAL_FIELD.rational(2))]]],
        [one, RATIONAL_FIELD.zero()],
    )
    assert len(center(comm)) == 2


def test_center_vector_is_unit_line():
    basis = center(HAMILTON)
    assert basis == [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)]]


# -- Z_G construction ------------------------------------------------------------------


def test_zg_dimension_bookkeeping():
    a = from_symbol(QuaternionSymbol(Q2.rational(-1), Q2.gen() - 1))
    zg = build_ZG(a, Q2)
    assert zg.underlying.dim == 16
    assert zg.q_dim == 32
    assert sorted(zg.actions) == [1, 2]


def test_zg_field_guard():
    with pytest.raises(FieldMismatch):
        build_ZG(HAMILTON, Q2)


def test_zg_action_group_law_public():
    a = from_symbol(QuaternionSymbol(Q2.rational(-1), Q2.gen() - 1))
    zg = build_ZG(a, Q2)
    for p in range(zg.q_dim):
        x = {p: Fraction(1)}
        assert zg.act_vec(2, zg.act_vec(2, x)) == x


def test_invariants_of_E_itself():
    zg = build_ZG(StructureAlgebra(Q2, [[[(0, 1)]]], [1]), Q2)
    inv = invariants(zg)
    assert inv.dim == 1
    assert inv.field == RATIONAL_FIELD


def test_invariants_dim16_center1():
    a = from_symbol(QuaternionSymbol(Q2.rational(-1), Q2.gen() - 1))
    inv = invariants(build_ZG(a, Q2))
    assert inv.dim == 16
    assert len(center(inv)) == 1


def test_invariants_trivial_degree_one():
    zg = build_ZG(HAMILTON, RATIONAL_FIELD)
    inv = invariants(zg)
    assert inv.dim == 4
    assert trace_form_signature(inv) == (1, 3, 0)


def test_family_invariant_route_matches_mat2_hamilton():
    f, diag = family_diag(2, 1)
    a = even_part(CliffordAlgebra(f, diag.entries))
    inv = invariants(build_ZG(a, f))
    assert inv.dim == 16
    assert len(center(inv)) == 1
    sig = trace_form_signature(inv)
    assert sig == trace_form_signature(tensor(SPLIT, HAMILTON))
    assert sig != trace_form_signature(tensor(SPLIT, SPLIT))


def test_structure_algebra_serialization():
    doc = HAMILTON.to_json_dict()
    assert doc["dim"] == 4
    assert [1, 1, 0, "-1"] in doc["constants"]


# -- twisted-Clifford comparison --------------------------------------------------------


def test_twisted_iso_family_form():
    f, diag = family_diag(2, 1)
    assert verify_twisted_iso(diag, f) is True


def test_twisted_iso_degree_one():
    g = GramForm.diagonal(RATIONAL_FIELD, [1, 1, -1])
    assert verify_twisted_iso(diagonalize(g), RATIONAL_FIELD) is True


def test_twisted_iso_negative_controls():
    f, diag = family_diag(2, 1)
    a = even_part(CliffordAlgebra(f, diag.entries))
    zg = build_ZG(a, f)
    # corrupt one action entry
    col = list(zg.actions[2][5])
    r, c = col[0]
    col[0] = (r, c + 1)
    zg.actions[2][5] = col
    assert verify_twisted_iso(diag, f, zg=zg) is False
    # corrupt a structure constant instead
    zg2 = build_ZG(a, f)
    k, v = zg2.underlying.constants[1][2][0]
    zg2.underlying.constants[1][2] = [(k, v + f.one())]
    assert verify_twisted_iso(diag, f, zg=zg2) is False
