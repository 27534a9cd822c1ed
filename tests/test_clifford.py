from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksalgebra.clifford import (
    CliffordAlgebra,
    clifford_mul,
    even_part,
    even_rank3_to_symbol,
    rank3_map,
)
from ksalgebra.errors import AlgebraMismatch, FieldMismatch, ZeroDiagonalEntry
from ksalgebra.exactfield import RATIONAL_FIELD, quadratic_field
from ksalgebra.qform import GramForm, diagonalize

Q2 = quadratic_field(2)


def diag_form(field, entries):
    return diagonalize(GramForm.diagonal(field, entries))


def test_defining_relations_by_hand():
    c = CliffordAlgebra(RATIONAL_FIELD, [3, 5])
    e1, e2 = c.blade(0b01), c.blade(0b10)
    assert clifford_mul(e1, e1) == c.one().scale(3)
    assert clifford_mul(e2, e2) == c.one().scale(5)
    # e1e2 * e1e2 = -e1e1e2e2 = -15, the hand-expanded sign rule
    e12 = c.blade(0b11)
    assert clifford_mul(e12, e12) == c.one().scale(-15)
    assert clifford_mul(c.one(), e12) == e12


def test_symbolic_rank2_square():
    a, b = Q2.gen(), Q2.gen() - 1
    c = CliffordAlgebra(Q2, [a, b])
    e12 = c.blade(0b11)
    assert clifford_mul(e12, e12) == c.one().scale(-(a * b))


def test_anticommutation_exhaustive():
    c = CliffordAlgebra(RATIONAL_FIELD, [2, -3, 5])
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            ei, ej = c.blade(1 << i), c.blade(1 << j)
            assert clifford_mul(ei, ej) + clifford_mul(ej, ei) == c.element({})


@pytest.mark.parametrize("entries", [[1], [2, -3], [2, -3, 5], [1, 1, -1, 7]])
def test_blade_associativity_exhaustive(entries):
    c = CliffordAlgebra(RATIONAL_FIELD, entries)
    blades = [c.blade(m) for m in range(c.dim)]
    for x in blades:
        for y in blades:
            xy = clifford_mul(x, y)
            for z in blades:
                assert clifford_mul(xy, z) == clifford_mul(x, clifford_mul(y, z))


def test_grading():
    c = CliffordAlgebra(Q2, [Q2.gen(), 1, -2])
    for s in range(c.dim):
        for t in range(c.dim):
            prod = clifford_mul(c.blade(s), c.blade(t))
            want = (bin(s).count("1") + bin(t).count("1")) % 2
            assert {bin(m).count("1") % 2 for m in prod.comps} == {want}


def test_even_part_dimensions():
    for entries in ([1], [1, 2], [1, 2, 3], [1, 2, 3, 5], [1, 2, 3, 5, 7]):
        alg = even_part(CliffordAlgebra(RATIONAL_FIELD, entries))
        assert alg.dim == 2 ** (len(entries) - 1)


def test_even_part_n1_is_scalars():
    alg = even_part(CliffordAlgebra(RATIONAL_FIELD, [7]))
    assert alg.dim == 1
    assert alg.row(0, 0) == [(0, RATIONAL_FIELD.one())]


def test_even_part_rank3_unit_square():
    alg = even_part(CliffordAlgebra(RATIONAL_FIELD, [1, 1, 1]))
    assert alg.dim == 4
    # basis order: 1, e1e2, e1e3, e2e3; (e1e2)^2 = -1
    assert alg.row(1, 1) == [(0, -RATIONAL_FIELD.one())]


def test_rank3_symbol_values():
    assert even_rank3_to_symbol(diag_form(RATIONAL_FIELD, [1, 1, 1])).to_json_dict() == {
        "a": "-1",
        "b": "-1",
    }
    assert even_rank3_to_symbol(diag_form(RATIONAL_FIELD, [1, 1, -1])).to_json_dict() == {
        "a": "-1",
        "b": "1",
    }


def test_rank3_symbol_family_form():
    # diag(sqrt2, sqrt2, sqrt2 - 2) -> (-2, 2*sqrt2 - 2)
    a = Q2.gen()
    s = even_rank3_to_symbol(diag_form(Q2, [a, a, a - 2]))
    assert s.a == Q2.rational(-2)
    assert s.b == 2 * a - 2


def test_rank3_map_k_is_minus_a_e23():
    d = diag_form(RATIONAL_FIELD, [2, 3, 5])
    _, images = rank3_map(d)
    c = images[0].algebra
    assert images[3] == c.blade(0b110).scale(-2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5).filter(bool), min_size=3, max_size=3))
def test_rank3_relations_reverified(entries):
    d = diag_form(RATIONAL_FIELD, entries)
    symbol, images = rank3_map(d)
    one, i, j, k = images
    a = one.scale(symbol.a)
    b = one.scale(symbol.b)
    assert clifford_mul(i, i) == a
    assert clifford_mul(j, j) == b
    assert clifford_mul(i, j) == k
    assert clifford_mul(j, i) == -k
    assert clifford_mul(k, k) == one.scale(-(symbol.a * symbol.b))
    even_rank3_to_symbol(d)  # runs the full 16-product certification


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=6, max_size=6)
)
def test_rank3_relations_over_quadratic_field(raw):
    a = Q2.gen()
    entries = [raw[2 * t] + raw[2 * t + 1] * a for t in range(3)]
    if not all(entries):
        return
    d = diag_form(Q2, entries)
    s = even_rank3_to_symbol(d)
    assert s.a == -(entries[0] * entries[1])
    assert s.b == -(entries[0] * entries[2])


def test_guards():
    with pytest.raises(ZeroDiagonalEntry):
        CliffordAlgebra(RATIONAL_FIELD, [1, 0, 2])
    with pytest.raises(FieldMismatch):
        CliffordAlgebra(Q2, [RATIONAL_FIELD.one()])
    c1 = CliffordAlgebra(RATIONAL_FIELD, [1, 1])
    c2 = CliffordAlgebra(RATIONAL_FIELD, [1, 2])
    with pytest.raises(AlgebraMismatch):
        clifford_mul(c1.one(), c2.one())


def test_element_serialization():
    c = CliffordAlgebra(Q2, [Q2.gen(), 1, -1])
    x = c.blade(0b011).scale(Q2.gen()) + c.one().scale(Fraction(1, 2))
    assert x.to_json_dict() == {"0": "1/2", "3": ["0", "1"]}
    assert "e1e2" in repr(x)


def test_immutability():
    c = CliffordAlgebra(RATIONAL_FIELD, [1])
    x = c.one()
    with pytest.raises(AttributeError):
        x.comps = {}
