import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksalgebra.clifford import even_part, even_rank3_to_symbol
from ksalgebra.errors import DimensionMismatch, FieldMismatch, ZeroDiagonalEntry
from ksalgebra.exactfield import RATIONAL_FIELD, cyclic_cubic_field, quadratic_field
from ksalgebra.qform import GramForm, diagonalize

from basis_product import basis_product
from blade_reference import Blades, reference_even_part
from test_associativity import FIELDS, run_under_O

Q2 = quadratic_field(2)


def diag_form(field, entries):
    return diagonalize(GramForm.diagonal(field, entries))


def c0_and_entries(field, entries):
    """C0 of the diagonalized form and its diagonal entries."""
    d = diag_form(field, entries)
    return even_part(field, d.entries), d.entries


def symbol_of(field, entries):
    return even_rank3_to_symbol(*c0_and_entries(field, entries))


def test_defining_relations_by_hand():
    c = Blades(RATIONAL_FIELD, [3, 5])
    assert c.blade_product(0b01, 0b01) == (3, 0)
    assert c.blade_product(0b10, 0b10) == (5, 0)
    # e1e2 * e1e2 = -e1e1e2e2 = -15, the hand-expanded sign rule
    assert c.blade_product(0b11, 0b11) == (-15, 0)
    assert c.blade_product(0, 0b11) == (1, 0b11)


def test_symbolic_rank2_square():
    a, b = Q2.gen(), Q2.gen() - 1
    c = Blades(Q2, [a, b])
    assert c.blade_product(0b11, 0b11) == (-(a * b), 0)


def test_anticommutation_exhaustive():
    c = Blades(RATIONAL_FIELD, [2, -3, 5])
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            (cij, mij), (cji, mji) = c.blade_product(1 << i, 1 << j), c.blade_product(1 << j, 1 << i)
            assert mij == mji and cij + cji == 0


@pytest.mark.parametrize("entries", [[1], [2, -3], [2, -3, 5], [1, 1, -1, 7]])
def test_blade_associativity_exhaustive(entries):
    # a product of blades is one scaled blade, so both sides are (coefficient, mask)
    c = Blades(RATIONAL_FIELD, entries)
    for x in range(c.dim):
        for y in range(c.dim):
            cxy, xy = c.blade_product(x, y)
            for z in range(c.dim):
                cyz, yz = c.blade_product(y, z)
                left, right = c.blade_product(xy, z), c.blade_product(x, yz)
                assert (cxy * left[0], left[1]) == (cyz * right[0], right[1])


def test_grading():
    c = Blades(Q2, [Q2.gen(), 1, -2])
    for s in range(c.dim):
        for t in range(c.dim):
            coeff, mask = c.blade_product(s, t)
            assert coeff
            assert bin(mask).count("1") % 2 == (bin(s).count("1") + bin(t).count("1")) % 2


def field_diagonal(name: str, m: int) -> tuple:
    """A field of test_associativity's FIELDS and a nonzero diagonal of
    rank m over it, with entries that are not rational where it can."""
    if name == "Q":
        return RATIONAL_FIELD, [RATIONAL_FIELD.rational(x) for x in (1, 2, -3, -5, 7)[:m]]
    f = cyclic_cubic_field() if name == "cubic" else quadratic_field(int(name[len("Q(sqrt "):-1]))
    a = f.gen()
    return f, [a, a - 1, (a + 3) / 2, -a, a * a + 1][:m]


@pytest.mark.parametrize("m", range(1, 10))
def test_even_part_equals_the_blade_reference_over_Q(m):
    diag = [1, 2, -3, -5, -7, -11, -13, -17, -19][:m]
    assert even_part(RATIONAL_FIELD, diag) == reference_even_part(RATIONAL_FIELD, diag)


@pytest.mark.parametrize("name", FIELDS)
def test_even_part_equals_the_blade_reference_over_each_field(name):
    for m in range(1, 6):
        f, diag = field_diagonal(name, m)
        assert even_part(f, diag) == reference_even_part(f, diag)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(-9, 9, max_denominator=4).filter(bool), min_size=3, max_size=7))
def test_even_part_equals_the_blade_reference_on_drawn_diagonals(diag):
    assert even_part(RATIONAL_FIELD, diag) == reference_even_part(RATIONAL_FIELD, diag)


def test_even_part_dimensions():
    for entries in ([1], [1, 2], [1, 2, 3], [1, 2, 3, 5], [1, 2, 3, 5, 7]):
        alg = even_part(RATIONAL_FIELD, entries)
        assert alg.dim == 2 ** (len(entries) - 1)


def test_even_part_n1_is_scalars():
    alg = even_part(RATIONAL_FIELD, [7])
    assert alg.dim == 1
    assert basis_product(alg, 0, 0) == [(0, RATIONAL_FIELD.one())]


def test_even_part_rank3_unit_square():
    alg = even_part(RATIONAL_FIELD, [1, 1, 1])
    assert alg.dim == 4
    # basis order: 1, e1e2, e1e3, e2e3; (e1e2)^2 = -1
    assert basis_product(alg, 1, 1) == [(0, -RATIONAL_FIELD.one())]


def test_rank3_symbol_values():
    assert symbol_of(RATIONAL_FIELD, [1, 1, 1]).to_json_dict() == {"a": "-1", "b": "-1"}
    assert symbol_of(RATIONAL_FIELD, [1, 1, -1]).to_json_dict() == {"a": "-1", "b": "1"}


def test_rank3_symbol_family_form():
    # diag(sqrt2, sqrt2, sqrt2 - 2) -> (-2, 2*sqrt2 - 2)
    a = Q2.gen()
    s = symbol_of(Q2, [a, a, a - 2])
    assert s.a == Q2.rational(-2)
    assert s.b == 2 * a - 2


def test_rank3_k_is_minus_a_e23():
    # k = ij = e1e2 e1e3 = -a1 e2e3, for diag(2, 3, 5)
    assert Blades(RATIONAL_FIELD, [2, 3, 5]).blade_product(0b011, 0b101) == (-2, 0b110)
    c0, _ = c0_and_entries(RATIONAL_FIELD, [2, 3, 5])
    assert basis_product(c0, 1, 2) == [(3, RATIONAL_FIELD.rational(-2))]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5).filter(bool), min_size=3, max_size=3))
def test_rank3_relations_reverified(entries):
    # read off C0's basis 1, e1e2, e1e3, e2e3, where i, j, k are u_1, u_2, -a1 u_3
    c0, diag = c0_and_entries(RATIONAL_FIELD, entries)
    symbol = even_rank3_to_symbol(c0, diag)  # certifies the presentation on four cells
    a1 = diag[0]
    assert basis_product(c0, 1, 1) == [(0, symbol.a)]
    assert basis_product(c0, 2, 2) == [(0, symbol.b)]
    assert basis_product(c0, 1, 2) == [(3, -a1)]
    assert basis_product(c0, 2, 1) == [(3, a1)]
    [(k, c)] = basis_product(c0, 3, 3)
    assert k == 0 and a1 * a1 * c == -(symbol.a * symbol.b)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=6, max_size=6)
)
def test_rank3_relations_over_quadratic_field(raw):
    a = Q2.gen()
    entries = [raw[2 * t] + raw[2 * t + 1] * a for t in range(3)]
    if not all(entries):
        return
    c0, diag = c0_and_entries(Q2, entries)
    s = even_rank3_to_symbol(c0, diag)
    assert s.a == -(diag[0] * diag[1])
    assert s.b == -(diag[0] * diag[2])


def test_guards():
    with pytest.raises(ZeroDiagonalEntry, match="^Clifford algebra needs nonzero diagonal entries$"):
        even_part(RATIONAL_FIELD, [1, 0, 2])
    with pytest.raises(FieldMismatch, match="^diagonal entry in the wrong field$"):
        even_part(Q2, [RATIONAL_FIELD.one()])


def test_rank3_identification_needs_entries_in_the_field_of_c0():
    c0, _ = c0_and_entries(Q2, [1, 2, 3])
    q5 = quadratic_field(5)
    with pytest.raises(FieldMismatch):
        even_rank3_to_symbol(c0, [q5.rational(x) for x in (1, 2, 3)])


_WRONG_RANK = """
from ksalgebra.clifford import even_part, even_rank3_to_symbol
from ksalgebra.errors import DimensionMismatch
from ksalgebra.exactfield import RATIONAL_FIELD

if __debug__:
    raise SystemExit("not running under python -O")
c0 = even_part(RATIONAL_FIELD, [1, 2, 3])
entries = [RATIONAL_FIELD.rational(x) for x in (1, 2, 3)]
for c, es in ((even_part(RATIONAL_FIELD, [1, 2]), entries), (c0, entries[:2])):
    try:
        even_rank3_to_symbol(c, es)
    except DimensionMismatch as exc:
        print(exc)
    else:
        raise SystemExit("a wrong-rank identification accepted")
"""


def test_rank3_identification_needs_a_dim4_c0_and_three_entries():
    c0, entries = c0_and_entries(RATIONAL_FIELD, [1, 2, 3])
    rank2 = even_part(RATIONAL_FIELD, [1, 2])
    with pytest.raises(DimensionMismatch, match="got dim 2 and 3"):
        even_rank3_to_symbol(rank2, entries)
    with pytest.raises(DimensionMismatch, match="got dim 4 and 2"):
        even_rank3_to_symbol(c0, entries[:2])
    done = run_under_O(_WRONG_RANK)
    assert done.returncode == 0, done.stderr or done.stdout
    assert done.stdout.splitlines() == [
        "rank-3 identification needs a dim-4 C0 and 3 entries, got dim 2 and 3",
        "rank-3 identification needs a dim-4 C0 and 3 entries, got dim 4 and 2",
    ]
