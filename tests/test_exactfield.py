"""Number field layer tests.

Frozen values were derived before the implementation existed: the inverse
of sqrt2 by a hand extended-gcd, norms by the Sylvester-matrix resultant in
fraction_reference.py, signs by hand interval bisection (sqrt2 < 2 because
2^2 > 2, and so on).  Property tests then pin the algebra laws on a small
grid of fields, and the integer-vector arithmetic is checked against the
plain-Fraction reference in fraction_reference.py.
"""

import operator
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ksalgebra import exactfield
from ksalgebra.errors import (
    FieldMismatch,
    InvalidDescriptor,
    MalformedInput,
    NonGaloisField,
)
from ksalgebra.exactfield import (
    RATIONAL_FIELD,
    FieldDescriptor,
    apply_automorphism,
    cyclic_cubic_field,
    field_from_json_dict,
    field_to_json_dict,
    norm,
    quadratic_field,
    sign_at_embedding,
)
from ksalgebra.polynomials import peval

import fraction_reference as ref
from quartic_fields import biquadratic_field, cyclic_quartic_field

F = Fraction

Q2 = quadratic_field(2)
Q5 = quadratic_field(5)
CUBIC = cyclic_cubic_field()
FIELDS = [RATIONAL_FIELD, Q2, Q5, CUBIC]
# alpha = sqrt(2)/2: min_poly X^2 - 1/2, so the X^k mod P table has
# denominator 2
HALF = FieldDescriptor([F(-1, 2), 0, 1], [[0, 1], [0, -1]], [(F(1, 2), 1), (-1, F(-1, 2))], name="h")
REFERENCE_FIELDS = [RATIONAL_FIELD, Q2, Q5, CUBIC, HALF, cyclic_quartic_field(), biquadratic_field()]


def elem(field, *coeffs):
    return field.elem(list(coeffs))


# -- frozen oracle values ----------------------------------------------------


def test_inverse_of_sqrt2_frozen():
    # extended gcd of X and X^2-2 gives 1 = (X/2)*X - (1/2)(X^2-2),
    # so 1/sqrt2 = sqrt2/2; frozen before implementing inversion.
    x = Q2.gen()
    assert x.inverse() == elem(Q2, 0, F(1, 2))
    assert x * x.inverse() == Q2.one()


def test_norm_frozen_values():
    assert norm(elem(Q2, -1, 1)) == -1  # N(sqrt2 - 1)
    assert norm(elem(Q2, 1, 1)) == -1  # N(1 + sqrt2), Sylvester oracle value
    assert norm(Q2.rational(7)) == 49
    assert norm(CUBIC.rational(7)) == 343
    assert norm(CUBIC.gen()) == 1  # product of roots of X^3 - 3X - 1
    assert norm(Q2.zero()) == 0


def test_sylvester_oracle_frozen_values():
    # Res(X^2 - 2, X + 1) = (1 + sqrt2)(1 - sqrt2) = -1; Res(X^2 - 2, 7) = 7^2;
    # Res(X^3 - 3X - 1, X) = product of the roots = 1
    assert ref.sylvester_resultant([-2, 0, 1], [1, 1]) == -1
    assert ref.sylvester_resultant([-2, 0, 1], [7]) == 49
    assert ref.sylvester_resultant([-1, -3, 0, 1], [0, 1]) == 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_norm_and_inverse_match_the_sylvester_oracle(data):
    field = data.draw(st.sampled_from(FIELDS))
    x = data.draw(elems(field))
    want = ref.sylvester_resultant(field.min_poly, list(x.coeffs)) if x else 0
    assert norm(x) == want
    if x:
        assert x * x.inverse() == 1


def test_sign_frozen_values():
    # sqrt2 at the distinguished place is the positive root
    assert sign_at_embedding(Q2.gen(), 1) == 1
    assert sign_at_embedding(Q2.gen(), 2) == -1
    # -(2 - sqrt2) < 0 at place 1 since sqrt2 < 2
    assert sign_at_embedding(elem(Q2, -2, 1), 1) == -1
    # and at place 2 the value is -(2 + sqrt2) < 0
    assert sign_at_embedding(elem(Q2, -2, 1), 2) == -1
    assert sign_at_embedding(Q2.zero(), 1) == 0
    assert sign_at_embedding(Q2.zero(), 2) == 0


def test_sign_close_call_needs_bisection():
    # 17/12 - sqrt2 is tiny (~2.45e-3) but positive; 41/29 - sqrt2 is negative
    assert sign_at_embedding(elem(Q2, F(17, 12), -1), 1) == 1
    assert sign_at_embedding(elem(Q2, F(41, 29), -1), 1) == -1


def test_apply_automorphism_conjugates():
    x = elem(Q2, 1, 1)
    assert apply_automorphism(x, 1) == x
    assert apply_automorphism(x, 2) == elem(Q2, 1, -1)
    with pytest.raises(IndexError):
        apply_automorphism(x, 3)
    with pytest.raises(IndexError):
        apply_automorphism(x, 0)


def test_cubic_automorphism_table():
    # sigma2: a -> 2 - a^2 has order 3; its inverse is sigma3
    assert CUBIC.compose(2, 2) == 3
    assert CUBIC.compose(2, 3) == 1
    assert CUBIC.compose(3, 2) == 1
    assert CUBIC.compose(1, 1) == 1
    assert CUBIC.compose(3, 3) == 2


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_composition_table_matches_horner_in_the_field(field):
    # the oracle is Horner: (sigma_i o sigma_j)(alpha) = a_j(a_i), the
    # polynomial a_j evaluated at the image a_i in the field's arithmetic
    images = [field.elem(a) for a in field.automorphisms]
    for i, ai in enumerate(images, 1):
        for j, aj in enumerate(field.automorphisms, 1):
            assert field.compose(i, j) - 1 == images.index(peval(aj, ai))


def test_cubic_conjugate_signs():
    # the conjugate sigma3(a) = a^2 - a - 2 is positive at place 1: the
    # places permute the roots (-1.53, -0.35, 1.88)
    u = elem(CUBIC, -2, -1, 1)
    assert [sign_at_embedding(u, i) for i in (1, 2, 3)] == [1, -1, -1]
    a = CUBIC.gen()
    assert [sign_at_embedding(a, i) for i in (1, 2, 3)] == [-1, -1, 1]


def test_general_quadratic_min_poly():
    # golden ratio field Q[X]/(X^2 - X - 1); conjugate is 1 - a
    phi = FieldDescriptor(
        [-1, -1, 1],
        [[0, 1], [1, -1]],
        [(1, 2), (-1, 0)],
        name="phi",
    )
    x = phi.gen()
    assert norm(x) == -1
    assert sign_at_embedding(x, 1) == 1 and sign_at_embedding(x, 2) == -1
    # x^2 = x + 1
    assert x * x == phi.elem([1, 1])


# -- descriptor validation -----------------------------------------------------


def test_descriptor_rejects_non_monic():
    with pytest.raises(InvalidDescriptor):
        FieldDescriptor([-2, 0, 2], [[0, 1], [0, -1]], [(1, 2), (-2, -1)])


def test_descriptor_rejects_reducible():
    # X^2 - 4; X^2 - 1/4, whose roots are not integers; X^2 - 1/9, whose
    # roots no midpoint hits; (X - 10^20)(X + 3), whose constant term has
    # too many divisors to enumerate; X^4 - 5X^2 + 4, whose automorphisms
    # X, -X, (5X - X^3)/2 and (X^3 - 5X)/2 map alpha = 2 to the roots 2,
    # -2, 1 and -1, so that only the rational-root test rejects it
    r = 10**20
    for min_poly, autos, intervals in (
        ([-4, 0, 1], [[0, 1], [0, -1]], [(1, 3), (-3, -1)]),
        ([F(-1, 4), 0, 1], [[0, 1], [0, -1]], [(0, 1), (-1, 0)]),
        ([F(-1, 9), 0, 1], [[0, 1], [0, -1]], [(0, 1), (-1, 0)]),
        ([-3 * r, 3 - r, 1], [[0, 1], [r - 3, -1]], [(r - 1, r + 2), (-4, -2)]),
        (
            [4, 0, -5, 0, 1],
            [[0, 1], [0, -1], [0, F(5, 2), 0, F(-1, 2)], [0, F(-5, 2), 0, F(1, 2)]],
            [(F(3, 2), F(5, 2)), (F(-5, 2), F(-3, 2)), (F(1, 2), F(3, 2)), (F(-3, 2), F(-1, 2))],
        ),
    ):
        with pytest.raises(InvalidDescriptor, match=r"min_poly is reducible \(rational root\)"):
            FieldDescriptor(min_poly, autos, intervals)


@pytest.mark.wallclock
def test_descriptor_with_a_huge_constant_term_builds_fast():
    # X^2 - (10^40 + 1): the rational-root test halves the certified
    # intervals, so its cost does not grow with the constant term
    r = 10**20
    start = time.perf_counter()
    f = FieldDescriptor([-(r * r + 1), 0, 1], [[0, 1], [0, -1]], [(r, r + 1), (-r - 1, -r)])
    assert time.perf_counter() - start < 1
    assert sign_at_embedding(f.gen() - r, 1) == 1 and sign_at_embedding(f.gen() + r, 2) == -1


def test_a_constant_past_the_int_string_limit_compiles_into_the_product():
    # X^2 - m with m of 4,401 digits, past the 4,300 that str(int) allows:
    # the product kernel must bind m by name, not write it into its source
    r = 10**2200
    m = r * r + r
    f = FieldDescriptor([-m, 0, 1], [[0, 1], [0, -1]], [(r, r + 1), (-r - 1, -r)])
    assert f.gen() * f.gen() == m


def test_descriptor_rejects_not_totally_real():
    with pytest.raises(InvalidDescriptor):
        FieldDescriptor([1, 0, 1], [[0, 1], [0, -1]], [(0, 1), (-1, 0)])


def test_descriptor_rejects_bad_automorphisms():
    with pytest.raises(NonGaloisField):
        FieldDescriptor([-2, 0, 1], [[0, 1], [1, 1]], [(1, 2), (-2, -1)])
    with pytest.raises(NonGaloisField):
        FieldDescriptor([-2, 0, 1], [[0, 1], [0, 1]], [(1, 2), (-2, -1)])
    with pytest.raises(NonGaloisField):
        FieldDescriptor([-2, 0, 1], [[0, 1]], [(1, 2), (-2, -1)])


def test_descriptor_rejects_bad_intervals():
    with pytest.raises(InvalidDescriptor):  # no sign change
        FieldDescriptor([-2, 0, 1], [[0, 1], [0, -1]], [(2, 3), (-2, -1)])
    with pytest.raises(InvalidDescriptor):  # overlap
        FieldDescriptor([-2, 0, 1], [[0, 1], [0, -1]], [(-2, 2), (-3, 0)])
    with pytest.raises(InvalidDescriptor):  # two roots in one interval
        FieldDescriptor([-2, 0, 1], [[0, 1], [0, -1]], [(-2, 2), (-2, -1)])


def test_descriptor_rejects_place_order_mismatch():
    # interval i must isolate the image of automorphism i under place 1; for
    # the cubic, sigma2 sends the smallest root to the middle one, so listing
    # the largest root second is inconsistent
    with pytest.raises(InvalidDescriptor, match="automorphism"):
        FieldDescriptor([-1, -3, 0, 1], [[0, 1], [2, 0, -1], [-2, -1, 1]], [(-2, -1), (1, 2), (-1, 0)])
    # for a quadratic field both orders are self-consistent pairings: swapping
    # the intervals just moves the distinguished place to the negative root
    swapped = FieldDescriptor([-2, 0, 1], [[0, 1], [0, -1]], [(-2, -1), (1, 2)])
    assert sign_at_embedding(swapped.gen(), 1) == -1
    # the image above its interval: with sigma2 and sigma3 listed the other
    # way round, sigma2 = X^2 - X - 2 sends the smallest root to the
    # largest, ~1.88, above interval 2, (-1, 0); interval 3 fails too, from
    # below, so only a check of both sides names interval 2
    with pytest.raises(InvalidDescriptor, match="interval 2 does not isolate the image of automorphism 2"):
        FieldDescriptor([-1, -3, 0, 1], [[0, 1], [-2, -1, 1], [2, 0, -1]], [(-2, -1), (-1, 0), (1, 2)])


# X^4 - 10X^2 + 16 = (X^2 - 2)(X^2 - 8) passes construction: it has no
# rational root, and X -> -X, (5X - X^3/2)/2 and its negative map alpha to
# the roots -sqrt 2, 2 sqrt 2 and -2 sqrt 2 when alpha = sqrt 2
REDUCIBLE_QUARTIC = {
    "min_poly": [16, 0, -10, 0, 1],
    "automorphisms": [[0, 1], [0, -1], [0, "5/2", 0, "-1/4"], [0, "-5/2", 0, "1/4"]],
    "embeddings": [[1, "3/2"], ["-3/2", -1], ["5/2", 3], [-3, "-5/2"]],
}


def test_reducible_descriptor_fails_with_invalid_descriptor():
    f = field_from_json_dict(REDUCIBLE_QUARTIC)
    factor = f.elem([-2, 0, 1])  # alpha^2 - 2, zero at the first place
    with pytest.raises(InvalidDescriptor, match="sign bisection did not converge"):
        sign_at_embedding(factor, 1)
    with pytest.raises(InvalidDescriptor, match="not a field"):
        factor.inverse()
    with pytest.raises(InvalidDescriptor, match="not a field"):
        norm(factor)
    # a unit of the product of fields still has a nonzero rational norm
    assert norm(f.gen()) == 16


def test_descriptor_rejects_one_interval_holding_every_root():
    # (-2, 2) holds all three roots of X^3 - 3X - 1 and P changes sign on
    # it, so only the overlap with the other two intervals rejects it: d
    # disjoint sign-changing intervals are what certify d distinct roots
    with pytest.raises(InvalidDescriptor, match="overlap"):
        FieldDescriptor([-1, -3, 0, 1], [[0, 1], [2, 0, -1], [-2, -1, 1]], [(-2, 2), (-1, 0), (1, 2)])


def test_quadratic_field_constructor_guards():
    with pytest.raises(InvalidDescriptor):
        quadratic_field(9)
    with pytest.raises(InvalidDescriptor):
        quadratic_field(-2)
    with pytest.raises(InvalidDescriptor):
        quadratic_field(F(1, 2))


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatch):
        Q2.gen() + Q5.gen()
    # == across fields is False, not an error
    assert Q2.gen() != Q5.gen()
    with pytest.raises(FieldMismatch, match="element is not rational"):
        Q2.gen().rational_value()


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_a_foreign_operand_is_left_to_python(op):
    # each operator returns NotImplemented for an operand it cannot coerce,
    # so Python raises TypeError on either side, and == falls back to identity
    x = Q2.gen()
    for left, right in ((x, "x"), ("x", x)):
        with pytest.raises(TypeError):
            op(left, right)
    assert x != "x" and x.__eq__("x") is NotImplemented


# -- algebra laws (property tests) ----------------------------------------------


def elems(field):
    return st.builds(
        lambda cs: field.elem([F(n, d) for n, d in cs]),
        st.lists(
            st.tuples(st.integers(-8, 8), st.integers(1, 4)),
            min_size=field.degree,
            max_size=field.degree,
        ),
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_field_ring_laws(data):
    field = data.draw(st.sampled_from(FIELDS))
    x, y, z = (data.draw(elems(field)) for _ in range(3))
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    if y:
        assert (x / y) * y == x


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_norm_is_multiplicative_and_matches_conjugates(data):
    field = data.draw(st.sampled_from(FIELDS))
    x, y = data.draw(elems(field)), data.draw(elems(field))
    assert norm(x * y) == norm(x) * norm(y)
    prod = field.one()
    for i in range(1, field.degree + 1):
        prod = prod * apply_automorphism(x, i)
    assert prod.is_rational() and prod.rational_value() == norm(x)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_automorphisms_are_ring_maps_with_group_law(data):
    field = data.draw(st.sampled_from(FIELDS))
    x, y = data.draw(elems(field)), data.draw(elems(field))
    i = data.draw(st.integers(1, field.degree))
    j = data.draw(st.integers(1, field.degree))
    assert apply_automorphism(x * y, i) == apply_automorphism(x, i) * apply_automorphism(y, i)
    assert apply_automorphism(x + y, i) == apply_automorphism(x, i) + apply_automorphism(y, i)
    # sigma_j(sigma_i(x)) = (sigma_j o sigma_i)(x)
    assert apply_automorphism(apply_automorphism(x, i), j) == apply_automorphism(
        x, field.compose(j, i)
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_signs_multiply_and_detect_zero(data):
    field = data.draw(st.sampled_from(FIELDS))
    x, y = data.draw(elems(field)), data.draw(elems(field))
    for i in range(1, field.degree + 1):
        sx, sy = sign_at_embedding(x, i), sign_at_embedding(y, i)
        assert sign_at_embedding(x * y, i) == sx * sy
        assert (sx == 0) == (not x)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_norm_sign_is_product_of_place_signs(data):
    field = data.draw(st.sampled_from(FIELDS))
    x = data.draw(elems(field))
    if not x:
        return
    sign_prod = 1
    for i in range(1, field.degree + 1):
        sign_prod *= sign_at_embedding(x, i)
    n = norm(x)
    assert ((n > 0) - (n < 0)) == sign_prod


# -- signs on scaled integers ---------------------------------------------------

SIGN_FIELDS = [Q2, Q5, CUBIC, cyclic_quartic_field()]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_signs_match_the_fraction_bisection_reference(data):
    # the element is drawn at random, or as alpha - r for an r inside one of
    # the isolating intervals, a close call that needs many halvings
    field = data.draw(st.sampled_from(SIGN_FIELDS))
    if data.draw(st.booleans()):
        x = field.elem(data.draw(coeff_lists(field)))
    else:
        lo, hi = data.draw(st.sampled_from(field.embeddings))
        x = field.gen() - data.draw(st.fractions(min_value=lo, max_value=hi, max_denominator=500))
    want = ref.bisection_signs(list(field.min_poly), list(field.embeddings), list(x.coeffs))
    assert [sign_at_embedding(x, i) for i in range(1, field.degree + 1)] == want


def test_the_sign_layer_reads_only_ints(monkeypatch):
    # every interval and point evaluation behind a sign, while fields are
    # built (the fractional P and endpoints of HALF included) and after,
    # sees int coefficients and int endpoints only
    calls = []

    def spy(name):
        real = getattr(exactfield, name)

        def evaluate(f, *points):
            calls.append((name, f, points))
            return real(f, *points)
        monkeypatch.setattr(exactfield, name, evaluate)

    spy("interval_eval")
    spy("_value")
    fields = [
        quadratic_field(5),
        cyclic_cubic_field(),
        cyclic_quartic_field(),
        FieldDescriptor([F(-1, 2), 0, 1], [[0, 1], [0, -1]], [(F(1, 2), 1), (-1, F(-1, 2))], name="h"),
    ]
    built = len(calls)
    for f in fields:
        for x in (f.gen() - F(1, 3), f.elem([F(17, 12), F(-1, 7)])):
            for i in range(1, f.degree + 1):
                sign_at_embedding(x, i)
    for _, f, points in calls:
        assert all(type(v) is int for v in (*f, *points)), (f, points)
    names = {"interval_eval", "_value"}
    assert {c[0] for c in calls[:built]} == {c[0] for c in calls[built:]} == names


# -- arithmetic and serialization ------------------------------------------------


def test_field_arith_dispatch():
    x, y = elem(Q2, 1, 1), elem(Q2, 0, 1)
    assert x + y == elem(Q2, 1, 2)
    assert x - y == elem(Q2, 1, 0)
    assert x * y == elem(Q2, 2, 1)
    assert x / y == x * y.inverse()
    with pytest.raises(ZeroDivisionError):
        x / Q2.zero()


def test_json_round_trip():
    for field in FIELDS:
        doc = field_to_json_dict(field)
        back = field_from_json_dict(doc)
        assert back == field
    assert field_from_json_dict({"quadratic_d": 2}) == Q2


def test_json_malformed_inputs_name_the_key():
    with pytest.raises(MalformedInput, match="min_poly"):
        field_from_json_dict({"automorphisms": [], "embeddings": []})
    with pytest.raises(MalformedInput, match="quadratic_d"):
        field_from_json_dict({"quadratic_d": 4})
    with pytest.raises(MalformedInput, match="embeddings"):
        field_from_json_dict(
            {"min_poly": [-2, 0, 1], "automorphisms": [[0, 1], [0, -1]], "embeddings": [[1]]}
        )
    with pytest.raises(MalformedInput):
        field_from_json_dict({"min_poly": [0.5, 1], "automorphisms": [[0, 1]], "embeddings": [[0, 1]]})



def test_rendering():
    assert repr(elem(Q2, -2, 2)) == "2*sqrt2 - 2"
    assert repr(Q2.zero()) == "0"
    assert repr(CUBIC.gen()) == "a"


# -- the integer coefficient format --------------------------------------------------


def in_lowest_terms(x) -> bool:
    return (
        isinstance(x.den, int) and x.den > 0
        and all(isinstance(c, int) for c in x.num)
        and len(x.num) == x.field.degree
        and gcd(x.den, *x.num) == 1
    )


def coeff_lists(field):
    return st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        min_size=field.degree,
        max_size=field.degree,
    )


def kernel_lists(field):
    """Small fractions, integers up to 2^256 in size, or the zero vector."""
    return st.one_of(
        coeff_lists(field),
        st.lists(st.integers(-(2**256), 2**256).map(F), min_size=field.degree, max_size=field.degree),
        st.just([F(0)] * field.degree),
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_matches_the_fraction_reference(data):
    field = data.draw(st.sampled_from(REFERENCE_FIELDS))
    a, b = data.draw(kernel_lists(field)), data.draw(kernel_lists(field))
    x, y = field.elem(a), field.elem(b)
    assert list(x.coeffs) == a and in_lowest_terms(x) and in_lowest_terms(y)
    # the raw kernel on the integer numerators, over reduction_den
    product = field.multiply(x.num, y.num)
    assert type(product) is tuple and all(type(c) is int for c in product)
    assert [F(c, field.reduction_den) for c in product] == ref.mul(field, x.num, y.num)
    for got, want in (
        (x + y, ref.add(a, b)),
        (x - y, ref.sub(a, b)),
        (-x, ref.sub(ref.pad([], field.degree), a)),
        (x * y, ref.mul(field, a, b)),
        (x * x, ref.mul(field, a, a)),
    ):
        assert list(got.coeffs) == want
        assert in_lowest_terms(got)
    assert (x == y) == (a == b)
    if y:
        inv = y.inverse()
        assert in_lowest_terms(inv)
        assert ref.mul(field, list(inv.coeffs), b) == ref.pad([F(1)], field.degree)
        assert list((x / y).coeffs) == ref.mul(field, a, list(inv.coeffs))
    if field.degree == 1:
        # over Q the norm is the element itself
        assert norm(x) == a[0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_equal_values_from_different_inputs_compare_and_hash_equal(data):
    field = data.draw(st.sampled_from(REFERENCE_FIELDS))
    a = data.draw(coeff_lists(field))
    k = data.draw(st.integers(1, 30)) * data.draw(st.sampled_from((1, -1)))
    q = data.draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=3))
    x = field.elem(a)
    # a + q * P is the same residue
    lifted = ref.pad(a, field.degree + len(q))
    for j, c in enumerate(ref.pmul(q, field.min_poly)):
        lifted[j] += c
    variants = [
        field.elem(a),
        field.elem([str(c) for c in a]),
        field.elem([c * k for c in a]) / k,
        field.elem(lifted),
        x * field.one(),
        (x + field.one()) - 1,
        x + field.zero(),
        -(-x),
    ]
    for y in variants:
        assert in_lowest_terms(y)
        assert y == x and hash(y) == hash(x)
        assert (y.num, y.den) == (x.num, x.den)


def test_zero_has_denominator_one():
    for field in REFERENCE_FIELDS:
        for zero in (field.zero(), field.one() - 1, field.elem([F(0, 7)] * field.degree)):
            assert zero.num == (0,) * field.degree and zero.den == 1


def test_coeffs_is_a_read_only_tuple_of_fractions():
    x = HALF.elem([F(1, 2), F(-2, 3)])
    assert x.coeffs == (F(1, 2), F(-2, 3))
    assert (x.num, x.den) == ((3, -4), 6)
    with pytest.raises(AttributeError):
        x.coeffs = (F(0), F(0))
    with pytest.raises(AttributeError):
        x.num = (0, 0)


def test_half_field_arithmetic():
    # alpha^2 = 1/2, so alpha * alpha is rational and 1/alpha = 2 alpha
    a = HALF.gen()
    assert a * a == F(1, 2) and (a * a).den == 2
    assert a.inverse() == 2 * a


# -- the integer X^k mod P table ---------------------------------------------------


def power(f, j) -> tuple[int, ...]:
    """X^j for j < d, as an integer vector."""
    return tuple(int(q == j) for q in range(f.degree))


@pytest.mark.parametrize("f", [RATIONAL_FIELD, Q2, CUBIC, HALF], ids=repr)
def test_power_table_rows_over_their_denominator_are_x_to_the_k_mod_p(f):
    d = f.degree
    for k in range(2 * d - 1):
        j = min(k, d - 1)
        num = f.multiply(power(f, j), power(f, k - j))
        assert len(num) == d and all(isinstance(c, int) for c in num)
        assert [F(c, f.reduction_den) for c in num] == ref.pad(ref.pmod([0] * k + [1], f.min_poly), d)


def test_power_table_clears_rational_denominators():
    # alpha = sqrt(2)/2 has min_poly X^2 - 1/2, so X^2 reduces to 1/2; a
    # polynomial of degree <= 2 reduces as the sum of its c X^(k - k//2) X^(k//2)
    def reduced(acc):
        terms = [[c * x for x in HALF.multiply(power(HALF, k - k // 2), power(HALF, k // 2))] for k, c in enumerate(acc)]
        return tuple(map(sum, zip(*terms)))

    assert HALF.reduction_den == 2
    assert reduced([0, 0, 1]) == (1, 0)
    assert reduced([3, 5]) == (6, 10)
    assert reduced([1, 2, 4]) == (6, 4)


# -- packed products ----------------------------------------------------------------


def width_for(field, terms) -> int:
    """The width packing_width gives for the terms (coefficients, vector)."""
    return field.packing_width(len(terms), [a for coefficients, _ in terms for a in coefficients], [y for _, y in terms])


def packed_sum(field, terms) -> list[list[int]]:
    """The unpacker's read of the sum, over the terms (coefficients,
    vector), of pack_matrices * pack_vectors, at the width packing_width
    gives: d columns, one per coordinate."""
    width = width_for(field, terms)
    total = sum(field.pack_matrices(coefficients, width) * field.pack_vectors(y, width) for coefficients, y in terms)
    return field.unpacker(len(terms[0][0]), width)(total)


def accumulated_sum(field, terms) -> list[list[int]]:
    """The same sums as multiply products: multiply(a_l, y) summed over
    the terms, coordinate i at column i, position l."""
    sums = [[sum(c) for c in zip(*(field.multiply(coefficients[l], y) for coefficients, y in terms))]
            for l in range(len(terms[0][0]))]
    return [list(column) for column in zip(*sums)]


def reference_sum(field, terms) -> list[list[Fraction]]:
    """The same sums from the Fraction reference, times reduction_den, in
    the same columns."""
    out = []
    for l in range(len(terms[0][0])):
        total = ref.pad([], field.degree)
        for coefficients, y in terms:
            total = ref.add(total, ref.mul(field, coefficients[l], y))
        out.append([c * field.reduction_den for c in total])
    return [list(column) for column in zip(*out)]


def vectors_of(data, field):
    """A strategy for vectors of d ints, up to one drawn magnitude."""
    big = data.draw(st.sampled_from((9, 10 ** 6, 10 ** 30)))
    return st.lists(st.integers(-big, big), min_size=field.degree, max_size=field.degree).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_products_match_the_accumulator_and_the_fraction_reference(data):
    field = data.draw(st.sampled_from(REFERENCE_FIELDS))
    m, vector = data.draw(st.integers(1, field.degree ** 2)), vectors_of(data, field)
    terms = data.draw(st.lists(st.tuples(st.lists(vector, min_size=m, max_size=m), vector), min_size=1, max_size=5))
    got = packed_sum(field, terms)
    assert got == accumulated_sum(field, terms)
    assert got == reference_sum(field, terms)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_basis_products_read_back_against_one_packed_constant(data):
    # as csa.invariants packs them: per term, the rows M_{a_l b_j} of the
    # products a_l b_j, at l m2 + j, and one constant c; column i reads the
    # sum of (M_{a_l b_j} c)_i = D^2 (a_l b_j c)_i, D = reduction_den
    field = data.draw(st.sampled_from([RATIONAL_FIELD, *SIGN_FIELDS]))
    d, vector = field.degree, vectors_of(data, field)
    m, m2 = data.draw(st.integers(1, d)), data.draw(st.integers(1, d))
    drawn = data.draw(st.lists(st.tuples(st.lists(vector, min_size=m, max_size=m),
                                         st.lists(vector, min_size=m2, max_size=m2), vector), min_size=1, max_size=5))
    got = packed_sum(field, [([field.multiply(a, b) for a in xs for b in ys], c) for xs, ys, c in drawn])
    want = reference_sum(field, [([ref.mul(field, a, b) for a in xs for b in ys], c) for xs, ys, c in drawn])
    assert got == [[x * field.reduction_den for x in column] for column in want]


# terms at the width bound: the digit read sums terms * d products of A,
# the largest |entry| of M_a, and B = |y_q|, all of one sign, so it is
# +-terms * d * A * B exactly: a = 5 over Q (M_a = (5)), a = (2, 1) over
# Q(sqrt 2) (M_a = ((2, 2), (1, 2)), A = 2)
AT_THE_BOUND = [
    (RATIONAL_FIELD, (5,), 5, (7,)),
    (RATIONAL_FIELD, (5,), 5, (-7,)),
    (Q2, (2, 1), 2, (7, 7)),
    (Q2, (2, 1), 2, (-7, -7)),
]
AT_THE_BOUND_IDS = ["Q+", "Q-", "Q(sqrt 2)+", "Q(sqrt 2)-"]


@pytest.mark.parametrize("field, a, bound_a, y", AT_THE_BOUND, ids=AT_THE_BOUND_IDS)
def test_packed_products_hold_coefficients_at_the_width_bound(field, a, bound_a, y):
    terms = [([a], y)] * 3
    got = packed_sum(field, terms)
    assert abs(got[0][0]) == 3 * field.degree * bound_a * abs(y[0])
    assert got == accumulated_sum(field, terms) == reference_sum(field, terms)


@pytest.mark.parametrize("field, a, bound_a, y", AT_THE_BOUND, ids=AT_THE_BOUND_IDS)
def test_packed_products_one_bit_short_of_the_width_bound_fail(monkeypatch, field, a, bound_a, y):
    real = FieldDescriptor.packing_width
    monkeypatch.setattr(FieldDescriptor, "packing_width", lambda self, *args: real(self, *args) - 1)
    terms = [([a], y)] * 3
    assert packed_sum(field, terms) != accumulated_sum(field, terms)
