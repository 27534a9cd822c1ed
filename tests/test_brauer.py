import random
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksalgebra import brauer
from ksalgebra.brauer import (
    INF,
    QuaternionSymbol,
    RamificationSet,
    corestrict_symbol,
    hilbert_symbol,
    is_definite,
    is_probable_prime,
    legendre,
    ramification,
    rational_symbol,
    reduced_symbol,
    squarefree_kernel,
    symbol_scale,
    valuation,
)
from ksalgebra.errors import (
    FactorizationBound,
    FieldMismatch,
    FirstSlotNotRational,
    NotAPlace,
    OddRamification,
    ZeroInput,
    ZeroScale,
    ZeroSlot,
)
from ksalgebra.exactfield import RATIONAL_FIELD, quadratic_field

from symbol_oracle import (
    full_base_is_prime,
    oracle_hilbert_symbol,
    oracle_odd_prime_exponents,
)
from test_associativity import run_under_O

Q2 = quadratic_field(2)


# -- oracles (independent of the implementation under test) ---------------------


def oracle_two_adic_unit_symbol(a: int, b: int) -> int:
    # for odd a, b: split over Q_2 iff a x^2 + b y^2 = z^2 has a primitive
    # solution mod 8 (unit discriminant, so mod 8 decides)
    assert a % 2 and b % 2
    for x in range(8):
        for y in range(8):
            for z in range(8):
                if x % 2 == 0 and y % 2 == 0 and z % 2 == 0:
                    continue
                if (a * x * x + b * y * y - z * z) % 8 == 0:
                    return 1
    return -1


def oracle_is_square_mod_p(u: int, p: int) -> bool:
    return any((x * x - u) % p == 0 for x in range(p))


def test_oracle_pins_minus_one_minus_one_at_two():
    assert oracle_two_adic_unit_symbol(-1, -1) == -1


def test_two_adic_units_match_search_oracle():
    units = [-7, -5, -3, -1, 1, 3, 5, 7]
    for a in units:
        for b in units:
            assert hilbert_symbol(a, b, 2) == oracle_two_adic_unit_symbol(a, b), (a, b)


def test_legendre_matches_square_search():
    for p in (3, 5, 7, 11, 13):
        for u in range(1, p):
            want = 1 if oracle_is_square_mod_p(u, p) else -1
            assert legendre(u, p) == want
            # (p, u)_p is exactly the residue character of u
            assert hilbert_symbol(p, u, p) == want


# -- frozen local values ----------------------------------------------------------


def test_hilbert_frozen_values():
    assert hilbert_symbol(-1, -1, INF) == -1
    assert hilbert_symbol(-1, 3, INF) == 1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(2, 3, 2) == -1
    assert hilbert_symbol(5, 3, 3) == -1
    assert hilbert_symbol(1, 77, 7) == 1
    assert hilbert_symbol(Fraction(1, 2), Fraction(1, 2), 2) == hilbert_symbol(2, 2, 2)


def test_hilbert_rejects_bad_places_and_zero():
    with pytest.raises(NotAPlace):
        hilbert_symbol(1, 1, 4)
    with pytest.raises(NotAPlace):
        hilbert_symbol(1, 1, 1)
    with pytest.raises(NotAPlace):
        hilbert_symbol(1, 1, "infinity")
    with pytest.raises(NotAPlace):
        hilbert_symbol(1, 1, True)
    with pytest.raises(ZeroInput):
        hilbert_symbol(0, 1, 2)


_IRRATIONAL_SLOT = """
from ksalgebra.brauer import hilbert_symbol
from ksalgebra.exactfield import quadratic_field

if __debug__:
    raise SystemExit("not running under python -O")
try:
    hilbert_symbol(quadratic_field(2).gen() - 3, -1, "inf")
except TypeError:
    print("TypeError")
else:
    raise SystemExit("an irrational slot accepted")
"""


def test_hilbert_rejects_an_irrational_slot_under_python_O():
    # the slots are rationals; a FieldElem is no Fraction
    with pytest.raises(TypeError):
        hilbert_symbol(Q2.gen() - 3, -1, INF)
    done = run_under_O(_IRRATIONAL_SLOT)
    assert done.returncode == 0, done.stderr or done.stdout
    assert done.stdout == "TypeError\n"


def test_valuation():
    assert valuation(Fraction(12), 2) == (2, Fraction(3))
    assert valuation(Fraction(5, 8), 2) == (-3, Fraction(5))
    with pytest.raises(ZeroInput):
        valuation(Fraction(0), 3)


def test_probable_prime():
    assert is_probable_prime(2) and is_probable_prime(10007)
    assert not is_probable_prime(1) and not is_probable_prime(10007 * 10009)


# psi_1..psi_12 (OEIS A014233): the least odd composite that is a strong
# probable prime to each of the first k prime bases
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)
PSI_12 = PSI[-1]


def test_probable_prime_matches_a_sieve():
    n = 100_000
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    assert [m for m in range(n) if is_probable_prime(m)] == [m for m in range(n) if sieve[m]]


def test_strong_pseudoprimes_to_the_first_bases_are_rejected():
    for k, psi in enumerate(PSI, start=1):
        assert not is_probable_prime(psi), (k, psi)


def test_probable_prime_agrees_with_all_13_bases():
    rng = random.Random(20)
    odd = [rng.randrange(3, 10**20, 2) for _ in range(3000)]
    # and numbers near each psi_k, where the count of bases changes
    odd += [psi + delta for psi in PSI for delta in range(-40, 41, 2)]
    assert sum(map(full_base_is_prime, odd)) > 50
    for n in odd:
        assert is_probable_prime(n) == full_base_is_prime(n), n


def test_psi_12_is_not_a_place():
    assert 399165290221 * 798330580441 == PSI_12
    with pytest.raises(NotAPlace):
        hilbert_symbol(3, 5, PSI_12)
    # its factors are beyond the trial-division bound, so it is not factored
    with pytest.raises(FactorizationBound):
        ramification(rational_symbol(PSI_12, 2))


def test_euler_criterion_is_a_named_check():
    # 2^7 = 8 mod the composite 15
    with pytest.raises(NotAPlace, match="Euler"):
        legendre(2, 15)


_PSI_12_UNDER_O = f"""
from ksalgebra import brauer
from ksalgebra.errors import FactorizationBound, NotAPlace

if __debug__:
    raise SystemExit("not running under python -O")
psi12 = {PSI_12}
for label, run, error in (
    ("hilbert", lambda: brauer.hilbert_symbol(3, 5, psi12), NotAPlace),
    ("ramification", lambda: brauer.ramification(brauer.rational_symbol(psi12, 2)), FactorizationBound),
):
    try:
        run()
    except error:
        print(label, error.__name__)
try:
    brauer.legendre(2, 15)
except NotAPlace:
    print("euler NotAPlace")
"""


def test_psi_12_rejections_survive_python_O():
    done = run_under_O(_PSI_12_UNDER_O)
    assert done.returncode == 0, done.stderr or done.stdout
    assert done.stdout == "hilbert NotAPlace\nramification FactorizationBound\neuler NotAPlace\n"


# -- local-global properties -------------------------------------------------------

nonzero_rat = st.fractions(
    min_value=Fraction(-60), max_value=Fraction(60), max_denominator=12
).filter(lambda q: q != 0)


def candidate_places(*qs):
    places = {2, INF}
    for q in qs:
        for n in (q.numerator, q.denominator):
            n = abs(n)
            while n % 2 == 0:
                n //= 2
            f = 3
            while f * f <= n:
                if n % f == 0:
                    places.add(f)
                    while n % f == 0:
                        n //= f
                f += 2
            if n > 1:
                places.add(n)
    return places


@settings(max_examples=120, deadline=None)
@given(nonzero_rat, nonzero_rat, nonzero_rat)
def test_bimultiplicative_and_symmetric(a, b1, b2):
    for v in candidate_places(a, b1, b2):
        left = hilbert_symbol(a, b1 * b2, v)
        assert left == hilbert_symbol(a, b1, v) * hilbert_symbol(a, b2, v)
        assert hilbert_symbol(a, b1, v) == hilbert_symbol(b1, a, v)


@settings(max_examples=120, deadline=None)
@given(nonzero_rat)
def test_a_minus_a_splits(a):
    for v in candidate_places(a):
        assert hilbert_symbol(a, -a, v) == 1


@settings(max_examples=120, deadline=None)
@given(nonzero_rat, nonzero_rat)
def test_product_formula(a, b):
    prod = 1
    for v in candidate_places(a, b):
        prod *= hilbert_symbol(a, b, v)
    assert prod == 1


wide_rat = st.builds(
    lambda num, den, big: Fraction(num * big, den),
    st.integers(min_value=-10**4, max_value=10**4).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=10**4),
    st.sampled_from((1, 1, 10007, 99991, -104729)),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(nonzero_rat, wide_rat), st.one_of(nonzero_rat, wide_rat))
def test_hilbert_matches_fraction_oracle(a, b):
    # the candidate places, and primes dividing neither slot
    for v in candidate_places(a, b) | {3, 5, 7, 10007}:
        assert hilbert_symbol(a, b, v) == oracle_hilbert_symbol(a, b, v), (a, b, v)


@settings(max_examples=120, deadline=None)
@given(st.one_of(nonzero_rat, wide_rat), st.one_of(nonzero_rat, wide_rat))
def test_ramification_matches_fraction_oracle(a, b):
    want = {v for v in candidate_places(a, b) if oracle_hilbert_symbol(a, b, v) == -1}
    assert ramification(rational_symbol(a, b)).places == want


# primes on both sides of the patched bounds 100, 121 and 127
FACTOR_PRIMES = (2, 3, 5, 7, 11, 13, 97, 101, 103, 107, 109, 113, 127, 131, 137, 10007, 10009)


@pytest.mark.parametrize("bound", (100, 121, 127, brauer.DEFAULT_TRIAL_BOUND))
@settings(max_examples=200, deadline=None)
@given(factors=st.lists(st.sampled_from(FACTOR_PRIMES), min_size=1, max_size=5), sign=st.sampled_from((1, -1)))
def test_odd_prime_exponents_match_oracle(bound, factors, sign):
    n = sign * prod(factors)
    try:
        want = oracle_odd_prime_exponents(n, bound)
    except FactorizationBound:
        want = FactorizationBound
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(brauer, "DEFAULT_TRIAL_BOUND", bound)
        try:
            got = brauer._odd_prime_exponents(n)
        except FactorizationBound:
            got = FactorizationBound
    assert got == want, (n, bound)


# -- ramification -------------------------------------------------------------------


def test_ramification_frozen_sets():
    assert ramification(rational_symbol(-1, -1)).sorted_list() == [2, INF]
    assert ramification(rational_symbol(-1, 3)).sorted_list() == [2, 3]
    assert ramification(rational_symbol(1, 1)).empty
    assert ramification(rational_symbol(-1, -4)).sorted_list() == [2, INF]


def test_split_definite_verdicts():
    assert is_definite(rational_symbol(-1, -1)) and not ramification(rational_symbol(-1, -1)).empty
    assert ramification(rational_symbol(1, 1)).empty
    s = rational_symbol(-1, 3)
    assert not is_definite(s) and not ramification(s).empty


def test_symbols_isomorphic():
    assert ramification(rational_symbol(-1, -1)) == ramification(rational_symbol(-1, -4))
    assert ramification(rational_symbol(-2, -3)) == ramification(rational_symbol(-2, -3))
    assert ramification(rational_symbol(1, 1)) != ramification(rational_symbol(-1, -1))


@settings(max_examples=80, deadline=None)
@given(nonzero_rat, nonzero_rat, st.integers(min_value=1, max_value=9).filter(lambda n: n != 0))
def test_ramification_square_invariance(a, b, u):
    assert ramification(rational_symbol(a * u * u, b)) == ramification(rational_symbol(a, b))


def test_ramification_even_cardinality_randomized():
    import random

    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 20))
        b = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 20))
        assert len(ramification(rational_symbol(a, b)).places) % 2 == 0


def test_ramification_requires_rational_symbol():
    s = QuaternionSymbol(Q2.gen(), Q2.rational(3))
    with pytest.raises(FieldMismatch):
        ramification(s)


def test_factorization_bound_honesty(monkeypatch):
    monkeypatch.setattr(brauer, "DEFAULT_TRIAL_BOUND", 100)
    hard = rational_symbol(3 * 10007 * 10009, 5)
    with pytest.raises(FactorizationBound):
        ramification(hard)
    # a big prime cofactor is fine: primality is checked, not factored
    big = rational_symbol(10007, -1)
    assert ramification(big).sorted_list() == [2, 10007]
    assert len(ramification(big).places) % 2 == 0
    # big square cofactor is irrelevant and tolerated
    sq = rational_symbol(10007 * 10007 * 3, -1)
    assert ramification(sq) == ramification(rational_symbol(3, -1))


def test_definiteness_is_read_at_the_real_place(monkeypatch):
    monkeypatch.setattr(brauer, "DEFAULT_TRIAL_BOUND", 100)
    s = rational_symbol(-101 * 103, -1)
    assert is_definite(s)
    with pytest.raises(FactorizationBound):
        ramification(s)


def test_odd_ramification_guard():
    with pytest.raises(OddRamification):
        RamificationSet(frozenset({2}))


def test_squarefree_kernel(monkeypatch):
    assert squarefree_kernel(Fraction(18)) == 2
    assert squarefree_kernel(Fraction(-12)) == -3
    assert squarefree_kernel(Fraction(4, 9)) == 1
    assert squarefree_kernel(Fraction(1, 2)) == 2
    monkeypatch.setattr(brauer, "DEFAULT_TRIAL_BOUND", 100)
    assert squarefree_kernel(Fraction(10007 * 10007)) == 1
    with pytest.raises(ZeroInput):
        squarefree_kernel(Fraction(0))
    with pytest.raises(FactorizationBound):
        squarefree_kernel(Fraction(10007 * 10009))


def test_squarefree_kernel_factors_numerator_and_denominator_apart(monkeypatch):
    # each part is one prime beyond the bound; their product is not
    monkeypatch.setattr(brauer, "DEFAULT_TRIAL_BOUND", 100)
    assert squarefree_kernel(Fraction(10007, 10009)) == 10007 * 10009


def test_reduced_symbol():
    r = reduced_symbol(rational_symbol(-4, 18))
    assert r == rational_symbol(-1, 2)
    assert ramification(r) == ramification(rational_symbol(-4, 18))


# -- symbol construction and rewriting ---------------------------------------------


def test_symbol_guards_and_render():
    with pytest.raises(ZeroSlot):
        rational_symbol(0, 1)
    with pytest.raises(FieldMismatch):
        QuaternionSymbol(Q2.gen(), RATIONAL_FIELD.one())
    assert rational_symbol(-1, -1).render() == "(-1,-1)/Q"
    assert rational_symbol(Fraction(1, 2), 3).render() == "(1/2,3)/Q"
    s = QuaternionSymbol(Q2.rational(-2), Q2.gen() - 1)
    assert s.render() == "(-2,sqrt2 - 1)/Q(sqrt2)"
    assert s.to_json_dict() == {"a": "-2", "b": ["-1", "1"]}


def test_symbol_scale():
    assert symbol_scale(rational_symbol(12, 5), RATIONAL_FIELD.rational(2)) == rational_symbol(3, 5)
    s = QuaternionSymbol(Q2.rational(-2), Q2.gen() - 1)
    scaled = symbol_scale(s, Q2.gen())
    assert scaled.a == Q2.rational(-1) and scaled.b == s.b
    assert scaled.history == ((1, Q2.gen()),)
    with pytest.raises(ZeroScale):
        symbol_scale(s, Q2.zero())


def test_symbols_compare_and_hash_by_their_slots_only():
    s = QuaternionSymbol(Q2.rational(-2), Q2.gen() - 1)
    scaled = QuaternionSymbol(s.a, s.b, ((1, Q2.gen()),))
    assert scaled == s and hash(scaled) == hash(s)
    assert len({s, scaled}) == 1
    assert scaled != QuaternionSymbol(s.b, s.a)


def test_corestrict_projection_formula():
    # (-1, sqrt2 - 1) over Q(sqrt2) -> (-1, N(sqrt2 - 1)) = (-1, -1)
    s = QuaternionSymbol(Q2.rational(-1), Q2.gen() - 1)
    down = corestrict_symbol(s)
    assert down == rational_symbol(-1, -1)
    with pytest.raises(FirstSlotNotRational):
        corestrict_symbol(QuaternionSymbol(Q2.gen(), Q2.gen() - 1))


def test_corestrict_rational_second_slot():
    # (a, r)_E with r rational: the norm is r^d
    s = QuaternionSymbol(Q2.rational(-1), Q2.rational(3))
    down = corestrict_symbol(s)
    assert down == rational_symbol(-1, 9)
    assert ramification(down).empty
