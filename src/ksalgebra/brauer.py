"""Quaternion symbols, Hilbert symbols over Q, and ramification sets.

A symbol (a, b) stands for the four-dimensional algebra with i^2 = a,
j^2 = b, ij = -ji.  Over Q the isomorphism class is the set of places
where the local Hilbert symbol is -1; that set is finite of even size,
and two symbols are isomorphic iff the sets agree.

Local computations stay exact: Legendre characters by Euler's criterion,
the p = 2 case by the classical epsilon/omega formula on odd parts, the
real place by signs.  No factorization of large integers is attempted;
the odd ramification candidates, primes of odd valuation in a slot, come
from trial division up to the fixed DEFAULT_TRIAL_BOUND, and anything
irreducible beyond it raises rather than guessing.
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import isqrt, prod

from .errors import (
    FactorizationBound,
    FieldMismatch,
    FirstSlotNotRational,
    NotAPlace,
    OddRamification,
    ZeroInput,
    ZeroScale,
    ZeroSlot,
)
from .exactfield import (
    RATIONAL_FIELD,
    FieldDescriptor,
    FieldElem,
    norm,
)

INF = "inf"

DEFAULT_TRIAL_BOUND = 1_000_000


@dataclass(frozen=True)
class QuaternionSymbol:
    """(a, b) over a fixed base field; both slots nonzero."""

    a: FieldElem
    b: FieldElem
    history: tuple = dc_field(default_factory=tuple, compare=False)  # (slot, u) rewrite certificates

    def __post_init__(self):
        if self.a.field != self.b.field:
            raise FieldMismatch("symbol slots live in different fields")
        if not self.a or not self.b:
            raise ZeroSlot("symbol slots must be nonzero")

    @property
    def field(self) -> FieldDescriptor:
        return self.a.field

    def render(self) -> str:
        label = "Q" if self.field.degree == 1 else f"Q({self.field.name})"
        return f"({self.a!r},{self.b!r})/{label}"

    def to_json_dict(self) -> dict:
        return {"a": self.a.to_json(), "b": self.b.to_json()}


def rational_symbol(a, b) -> QuaternionSymbol:
    return QuaternionSymbol(RATIONAL_FIELD.rational(a), RATIONAL_FIELD.rational(b))


@dataclass(frozen=True)
class RamificationSet:
    """The places where a rational quaternion symbol is nonsplit."""

    places: frozenset

    def __post_init__(self):
        if len(self.places) % 2 != 0:
            raise OddRamification(f"odd ramification set {sorted_places(self.places)}")

    def sorted_list(self) -> list:
        return sorted_places(self.places)

    @property
    def empty(self) -> bool:
        return not self.places

    def __contains__(self, place) -> bool:
        return place in self.places


def sorted_places(places) -> list:
    finite = sorted(p for p in places if p != INF)
    return finite + ([INF] if INF in places else [])


# -- primality and valuations ----------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    # deterministic for n < 3.3 * 10^24 with these bases
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_valuation(n: int, p: int) -> tuple[int, int]:
    assert n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def valuation(q: Fraction, p: int) -> tuple[int, Fraction]:
    """(v_p(q), unit part): q = p^v * u with u a p-adic unit."""
    if q == 0:
        raise ZeroInput("valuation of zero")
    vn, num = _int_valuation(q.numerator, p)
    vd, den = _int_valuation(q.denominator, p)
    return vn - vd, Fraction(num, den)


def _unit_mod(u: Fraction, modulus: int) -> int:
    return u.numerator * pow(u.denominator, -1, modulus) % modulus


def legendre(a: int, p: int) -> int:
    assert p > 2 and is_probable_prime(p)
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    assert r in (1, p - 1)
    return 1 if r == 1 else -1


def hilbert_symbol(a, b, place) -> int:
    """Local Hilbert symbol of the nonzero rationals (a, b) at a prime or at "inf"."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ZeroInput("Hilbert symbol of zero")
    if place == INF:
        return -1 if a < 0 and b < 0 else 1
    if not isinstance(place, int) or isinstance(place, bool) or not is_probable_prime(place):
        raise NotAPlace(f"{place!r} is neither a prime nor {INF!r}")
    p = place
    alpha, u = valuation(a, p)
    beta, v = valuation(b, p)
    if p == 2:
        def eps(w: Fraction) -> int:
            return (_unit_mod(w, 4) - 1) // 2 % 2

        def omega(w: Fraction) -> int:
            return 1 if _unit_mod(w, 8) in (3, 5) else 0

        e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
        return -1 if e % 2 else 1
    s = 1
    if alpha % 2 and beta % 2 and legendre(-1, p) == -1:
        s = -s
    if beta % 2 and legendre(_unit_mod(u, p), p) == -1:
        s = -s
    if alpha % 2 and legendre(_unit_mod(v, p), p) == -1:
        s = -s
    return s


# -- ramification ------------------------------------------------------------------


def _odd_prime_exponents(n: int) -> dict[int, int]:
    """Odd prime exponents of n != 0, by trial division to DEFAULT_TRIAL_BOUND.
    A leftover cofactor must be a prime (exponent 1) or a square, whose
    primes have even exponents and cannot affect any symbol, so they are
    left out; anything else is beyond the factorization budget."""
    n = _int_valuation(abs(n), 2)[1]
    exponents: dict[int, int] = {}
    f = 3
    while f * f <= n and f <= DEFAULT_TRIAL_BOUND:
        if n % f == 0:
            exponents[f], n = _int_valuation(n, f)
        f += 2
    if n > 1:
        if f * f > n or is_probable_prime(n):
            exponents[n] = 1
        elif isqrt(n) ** 2 != n:
            raise FactorizationBound(f"cofactor {n} not factored within bound {DEFAULT_TRIAL_BOUND}")
    return exponents


def _require_rational_symbol(s: QuaternionSymbol) -> tuple[Fraction, Fraction]:
    if not (s.a.is_rational() and s.b.is_rational()):
        raise FieldMismatch("symbol is not defined over Q")
    return s.a.rational_value(), s.b.rational_value()


def _odd_primes_of_odd_valuation(q: Fraction) -> set[int]:
    """The odd primes p with v_p(q) odd: a symbol is split at an odd prime
    where both slots have even valuation, so only these can ramify."""
    exponents = {**_odd_prime_exponents(q.numerator), **_odd_prime_exponents(q.denominator)}
    return {p for p, v in exponents.items() if v % 2}


def ramification(s: QuaternionSymbol) -> RamificationSet:
    """The finite even set of places of Q where the symbol is -1."""
    a, b = _require_rational_symbol(s)
    candidates = {2} | _odd_primes_of_odd_valuation(a) | _odd_primes_of_odd_valuation(b)
    ramified = {p for p in candidates if hilbert_symbol(a, b, p) == -1}
    if hilbert_symbol(a, b, INF) == -1:
        ramified.add(INF)
    return RamificationSet(frozenset(ramified))


def is_definite(s: QuaternionSymbol) -> bool:
    """Ramified at the real place: both slots are negative."""
    a, b = _require_rational_symbol(s)
    return a < 0 and b < 0


def squarefree_kernel(q: Fraction) -> int:
    """The squarefree integer representing q modulo nonzero squares."""
    q = Fraction(q)
    if q == 0:
        raise ZeroInput("squarefree kernel of zero")
    kernel = prod(_odd_primes_of_odd_valuation(q)) * 2 ** (valuation(q, 2)[0] % 2)
    return kernel if q > 0 else -kernel


def reduced_symbol(s: QuaternionSymbol) -> QuaternionSymbol:
    """Equivalent rational symbol with squarefree slots (same ramification)."""
    a, b = _require_rational_symbol(s)
    return rational_symbol(squarefree_kernel(a), squarefree_kernel(b))


# -- symbol rewriting ---------------------------------------------------------------


def symbol_scale(s: QuaternionSymbol, u: FieldElem) -> QuaternionSymbol:
    """Divide the first slot by u^2; the class is unchanged, u is recorded."""
    if not u:
        raise ZeroScale("scaling certificate must be nonzero")
    return QuaternionSymbol(s.a / (u * u), s.b, s.history + ((1, u),))


def corestrict_symbol(s: QuaternionSymbol) -> QuaternionSymbol:
    """(a, b)_E with rational a drops to (a, N(b))_Q (projection formula)."""
    if not s.a.is_rational():
        raise FirstSlotNotRational("first slot must be rational to corestrict")
    a = s.a.rational_value()
    return rational_symbol(a, norm(s.b))
