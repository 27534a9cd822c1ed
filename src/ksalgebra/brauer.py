"""Quaternion symbols, Hilbert symbols over Q, and ramification sets.

A symbol (a, b) stands for the four-dimensional algebra with i^2 = a,
j^2 = b, ij = -ji.  Over Q the isomorphism class is the set of places
where the local Hilbert symbol is -1; that set is finite of even size,
and two symbols are isomorphic iff the sets agree.

Local computations stay exact and run on the numerators and denominators
as ints: Legendre characters by Euler's criterion, the p = 2 case by the
classical epsilon/omega formula on odd parts, the real place by signs.  A
finite place is proved prime once per call, by Miller-Rabin to as many
prime bases as n needs (a proof below psi_13 ~ 3.3 * 10^24); a value of
Euler's criterion other than +-1 raises NotAPlace.  No factorization of
large integers is attempted; the odd ramification candidates, primes of
odd valuation in a slot, come from trial division up to the fixed
DEFAULT_TRIAL_BOUND, and anything irreducible beyond it raises rather
than guessing.
"""

from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import accumulate, chain, cycle
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

# the first 13 primes, and psi_1..psi_12 (OEIS A014233): psi_k is the least
# odd composite that is a strong probable prime to each of the first k prime
# bases, so those k bases decide every n < psi_k
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the first k prime bases that decide n: a proof for
    n < psi_13 = 3,317,044,064,679,887,385,961,981 (Jaeschke; Sorenson and
    Webster); above it True means a strong probable prime to 2, 3, ..., 41."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[: bisect_right(_PSI, n) + 1]:
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


def legendre(a: int, p: int) -> int:
    """The quadratic character of a mod an odd prime p not dividing a, by
    Euler's criterion; a value other than +-1 shows that p is not a prime."""
    r = pow(a, (p - 1) // 2, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    raise NotAPlace(f"Euler's criterion gives {r} mod {p}, so {p} is not a prime")


def _split(num: int, den: int, p: int) -> tuple[int, int]:
    """(v_p(num/den), w) with w = num' * den' for the p-free parts: w is
    num'/den' times the unit square den'^2, so every character agrees."""
    vn, num = _int_valuation(num, p)
    vd, den = _int_valuation(den, p)
    return vn - vd, num * den


def _local_symbol(a: Fraction, b: Fraction, p: int) -> int:
    """(a, b)_p for nonzero rationals at a prime p, on the ints of a and b."""
    alpha, u = _split(a.numerator, a.denominator, p)
    beta, v = _split(b.numerator, b.denominator, p)
    if p == 2:
        u, v = u % 8, v % 8
        e = (u % 4 == 3 and v % 4 == 3) + alpha * (v in (3, 5)) + beta * (u in (3, 5))
        return -1 if e % 2 else 1
    # (-1)^(alpha beta (p-1)/2) (u/p)^beta (v/p)^alpha is the character of t
    t = 1
    if beta % 2:
        t = u
    if alpha % 2:
        t = -t * v if beta % 2 else v
    return 1 if t == 1 else legendre(t, p)


def hilbert_symbol(a, b, place) -> int:
    """Local Hilbert symbol of the nonzero rationals (a, b) at a prime or at "inf".
    A finite place is proved prime once (see is_probable_prime)."""
    if not isinstance(a, Fraction):
        a = Fraction(a)
    if not isinstance(b, Fraction):
        b = Fraction(b)
    if not a or not b:
        raise ZeroInput("Hilbert symbol of zero")
    if place == INF:
        return -1 if a < 0 and b < 0 else 1
    if not isinstance(place, int) or isinstance(place, bool) or not is_probable_prime(place):
        raise NotAPlace(f"{place!r} is neither a prime nor {INF!r}")
    return _local_symbol(a, b, place)


# -- ramification ------------------------------------------------------------------

# the gaps between consecutive integers prime to 30, from 7 on
_WHEEL_GAPS = (4, 2, 4, 2, 4, 6, 2, 6)


def _odd_prime_exponents(n: int) -> dict[int, int]:
    """Odd prime exponents of n != 0, by trial division to DEFAULT_TRIAL_BOUND
    over 3, 5 and the integers prime to 30.  A leftover cofactor must be a
    prime (exponent 1) or a square, whose primes have even exponents and
    cannot affect any symbol, so they are left out; anything else is beyond
    the factorization budget."""
    n = _int_valuation(abs(n), 2)[1]
    exponents: dict[int, int] = {}
    limit = min(isqrt(n), DEFAULT_TRIAL_BOUND)
    for f in chain((3, 5), accumulate(cycle(_WHEEL_GAPS), initial=7)):
        if f > limit:
            break
        if n % f == 0:
            exponents[f], n = _int_valuation(n, f)
            limit = min(isqrt(n), DEFAULT_TRIAL_BOUND)
    if n > 1:
        if f * f > n or is_probable_prime(n):
            exponents[n] = 1
        elif isqrt(n) ** 2 != n:
            shown = n if n.bit_length() <= 2048 else f"of {n.bit_length()} bits"  # printable at any digit limit
            raise FactorizationBound(f"cofactor {shown} not factored within bound {DEFAULT_TRIAL_BOUND}")
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
    # each candidate is prime by trial division or by is_probable_prime
    ramified = {p for p in candidates if _local_symbol(a, b, p) == -1}
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
