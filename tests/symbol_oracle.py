"""Hilbert symbols, primality and trial division computed the long way, as
test oracles.

oracle_hilbert_symbol is how brauer.hilbert_symbol used to work: it builds
a normalised Fraction for the unit part of each slot at the place, reads
its residues mod 4, mod 8 and mod p through a modular inverse of the
denominator, and evaluates each Legendre character on its own.

oracle_odd_prime_exponents is how brauer's trial division used to work:
every odd f up to the bound, then the same cofactor rule (a prime, a
square, or FactorizationBound).  The bound is a parameter here.

full_base_is_prime is Miller-Rabin to all 13 prime bases 2, ..., 41,
whatever the size of n: a proof below psi_13 (OEIS A014233).
"""

from fractions import Fraction
from math import isqrt

from ksalgebra.errors import FactorizationBound

FULL_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def full_base_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in FULL_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in FULL_BASES:
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
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _valuation(q: Fraction, p: int) -> tuple[int, Fraction]:
    vn, num = _int_valuation(q.numerator, p)
    vd, den = _int_valuation(q.denominator, p)
    return vn - vd, Fraction(num, den)


def _unit_mod(u: Fraction, modulus: int) -> int:
    return u.numerator * pow(u.denominator, -1, modulus) % modulus


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def oracle_hilbert_symbol(a, b, place) -> int:
    """(a, b)_place for nonzero rationals at a prime or at "inf"."""
    a, b = Fraction(a), Fraction(b)
    if place == "inf":
        return -1 if a < 0 and b < 0 else 1
    p = place
    assert full_base_is_prime(p)
    alpha, u = _valuation(a, p)
    beta, v = _valuation(b, p)
    if p == 2:
        def eps(w: Fraction) -> int:
            return (_unit_mod(w, 4) - 1) // 2 % 2

        def omega(w: Fraction) -> int:
            return 1 if _unit_mod(w, 8) in (3, 5) else 0

        e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
        return -1 if e % 2 else 1
    s = 1
    if alpha % 2 and beta % 2 and _legendre(-1, p) == -1:
        s = -s
    if beta % 2 and _legendre(_unit_mod(u, p), p) == -1:
        s = -s
    if alpha % 2 and _legendre(_unit_mod(v, p), p) == -1:
        s = -s
    return s


def oracle_odd_prime_exponents(n: int, bound: int) -> dict[int, int]:
    """Odd prime exponents of n != 0 by trial division over the odd f <= bound;
    a leftover square cofactor is left out, any other composite raises."""
    n = _int_valuation(abs(n), 2)[1]
    exponents: dict[int, int] = {}
    f = 3
    while f * f <= n and f <= bound:
        if n % f == 0:
            exponents[f], n = _int_valuation(n, f)
        f += 2
    if n > 1:
        if f * f > n or full_base_is_prime(n):
            exponents[n] = 1
        elif isqrt(n) ** 2 != n:
            raise FactorizationBound(f"cofactor {n} not factored within bound {bound}")
    return exponents
