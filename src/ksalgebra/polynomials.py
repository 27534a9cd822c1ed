"""Dense univariate polynomial arithmetic over Fraction.

A polynomial is a list of Fractions in ascending degree order with no
trailing zeros; the zero polynomial is the empty list.  Everything here is
exact.  This module carries what the number-field layer needs to set a
field up and to decide signs: sums, remainders (the X^k mod P table),
point evaluation, rendering, and interval evaluation on an isolating
interval, on ints over one denominator so that a sign forms no Fraction.
Products, composition, norms and inverses are not here: the field layer
computes them in its own arithmetic, where point evaluation at a field
element is Horner in the field.
"""

from fractions import Fraction
from typing import Sequence

Poly = list[Fraction]

ZERO = Fraction(0)


def trim(p: Sequence[Fraction]) -> Poly:
    """Drop trailing zeros so the representation is canonical."""
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def poly(coeffs: Sequence) -> Poly:
    return trim([Fraction(c) for c in coeffs])


def padd(f: Sequence[Fraction], g: Sequence[Fraction]) -> Poly:
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else ZERO) + (g[i] if i < len(g) else ZERO)
                 for i in range(n)])


def pmod(f: Sequence[Fraction], g: Sequence[Fraction]) -> Poly:
    """Remainder of f by g; g must be nonzero."""
    g = trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = trim(f)
    dg, lg = len(g) - 1, g[-1]
    while len(r) - 1 >= dg and r:
        shift = len(r) - 1 - dg
        c = r[-1] / lg
        for i in range(len(g)):
            r[shift + i] -= c * g[i]
        r = trim(r)
    return r


def peval(f: Sequence[Fraction], x):
    """f(x) by Horner, in the ring of x: a Fraction or a field element."""
    acc = x * ZERO
    for c in reversed(trim(f)):
        acc = acc * x + c
    return acc


def interval_eval(f: Sequence[int], lo: int, hi: int, q: int) -> tuple[int, int]:
    """Enclosure of f([lo/q, hi/q]) by interval Horner on ints: ints over q^deg f."""
    assert lo <= hi
    alo, ahi, qk = 0, 0, 1
    for c in reversed(trim(f)):
        # interval multiplication of [alo, ahi] by [lo, hi], then c over qk
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi, qk = min(prods) + c * qk, max(prods) + c * qk, qk * q
    return alo, ahi


def render(f: Sequence[Fraction], var: str = "X") -> str:
    """Human-readable rendering, highest degree first."""
    f = trim(f)
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}{var}" if i == 1 else f"{mag}{var}^{i}"
            if c < 0:
                term = "-" + term
        if not parts:
            parts.append(term)
        else:
            parts.append(("- " + term[1:]) if term.startswith("-") else ("+ " + term))
    return " ".join(parts)
