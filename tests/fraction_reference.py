"""Plain-Fraction reference arithmetic for number field elements.

An element is the list of its d Fraction coefficients in the power basis.
Sums are taken coefficientwise and products as pmod(pmul(a, b), P), with
this module's own polynomial product and remainder: it imports nothing
from ksalgebra, so it shares no code with FieldElem's integer vectors or
with the polynomial division that builds the field's X^k mod P table, and
the tests can check both against it.  Signs at the real places are
decided by plain Fraction bisection with a derivative bound, not by
interval Horner on scaled integers as in the package.  Norms are
checked against the resultant Res(P, g), read off as the determinant of
the Sylvester matrix: for monic P it is the product of g over the roots of
P, and it uses neither the automorphisms nor the field's multiplication.
"""

from fractions import Fraction


def trim(p) -> list[Fraction]:
    q = [Fraction(c) for c in p]
    while q and not q[-1]:
        del q[-1]
    return q


def pmul(f, g) -> list[Fraction]:
    """Schoolbook product: coefficient k is the sum of f[i] g[k - i]."""
    f, g = trim(f), trim(g)
    return trim(
        sum((f[i] * g[k - i] for i in range(max(0, k - len(g) + 1), min(k, len(f) - 1) + 1)), Fraction(0))
        for k in range(len(f) + len(g) - 1)
    )


def pmod(f, g) -> list[Fraction]:
    """Remainder of f by nonzero g: cancel the top coefficient of f with a
    multiple of X^s g until deg f < deg g."""
    f, g = trim(f), trim(g)
    while len(f) >= len(g):
        s, c = len(f) - len(g), f[-1] / g[-1]
        f = trim([x - c * g[i - s] if i >= s else x for i, x in enumerate(f)])
    return f


def pad(cs, d: int) -> list[Fraction]:
    return list(cs) + [Fraction(0)] * (d - len(cs))


def add(a, b) -> list[Fraction]:
    return [x + y for x, y in zip(a, b)]


def sub(a, b) -> list[Fraction]:
    return [x - y for x, y in zip(a, b)]


def mul(field, a, b) -> list[Fraction]:
    return pad(pmod(pmul(list(a), list(b)), field.min_poly), field.degree)


def evaluate(f, x: Fraction) -> Fraction:
    return sum((c * x**k for k, c in enumerate(trim(f))), Fraction(0))


def bisection_signs(min_poly, intervals, g) -> list[int]:
    """The sign of g(alpha) at each place, alpha the root of min_poly that
    interval (lo, hi) isolates.  g is reduced mod min_poly, so a nonzero
    remainder is nonzero at alpha when min_poly is irreducible.  Halve
    around min_poly's sign change until |g(mid)| exceeds the half-width
    times L = sum |k g_k| R^(k-1), R = max(|lo|, |hi|), a bound on |g'|
    over the interval: then g has g(mid)'s sign on all of it."""
    g = pmod(g, min_poly)
    if not g:
        return [0] * len(intervals)
    signs = []
    for lo, hi in intervals:
        lo, hi = Fraction(lo), Fraction(hi)
        lo_negative = evaluate(min_poly, lo) < 0
        for _ in range(10_000):
            mid, r = (lo + hi) / 2, max(abs(lo), abs(hi))
            v, p = evaluate(g, mid), evaluate(min_poly, mid)
            if not p or abs(v) > (hi - lo) / 2 * sum(abs(k * c) * r ** (k - 1) for k, c in enumerate(g) if k):
                signs.append((v > 0) - (v < 0))
                break
            lo, hi = (lo, mid) if (p < 0) != lo_negative else (mid, hi)
        else:
            raise AssertionError(f"no sign settled on ({lo}, {hi})")
    return signs


def sylvester_resultant(f, g):
    """Oracle: determinant of the Sylvester matrix, by exact elimination."""
    f, g = trim(f), trim(g)
    m, n = len(f) - 1, len(g) - 1
    assert m >= 0 and n >= 0
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows = []
    for i in range(n):  # n rows of f coefficients
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):  # m rows of g coefficients
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    # fraction Gaussian elimination, tracking row swaps
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] == 0:
                continue
            factor = rows[r][col] * inv
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det
