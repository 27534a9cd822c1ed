"""Exact arithmetic in totally real Galois number fields.

A field E = Q(alpha) is described by a monic minimal polynomial P of degree
d over Q, the full list of its d automorphisms (as polynomials giving the
image of alpha), and d isolating intervals with rational endpoints, one per
real root of P.  An element is a residue class g(alpha) mod P stored as an
integer vector over a common denominator (Cohen, GTM 138, section 4.2):
num, a tuple of d ints, over den > 0, in lowest terms.  An automorphism
acts by an integer matrix, so every operation is exact and no floating
point appears anywhere.

The field owns the integer-vector kernel that FieldElem, qform and csa
share: multiply is one straight-line function of two vectors, compiled
when the field is built, that forms the 2d - 1 convolution sums and takes
them mod P by the nonzero entries of the integer matrix whose columns are
X^k mod P, over reduction_den.  It is bilinear, so a sum of products is
the sum of their multiply; adjugate gives the product of the other
conjugates, for inverses, norms and exact division.  No product branches
on the degree: Q is the field of degree 1, with the same kernel.
pack_matrices, pack_vectors and unpacker sum many M_a y = multiply(a, y)
in one int by Kronecker substitution, at a digit width packing_width
bounds; column q of M_a is multiply(a, X^q), read from the same kernel.  A
packed M_a has one-vector rows, 2d - 1 digits each, so it multiplies one
packed y, and unpacker reads the sums back one list of digits per
coordinate: csa.invariants reads each distinct block, one (E^H, terms), once.

Real places are indexed 1..d.  The first listed interval is the field's
distinguished inclusion into R, and interval i must isolate the image of
automorphism i applied to alpha, seen through that first inclusion.  In
other words place i = (first embedding) o (automorphism i); automorphism 1
is the identity.  This pairing is validated at construction, which is what
lets signature bookkeeping elsewhere identify "signature at place i" with
"signature of the i-th conjugate form at the distinguished place".

The field is built and checked in its own arithmetic.  Once P is monic of
degree >= 1 the X^k mod P table is set up, and each automorphism is taken
as its image a_i = sigma_i(alpha), an element: Horner evaluation in the
field checks P(a_i) = 0, successive products give the columns
sigma_i(alpha^k) of its integer matrix, and that matrix times a_j gives
(sigma_i o sigma_j)(alpha), which fills the composition table.

The intervals are the certificate of the roots: each has a strict sign
change of P and no two overlap, so P has d distinct real roots, is
squarefree and totally real, and each interval isolates one root.  One
bisection halves an interval around that sign change, and whatever needs
the roots reads it: signs, and the rational-root test, run at every
degree >= 2, which decides irreducibility in degree 2 and 3.

Signs are decided exactly: test for zero first, then evaluate on the halved
intervals with interval arithmetic until the enclosure has constant sign,
all on ints: P and the element scaled to int coefficients, each halving
as (lo, hi, q) for [lo/q, hi/q].  The norm is the product of the d
conjugates, taken with the certified automorphisms, and the inverse is the
product of the other d - 1 conjugates over the norm.  A bisection that
never settles, or a nonzero element whose conjugates do not multiply to a
nonzero rational, means P is reducible: both raise InvalidDescriptor.
"""

import re
from fractions import Fraction
from itertools import accumulate, count, repeat
from math import gcd, isqrt, lcm, prod
from operator import lshift, mul
from typing import Iterable, Sequence

from .errors import (
    FieldMismatch,
    InvalidDescriptor,
    MalformedInput,
    NonGaloisField,
)
from .polynomials import (
    Poly,
    interval_eval,
    padd,
    peval,
    pmod,
    poly,
    render,
    trim,
)

_BISECTION_CAP = 2000
MAX_DEGREE = 16  # of a field read from input: a report walks all 2^(d-1) even-weight vectors


def _integral(f: Sequence) -> list[int]:
    """f times the lcm of its denominators: int coefficients, same signs."""
    den = lcm(*(c.denominator for c in f))
    return [c.numerator * (den // c.denominator) for c in f]


def _value(f: Sequence[int], num: int, q: int) -> int:
    """f(num / q) times q^deg f, by Horner homogenized at q > 0."""
    acc, qk = 0, 1
    for c in reversed(f):
        acc, qk = acc * num + c * qk, qk * q
    return acc


def _product_kernel(matrix: Sequence[Sequence[int]]):
    """The product of two d-vectors as one straight-line function of (a, b),
    matrix being the d x (2d - 1) ints whose column k is X^k mod P: it
    unpacks both, forms the 2d - 1 convolution sums once and returns
    coordinate i as the sum of matrix[i][k] s_k over the nonzero entries.
    The entries are bound by name in the function's namespace, never
    written into its source, so an int of any size compiles."""
    d = len(matrix)
    namespace = {f"r{i}_{k}": c for i, row in enumerate(matrix) for k, c in enumerate(row) if c}
    sums = (" + ".join(f"a{p} * b{k - p}" for p in range(max(0, k - d + 1), min(k, d - 1) + 1)) for k in range(2 * d - 1))
    coordinates = (" + ".join(f"r{i}_{k} * s{k}" for k, c in enumerate(row) if c) for i, row in enumerate(matrix))
    lines = [f"{', '.join(f'{x}{p}' for p in range(d))}, = {x}" for x in "ab"]
    lines += [f"s{k} = {s}" for k, s in enumerate(sums)]
    lines.append(f"return {', '.join(coordinates)},")
    exec("def product(a, b):\n    " + "\n    ".join(lines), namespace)
    return namespace["product"]


class FieldDescriptor:
    """A totally real Galois number field, fully explicit and validated.

    min_poly      : monic, degree d, ascending coefficients
    automorphisms : d polynomials in alpha, first one the identity X
    embeddings    : d isolating intervals pairing place i with automorphism i
    name          : symbol used when rendering elements
    """

    def __init__(self, min_poly, automorphisms, embeddings, name: str = "a"):
        p = self.min_poly = poly(min_poly)
        d = self.degree = len(p) - 1
        if d < 1:
            raise InvalidDescriptor("min_poly must have degree >= 1")
        if p[-1] != 1:
            raise InvalidDescriptor("min_poly must be monic")
        self._pz = _integral(p)  # P times the lcm of its denominators, read by every sign
        self.automorphisms: list[Poly] = [pmod(poly(a), p) for a in automorphisms]
        self.embeddings: list[tuple[Fraction, Fraction]] = [
            (Fraction(lo), Fraction(hi)) for lo, hi in embeddings
        ]
        self.name = name
        self._key = (tuple(p), tuple(tuple(a) for a in self.automorphisms), tuple(self.embeddings))
        self._hash = hash(self._key)
        # column k is X^k mod P for k <= 2d - 2: a product of two
        # coefficient vectors has degree <= 2d - 2 and reduces through it
        self.reduction_den, reduction = self._integer_matrix(self.elem([0] * k + [1]) for k in range(2 * d - 1))
        self._product = _product_kernel(reduction)
        self._units = [(0,) * q + (1,) + (0,) * (d - 1 - q) for q in range(d)]
        # each automorphism as its image a_i = sigma_i(alpha), an element
        images = [self.elem(a) for a in self.automorphisms]
        self._validate(images)
        # column k of automorphism i: sigma_i(alpha^k) = a_i^k
        self._automorphism_matrices = [
            self._integer_matrix(accumulate(repeat(x, d - 1), mul, initial=self.one())) for x in images
        ]
        self._compose_table = self._build_compose_table(images)

    # -- validation -------------------------------------------------------

    def _validate(self, images: list["FieldElem"]) -> None:
        d, p, pz = self.degree, self.min_poly, self._pz
        if len(images) != d:
            raise NonGaloisField(f"need exactly {d} automorphisms, got {len(images)}")
        if images[0] != self.gen():
            raise InvalidDescriptor("first automorphism must be the identity X")
        seen = set()
        for a, x in zip(self.automorphisms, images):
            if peval(p, x):
                raise NonGaloisField(f"{render(a)} does not map alpha to a root")
            if x in seen:
                raise NonGaloisField("automorphisms are not pairwise distinct")
            seen.add(x)

        if len(self.embeddings) != d:
            raise InvalidDescriptor(f"need exactly {d} isolating intervals, got {len(self.embeddings)}")
        for lo, hi in self.embeddings:
            if not lo < hi:
                raise InvalidDescriptor(f"empty interval ({lo}, {hi})")
            if _value(pz, lo.numerator, lo.denominator) * _value(pz, hi.numerator, hi.denominator) >= 0:
                raise InvalidDescriptor(f"min_poly does not change sign on ({lo}, {hi})")
        ordered = sorted(self.embeddings)
        for (_, h1), (l2, _) in zip(ordered, ordered[1:]):
            if h1 > l2:
                raise InvalidDescriptor("isolating intervals overlap")
        # each open interval holds a root (a strict sign change) and they are
        # pairwise disjoint, so P has d distinct real roots: it is squarefree
        # and totally real, and each interval isolates exactly one root
        if d >= 2 and self._has_rational_root():
            raise InvalidDescriptor("min_poly is reducible (rational root)")

        # place i must see automorphism i: the value of automorphisms[i](alpha)
        # under the first embedding has to land in interval i.
        for i, a in enumerate(self.automorphisms):
            lo, hi = self.embeddings[i]
            above = self._sign_at_poly(padd(a, [-lo]), 0)
            below = self._sign_at_poly(padd([-c for c in a], [hi]), 0)
            if above <= 0 or below <= 0:
                raise InvalidDescriptor(
                    f"interval {i + 1} does not isolate the image of automorphism {i + 1}; "
                    "list intervals in automorphism order, distinguished place first"
                )

    def _has_rational_root(self) -> bool:
        """Whether P has a rational root, which proves P reducible at every
        degree d >= 2 and is the whole irreducibility test in degree 2 and
        3.  D P is integral with leading coefficient D, the lcm of P's
        denominators, so such a root lies in (1/D)Z: halve its isolating
        interval below 1/D and test the point of (1/D)Z nearest the middle:
        a root in the interval is nearer than 1/2D, so no tie can hide it."""
        p, den = self._pz, self._pz[-1]
        for i in range(self.degree):
            for lo, hi, q in self._halvings(i):
                if (hi - lo) * den < q:
                    break
            if not _value(p, ((lo + hi) * den + q) // (2 * q), den):
                return True
        return False

    def _build_compose_table(self, images: list["FieldElem"]) -> list[list[int]]:
        """At (i - 1, j - 1) the index of (sigma_i o sigma_j)(alpha) = sigma_i(a_j)
        among the images, one product by sigma_i's integer matrix each."""
        index = {x: i for i, x in enumerate(images)}
        table = [[index.get(apply_automorphism(aj, i)) for aj in images] for i in range(1, self.degree + 1)]
        if any(None in row for row in table):
            raise NonGaloisField("automorphisms are not closed under composition")
        if any(sorted(row) != list(range(self.degree)) for row in table):
            raise NonGaloisField("composition table rows are not permutations")
        return table

    def _integer_matrix(self, elements) -> tuple[int, list[tuple[int, ...]]]:
        """(D, M): elements as the columns of an integer matrix M of d rows
        over one denominator D, the lcm of theirs, so that column k over D
        is the k-th element."""
        elements = list(elements)
        den = lcm(*(x.den for x in elements))
        return den, list(zip(*([c * (den // x.den) for c in x.num] for x in elements)))

    # -- the integer-vector kernel -------------------------------------------

    def multiply(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        """a * b on integer d-vectors by the field's compiled kernel: d ints over reduction_den."""
        return self._product(a, b)

    def adjugate(self, num: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """(adj, n): adj the product of sigma_i(num) over i >= 2 times the
        positive int S = reduction_den^(d - 1) A_2 ... A_d, A_i the
        denominator of automorphism i, and multiply(num, adj) = (n, 0, ...,
        0).  So 1 / num = reduction_den adj / n and N(num) = n / (S
        reduction_den).  A nonzero num that gives no such nonzero n means P
        is reducible, and raises InvalidDescriptor."""
        adj = (1,) + (0,) * (self.degree - 1)
        for i in range(2, self.degree + 1):
            adj = self.multiply(adj, self.automorphism(i, num)[0])
        n, *rest = self.multiply(num, adj)
        if any(num) and (not n or any(rest)):
            raise InvalidDescriptor("nontrivial gcd with min_poly; descriptor is not a field")
        return adj, n

    def packing_width(self, terms: int, coefficients, vectors) -> int:
        """W for sums of at most terms products pack_matrices * pack_vectors:
        each digit sums at most terms * d products, so W - 1 = bit_length(terms
        d A B), A and B the largest |entry| of an M_a and of a y, holds it."""
        a = max((abs(x) for c in coefficients for e in self._units for x in self._product(c, e)), default=0)
        b = max((abs(x) for y in vectors for x in y), default=0)
        return (terms * self.degree * a * b).bit_length() + 1

    def pack_matrices(self, coefficients: Sequence[Sequence[int]], width: int) -> int:
        """The M_a of the coefficients at 2^width, column q multiply(a, X^q),
        in one-vector rows: row i of the l-th, reversed, ends at digit S(l d
        + i) + d - 1, S = 2d - 1, so that that digit of a product with
        pack_vectors of y is (M_a y)_i = multiply(a, y)_i."""
        d, slot = self.degree, 2 * self.degree - 1
        return sum(x << width * (slot * (l * d + i) + d - 1 - q)
                   for l, a in enumerate(coefficients) for q, e in enumerate(self._units)
                   for i, x in enumerate(self._product(a, e)))

    def pack_vectors(self, y: Sequence[int], width: int) -> int:
        """One vector y at 2^width: digit q is y[q]."""
        return sum(map(lshift, y, count(0, width)))

    def unpacker(self, matrices: int, width: int):
        """The reader of a sum of products of pack_matrices of that many
        coefficients and pack_vectors: its column i holds the sums of
        (M_{a_l} y)_i, over reduction_den, at l."""
        d, slot = self.degree, 2 * self.degree - 1
        bias = ((1 << width * slot * d * matrices) - 1) // ((1 << width) - 1) << width - 1
        columns = [[width * (slot * (l * d + i) + d - 1) for l in range(matrices)] for i in range(d)]
        mask, half = (1 << width) - 1, 1 << width - 1

        def unpack(packed: int) -> list[list[int]]:
            packed += bias  # 2^(width - 1) at every digit, so that none borrows
            return [[(packed >> s & mask) - half for s in shifts] for shifts in columns]
        return unpack

    def automorphism(self, i: int, num: Sequence[int]) -> tuple[list[int], int]:
        """sigma_i(num(alpha)), 1-based, as (r, A) meaning r / A.  The field
        stores sigma_i as an integer matrix: column k over A is
        sigma_i(alpha^k)."""
        self._check_index(i)
        den, rows = self._automorphism_matrices[i - 1]
        return [sum(map(mul, row, num)) for row in rows], den

    # -- basic structure ---------------------------------------------------

    def zero(self) -> "FieldElem":
        return _reduced(self, (0,) * self.degree, 1)

    def one(self) -> "FieldElem":
        return _reduced(self, (1,) + (0,) * (self.degree - 1), 1)

    def rational(self, c) -> "FieldElem":
        c = Fraction(c)
        return _reduced(self, (c.numerator,) + (0,) * (self.degree - 1), c.denominator)

    def from_integers(self, num: tuple[int, ...], den: int) -> "FieldElem":
        """The element num / den, for a tuple of d ints and den > 0."""
        return _reduced(self, num, den)

    def gen(self) -> "FieldElem":
        return self.elem([0, 1])

    def elem(self, coeffs: Iterable) -> "FieldElem":
        cs = pmod(poly(coeffs), self.min_poly)
        den = lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        return _reduced(self, tuple(num) + (0,) * (self.degree - len(num)), den)

    def compose(self, i: int, j: int) -> int:
        """1-based index of sigma_i o sigma_j."""
        self._check_index(i)
        self._check_index(j)
        return self._compose_table[i - 1][j - 1] + 1

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.degree:
            raise IndexError(f"automorphism/embedding index {i} outside 1..{self.degree}")

    # -- sign machinery ----------------------------------------------------

    def _halvings(self, idx0: int):
        """The (idx0+1)-th isolating interval, then its successive halves
        around P's sign change, at most _BISECTION_CAP of them, as ints
        (lo, hi, q) for [lo/q, hi/q], q doubling at each halving; (r, r, q)
        last if a midpoint r/q is the root itself."""
        lo, hi = self.embeddings[idx0]
        q = lcm(lo.denominator, hi.denominator)
        lo, hi = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
        p = self._pz
        below = _value(p, lo, q) < 0  # P's sign at lo, which every halving keeps
        for _ in range(_BISECTION_CAP):
            yield lo, hi, q
            mid, q = lo + hi, 2 * q
            v = _value(p, mid, q)
            if not v:
                yield mid, mid, q
                return
            if (v < 0) != below:
                lo, hi = 2 * lo, mid
            else:
                lo, hi = mid, 2 * hi
        raise InvalidDescriptor("sign bisection did not converge; is min_poly irreducible?")

    def _sign_at_poly(self, g: Poly, idx0: int) -> int:
        """Exact sign of g(alpha) under the (idx0+1)-th real embedding."""
        g = _integral(trim(g))
        if not g:
            return 0
        for lo, hi, q in self._halvings(idx0):
            vlo, vhi = interval_eval(g, lo, hi, q)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            if lo == hi:
                return 0  # g vanishes at the rational root

    # -- equality / presentation -------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldDescriptor) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FieldDescriptor(Q[{self.name}]/({render(self.min_poly)}))"


_set = object.__setattr__


def _reduced(field: FieldDescriptor, num: tuple, den: int) -> "FieldElem":
    """The element num / den (den > 0) in lowest terms; FieldElem's one constructor."""
    g = gcd(den, *num)
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    x = object.__new__(FieldElem)
    _set(x, "field", field)
    _set(x, "num", num)
    _set(x, "den", den)
    return x


class FieldElem:
    """A residue g(alpha) mod min_poly; immutable, hashable, exact.

    num is a tuple of d ints and den a positive int with
    gcd(num..., den) = 1: the power-basis coefficients are num[k] / den,
    and coeffs gives them as Fractions.
    """

    __slots__ = ("field", "num", "den")

    def __setattr__(self, *_):
        raise AttributeError("FieldElem is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other) -> "FieldElem | None":
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch("operands live in different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        if a == b:
            return _reduced(self.field, tuple(x + y for x, y in zip(self.num, o.num)), a)
        return _reduced(self.field, tuple(x * b + y * a for x, y in zip(self.num, o.num)), a * b)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.field, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        return _reduced(f, f.multiply(self.num, o.num), self.den * o.den * f.reduction_den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        """1 / x = den reduction_den adj / n for x = num / den, (adj, n) = f.adjugate(num)."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        adj, n = f.adjugate(self.num)
        scale = self.den * f.reduction_den if n > 0 else -self.den * f.reduction_den
        return _reduced(f, tuple(c * scale for c in adj), abs(n))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    # -- predicates ----------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        try:
            o = self._coerce(other)
        except FieldMismatch:
            return False
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.field, self.num, self.den))

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise FieldMismatch("element is not rational")
        return Fraction(self.num[0], self.den)

    # -- presentation ----------------------------------------------------------

    def __repr__(self) -> str:
        return render(list(self.coeffs), self.field.name)

    def to_json(self) -> str | list[str]:
        """A rational as one string, anything else as its coefficient list."""
        if self.is_rational():
            return format_rational(self.rational_value())
        return [format_rational(c) for c in self.coeffs]


# -- module-level operations (the public surface) ------------------------------


def apply_automorphism(x: FieldElem, i: int) -> FieldElem:
    """sigma_i(x), 1-based; sigma_1 is the identity."""
    out, den = x.field.automorphism(i, x.num)
    return _reduced(x.field, tuple(out), x.den * den)


def norm(x: FieldElem) -> Fraction:
    """Field norm down to Q: the product of the d conjugates sigma_i(x),
    taken with the certified automorphisms.  Over Q it is x itself."""
    f = x.field
    scale = prod(den for den, _ in f._automorphism_matrices)  # A_1 = 1
    return Fraction(f.adjugate(x.num)[1], scale * (f.reduction_den * x.den) ** f.degree)


def sign_at_embedding(x: FieldElem, i: int) -> int:
    """Sign of x under the i-th real embedding: -1, 0 or +1; exact.  It is
    the sign of the numerator vector, since den > 0."""
    x.field._check_index(i)
    return x.field._sign_at_poly(list(x.num), i - 1)


# -- stock fields ---------------------------------------------------------------


def rational_field() -> FieldDescriptor:
    """Q itself, as the degree-1 field with min_poly X (generator 0)."""
    return FieldDescriptor([0, 1], [[0, 1]], [(Fraction(-1, 2), Fraction(1, 2))], name="r")


RATIONAL_FIELD = rational_field()


def quadratic_field(m) -> FieldDescriptor:
    """Q(sqrt(m)) for a positive non-square integer m.

    The distinguished place sends the generator to the positive root, so it
    is listed first; the second interval isolates -sqrt(m) and pairs with
    the conjugation automorphism.
    """
    m = Fraction(m)
    if m.denominator != 1 or m <= 0:
        raise InvalidDescriptor("quadratic_field wants a positive integer")
    mi = m.numerator
    r = isqrt(mi)
    if r * r == mi:
        raise InvalidDescriptor(f"{mi} is a perfect square; X^2 - {mi} is reducible")
    return FieldDescriptor(
        [-mi, 0, 1],
        [[0, 1], [0, -1]],
        [(r, r + 1), (-r - 1, -r)],
        name=f"sqrt{mi}",
    )


def cyclic_cubic_field() -> FieldDescriptor:
    """The cyclic cubic field Q[X]/(X^3 - 3X - 1), discriminant 81.

    Automorphisms: X, 2 - X^2, X^2 - X - 2.  The distinguished place is the
    smallest root (~ -1.53); the listed interval order is automorphism-
    compatible for this choice.
    """
    return FieldDescriptor(
        [-1, -3, 0, 1],
        [[0, 1], [2, 0, -1], [-2, -1, 1]],
        [(-2, -1), (-1, 0), (1, 2)],
    )


# -- JSON (de)serialization -------------------------------------------------------


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_rational(value, key: str) -> Fraction:
    """Accept ints and [+-]digits[/digits] strings; reject floats, and the decimal
    and exponent strings Fraction takes: "1e2000000" is short but huge (exactness contract)."""
    if isinstance(value, bool):
        raise MalformedInput(f"key {key!r}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value):
                raise ValueError(value)
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"key {key!r}: cannot parse rational {value!r}") from exc
    raise MalformedInput(f"key {key!r}: expected int or 'p/q' string, got {type(value).__name__}")


def field_to_json_dict(f: FieldDescriptor) -> dict:
    return {
        "min_poly": [format_rational(c) for c in f.min_poly],
        "automorphisms": [
            [format_rational(c) for c in a] if a else ["0"] for a in f.automorphisms
        ],
        "embeddings": [[format_rational(lo), format_rational(hi)] for lo, hi in f.embeddings],
        "name": f.name,
    }


def field_from_json_dict(doc: dict) -> FieldDescriptor:
    if not isinstance(doc, dict):
        raise MalformedInput("field descriptor must be a JSON object")
    if "quadratic_d" in doc:
        m = parse_rational(doc["quadratic_d"], "quadratic_d")
        try:
            return quadratic_field(m)
        except InvalidDescriptor as exc:
            raise MalformedInput(f"key 'quadratic_d': {exc}") from exc
    for key in ("min_poly", "automorphisms", "embeddings"):
        if key not in doc:
            raise MalformedInput(f"field descriptor is missing key {key!r}")
        if not isinstance(doc[key], list):
            raise MalformedInput(f"key {key!r}: expected a list")
    if len(doc["min_poly"]) > MAX_DEGREE + 1:  # before any O(d^3) set-up
        raise MalformedInput(f"key 'min_poly': degree must be at most {MAX_DEGREE}")
    if not all(isinstance(a, list) for a in doc["automorphisms"]):
        raise MalformedInput("key 'automorphisms': each entry must be a list")
    min_poly = [parse_rational(c, "min_poly") for c in doc["min_poly"]]
    autos = [[parse_rational(c, "automorphisms") for c in a] for a in doc["automorphisms"]]
    embs = []
    for pair in doc["embeddings"]:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise MalformedInput("key 'embeddings': each entry must be [lo, hi]")
        embs.append((parse_rational(pair[0], "embeddings"), parse_rational(pair[1], "embeddings")))
    name = doc.get("name", "a")
    if not isinstance(name, str):
        raise MalformedInput("key 'name': expected a string")
    try:
        return FieldDescriptor(min_poly, autos, embs, name=name)
    except (InvalidDescriptor, NonGaloisField) as exc:
        raise MalformedInput(f"invalid field descriptor: {exc}") from exc
