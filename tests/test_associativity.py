"""The associativity sweep against a Fraction oracle, with negative controls.

The oracle is the sweep as it was first written, on plain Fraction
coefficient lists: every product is the reference pmod(pmul(a, b), P) of
fraction_reference.py, so it shares nothing with the integer sweep in
csa.check_associativity (and the FieldDescriptor kernel it runs on, which
FieldElem multiplication shares) but the table.  It reads a cell of either
form: a StructureAlgebra's one monomial, or an EntriesTable's list.  Over
Q, Q(sqrt 2), Q(sqrt 5) and the cyclic cubic the oracle must accept the
tables the pipeline builds (C0, Z(A) and the fixed algebra, whose table
fixed_table builds from its blocks) and a quaternion table whose constants
have unequal denominators, and it must reject each of them once one
structure constant is perturbed; so must the sweep, on every table but the
fixed algebra, which is not one monomial per cell and is never swept.  The
sweep checks only the triples (i, j, g) with g in a generating set, so the
triple it names must be one where the oracle fails too, with g a
generator.  The generating set has an oracle of its own, a greedy search
on Fraction lists whose spans are kernel_oracle.rref's, and two more
controls: monomial tables whose failing triples all have a third index
outside the first generators, or only at the one generator.  A property
test draws Clifford tables of (Z/2)^r, r <= 3, some with one constant
negated, and asks the sweep and the oracle to agree on them.  The
rejections are run once more under python -O, where an assert-based sweep
would vanish, together with the other certificates that must fire in that
mode too: the refusal of a zero cell, the unit law (a wrong unit, and on
the fixed algebra's blocks a nudged unit coordinate, an extra term and a
flipped sign), the action certification of Z(A)'s slots and moves
(corrupted monomial moves, a move that is not a bijection, a corrupted
slot cell), the one walk of the slots' shape, in invariants (a slot cell
zeroed after construction, a group algebra whose slots do not commute up
to sign, and slot 0 or slot 1 with a zero coefficient, a repeated or an
exchanged monomial, or a side scaled), the fixed algebra built from Z(A)
(rotated moves whose orbits miss the dimension or do not partition the
monomials), the closure test of the fixed algebra (a corrupted slot
coefficient, and a nudged digit in the last free column over the cubic),
the readout checksum of the fixed
algebra at dim 64 (a pivot digit nudged in a late sum, and a packing width
too narrow, both of which the closure tests pass), the congruence
certificate P^T G P (once with the certificate's products zeroed, once
with one off-diagonal product nonzero, once on the Q Gram blocks of a
trace form with inexact divisions), the quaternion presentation of C0
(entries that do not match C0, and each of its four cells doubled after
the sweep), the orbit sums of even_weight_orbits, the two claims of
six_lines_family, the center count, which reads B alone (a fixed algebra
whose central basis element no longer commutes, one whose orbit block
is no longer symmetric), and the trace form, which reads its Gram
matrix off the unit coordinate only per orbit (a group algebra whose
orbits multiply to u_0).  Z(A)'s
tables here are kernel_oracle.oracle_tensor's, built from its slots.
"""

import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksalgebra import clifford, csa, pipeline, qform
from ksalgebra.brauer import QuaternionSymbol
from ksalgebra.clifford import even_part
from ksalgebra.csa import (
    FixedAlgebra,
    StructureAlgebra,
    build_ZG,
    check_associativity,
    invariants,
)
from ksalgebra.errors import (
    CertificateFailure,
    DimensionMismatch,
    ExactAlgebraError,
    NotAssociative,
    NotClosedUnderMultiplication,
)
from ksalgebra.exactfield import RATIONAL_FIELD, FieldDescriptor, cyclic_cubic_field, quadratic_field

import fraction_reference as ref
from blade_reference import Blades
from entries_table import EntriesTable, entries
from fixed_table import fixed_table
from kernel_oracle import oracle_tensor, rref
from quartic_fields import biquadratic_field, cyclic_quartic_field
from quaternion_table import quaternion_table
from test_acceptance import TRIPLES

FIELDS = ("Q", "Q(sqrt 2)", "Q(sqrt 5)", "cubic")


def oracle_fails_at(field, table, i: int, j: int, k: int) -> bool:
    """Whether (u_i u_j) u_k != u_i (u_j u_k) in the integer table (cells
    of either form over one denominator, which scales both sides alike),
    computed on Fraction coefficient lists."""

    def side(cell, rows) -> dict:
        out = {}
        for t, c in entries(cell):
            for s, c2 in entries(rows(t)):
                v = ref.mul(field, c, c2)  # trim makes Fraction lists of both
                out[s] = ref.add(out[s], v) if s in out else v
        return {s: v for s, v in out.items() if any(v)}

    return side(table[i][j], lambda t: table[t][k]) != side(table[j][k], lambda t: table[i][t])


def oracle_associativity_failure(field, table) -> tuple | None:
    """First basis triple (i, j, k), in the order of a sweep over all
    triples, at which the oracle finds associativity failing; None if
    none."""
    n = len(table)
    return next(
        ((i, j, k) for i in range(n) for j in range(n) for k in range(n) if oracle_fails_at(field, table, i, j, k)),
        None,
    )


@lru_cache(maxsize=None)
def tables(name: str) -> dict:
    """The C0, Z(A) and fixed-algebra tables of one field, and the
    quaternion table (1/2 + a, 2/3 + a/5), whose constants need the common
    denominator (over Q it is (1/2, 2/3)).  Z(A) is kernel_oracle's
    oracle_tensor table of the slots.

    Over Q(sqrt d) the first three come from the six-lines family form
    diag(a, a, a - d) with c = 1.  Over the cubic, Z(A) and the fixed
    algebra come from a rank-2 form (dim 8): the rank-3 Z(A) has dim 64,
    too big for the oracle in a unit test.
    """
    if name == "Q":
        f = RATIONAL_FIELD
        rank3 = [f.rational(1), f.rational(2), f.rational(-3)]
        small = rank3
    elif name == "cubic":
        f = cyclic_cubic_field()
        a = f.gen()
        rank3 = [a, a, a - 1]
        small = [a, a - 1]
    else:
        d = int(name[len("Q(sqrt "):-1])
        f = quadratic_field(d)
        a = f.gen()
        rank3 = small = [a, a, a - d]
    c0 = even_part(f, rank3)
    z = build_ZG(c0 if small is rank3 else even_part(f, small), f)
    symbol = QuaternionSymbol(
        f.elem([Fraction(1, 2), 1]), f.elem([Fraction(2, 3), Fraction(1, 5)])
    )
    return {
        "C0": c0,
        "Z(A)": oracle_tensor(z.field, z.slots),
        "fixed": fixed_table(invariants(z)),
        "symbol": quaternion_table(symbol),
    }


def scaled_by(field, den: int, v: tuple, factor) -> tuple:
    """The stored integer vector v times the field element factor, over
    the table's denominator den (factor has integer coordinates, and the
    fields here reduce over denominator 1)."""
    p = field.from_integers(v, den) * factor
    return tuple(x * den // p.den for x in p.num)


def perturbed(alg) -> list:
    """A copy of the stored integer table with its first constant beyond
    the unit row and column (i, j >= 1) multiplied by 2 + alpha (by 2 over
    Q): at (1, 1) in a StructureAlgebra, where no cell is zero."""
    out = [list(row) for row in alg.table]
    i, j = next((i, j) for i in range(1, alg.dim) for j in range(1, alg.dim) if out[i][j])
    (k, v), *rest = entries(out[i][j])
    cell = k, scaled_by(alg.field, alg.den, v, alg.field.elem([2, 1]))
    out[i][j] = [cell, *rest] if isinstance(alg, EntriesTable) else cell
    return out


def build_perturbed(alg: StructureAlgebra) -> StructureAlgebra:
    return StructureAlgebra(alg.field, perturbed(alg), den=alg.den)


@pytest.mark.parametrize("name", FIELDS)
def test_sweep_and_oracle_accept_the_pipeline_tables(name):
    for label, alg in tables(name).items():
        assert oracle_associativity_failure(alg.field, alg.table) is None, label
        if isinstance(alg, StructureAlgebra):
            check_associativity(alg.field, alg.table)


def named_triple(exc: NotAssociative) -> tuple[int, int, int]:
    """The triple (i, j, g) a NotAssociative message names."""
    return tuple(int(x) for x in re.search(r"\((\d+),(\d+),(\d+)\)", str(exc)).groups())


@pytest.mark.parametrize("name", FIELDS)
def test_sweep_and_oracle_reject_a_perturbed_table_at_the_same_triple(name):
    # the sweep checks the triples (i, j, g) for g a certified generator
    # only, so the triple it names need not be the oracle's first failure
    # over all n^3 triples; the oracle must fail at the triple it names.
    # The fixed algebra, an EntriesTable, is checked by the oracle alone
    for label, alg in tables(name).items():
        bad = perturbed(alg)
        assert oracle_associativity_failure(alg.field, bad) is not None, (
            f"{label}: the oracle accepts the perturbed table"
        )
        if isinstance(alg, EntriesTable):
            continue
        with pytest.raises(NotAssociative) as caught:
            check_associativity(alg.field, bad)
        i, j, g = named_triple(caught.value)
        assert g in csa._generators(bad), label
        assert oracle_fails_at(alg.field, bad, i, j, g), label
    with pytest.raises(NotAssociative):
        build_perturbed(tables(name)["C0"])


def monomial_table(products) -> list:
    """The dim-4 Q-table with unit u_0 and u_i u_j = u_k, k =
    products[i - 1][j - 1], for i, j >= 1: every cell one monomial."""
    return [[(t, (1,)) for t in range(4)]] + [[(i, (1,))] + [(k, (1,)) for k in row]
                                              for i, row in enumerate(products, 1)]


# monomial tables that fail associativity at a generator the sweep finds
# late, or only at the one generator: (label, products of monomial_table,
# the generators, every failing triple).  In the first, every product of
# u_1, u_2, u_3 is u_2 but u_1 u_1 = u_0 and u_3 u_1 = u_3: u_0, u_1, u_2
# span a subalgebra, and (u_1 u_1) u_3 = u_3 while u_1 (u_1 u_3) = u_2,
# so the sweep must take u_3 as a generator too.  In the second u_1
# generates, as u_1 u_1 = u_2 and u_2 u_1 = u_3, and is the only third
# index that fails: (u_1 u_1) u_1 = u_3 while u_1 (u_1 u_1) = u_2
NUCLEUS_TABLES = (
    ("late generator", ((0, 2, 2), (2, 2, 2), (3, 2, 2)), [1, 2, 3], [(1, 1, 3)]),
    ("one generator", ((2, 2, 3), (3, 2, 3), (2, 2, 3)), [1], [(1, 1, 1), (3, 1, 1)]),
)


@pytest.mark.parametrize("label, products, gens, failing", NUCLEUS_TABLES, ids=[c[0] for c in NUCLEUS_TABLES])
def test_a_failure_at_one_generator_only_is_found(label, products, gens, failing):
    table = monomial_table(products)
    n = len(table)
    assert [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
            if oracle_fails_at(RATIONAL_FIELD, table, i, j, k)] == failing
    assert csa._generators(table) == gens
    with pytest.raises(NotAssociative, match=re.escape("({},{},{})".format(*failing[0]))):
        StructureAlgebra(RATIONAL_FIELD, table)


def clifford_table(f, diagonal, flip) -> list:
    """The integer table of the Clifford algebra of diag(diagonal) over f,
    the twisted group algebra of (Z/2)^r with the Clifford cocycle, over
    the constants' common denominator; flip, if not None, is a cell (i, j)
    whose constant is negated."""
    c = Blades(f, diagonal)
    products = [[c.blade_product(s, t) for t in range(c.dim)] for s in range(c.dim)]
    den = lcm(*(x.den for row in products for x, _ in row))
    table = [[(k, tuple([y * (den // x.den) for y in x.num])) for x, k in row] for row in products]
    if flip is not None:
        k, v = table[flip[0]][flip[1]]
        table[flip[0]][flip[1]] = k, tuple([-y for y in v])
    return table


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_monomial_sweep_agrees_with_the_oracle(data):
    # Clifford tables of (Z/2)^r over Q and Q(sqrt 2), one constant beyond
    # the unit row and column negated in some draws: the sweep raises
    # exactly when the oracle finds a failing triple, at one where the
    # oracle fails, with g a generator, and its generators are the
    # reference's
    f = data.draw(st.sampled_from([RATIONAL_FIELD, quadratic_field(2)]), label="field")
    r = data.draw(st.integers(1, 3), label="r")
    coefficients = st.lists(st.integers(-4, 4), min_size=f.degree, max_size=f.degree).filter(any)
    diagonal = [f.elem(data.draw(coefficients, label="a_i")) for _ in range(r)]
    cell = st.integers(1, 2 ** r - 1)
    table = clifford_table(f, diagonal, data.draw(st.none() | st.tuples(cell, cell), label="flip"))
    gens = csa._generators(table)
    assert gens == reference_generators(f, table)[0]
    if oracle_associativity_failure(f, table) is None:
        check_associativity(f, table)
        return
    with pytest.raises(NotAssociative) as caught:
        check_associativity(f, table)
    i, j, g = named_triple(caught.value)
    assert g in gens and oracle_fails_at(f, table, i, j, g)


@lru_cache(maxsize=None)
def swept_tables(case) -> dict:
    """The tables of one case, built and swept once for every test here.
    An int m gives C0 of diag(1, ..., m) over Q; an acceptance triple
    (d, c, e) gives C0 of diag(a, a, c a - d) over Q(sqrt d), its Z(A)
    (the oracle_tensor table of the slots) and its fixed algebra B."""
    if isinstance(case, int):
        return {"C0": even_part(RATIONAL_FIELD, list(range(1, case + 1)))}
    d, c, e = case
    f = quadratic_field(d)
    a = f.gen()
    c0 = even_part(f, [a, a, c * a - d])
    z = build_ZG(c0, f)
    return {"C0": c0, "Z(A)": oracle_tensor(z.field, z.slots), "B": fixed_table(invariants(z))}


@pytest.mark.parametrize("d, c, e", TRIPLES)
def test_generator_counts_on_the_acceptance_triples(d, c, e):
    # C0 and Z(A) are swept on 2 and 4 generators; B, never swept, passes the oracle
    built = swept_tables((d, c, e))
    assert [len(csa._generators(built[label].table)) for label in ("C0", "Z(A)")] == [2, 4]
    assert oracle_associativity_failure(RATIONAL_FIELD, built["B"].table) is None


def test_rank_m_c0_over_Q_takes_m_minus_1_generators():
    for m in range(3, 10):
        c0 = swept_tables(m)["C0"]
        gens = csa._generators(c0.table)
        assert len(gens) == m - 1, m
    # the rank-9 sweep: 256^2 * 8 triples instead of 256^3 = 16,777,216
    assert c0.dim ** 2 * len(gens) == 524_288


def reference_generators(field, table) -> tuple[list[int], int]:
    """The greedy generators of an integer table, on Fraction coefficient
    lists, and the dimension over E of the span of the words in them.

    A vector is the Q-coordinates of an E-combination of the u_t, with
    alpha^l u_t at t d + l, kept as {index: Fraction}; the E-span of words
    is the Q-span of the alpha^l w.  Right multiplication by u_g is
    E-linear, and its images of that Q-basis are built with
    fraction_reference.mul.  The span is kept as blocks of
    kernel_oracle.rref rows, each block's rows 0 at the pivots of the
    blocks before it, so a vector is reduced block by block.  The span of
    the words in gens is E u_0 grown in rounds: the new rows of a round,
    times every generator (after a generator is added, the whole span
    times it alone), reduced, and the RREF of what is left is the next
    block.  Each generator is the smallest u_k, k >= 1, with a nonzero
    residual.  The table's denominator scales every product alike, so it
    is dropped.  Nothing here runs on linalg or the FieldDescriptor
    kernel.
    """
    n, d = len(table), field.degree
    zero, one = Fraction(0), Fraction(1)
    right = {}  # g -> the image of alpha^l u_t at t d + l

    def times(v: dict, g: int) -> dict:
        if g not in right:
            right[g] = [
                {s * d + m: x for s, a in entries(table[t][g]) for m, x in enumerate(ref.mul(field, [0] * l + [1], a)) if x}
                for t in range(n) for l in range(d)
            ]
        out: dict = {}
        for i, x in v.items():
            for j, y in right[g][i].items():
                out[j] = out.get(j, zero) + x * y
        return out

    blocks: list[dict] = []  # pivot -> row

    def residual(v: dict) -> dict:
        v = dict(v)
        for block in blocks:
            for p, row in block.items():
                x = v.get(p)
                if x:
                    for i, y in row.items():
                        v[i] = v.get(i, zero) - x * y
        return {i: x for i, x in v.items() if x}

    def add_block(vectors: list) -> list:
        rows, pivots = rref([[v.get(i, zero) for i in range(n * d)] for v in vectors])
        blocks.append({p: {i: x for i, x in enumerate(row) if x} for p, row in zip(pivots, rows)})
        return list(blocks[-1].values())

    spanned = len(add_block([{l: one} for l in range(d)]))
    gens: list[int] = []
    for k in range(1, n):
        if spanned == n * d:
            break
        if not residual({k * d: one}):
            continue
        gens.append(k)
        new, gs = [row for block in blocks for row in block.values()], [k]
        while rest := [r for r in (residual(times(v, g)) for v in new for g in gs) if r]:
            new, gs = add_block(rest), gens
            spanned += len(new)
    return gens, spanned // d


def generation_cases():
    """(label, field, integer table) of every table the generator search
    is checked on against reference_generators."""
    for d, c, e in TRIPLES:
        built = swept_tables((d, c, e))
        f = built["C0"].field
        a = f.gen()
        symbol = quaternion_table(clifford.even_rank3_to_symbol(built["C0"], [a, a, c * a - d]))
        for label, alg in (("C0", built["C0"]), ("Z(A)", built["Z(A)"]), ("quaternions", symbol)):
            yield f"{d, c, e} {label}", f, alg.table
    q2, cubic = quadratic_field(2), cyclic_cubic_field()
    quartic, biquadratic = cyclic_quartic_field(), biquadratic_field()
    r2, x, y, search = q2.gen(), quartic.gen(), biquadratic.gen(), pipeline.search_cubic_diagonal(cubic)
    for label, f, entries in (
        ("rank4", q2, [r2, r2, r2 - 2, r2 - 2]),
        ("cubic search", cubic, [search.entries[i][i] for i in range(search.dim)]),
        ("cyclic quartic rank 2", quartic, [x, x - 1]),
        ("biquadratic rank 2", biquadratic, [y, y - 2]),
    ):
        z = build_ZG(even_part(f, entries), f)
        yield f"{label} Z(A)", f, oracle_tensor(z.field, z.slots).table
    for m in range(3, 10):
        yield f"Q rank {m} C0", RATIONAL_FIELD, swept_tables(m)["C0"].table
    for label, products, _, _ in NUCLEUS_TABLES:
        yield f"nucleus table, {label}", RATIONAL_FIELD, monomial_table(products)
    for i, j in ((1, 2), (2, 1)):
        yield f"u_{i} u_{j} = u_3", RATIONAL_FIELD, one_product_table(i, j)


def one_product_table(i: int, j: int) -> list:
    """The dim-4 Q-table, u_0 the unit, whose only product of u_1, u_2, u_3
    off u_0 is u_i u_j = u_3 for (i, j) = (1, 2) or (2, 1): generated by u_1
    and u_2 but by neither alone.  u_3 is only a word that multiplies a
    row found before u_2 by u_2, for (1, 2), or the row u_2 by the earlier
    generator u_1, for (2, 1); a closure that skips either product takes
    u_3 as a third generator."""
    return monomial_table([[3 if (a, b) == (i, j) else 0 for b in range(1, 4)] for a in range(1, 4)])


def test_generators_match_the_fraction_reference():
    for label, field, table in generation_cases():
        gens, spanned = reference_generators(field, table)
        assert spanned == len(table), label
        assert csa._generators(table) == gens, label


def build_with_wrong_unit() -> None:
    """The quaternion table over Q with u_0 u_0 = 2 u_0."""
    h = tables("Q")["symbol"]
    table = [list(row) for row in h.table]
    table[0][0] = 0, (2 * h.den,)
    StructureAlgebra(h.field, table, den=h.den)


def small_zg(name: str):
    """Z(A) over Q(sqrt 2) (the family form), or over the cubic or the
    cyclic quartic (a rank-2 form)."""
    f = {
        "Q(sqrt 2)": lambda: quadratic_field(2),
        "cubic": cyclic_cubic_field,
        "cyclic quartic": cyclic_quartic_field,
    }[name]()
    a = f.gen()
    entries = [a, a, a - 2] if name == "Q(sqrt 2)" else [a, a - 1]
    return build_ZG(even_part(f, entries), f)


def corrupted_moves(name: str):
    """small_zg(name) with the images of monomials 1 and 2 under sigma_2
    exchanged after construction."""
    z = small_zg(name)
    moves = z.moves[2]
    moves[1], moves[2] = moves[2], moves[1]
    return z


def corrupted_coefficient(name: str):
    """small_zg(name) with u_0 u_1 = u_1 = u_1 u_0 of slot s, both cells,
    scaled by alpha in the stored integer table after construction, s = 1
    over the cyclic quartic and s = 0 otherwise, so that the two still
    agree and the slot signs pass.  That scales the products u_0 u_t and
    u_t u_0 of Z(A) whose digit s is 1.  The basis element at u_0 is u_0,
    so its product with a basis element at such a u_t has the coefficient
    alpha c at u_t, c in E^H, outside E^H.  The first such product
    invariants reads lies over Q(sqrt 2) and the cubic at a monomial every
    automorphism fixes, E^H = Q, where coordinate 1 no longer vanishes;
    over the quartic at one whose stabiliser H has order 2, E^H =
    Q(alpha^2), where only the closure test at its free columns can see
    it."""
    z = small_zg(name)
    table, den = z.slots[1 if name == "cyclic quartic" else 0]
    for i, j in ((0, 1), (1, 0)):
        k, v = table[i][j]
        table[i][j] = k, scaled_by(z.field, den, v, z.field.gen())
    return z


# the fields whose corrupted_coefficient invariants must reject
CORRUPTED_COEFFICIENTS = ("Q(sqrt 2)", "cubic", "cyclic quartic")


def dim64_zg(name: str):
    """Z(A) of the rank-4 diag(a, a, a - 2, a - 2) over Q(sqrt 2), or of
    the cubic search form: dim 64."""
    if name == "Q(sqrt 2) rank 4":
        f = quadratic_field(2)
        a = f.gen()
        entries = [a, a, a - 2, a - 2]
    else:
        f = cyclic_cubic_field()
        form = pipeline.search_cubic_diagonal(f)
        entries = [form.entries[i][i] for i in range(form.dim)]
    z = build_ZG(even_part(f, entries), f)
    assert z.dim == 64
    return z


def invariants_with_a_nudged_digit(name: str, column: int, read: int = 0) -> FixedAlgebra:
    """invariants of dim64_zg(name) with FieldDescriptor.unpacker adding 1
    to the given coordinate of the sum read at the given position, the
    first by default.  That sum is u_0 u_0 at monomial 0, which every move
    fixes, so E^H = Q there: coordinate 0, its one pivot, is e_0 e_0, which
    the unit law must find to be e_0, and coordinates 1..d-1, its free
    columns, must vanish.  A pivot coordinate of a later sum is seen by the
    readout checksum alone."""
    z = dim64_zg(name)
    real, reads = FieldDescriptor.unpacker, []

    def unpacker(field, *args):
        unpack = real(field, *args)

        def nudge(packed):
            columns = unpack(packed)
            reads.append(True)
            if len(reads) == read + 1:
                columns[column][0] += 1
            return columns
        return nudge

    FieldDescriptor.unpacker = unpacker
    try:
        return invariants(z)
    finally:
        FieldDescriptor.unpacker = real


# the dim-64 cases and free columns whose invariants_with_a_nudged_digit
# must reject; over the cubic column 2 is the last free one
NUDGED_DIGITS = (("Q(sqrt 2) rank 4", 1), ("cubic search form", 1), ("cubic search form", 2))

# the dim-64 cases whose fixed algebra, with the pivot coordinate of its
# 40th sum read nudged, passes the closure tests and the unit law, so that
# the readout checksum must reject it
LATE_NUDGES = ("Q(sqrt 2) rank 4", "cubic search form")


def invariants_at_width(z, width: int) -> FixedAlgebra:
    """invariants(z) with FieldDescriptor.packing_width giving width."""
    real = FieldDescriptor.packing_width
    FieldDescriptor.packing_width = lambda field, *args: width
    try:
        return invariants(z)
    finally:
        FieldDescriptor.packing_width = real


# the dim-64 cases and a width short of packing_width's (18 and 10) at
# which the closure tests and the unit law pass a wrong readout, so that
# the readout checksum must reject it
NARROW_WIDTHS = (("cubic search form", 14), ("Q(sqrt 2) rank 4", 7))

CHECKSUM_FAILURE = "readout checksum fails at column 0"


def certify_corrupted_action() -> None:
    corrupted_moves("Q(sqrt 2)")._check_actions()


def rotated_moves(triple):
    """small_zg("Q(sqrt 2)") with the images of monomials a, b, c under
    sigma_2 rotated after construction: a takes b's image, b takes c's and
    c takes a's."""
    z = small_zg("Q(sqrt 2)")
    moves, (a, b, c) = z.moves[2], triple
    moves[a], moves[b], moves[c] = moves[b], moves[c], moves[a]
    return z


# invariants(rotated_moves(triple)): the error and its message.  Under
# (1, 2, 9) the dimensions still add up to 16, but monomial 4 lies in no
# orbit and another monomial in two
ROTATED_MOVES = (
    ((1, 2, 9), CertificateFailure, "the orbits do not cover each monomial exactly once"),
    ((1, 2, 4), DimensionMismatch, "invariant dimension 15, expected 16"),
)


def certify_a_move_that_is_not_a_bijection() -> None:
    """small_zg("Q(sqrt 2)") with sigma_2 sending monomial 1 where it sends monomial 0."""
    z = small_zg("Q(sqrt 2)")
    z.moves[2][1] = z.moves[2][0]
    z._check_actions()


def dual_numbers_as_a_table() -> None:
    """Q[x]/(x^2) given as a table: its u_1 u_1 = 0 is no monomial."""
    StructureAlgebra(RATIONAL_FIELD, [[(0, (1,)), (1, (1,))], [(1, (1,)), (0, (0,))]])


def invariants_of_zeroed_dual_numbers() -> None:
    """invariants of build_ZG of Q(sqrt 2)[x]/(x^2 - 2) with u_1 u_1 of
    slot 0, A's own table, zeroed after construction: the dual numbers,
    which no table can hold.  Construction certified the action on the
    algebra as built, and invariants' slot walk rejects the shape."""
    f = quadratic_field(2)
    one = f.one()
    z = build_ZG(csa.monomial_algebra(f, [[(0, one), (1, one)], [(1, one), (0, f.rational(2))]]), f)
    table, _ = z.slots[0]
    table[1][1] = 0, (0, 0)
    invariants(z)


def invariants_of_a_group_algebra() -> None:
    """invariants of build_ZG of the group algebra Q(sqrt 2)[S_3], its basis
    the permutations of 0, 1, 2 in itertools order: u_1 and u_2 are
    transpositions that do not commute, so the slots lack the shape every
    reader of Z(A) needs."""
    f = quadratic_field(2)
    group = list(permutations(range(3)))
    cells = [[(group.index(tuple(p[x] for x in q)), f.one()) for q in group] for p in group]
    invariants(build_ZG(csa.monomial_algebra(f, cells), f))


def certify_a_corrupted_slot() -> None:
    """small_zg("Q(sqrt 2)") with u_1 u_2 and u_2 u_1 of slot 1 doubled
    after construction, so that the two still differ by a sign and the
    slot shapes pass: sigma_2 no longer takes slot 0 to slot 1."""
    z = small_zg("Q(sqrt 2)")
    table, _ = z.slots[1]
    for i, j in ((1, 2), (2, 1)):
        k, v = table[i][j]
        table[i][j] = k, tuple(x + x for x in v)
    z._check_actions()


# invariants(z) of a corrupted z: the error and its message, per field
CORRUPTED_INVARIANTS = (
    ("Q(sqrt 2)", NotClosedUnderMultiplication, "product leaves the fixed subspace"),
    ("cubic", CertificateFailure, "basis element at monomial 1 is not fixed"),
)


def diagonalize_with_broken_certificate() -> None:
    """diag(a, a, a - 2) over Q(sqrt 2) with P_int^T G P_int computed as zero."""
    f = quadratic_field(2)
    a = f.gen()
    form = qform.GramForm.diagonal(f, [a, a, a - 2])
    real = qform._congruence_products
    qform._congruence_products = lambda field, matrix, cols: [[(0,) * field.degree] * len(cols) for _ in cols]
    try:
        qform.diagonalize(form)
    finally:
        qform._congruence_products = real


def diagonalize_with_an_off_diagonal_product() -> None:
    """diag(a, a, a - 2) over Q(sqrt 2) with P_int^T G P_int computed right
    on the diagonal but 1 at (0, 1)."""
    f = quadratic_field(2)
    a = f.gen()
    real = qform._congruence_products

    def products(field, matrix, cols):
        out = real(field, matrix, cols)
        out[0][1] = (1,) + (0,) * (field.degree - 1)
        return out

    qform._congruence_products = products
    try:
        qform.diagonalize(qform.GramForm.diagonal(f, [a, a, a - 2]))
    finally:
        qform._congruence_products = real


def trace_form_of_a_cyclic_group_algebra() -> None:
    """The trace form of the fixed algebra of Z(A) for the group algebra
    Q(sqrt 2)[C_3]: its slots have the shape the readers need, but u_1 u_2
    = u_0 in a slot, so the monomials (1, 0) and (2, 0), in the orbits of
    u_1 and u_2, multiply to u_0 across two orbits."""
    f = quadratic_field(2)
    z = build_ZG(csa.monomial_algebra(f, [[((p + q) % 3, f.one()) for q in range(3)] for p in range(3)]), f)
    csa.trace_form_signature(invariants(z))


def trace_form_with_a_wrong_division() -> None:
    """The trace form of the fixed algebra over Q(sqrt 2), whose Gram
    blocks over Q are eliminated with the norm of each pivot but the last
    taken one too large, so that the exact divisions floor."""
    z = small_zg("Q(sqrt 2)")
    b = invariants(z)
    q = RATIONAL_FIELD
    real = q.adjugate
    q.adjugate = lambda num: (real(num)[0], real(num)[1] + 1)
    try:
        csa.trace_form_signature(b)
    finally:
        del q.adjugate


def symbol_with_broken_relation() -> None:
    """C0 of diag(1, 2, -3) over Q checked against the entries (1, 2, 3),
    whose symbol has the second slot negated."""
    f = RATIONAL_FIELD
    c0 = even_part(f, [1, 2, -3])
    clifford.even_rank3_to_symbol(c0, [f.rational(x) for x in (1, 2, 3)])


def symbol_of_a_corrupted_c0(i: int, j: int) -> None:
    """C0 of diag(1, 2, -3) over Q with u_i u_j doubled after construction
    (and so after its sweep)."""
    f = RATIONAL_FIELD
    c0 = even_part(f, [1, 2, -3])
    k, v = c0.table[i][j]
    c0.table[i][j] = k, tuple(x + x for x in v)
    clifford.even_rank3_to_symbol(c0, [f.rational(x) for x in (1, 2, -3)])


def orbits_under_a_broken_action(d: int) -> None:
    """even_weight_orbits for the cyclic group of degree d with the action
    on vectors replaced by one that flips the first entry under every
    non-identity permutation: for d = 3 an orbit has size 2 in a group of
    order 3, for d = 2 the orbit sizes add up to 4."""
    real = pipeline._act_on_vector

    def flip(perm, vec):
        return vec if list(perm) == sorted(perm) else (1 - vec[0],) + vec[1:]

    pipeline._act_on_vector = flip
    try:
        pipeline.even_weight_orbits(d, pipeline.cyclic_generators(d), d)
    finally:
        pipeline._act_on_vector = real


def family_without_symbol_route() -> None:
    """six_lines_family(2, 1, 1) with a first slot that never becomes rational."""
    real = pipeline._rationalize_first_slot
    pipeline._rationalize_first_slot = lambda sym, candidates: None
    try:
        pipeline.six_lines_family(2, 1, 1)
    finally:
        pipeline._rationalize_first_slot = real


def family_against_the_split_class() -> None:
    """six_lines_family(2, 1, 1) compared with (1, 1) in place of (-1, -1)."""
    real = pipeline.rational_symbol
    pipeline.rational_symbol = lambda a, b: real(1, 1)
    try:
        pipeline.six_lines_family(2, 1, 1)
    finally:
        pipeline.rational_symbol = real


def family_zg():
    """Z(A) over Q(sqrt 2) of the family form diag(a, a, a - 2).  In each
    slot, u_i u_j = +-c u_{i xor j}, so u_1 u_3 lands on u_2."""
    f = quadratic_field(2)
    a = f.gen()
    return build_ZG(even_part(f, [a, a, a - 2]), f)


def family_invariants_after(corrupt, slot: int) -> None:
    """invariants of family_zg() after corrupt(slot table) has edited the
    stored integer table of the given slot: slot 0 is C0's own table,
    slot 1 its twisted copy.  invariants walks both before any product."""
    z = family_zg()
    corrupt(z.slots[slot][0])
    invariants(z)


def family_center_after(corrupt, read=csa.center) -> None:
    """read(B), csa.center by default, of the fixed algebra B of
    family_zg() after corrupt(B) has edited B's blocks.  B's one central
    basis element is its unit e_0."""
    b = invariants(family_zg())
    corrupt(b)
    read(b)


def rebuilt(b) -> None:
    """B's blocks and count of central monomials given to the FixedAlgebra
    constructor again, which verifies the unit law on them."""
    csa.FixedAlgebra(b.orbits, b.blocks, b.den, b.central_monomials)


def center_with_a_noncentral_unit(b) -> None:
    """e_1 e_0 = -e_1 in B, its block (0, 1) signed -1 at its one target:
    no basis element of B is central any more, and the unit law's right
    side fails."""
    rep = b.orbits[1][2]
    beta, coordinates = b.blocks[0, 1][rep]
    b.blocks[0, 1][rep] = -beta, coordinates


def unit_with_an_extra_term(b) -> None:
    """e_0 e_j in B gains 1 at e_(j+1), e_j the first basis element of the
    first orbit with two: the unit column holds one nonzero too many.  The
    one block is rebuilt, as its coordinates may be shared."""
    o = next(o for o, (_, m, _) in enumerate(b.orbits) if m > 1)
    rep = b.orbits[o][2]
    beta, (xs, ys, *rest) = b.blocks[0, o][rep]
    b.blocks[0, o][rep] = beta, (xs, (ys[0] + 1, *ys[1:]), *rest)


def center_within_an_orbit() -> None:
    """csa.center of the fixed algebra of small_zg("cubic"), commutative of
    dim 8, after e_1 e_2 at u_0 gains 1 where e_2 e_1 does not: both lie in
    the orbit of u_1, whose (I, I) block holds both orders, and neither is
    central any more.  The one block is rebuilt, as its coordinates may be
    shared."""
    b = invariants(small_zg("cubic"))
    beta, [xs] = b.blocks[1, 1][0]
    b.blocks[1, 1][0] = beta, ((xs[0], xs[1] + 1, *xs[2:]),)
    csa.center(b)


def center_of_a_product_sharing_an_orbit_block() -> None:
    """csa.center of the fixed algebra of small_zg("cubic") after e_i e_j,
    i in the orbit of u_1 and j in that of u_3, is signed -1 at u_7 and
    given the coordinates of the symmetric (I, I) block of the orbit of u_1
    at u_0, its very object: read first in the (I, I) block, where it holds
    both orders, it has no differing position, but as a (J, I) product,
    with beta = -1, each of its nonzero entries differs, and the six basis
    elements of the two orbits are no longer central."""
    b = invariants(small_zg("cubic"))
    b.blocks[1, 2][7] = -1, b.blocks[1, 1][0][1]
    csa.center(b)


def slot_with_a_zero_coefficient(zt) -> None:
    """u_1 u_2 in the slot keeps its monomial with the coefficient 0."""
    k, v = zt[1][2]
    zt[1][2] = k, (0,) * len(v)


def slot_with_a_repeated_monomial(zt) -> None:
    """u_1 u_2 and u_2 u_1 in the slot land on u_2, as u_1 u_3 does."""
    k = zt[1][3][0]
    zt[1][2] = k, zt[1][2][1]
    zt[2][1] = k, zt[2][1][1]


def slot_with_asymmetric_monomials(zt) -> None:
    """u_2 u_1 and u_2 u_3 in the slot exchange their monomials."""
    (k1, c1), (k3, c3) = zt[2][1], zt[2][3]
    zt[2][1], zt[2][3] = (k3, c1), (k1, c3)


def slot_with_a_side_scaled(zt) -> None:
    """u_1 u_2 in the slot doubled and u_2 u_1 kept: no longer +-u_1 u_2."""
    k, v = zt[1][2]
    zt[1][2] = k, tuple(x + x for x in v)


def slot_with_a_sign_flipped(zt) -> None:
    """u_1 u_2 in the slot negated and u_2 u_1 kept, so the two commute
    where they anticommuted: the sign changes on the terms whose digit in
    the slot pairs 1 with 2, and a target of B meets such terms and others."""
    k, v = zt[1][2]
    zt[1][2] = k, tuple(-x for x in v)


# the certificates above, with the message each must raise under python -O
NEW_CERTIFICATES = (
    ("orbit divisibility", lambda: orbits_under_a_broken_action(3),
     "orbit sums: orbit size 2 does not divide the group order 3"),
    ("orbit total", lambda: orbits_under_a_broken_action(2),
     "orbit sums: even-weight orbit sizes sum to 4, not 2^(d-1) = 2"),
    ("family route", family_without_symbol_route, "family symbol route must complete"),
    ("family class", family_against_the_split_class,
     "family corestriction must be the definite (-1,-1) class"),
    ("center", lambda: family_center_after(center_with_a_noncentral_unit),
     "center bounds differ: 0 central basis elements in B, 1 central monomials in Z(A)"),
    ("zero cell", dual_numbers_as_a_table, "u_1 u_1 is zero: a cell must be one nonzero monomial"),
    ("center zero coefficient", lambda: family_invariants_after(slot_with_a_zero_coefficient, 0),
     "slot 0 product u_1 u_2 is not one monomial"),
    ("center repeated monomial", lambda: family_invariants_after(slot_with_a_repeated_monomial, 0),
     "slot 0 products u_1 u_j repeat a monomial"),
    ("center asymmetric monomials", lambda: family_invariants_after(slot_with_asymmetric_monomials, 0),
     "slot 0 products u_2 u_1 and u_1 u_2 land on different monomials"),
    ("invariants zero coefficient", lambda: family_invariants_after(slot_with_a_zero_coefficient, 1),
     "slot 1 product u_1 u_2 is not one monomial"),
    ("invariants repeated monomial", lambda: family_invariants_after(slot_with_a_repeated_monomial, 1),
     "slot 1 products u_1 u_j repeat a monomial"),
    ("invariants asymmetric monomials", lambda: family_invariants_after(slot_with_asymmetric_monomials, 1),
     "slot 1 products u_2 u_1 and u_1 u_2 land on different monomials"),
    ("slot side scaled", lambda: family_invariants_after(slot_with_a_side_scaled, 1),
     "slot 1 products u_2 u_1 and u_1 u_2 differ by more than a sign"),
    ("slot sign flipped", lambda: family_invariants_after(slot_with_a_sign_flipped, 1),
     "products of orbits of u_1 and u_11 at u_15 carry both signs"),
    ("slot cell", invariants_of_zeroed_dual_numbers, "slot 0 product u_1 u_1 is not one monomial"),
    ("slot shape of a group algebra", invariants_of_a_group_algebra,
     "slot 0 products u_2 u_1 and u_1 u_2 land on different monomials"),
    ("slot action", certify_a_corrupted_slot, "action 2 does not take slot 1 to slot 0 at (1,2)"),
    ("move bijection", certify_a_move_that_is_not_a_bijection, "action 2: monomial move is not a bijection"),
    ("trace form division", trace_form_with_a_wrong_division, "congruence certificate P^T G P fails at (1,1)"),
    ("congruence off the diagonal", diagonalize_with_an_off_diagonal_product,
     "congruence certificate P^T G P fails at (0,1)"),
    ("trace form across orbits", trace_form_of_a_cyclic_group_algebra,
     "products of orbits of u_1 and u_2 reach u_0"),
    ("unit law on the blocks", lambda: invariants_with_a_nudged_digit("cubic search form", 0),
     "left unit law fails at u_0"),
    ("unit law right side", lambda: family_center_after(center_with_a_noncentral_unit, rebuilt),
     "right unit law fails at u_1"),
    ("unit law extra term", lambda: family_center_after(unit_with_an_extra_term, rebuilt),
     "left unit law fails at u_1"),
    ("center within an orbit", center_within_an_orbit,
     "center bounds differ: 6 central basis elements in B, 8 central monomials in Z(A)"),
    ("center of a shared block", center_of_a_product_sharing_an_orbit_block,
     "center bounds differ: 2 central basis elements in B, 8 central monomials in Z(A)"),
    *((f"quaternion relation {relation}", lambda ij=ij: symbol_of_a_corrupted_c0(*ij),
       f"quaternion relation {relation} fails at ({ij[0]},{ij[1]})")
      for relation, ij in (("i^2 = a", (1, 1)), ("j^2 = b", (2, 2)), ("ij = -a1 u_3", (1, 2)),
                           ("ji = -ij", (2, 1)))),
)


@pytest.mark.parametrize("label, build, message", NEW_CERTIFICATES, ids=[c[0] for c in NEW_CERTIFICATES])
def test_orbit_family_and_center_certificates_raise_certificate_failure(label, build, message):
    with pytest.raises(CertificateFailure, match=re.escape(message)):
        build()


def test_wrong_unit_and_corrupted_action_raise_certificate_failure():
    with pytest.raises(CertificateFailure, match="left unit law fails"):
        build_with_wrong_unit()
    with pytest.raises(CertificateFailure, match=r"group law fails for \(2,2\) at monomial 1"):
        certify_corrupted_action()


def test_invariants_reject_moves_corrupted_after_construction():
    for name, error, message in CORRUPTED_INVARIANTS:
        with pytest.raises(error, match=message):
            invariants(corrupted_moves(name))


@pytest.mark.parametrize("triple, error, message", ROTATED_MOVES, ids=[str(c[0]) for c in ROTATED_MOVES])
def test_invariants_reject_rotated_moves(triple, error, message):
    with pytest.raises(error, match=re.escape(message)):
        invariants(rotated_moves(triple))


def test_invariants_reject_a_coefficient_corrupted_after_construction():
    for name in CORRUPTED_COEFFICIENTS:
        with pytest.raises(NotClosedUnderMultiplication, match="product leaves the fixed subspace"):
            invariants(corrupted_coefficient(name))


@pytest.mark.parametrize("name, column", NUDGED_DIGITS, ids=[n if c == 1 else f"{n} column {c}" for n, c in NUDGED_DIGITS])
def test_invariants_reject_a_nudged_digit_where_the_fixed_algebra_is_not_swept(name, column):
    with pytest.raises(NotClosedUnderMultiplication, match="product leaves the fixed subspace"):
        invariants_with_a_nudged_digit(name, column)


@pytest.mark.parametrize("name", LATE_NUDGES)
def test_the_readout_checksum_rejects_a_late_nudge(name):
    with pytest.raises(CertificateFailure, match=re.escape(CHECKSUM_FAILURE)):
        invariants_with_a_nudged_digit(name, 0, read=39)


@pytest.mark.parametrize("name, width", NARROW_WIDTHS, ids=[name for name, _ in NARROW_WIDTHS])
def test_the_readout_checksum_rejects_a_narrow_width(name, width):
    with pytest.raises(CertificateFailure, match=re.escape(CHECKSUM_FAILURE)):
        invariants_at_width(dim64_zg(name), width)


@pytest.mark.parametrize("name", ["cubic search form", "Q(sqrt 2) rank 4", "Q(sqrt 2)"])
def test_invariants_at_every_narrower_width_are_right_or_raise(monkeypatch, name):
    # from one bit short of packing_width's width down to 1 (packing_width
    # gives at least 1): the full width's blocks, or a named error
    z = small_zg(name) if name == "Q(sqrt 2)" else dim64_zg(name)
    widths = []
    real = FieldDescriptor.packing_width

    def packing_width(field, *args):
        widths.append(real(field, *args))
        return widths[-1]

    monkeypatch.setattr(FieldDescriptor, "packing_width", packing_width)
    full = invariants(z).blocks
    monkeypatch.undo()
    for width in range(widths[0] - 1, 0, -1):
        try:
            blocks = invariants_at_width(z, width).blocks
        except ExactAlgebraError:
            continue
        assert blocks == full, width


def test_the_readout_checksum_fires_under_python_O():
    script = (
        "from test_associativity import LATE_NUDGES, NARROW_WIDTHS, dim64_zg, invariants_at_width,"
        " invariants_with_a_nudged_digit\n"
        "from ksalgebra.errors import CertificateFailure\n"
        "if __debug__:\n    raise SystemExit('not running under python -O')\n"
        "for build in [*(lambda n=n: invariants_with_a_nudged_digit(n, 0, read=39) for n in LATE_NUDGES),\n"
        "              *(lambda n=n, w=w: invariants_at_width(dim64_zg(n), w) for n, w in NARROW_WIDTHS)]:\n"
        "    try:\n        build()\n"
        "    except CertificateFailure as exc:\n        print(exc)\n"
    )
    done = run_under_O(script)
    assert done.returncode == 0, done.stderr or done.stdout
    assert done.stdout.splitlines() == [CHECKSUM_FAILURE] * (len(LATE_NUDGES) + len(NARROW_WIDTHS))


def test_congruence_and_quaternion_certificates_raise_certificate_failure():
    with pytest.raises(CertificateFailure, match=r"P\^T G P fails at \(0,0\)"):
        diagonalize_with_broken_certificate()
    with pytest.raises(CertificateFailure, match=r"quaternion relation j\^2 = b fails at \(2,2\)"):
        symbol_with_broken_relation()


def test_identification_rejects_a_c0_cell_corrupted_after_construction():
    with pytest.raises(CertificateFailure, match=r"quaternion relation ij = -a1 u_3 fails at \(1,2\)"):
        symbol_of_a_corrupted_c0(1, 2)


_UNDER_O = """
from test_associativity import (
    CORRUPTED_COEFFICIENTS, CORRUPTED_INVARIANTS, FIELDS, NEW_CERTIFICATES, NUCLEUS_TABLES, NUDGED_DIGITS,
    ROTATED_MOVES, build_perturbed, build_with_wrong_unit, certify_corrupted_action,
    corrupted_coefficient, corrupted_moves, diagonalize_with_broken_certificate,
    invariants_with_a_nudged_digit, monomial_table, perturbed, rotated_moves, symbol_with_broken_relation, tables,
)
from ksalgebra.csa import StructureAlgebra, check_associativity, invariants
from ksalgebra.exactfield import RATIONAL_FIELD
from ksalgebra.errors import CertificateFailure, NotAssociative, NotClosedUnderMultiplication

if __debug__:
    raise SystemExit("not running under python -O")
for name in FIELDS:
    for label, alg in tables(name).items():
        if not isinstance(alg, StructureAlgebra):
            continue
        try:
            check_associativity(alg.field, perturbed(alg))
        except NotAssociative as exc:
            print(f"{name} {label}: {exc}")
        else:
            raise SystemExit(f"{name} {label}: perturbed table accepted")
    try:
        build_perturbed(tables(name)["C0"])
    except NotAssociative as exc:
        print(f"{name} C0 built: {exc}")
    else:
        raise SystemExit(f"{name}: perturbed C0 built")
for label, products, _, _ in NUCLEUS_TABLES:
    try:
        StructureAlgebra(RATIONAL_FIELD, monomial_table(products))
    except NotAssociative as exc:
        print(f"nucleus table, {label}: {exc}")
    else:
        raise SystemExit(f"nucleus table, {label}, accepted")
for label, build in (("wrong unit", build_with_wrong_unit),
                     ("corrupted action", certify_corrupted_action),
                     ("congruence", diagonalize_with_broken_certificate),
                     ("quaternion relations", symbol_with_broken_relation),
                     *((label, build) for label, build, _ in NEW_CERTIFICATES)):
    try:
        build()
    except CertificateFailure as exc:
        print(f"{label}: {exc}")
    else:
        raise SystemExit(f"{label} accepted")
for name, error, _ in CORRUPTED_INVARIANTS:
    try:
        invariants(corrupted_moves(name))
    except error as exc:
        print(f"{name} corrupted invariants: {type(exc).__name__}: {exc}")
    else:
        raise SystemExit(f"{name}: invariants of corrupted moves accepted")
for triple, error, _ in ROTATED_MOVES:
    try:
        invariants(rotated_moves(triple))
    except error as exc:
        print(f"rotated moves {triple}: {type(exc).__name__}: {exc}")
    else:
        raise SystemExit(f"{triple}: invariants of rotated moves accepted")
for name in CORRUPTED_COEFFICIENTS:
    try:
        invariants(corrupted_coefficient(name))
    except NotClosedUnderMultiplication as exc:
        print(f"{name} corrupted coefficient: {exc}")
    else:
        raise SystemExit(f"{name}: invariants of a corrupted coefficient accepted")
for name, column in NUDGED_DIGITS:
    try:
        invariants_with_a_nudged_digit(name, column)
    except NotClosedUnderMultiplication as exc:
        print(f"{name} column {column} nudged digit: {exc}")
    else:
        raise SystemExit(f"{name}: invariants of a nudged digit accepted")
"""


def run_under_O(script: str) -> subprocess.CompletedProcess:
    """script run by python -O with the package and the tests importable."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_negative_control_survives_python_O():
    done = run_under_O(_UNDER_O)
    assert done.returncode == 0, done.stderr or done.stdout
    lines = done.stdout.splitlines()
    swept = 4 * len(FIELDS)  # 3 perturbed tables, the fixed algebra's not swept, and one perturbed C0 build per field
    certificates = [
        "wrong unit: left unit law fails at u_0",
        "corrupted action: action group law fails for (2,2) at monomial 1",
        "congruence: congruence certificate P^T G P fails at (0,0)",
        "quaternion relations: quaternion relation j^2 = b fails at (2,2)",
        *(f"{label}: {message}" for label, _, message in NEW_CERTIFICATES),
        "Q(sqrt 2) corrupted invariants: NotClosedUnderMultiplication:"
        " product leaves the fixed subspace",
        "cubic corrupted invariants: CertificateFailure: basis element at monomial 1 is not fixed",
        *(f"rotated moves {triple}: {error.__name__}: {message}" for triple, error, message in ROTATED_MOVES),
        "Q(sqrt 2) corrupted coefficient: product leaves the fixed subspace",
        "cubic corrupted coefficient: product leaves the fixed subspace",
        "cyclic quartic corrupted coefficient: product leaves the fixed subspace",
        *(f"{name} column {column} nudged digit: product leaves the fixed subspace" for name, column in NUDGED_DIGITS),
    ]
    assert len(lines) == swept + 2 + len(certificates)
    assert all("associativity fails at (" in line for line in lines[:swept])
    assert lines[swept:swept + 2] == [
        "nucleus table, late generator: associativity fails at (1,1,3)",
        "nucleus table, one generator: associativity fails at (1,1,1)",
    ]
    assert lines[swept + 2:] == certificates
