"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every numeric check is exact; the only tolerances are wall-clock bounds,
asserted with time.perf_counter.  Reference values for the matrix-algebra
comparison are rebuilt here from explicit matrix products, independent of
the library's structure-constant machinery.
"""

import random
import time
from fractions import Fraction
from math import factorial

import pytest

from ksalgebra import csa
from ksalgebra.brauer import (
    INF,
    hilbert_symbol,
    is_definite,
    rational_symbol,
    reduced_symbol,
)
from ksalgebra.clifford import even_part, even_rank3_to_symbol
from ksalgebra.csa import build_ZG, verify_twisted_iso
from ksalgebra.exactfield import RATIONAL_FIELD, quadratic_field
from ksalgebra.pipeline import (
    cyclic_generators,
    even_weight_orbits,
    ks_report,
    six_lines_family,
    symmetric_generators,
)
from ksalgebra.qform import GramForm, diagonalize

from basis_product import basis_product

TRIPLES = ((2, 1, 1), (5, 1, 2), (13, 2, 3))


def _line(n: int, label: str, ok: bool) -> None:
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def family_reports():
    out = {}
    for d, c, e in TRIPLES:
        start = time.perf_counter()
        rep = six_lines_family(d, c, e)
        out[(d, c, e)] = (rep, time.perf_counter() - start)
    return out


# -- criterion 1: the quadratic family, symbol route ---------------------------------


@pytest.mark.wallclock
def test_criterion_1_family_symbol_route(family_reports):
    failures = []
    for (d, c, e), (rep, secs) in family_reports.items():
        f = rep.field
        c0 = rep.c0_symbol
        # the even Clifford class over the base field: (-d, d*sqrt(d) - d*c)
        if c0.a != f.rational(-d) or c0.b != f.elem([Fraction(-d * c), Fraction(d)]):
            failures.append(f"{(d, c, e)}: unexpected base-field symbol")
        route = rep.cores_symbol_route
        want_b = Fraction(d * d) * (Fraction(c) ** 2 - d)
        if route["symbol"].a != Fraction(-1) or route["symbol"].b != want_b:
            failures.append(f"{(d, c, e)}: symbol is not (-1, d^2(c^2-d))")
        if route["reduced"] != rational_symbol(-1, -1):
            failures.append(f"{(d, c, e)}: reduced symbol is not (-1,-1)")
        if reduced_symbol(rational_symbol(-1, Fraction(c) ** 2 - d)) != rational_symbol(-1, -1):
            failures.append(f"{(d, c, e)}: (-1, c^2-d) is not the same class")
        if route["ramification"].sorted_list() != [2, INF]:
            failures.append(f"{(d, c, e)}: ramification is not {{2, inf}}")
        if route["definiteness"] != "definite" or not is_definite(route["symbol"]):
            failures.append(f"{(d, c, e)}: not definite")
        if secs >= 1.0:
            failures.append(f"{(d, c, e)}: took {secs:.2f}s, bound is 1s")
    ok = not failures
    _line(1, "family symbol route lands on (-1,-1)/Q, ramified at {2, inf}, <1s", ok)
    assert ok, failures


# -- criterion 2: the invariant route over Q(sqrt 2) ----------------------------------


@pytest.mark.wallclock
def test_criterion_2_invariant_route_dimension_and_center(family_reports):
    f = quadratic_field(2)
    form = GramForm.diagonal(f, [f.gen(), f.gen(), f.gen() - f.rational(2)])
    start = time.perf_counter()
    rep = ks_report(f, form)
    secs = time.perf_counter() - start
    inv = rep.cores_invariant_route
    failures = []
    if inv["dim"] != 16:
        failures.append(f"dim {inv['dim']} != 16")
    if inv["center_dim"] != 1:
        failures.append(f"center dim {inv['center_dim']} != 1")
    if inv["trace_signature"] != (6, 10, 0):
        failures.append(f"trace signature {inv['trace_signature']}")
    fixture_inv = family_reports[(2, 1, 1)][0].cores_invariant_route
    if (fixture_inv["dim"], fixture_inv["center_dim"]) != (16, 1):
        failures.append("family preset disagrees with the direct report")
    if secs >= 10.0:
        failures.append(f"took {secs:.2f}s, bound is 10s")
    ok = not failures
    _line(2, "invariant route over Q(sqrt 2): dim 16, center 1, <10s", ok)
    assert ok, failures


# -- criterion 3: trace signature against explicit matrix models ---------------------
#
# The reference Gram matrices are assembled from literal matrix products:
# 2x2 matrices over the quaternions with i^2 = j^2 = -1 on one side, 4x4
# rational matrices on the other.  Nothing below touches the library's
# structure-constant code.


def quat_mul(x, y):
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3,
        x0 * y1 + x1 * y0 + x2 * y3 - x3 * y2,
        x0 * y2 - x1 * y3 + x2 * y0 + x3 * y1,
        x0 * y3 + x1 * y2 - x2 * y1 + x3 * y0,
    )


def mat2h_basis():
    basis = []
    zero = (Fraction(0),) * 4
    for r in range(2):
        for s in range(2):
            for k in range(4):
                unit = [Fraction(0)] * 4
                unit[k] = Fraction(1)
                m = [[zero, zero], [zero, zero]]
                m[r][s] = tuple(unit)
                basis.append(m)
    return basis


def mat2h_mul(x, y):
    out = []
    for r in range(2):
        row = []
        for s in range(2):
            acc = (Fraction(0),) * 4
            for t in range(2):
                p = quat_mul(x[r][t], y[t][s])
                acc = tuple(u + v for u, v in zip(acc, p))
            row.append(acc)
        out.append(row)
    return out


def mat2h_coords(m):
    return [m[r][s][k] for r in range(2) for s in range(2) for k in range(4)]


def mat4_basis():
    basis = []
    for r in range(4):
        for s in range(4):
            m = [[Fraction(0)] * 4 for _ in range(4)]
            m[r][s] = Fraction(1)
            basis.append(m)
    return basis


def mat4_mul(x, y):
    return [
        [sum(x[r][t] * y[t][s] for t in range(4)) for s in range(4)] for r in range(4)
    ]


def mat4_coords(m):
    return [m[r][s] for r in range(4) for s in range(4)]


def regular_trace_gram(basis, mul, coords):
    n = len(basis)

    def reg_trace(z):
        return sum(coords(mul(z, basis[w]))[w] for w in range(n))

    return [[reg_trace(mul(basis[u], basis[v])) for v in range(n)] for u in range(n)]


def sym_signature(gram):
    n = len(gram)
    a = [list(row) for row in gram]
    assert all(a[i][j] == a[j][i] for i in range(n) for j in range(i)), "not symmetric"
    act = list(range(n))
    pos = neg = 0
    while act:
        p = next((i for i in act if a[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in act for j in act if j != i and a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            # a_ii = a_jj = 0 and a_ij != 0: e_i + e_j has value 2 a_ij != 0
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            p = i
        piv = a[p][p]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        act.remove(p)
        for i in act:
            if a[i][p]:
                lam = a[i][p] / piv
                for k in range(n):
                    a[i][k] -= lam * a[p][k]
                for k in range(n):
                    a[k][i] -= lam * a[k][p]
    return pos, neg, n - pos - neg


GRID = ((2, 1, 1), (5, 1, 2), (5, 2, 1), (13, 2, 3), (13, 3, 2), (10, 1, 3))


def test_criterion_3_grid_matches_quaternion_matrix_model(family_reports):
    mat2h_sig = sym_signature(regular_trace_gram(mat2h_basis(), mat2h_mul, mat2h_coords))
    mat4_sig = sym_signature(regular_trace_gram(mat4_basis(), mat4_mul, mat4_coords))
    failures = []
    if mat2h_sig != (6, 10, 0):
        failures.append(f"matrix model signature {mat2h_sig} != (6, 10, 0)")
    if mat4_sig == mat2h_sig:
        failures.append("the two matrix models are indistinguishable")
    assert len(GRID) >= 5
    for d, c, e in GRID:
        if (d, c, e) in family_reports:
            rep = family_reports[(d, c, e)][0]
        else:
            rep = six_lines_family(d, c, e)
        sig = rep.cores_invariant_route["trace_signature"]
        if sig != mat2h_sig:
            failures.append(f"{(d, c, e)}: signature {sig} != 2x2 quaternion model")
        if sig == mat4_sig:
            failures.append(f"{(d, c, e)}: signature matches the 4x4 split model")
    ok = not failures
    _line(3, "grid trace signatures match Mat2(quaternions), not Mat4(Q)", ok)
    assert ok, failures


# -- criterion 4: random rank-3 identifications ---------------------------------------


def _random_nonzero(f, rng):
    while True:
        coeffs = [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(f.degree)
        ]
        if any(coeffs):
            return f.elem(coeffs)


def test_criterion_4_random_rank3_quaternion_relations():
    rng = random.Random(41)
    failures = []
    for f in (RATIONAL_FIELD, quadratic_field(2)):
        one = f.one()
        for trial in range(100):
            entries = [_random_nonzero(f, rng) for _ in range(3)]
            c0 = even_part(f, entries)
            symbol = even_rank3_to_symbol(c0, entries)
            a, b = symbol.a, symbol.b
            # 1, i, j, k map to C0's basis 1, e1e2, e1e3, e2e3 scaled by these
            images = [one, one, one, -entries[0]]
            # the full multiplication table of (a, b): rows 1, i, j, k
            table = {
                (1, 1): [(0, a)],
                (1, 2): [(3, one)],
                (1, 3): [(2, a)],
                (2, 1): [(3, -one)],
                (2, 2): [(0, b)],
                (2, 3): [(1, -b)],
                (3, 1): [(2, -a)],
                (3, 2): [(1, b)],
                (3, 3): [(0, -(a * b))],
            }
            for x in range(4):
                for y in range(4):
                    got = {k: images[x] * images[y] * c for k, c in basis_product(c0, x, y)}
                    want = {
                        idx: coeff * images[idx]
                        for idx, coeff in table.get((x, y), [(y if x == 0 else x, one)])
                    }
                    if got != want:
                        failures.append(f"{f.name} trial {trial}: product ({x},{y})")
    ok = not failures
    _line(4, "100 random rank-3 forms per field satisfy all 16 relations", ok)
    assert ok, failures


# -- criterion 5: Hilbert symbol laws --------------------------------------------------


@pytest.mark.wallclock
def test_criterion_5_hilbert_symbol_laws():
    rng = random.Random(97)
    pool = (2, 3, 5, 7, 11, 13)
    places = list(pool) + [INF]

    def draw():
        x = Fraction(rng.choice((1, -1)))
        for p in pool:
            x *= Fraction(p) ** rng.randint(-2, 2)
        return x

    failures = []
    start = time.perf_counter()
    for trial in range(500):
        a, b, a2 = draw(), draw(), draw()
        product = 1
        for p in places:
            h = hilbert_symbol(a, b, p)
            if h not in (1, -1):
                failures.append(f"trial {trial}: value {h} at {p}")
            product *= h
            if h != hilbert_symbol(b, a, p):
                failures.append(f"trial {trial}: symmetry fails at {p}")
            if hilbert_symbol(a, -a, p) != 1:
                failures.append(f"trial {trial}: (a, -a) != 1 at {p}")
            if hilbert_symbol(a * a2, b, p) != h * hilbert_symbol(a2, b, p):
                failures.append(f"trial {trial}: bimultiplicativity fails at {p}")
        if product != 1:
            failures.append(f"trial {trial}: product over all places is {product}")
    secs = time.perf_counter() - start
    if secs >= 5.0:
        failures.append(f"took {secs:.2f}s, bound is 5s")
    ok = not failures
    _line(5, "Hilbert laws on 500 random pairs, all supported places, <5s", ok)
    assert ok, failures


# -- criterion 6: orbit counts ---------------------------------------------------------


def test_criterion_6_orbit_sums_degrees_1_to_6():
    failures = []
    for d in range(1, 7):
        for label, gens, order in (
            ("cyclic", cyclic_generators(d), d),
            ("symmetric", symmetric_generators(d), factorial(d)),
        ):
            data = even_weight_orbits(d, gens, order)
            if sum(data.sizes()) != 2 ** (d - 1):
                failures.append(f"{label} degree {d}: sizes {data.sizes()}")
    ok = not failures
    _line(6, "orbit sizes sum to 2^(d-1) for d = 1..6, both groups", ok)
    assert ok, failures


# -- criterion 7: definiteness parity on the worked instances ------------------------


def test_criterion_7_parity_of_worked_instances(family_reports, cubic_report):
    failures = []
    rep2 = family_reports[(2, 1, 1)][0]
    if rep2.cores_symbol_route["definiteness"] != "definite":
        failures.append("degree-2 family instance is not definite")
    if rep2.cores_invariant_route["definiteness"] != "definite":
        failures.append("degree-2 invariant route disagrees")
    route3 = cubic_report.cores_symbol_route
    if route3 is None:
        failures.append("cubic instance lost the symbol route")
    else:
        if INF in route3["ramification"]:
            failures.append("cubic instance ramifies at the infinite place")
        if is_definite(route3["symbol"]):
            failures.append("cubic instance came out definite")
    if cubic_report.route_agreement is not True:
        failures.append("cubic instance routes disagree")
    ok = not failures
    _line(7, "degree 2 gives definite, the cubic instance avoids inf", ok)
    assert ok, failures


# -- criterion 8: twisted tensor comparison with a corrupted control ------------------


def test_criterion_8_twisted_comparison_and_negative_control(monkeypatch):
    f = quadratic_field(2)
    form = GramForm.diagonal(f, [f.gen(), f.gen(), f.gen() - f.rational(2)])
    diag = diagonalize(form)
    failures = []
    if not verify_twisted_iso(diag, f):
        failures.append("comparison fails on the family form")
    zg = build_ZG(even_part(f, diag.entries), f)
    moves = list(zg.moves[2])
    moves[0], moves[1] = moves[1], moves[0]
    zg.moves[2] = moves
    monkeypatch.setattr(csa, "build_ZG", lambda a, field: zg)
    if verify_twisted_iso(diag, f):
        failures.append("corrupted action went undetected")
    ok = not failures
    _line(8, "twisted comparison passes, corrupted action detected", ok)
    assert ok, failures
