import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksalgebra import clifford, csa, pipeline, qform
from ksalgebra.brauer import INF, is_definite, rational_symbol
from ksalgebra.errors import (
    CertificateFailure,
    FieldMismatch,
    InvalidPermutation,
    MalformedInput,
    ParameterConstraintViolated,
    RouteDisagreement,
)
from ksalgebra.exactfield import RATIONAL_FIELD, cyclic_cubic_field, quadratic_field, sign_at_embedding
from ksalgebra.pipeline import (
    MAX_C0_DIM,
    MAX_CORES_DIM,
    SEARCH_COEFF_BOUND,
    KSReport,
    OrbitData,
    cyclic_generators,
    even_weight_orbits,
    ks_report,
    search_cubic_diagonal,
    six_lines_family,
    symmetric_generators,
)
from ksalgebra.qform import GramForm

from kernel_oracle import block_trace_signature, oracle_tensor
from quartic_fields import biquadratic_field, cyclic_quartic_field
from quaternion_table import quaternion_table


# -- independent orbit oracle: pairwise-product closure and inverse-indexed action


def oracle_group(d: int, gens) -> set:
    """Every element of the group the generators generate."""
    ident = tuple(range(1, d + 1))
    group = {ident} | {tuple(g) for g in gens}
    while True:
        more = {
            tuple(p[q[i] - 1] for i in range(d)) for p in group for q in group
        }
        if more <= group:
            return group
        group |= more


def oracle_orbit_sizes(d: int, gens) -> list[int]:
    group = oracle_group(d, gens)
    vecs = [v for v in product((0, 1), repeat=d) if sum(v) % 2 == 0]
    sizes = []
    seen = set()
    for v in vecs:
        if v in seen:
            continue
        orbit = set()
        for p in group:
            inv = [0] * d
            for i in range(d):
                inv[p[i] - 1] = i + 1
            orbit.add(tuple(v[inv[i] - 1] for i in range(d)))
        seen |= orbit
        sizes.append(len(orbit))
    return sorted(sizes)


def test_orbits_swap_degree_2():
    data = even_weight_orbits(2, [(2, 1)], 2)
    assert data.group_order == 2
    assert data.orbits == (((0, 0), 1, 2), ((1, 1), 1, 2))
    assert data.sizes() == [1, 1]


def test_orbits_cyclic_and_symmetric_degree_3_match():
    cyc = even_weight_orbits(3, cyclic_generators(3), 3)
    sym = even_weight_orbits(3, symmetric_generators(3), factorial(3))
    assert sorted(cyc.sizes()) == [1, 3]
    assert sorted(sym.sizes()) == [1, 3]
    assert cyc.group_order == 3 and sym.group_order == 6
    # zero vector is its own orbit, with full stabilizer
    assert cyc.orbits[0] == ((0, 0, 0), 1, 3)
    assert sym.orbits[0] == ((0, 0, 0), 1, 6)


def test_orbit_sums_and_stabilizers_degrees_1_to_6():
    for d in range(1, 7):
        for gens, order in ((cyclic_generators(d), d), (symmetric_generators(d), factorial(d))):
            data = even_weight_orbits(d, gens, order)
            assert data.group_order == len(oracle_group(d, gens))
            assert sum(data.sizes()) == 2 ** (d - 1)
            for _, size, stab in data.orbits:
                assert size * stab == data.group_order
            assert sorted(data.sizes()) == oracle_orbit_sizes(d, gens)


def test_orbits_reject_a_stated_order_that_does_not_match_the_generators():
    # S_4 has order 24; stated as 4, the six weight-2 vectors form one orbit
    with pytest.raises(CertificateFailure) as err:
        even_weight_orbits(4, symmetric_generators(4), 4)
    assert str(err.value) == "orbit sums: orbit size 6 does not divide the group order 4"


def test_orbits_reject_bad_generators():
    with pytest.raises(InvalidPermutation):
        even_weight_orbits(2, [(1, 1)], 2)
    with pytest.raises(InvalidPermutation):
        even_weight_orbits(3, [(1, 2, 4)], 3)
    with pytest.raises(InvalidPermutation):
        even_weight_orbits(3, ["ab"], 3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_laws_random_groups(data):
    d = data.draw(st.integers(min_value=1, max_value=5))
    perms = list(permutations(range(1, d + 1)))
    gens = data.draw(
        st.lists(st.sampled_from(perms), min_size=1, max_size=3)
    )
    orbits = even_weight_orbits(d, gens, len(oracle_group(d, gens)))
    assert sum(orbits.sizes()) == 2 ** (d - 1)
    for _, size, stab in orbits.orbits:
        assert size * stab == orbits.group_order
    assert sorted(orbits.sizes()) == oracle_orbit_sizes(d, gens)


# -- the six-lines family ----------------------------------------------------------


@pytest.fixture(scope="module")
def family_211() -> KSReport:
    return six_lines_family(2, 1, 1)


def test_family_211_symbol_chain(family_211):
    rep = family_211
    f = rep.field
    # C0 symbol of diag(s, s, s - 2) with s = sqrt(2): (-2, 2s - 2)
    assert rep.c0_symbol.a == f.rational(-2)
    assert rep.c0_symbol.b == f.elem([-2, 2])
    route = rep.cores_symbol_route
    assert route["symbol"].a == Fraction(-1)
    assert route["symbol"].b == Fraction(-4)
    assert route["reduced"] == rational_symbol(-1, -1)
    assert route["ramification"].sorted_list() == [2, INF]
    assert route["definiteness"] == "definite"
    # the rewrite divided slot 1 by the generator once
    assert route["scalings"] == ((1, f.gen()),)


def test_family_211_invariant_route_and_agreement(family_211):
    rep = family_211
    route = rep.cores_invariant_route
    assert route["dim"] == 16
    assert route["center_dim"] == 1
    assert route["trace_signature"] == (6, 10, 0)
    assert route["definiteness"] == "definite"
    assert rep.route_agreement is True
    assert rep.warnings == ()


def test_family_211_shape_numbers(family_211):
    rep = family_211
    assert (rep.m, rep.d) == (3, 2)
    assert rep.dim_T_Q == 6
    assert rep.ks_dim == 16
    assert rep.cores_dim == 16
    assert rep.smt_dim == 6
    assert rep.decomposition == "A ~ B'^2, End(B') = (-1,-1)/Q"
    assert rep.rank3_extras == "A ~ B^4, dim B = 4, D definite"
    assert rep.orbit_data.sizes() == [1, 1]


def test_family_211_json_and_text(family_211):
    doc = family_211.to_json_dict()
    assert doc["cores"] == "(-1,-1)/Q"
    assert doc["ramification"] == [2, "inf"]
    assert doc["c0_symbol"] == {"a": "-2", "b": ["-2", "2"]}
    assert doc["cores_symbol_route"]["scalings"] == [{"slot": 1, "factor": ["0", "1"]}]
    json.dumps(doc, sort_keys=True)  # must be serializable as-is
    text = family_211.to_text()
    assert "symbol route: cores = (-1,-1)/Q" in text
    assert "routes agree: yes" in text


def test_family_report_diagonalizes_the_form_once(monkeypatch):
    # every diagonalization goes through congruence_diagonalize; the rank-3
    # form is the only 3x3 matrix the report diagonalizes (the trace form
    # is 16x16), and the validation report hands its DiagForm on
    sizes = []
    real = qform.congruence_diagonalize

    def counting(matrix, field):
        sizes.append(len(matrix))
        return real(matrix, field)

    monkeypatch.setattr(qform, "congruence_diagonalize", counting)
    monkeypatch.setattr(csa, "congruence_diagonalize", counting)
    rep = six_lines_family(2, 1, 1)
    assert sizes.count(3) == 1
    assert "diag" not in rep.validation.to_json_dict()


def test_family_report_builds_one_clifford_algebra(monkeypatch):
    # the symbol route's identification and the invariant route read one C0;
    # csa imports even_part from clifford when it runs, so both names count
    built = []
    real = clifford.even_part

    def counting(field, diag):
        built.append(len(diag))
        return real(field, diag)

    for module in (pipeline, clifford):
        monkeypatch.setattr(module, "even_part", counting)
    six_lines_family(2, 1, 1)
    assert built == [3]


def test_family_further_members_land_on_same_class():
    rep5 = six_lines_family(5, 1, 2)
    assert rep5.cores_symbol_route["symbol"].b == Fraction(-100)
    assert rep5.cores_symbol_route["reduced"] == rational_symbol(-1, -1)
    assert rep5.cores_invariant_route["trace_signature"] == (6, 10, 0)
    rep13 = six_lines_family(13, 2, 3)
    assert rep13.cores_symbol_route["symbol"].b == Fraction(-1521)
    assert rep13.cores_symbol_route["reduced"] == rational_symbol(-1, -1)
    assert rep13.cores_symbol_route["ramification"].sorted_list() == [2, INF]


def test_family_second_slot_matches_norm_formula():
    # cores slot 2 is d^2 (c^2 - d) on the nose, for several (d, c, e)
    for d, c, e in [(2, 1, 1), (5, 1, 2), (5, 2, 1), (13, 2, 3), (13, 3, 2)]:
        rep = six_lines_family(d, c, e)
        want = Fraction(d * d) * (Fraction(c) ** 2 - d)
        assert rep.cores_symbol_route["symbol"].a == Fraction(-1)
        assert rep.cores_symbol_route["symbol"].b == want


def test_family_grid_ramification_constant():
    grid = [
        (2, 1, 1),
        (5, 1, 2),
        (5, 2, 1),
        (10, 1, 3),
        (10, 3, 1),
        (13, 2, 3),
        (17, 1, 4),
        (2, Fraction(7, 5), Fraction(1, 5)),
    ]
    for d, c, e in grid:
        rep = six_lines_family(d, c, e)
        assert rep.cores_symbol_route["ramification"].sorted_list() == [2, INF]
        assert rep.cores_symbol_route["definiteness"] == "definite"


def test_family_parameter_validation():
    with pytest.raises(ParameterConstraintViolated):
        six_lines_family(2, 1, 2)  # 2 != 1 + 4
    with pytest.raises(ParameterConstraintViolated):
        six_lines_family(12, 2, 2)  # not squarefree (and 12 != 8 anyway)
    with pytest.raises(ParameterConstraintViolated):
        six_lines_family(8, 2, 2)  # squarefull
    with pytest.raises(ParameterConstraintViolated):
        six_lines_family(Fraction(5, 2), 1, 1)
    with pytest.raises(ParameterConstraintViolated):
        six_lines_family(2, 0, 1)
    with pytest.raises(ParameterConstraintViolated):
        six_lines_family(2, 1, -1)


# -- general reports ----------------------------------------------------------------


def test_text_report_lists_the_profile_warnings():
    # diag(a, a, a, a) over Q(sqrt 2) is (4, 0) at place 1: at rank 4 the
    # profile is a warning, shown under validation and again at the end
    f = quadratic_field(2)
    a = f.gen()
    lines = ks_report(f, GramForm.diagonal(f, [a, a, a, a])).to_text().splitlines()
    warning = "signature_place_1: want (2, 2), found (4, 0)"
    assert lines[1:3] == ["validation: passed", f"  warning: {warning}"]
    assert lines[-1] == f"warning: {warning}"


def test_failing_validation_keeps_shape_but_no_payload():
    f = quadratic_field(2)
    bad = GramForm.diagonal(f, [f.one(), f.one(), f.one()])
    rep = ks_report(f, bad)
    assert rep.validation.passed is False
    assert rep.c0_symbol is None
    assert rep.cores_symbol_route is None
    assert rep.cores_invariant_route is None
    assert rep.decomposition is None
    assert rep.rank3_extras is None
    doc = rep.to_json_dict()
    assert "cores" not in doc
    assert doc["cores_invariant_route"] is None
    assert "FAILED" in rep.to_text()


def test_report_rejects_form_over_other_field():
    f = quadratic_field(2)
    g = quadratic_field(5)
    form = GramForm.diagonal(g, [g.gen(), g.gen(), g.gen() - g.rational(5)])
    with pytest.raises(FieldMismatch):
        ks_report(f, form)


class Admitted(Exception):
    """Raised by a stand-in even_part: the report got past its budget."""


# (field, top, m, admitted): diag(top, top, -1, ..., -1) of rank m, top
# by its coefficients, of signature (2, m - 2) at place 1 and negative at
# place 2, so C0 of dim 2^(m - 1) and the corestriction of dim
# 2^((m - 1) d) fall on both sides of MAX_C0_DIM and of MAX_CORES_DIM
REPORT_BUDGET = [
    (RATIONAL_FIELD, [1], 11, True), (RATIONAL_FIELD, [1], 12, False),
    (quadratic_field(2), [0, 1], 7, True), (quadratic_field(2), [0, 1], 8, False),
]


@pytest.mark.parametrize("f, top, m, admitted", REPORT_BUDGET,
                         ids=["Q rank 11", "Q rank 12", "sqrt2 rank 7", "sqrt2 rank 8"])
def test_report_budget_refuses_a_valid_form_past_it_before_c0(monkeypatch, f, top, m, admitted):
    assert (MAX_C0_DIM, MAX_CORES_DIM) == (1024, 4096)

    def even_part(*args):
        raise Admitted

    monkeypatch.setattr(pipeline, "even_part", even_part)
    form = GramForm.diagonal(f, [f.elem(top)] * 2 + [-f.one()] * (m - 2))
    if admitted:
        with pytest.raises(Admitted):
            ks_report(f, form)
    else:
        with pytest.raises(MalformedInput, match=re.escape(
                "key 'dim': a report builds C0 of dim at most 1024 and its corestriction of dim at most 4096, "
                f"got {2 ** (m - 1)} and {2 ** ((m - 1) * f.degree)}")):
            ks_report(f, form)


def test_report_budget_waits_for_validation():
    # a degenerate form past the budget is reported as failing validation
    q = RATIONAL_FIELD
    rep = ks_report(q, GramForm.diagonal(q, [q.one()] * 12 + [q.zero()]))
    assert rep.validation.passed is False and rep.cores_dim == 4096


def test_degree_1_baseline_classical_clifford():
    q = RATIONAL_FIELD
    rep = ks_report(q, GramForm.diagonal(q, [q.one(), q.one(), -q.one()]))
    assert rep.ks_dim == 2
    assert rep.cores_dim == 4
    assert rep.cores_symbol_route["reduced"] == rational_symbol(-1, 1)
    assert rep.cores_symbol_route["definiteness"] == "split"
    assert rep.cores_invariant_route["dim"] == 4
    assert rep.cores_invariant_route["trace_signature"] == (3, 1, 0)
    assert rep.cores_invariant_route["definiteness"] == "indefinite_or_split"
    assert rep.route_agreement is True
    assert rep.orbit_data.sizes() == [1]


def test_rank_4_form_runs_invariant_route_only():
    f = quadratic_field(2)
    s = f.gen()
    form = GramForm.diagonal(f, [s, s, s - f.rational(2), s - f.rational(2)])
    rep = ks_report(f, form)
    assert rep.validation.passed
    assert rep.c0_symbol is None
    assert rep.cores_symbol_route is None
    assert rep.rank3_extras is None
    assert rep.route_agreement is None
    assert rep.ks_dim == 2 ** 6
    assert rep.cores_dim == 64
    route = rep.cores_invariant_route
    assert route["dim"] == 64
    # even Clifford algebra of a rank-4 form has a 2-dimensional center
    # over E; dropping to Q raises it to 2^d
    assert route["center_dim"] == 4
    assert route["definiteness"] is None
    assert sum(route["trace_signature"]) == 64


def test_cubic_search_finds_valid_form(cubic_report):
    f = cyclic_cubic_field()
    form = search_cubic_diagonal(f)
    assert form.entries[0][0] == form.entries[1][1]
    report = cubic_report
    assert report.validation.passed
    assert (report.m, report.d) == (3, 3)


def test_cubic_search_with_no_candidate_in_its_box_is_a_named_error(monkeypatch):
    # at bound 0 the one coefficient vector is 0, of sign 0 at every place
    import ksalgebra.pipeline as pl

    monkeypatch.setattr(pl, "SEARCH_COEFF_BOUND", 0)
    with pytest.raises(ParameterConstraintViolated, match="no valid diagonal form with coefficients bounded by 0"):
        search_cubic_diagonal(cyclic_cubic_field())


def oracle_cubic_search(f):
    """The exhaustive search the first-match scan replaced: every pair
    (u, w) of candidates with the right signs, in order, until one passes
    validation."""
    rng = range(-SEARCH_COEFF_BOUND, SEARCH_COEFF_BOUND + 1)
    candidates = [f.elem([Fraction(a), Fraction(b), Fraction(c)]) for a in rng for b in rng for c in rng]
    candidates = [x for x in candidates if x]
    plus_at_first = [
        x for x in candidates
        if sign_at_embedding(x, 1) > 0 and all(sign_at_embedding(x, i) < 0 for i in range(2, 4))
    ]
    all_negative = [x for x in candidates if all(sign_at_embedding(x, i) < 0 for i in range(1, 4))]
    for u in plus_at_first:
        for w in all_negative:
            form = GramForm.diagonal(f, [u, u, w])
            if qform.validate_k3_rm(f, form).passed:
                return form
    return None


def test_cubic_search_matches_the_exhaustive_pair_search():
    f = cyclic_cubic_field()
    assert search_cubic_diagonal(f) == oracle_cubic_search(f)


def test_cubic_instance_unramified_at_infinity(cubic_report):
    rep = cubic_report
    route = rep.cores_symbol_route
    assert route is not None
    assert INF not in route["ramification"]
    assert not is_definite(route["symbol"])
    assert rep.cores_invariant_route["definiteness"] == "indefinite_or_split"
    assert rep.route_agreement is True
    assert rep.cores_invariant_route["dim"] == 64
    assert rep.cores_invariant_route["center_dim"] == 1
    assert rep.cores_invariant_route["trace_signature"] == (36, 28, 0)
    assert rep.orbit_data.sizes() == [1, 3]


def test_parity_law_across_degrees(family_211, cubic_report):
    q = RATIONAL_FIELD
    rep1 = ks_report(q, GramForm.diagonal(q, [q.one(), q.one(), -q.one()]))
    by_degree = {1: rep1, 2: family_211, 3: cubic_report}
    for d, rep in by_degree.items():
        definite = is_definite(rep.cores_symbol_route["symbol"])
        assert definite == (d % 2 == 0)
        assert rep.parity_expected == (
            "definite" if d % 2 == 0 else "indefinite_or_split"
        )
        assert not any("parity" in w for w in rep.warnings)


# rank-3 forms over the stock quartics, with the odd prime their
# corestriction ramifies at: the only end-to-end runs of the fixed algebra
# read at an intermediate E^H, and of the parity claim at d = 4
QUARTIC_RANK3 = (
    (cyclic_quartic_field, lambda f, a: [2 * a - 3, 2 * a - 3, -f.one()], 31),
    (biquadratic_field, lambda f, a: [a - 2, a - 2, -f.one()], 23),
)


@pytest.mark.wallclock
@pytest.mark.parametrize("field, entries, prime", QUARTIC_RANK3, ids=["cyclic quartic", "biquadratic"])
def test_quartic_rank_3_reports_are_definite_and_agree(field, entries, prime):
    f = field()
    form = GramForm.diagonal(f, entries(f, f.gen()))
    start = time.perf_counter()
    rep = ks_report(f, form)
    secs = time.perf_counter() - start
    assert rep.validation.passed
    route = rep.cores_invariant_route
    assert (route["dim"], route["center_dim"]) == (256, 1)
    assert route["trace_signature"] == (120, 136, 0)
    assert route["definiteness"] == "definite"
    assert rep.cores_symbol_route["ramification"].sorted_list() == [prime, INF]
    assert rep.cores_symbol_route["definiteness"] == "definite"
    assert rep.route_agreement is True
    assert rep.parity_expected == "definite"
    assert rep.warnings == ()  # the parity expectation is met
    assert secs < 5, f"took {secs:.2f}s, bound is 5s"


_RANK4_CUBIC_REPORT = """
import resource
from ksalgebra.exactfield import cyclic_cubic_field
from ksalgebra.pipeline import ks_report
from ksalgebra.qform import GramForm
f = cyclic_cubic_field()
a = f.gen()
route = ks_report(f, GramForm.diagonal(f, [a, a, a - 1, a - 2])).cores_invariant_route
print(route["dim"], route["center_dim"], *route["trace_signature"])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_the_rank_4_cubic_report_peaks_under_200_mb():
    # B has dim 512 and ~2 million nonzero entries, ~38,000 of them
    # distinct; the report runs alone in a fresh process, whose peak
    # resident size (ru_maxrss, in KiB on Linux) is the whole report's
    path = [str(Path(__file__).resolve().parent.parent / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", _RANK4_CUBIC_REPORT], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    shape, peak = done.stdout.splitlines()
    assert shape == "512 8 256 256 0"
    assert int(peak) < 200 * 1024, f"peak {int(peak) / 1024:.0f} MB, bound is 200 MB"


def test_symbol_route_unavailable_on_a_rank_3_form():
    # no square scaling by sqrt 2 or a diagonal entry makes the first slot
    # of the C0 symbol of diag(3 sqrt 2 - 2, sqrt 2, -1) rational, so only
    # the invariant route answers; a slot finder that searches further
    # (ROADMAP item 7) should make this input report "routes agree"
    f = quadratic_field(2)
    s = f.gen()
    rep = ks_report(f, GramForm.diagonal(f, [3 * s - 2, s, -f.one()]))
    assert rep.validation.passed
    assert rep.cores_symbol_route is None
    assert rep.warnings == ("first slot of the C0 symbol resisted rationalization",)
    route = rep.cores_invariant_route
    assert route["trace_signature"] == (6, 10, 0)
    assert route["definiteness"] == rep.parity_expected == "definite"
    assert rep.route_agreement is None


def test_dimension_laws_on_reports(family_211, cubic_report):
    for rep in (family_211, cubic_report):
        assert rep.ks_dim == 2 ** (rep.dim_T_Q - 2)
        assert rep.cores_dim == (2 ** (rep.m - 1)) ** rep.d
        assert rep.cores_invariant_route["dim"] == rep.cores_dim
        assert sum(rep.orbit_data.sizes()) == 2 ** (rep.d - 1)


def tensor_chain_signatures(d: int) -> tuple:
    """The reference signatures built literally: the (-1,-1) and (1,1)
    symbol tables over Q, each tensored with d - 1 copies of M_2(Q) by
    kernel_oracle.oracle_tensor, their signatures kernel_oracle's
    block_trace_signature."""
    split, definite = (quaternion_table(rational_symbol(x, x)) for x in (1, -1))
    chain = [(split.table, split.den)] * (d - 1)
    return tuple(block_trace_signature(oracle_tensor(RATIONAL_FIELD, chain + [(a.table, a.den)]))
                 for a in (definite, split))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_reference_signatures_closed_form_matches_tensor_chain(d):
    # the invariant route's verdict rule: no null part, pos - neg = -2^d
    # for the definite class and +2^d for the other
    definite, indefinite = tensor_chain_signatures(d)
    assert definite[2] == indefinite[2] == 0
    assert definite[0] - definite[1] == -(2 ** d)
    assert indefinite[0] - indefinite[1] == 2 ** d


def test_route_disagreement_is_detected(monkeypatch):
    import ksalgebra.pipeline as pl

    real = pl.trace_form_signature

    def swapped(b):
        pos, neg, null = real(b)
        return neg, pos, null

    monkeypatch.setattr(pl, "trace_form_signature", swapped)
    f = quadratic_field(2)
    form = GramForm.diagonal(f, [f.gen(), f.gen(), f.gen() - f.rational(2)])
    with pytest.raises(RouteDisagreement):
        pl.ks_report(f, form)


def test_route_disagreement_is_detected_when_the_invariant_route_says_definite(monkeypatch):
    # the other direction: over the cyclic cubic, diag(u, u, w) with u = -2 -
    # 2 alpha and w = -2 - alpha - 2 alpha^2 has an indefinite symbol route
    # (the cubic search form's is split), and the trace signature swapped
    # makes the invariant route say definite
    import ksalgebra.pipeline as pl

    real = pl.trace_form_signature
    monkeypatch.setattr(pl, "trace_form_signature", lambda b: (lambda pos, neg, null: (neg, pos, null))(*real(b)))
    f = cyclic_cubic_field()
    u, w = f.elem([-2, -2]), f.elem([-2, -1, -2])
    with pytest.raises(RouteDisagreement, match="symbol route says indefinite, invariant route says definite"):
        pl.ks_report(f, GramForm.diagonal(f, [u, u, w]))


# the trace signature (pos, neg, null) as a patched pipeline.trace_form_signature
# gives it, and the warning that the invariant route's verdict then raises
PARITY_WARNINGS = (
    pytest.param(lambda pos, neg, null: (neg, pos, null), "parity expectation definite not met (got indefinite_or_split)",
                 id="swapped"),
    pytest.param(lambda pos, neg, null: (pos - 1, neg, null + 1), "trace signature matches neither reference class",
                 id="null part"),
)


@pytest.mark.parametrize("patch, warning", PARITY_WARNINGS)
def test_the_invariant_route_alone_warns_on_its_verdict(monkeypatch, patch, warning):
    # over Q(sqrt 2), diag(3 sqrt 2 - 2, sqrt 2, -1) has no symbol route, so
    # the invariant route's verdict alone meets the parity expectation or not
    import ksalgebra.pipeline as pl

    f = quadratic_field(2)
    a = f.gen()
    form = GramForm.diagonal(f, [3 * a - 2, a, f.rational(-1)])
    first = "first slot of the C0 symbol resisted rationalization"
    assert pl.ks_report(f, form).warnings == (first,)
    real = pl.trace_form_signature
    monkeypatch.setattr(pl, "trace_form_signature", lambda b: patch(*real(b)))
    report = pl.ks_report(f, form)
    assert report.cores_symbol_route is None
    assert report.warnings == (first, warning)


def test_orbit_data_json_shape():
    data = even_weight_orbits(3, cyclic_generators(3), 3)
    doc = data.to_json_dict()
    assert doc == {
        "d": 3,
        "group_order": 3,
        "orbits": [
            {"representative": [0, 0, 0], "size": 1, "stabilizer": 3},
            {"representative": [0, 1, 1], "size": 3, "stabilizer": 1},
        ],
    }
    assert isinstance(data, OrbitData)
