import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksalgebra.errors import DegenerateForm, FieldMismatch, MalformedInput
from ksalgebra.exactfield import (
    RATIONAL_FIELD,
    apply_automorphism,
    cyclic_cubic_field,
    quadratic_field,
    sign_at_embedding,
)
from ksalgebra.qform import (
    DiagForm,
    GramForm,
    congruence_diagonalize,
    diagonalize,
    gram_from_json_dict,
    validate_k3_rm,
)

from kernel_oracle import congruence
from test_associativity import run_under_O
from test_exactfield import HALF

Q2 = quadratic_field(2)
CUBIC = cyclic_cubic_field()


def family_form(d: int, c: int) -> GramForm:
    # diag(sqrt(d), sqrt(d), c*sqrt(d) - d) over Q(sqrt(d))
    f = quadratic_field(d)
    a = f.gen()
    return GramForm.diagonal(f, [a, a, c * a - d])


def signature(g: GramForm, i: int) -> tuple[int, int]:
    signs = [sign_at_embedding(e, i) for e in diagonalize(g).entries]
    return signs.count(1), signs.count(-1)


def integer_rows(g: GramForm) -> list[list[tuple[int, ...]]]:
    # the entries of a form with integer coefficients as congruence_diagonalize takes them
    assert all(e.den == 1 for row in g.entries for e in row)
    return [[e.num for e in row] for row in g.entries]


def oracle_congruence(g: GramForm) -> tuple[list, list]:
    """kernel_oracle.congruence on the Fraction coefficients of g, as
    FieldElems: (diag, P) with P^T G P = diag."""
    f = g.field
    diag, p = congruence([[[Fraction(x, e.den) for x in e.num] for e in row] for row in g.entries], f)
    return [f.elem(c) for c in diag], [[f.elem(c) for c in row] for row in p]


def check_certificate(g: GramForm, diag: DiagForm) -> None:
    # the diagonal is the Fraction congruence's, and that congruence's P
    # has P^T G P == diag(entries), recomputed independently
    m = g.dim
    want, p = oracle_congruence(g)
    assert diag.entries == want
    for i in range(m):
        for j in range(m):
            acc = g.field.zero()
            for r in range(m):
                for s in range(m):
                    acc = acc + p[r][i] * g.entries[r][s] * p[s][j]
            want = diag.entries[i] if i == j else g.field.zero()
            assert acc == want


def test_diagonal_form_is_fixed_point():
    g = GramForm.diagonal(Q2, [Q2.gen(), Q2.rational(3), Q2.gen() - 2])
    diag = diagonalize(g)
    assert diag.entries == [Q2.gen(), Q2.rational(3), Q2.gen() - 2]
    assert oracle_congruence(g) == (diag.entries, [
        [Q2.one() if i == j else Q2.zero() for j in range(3)] for i in range(3)
    ])


def test_hyperbolic_plane_splits_into_one_of_each_sign():
    g = GramForm(RATIONAL_FIELD, [[0, 1], [1, 0]])
    diag = diagonalize(g)
    check_certificate(g, diag)
    signs = sorted(sign_at_embedding(e, 1) for e in diag.entries)
    assert signs == [-1, 1]


def test_dense_rank3_certificate():
    g = GramForm(Q2, [[Q2.gen(), 1, 0], [1, Q2.rational(2), Q2.gen()], [0, Q2.gen(), -1]])
    diag = diagonalize(g)
    check_certificate(g, diag)
    assert all(diag.entries)


def test_degenerate_raises():
    g = GramForm(RATIONAL_FIELD, [[1, 1], [1, 1]])
    with pytest.raises(DegenerateForm):
        diagonalize(g)
    with pytest.raises(DegenerateForm):
        signature(g, 1)


def test_zero_block_tolerated_when_allowed():
    g = GramForm(RATIONAL_FIELD, [[1, 1], [1, 1]])
    diag = congruence_diagonalize(integer_rows(g), RATIONAL_FIELD)
    signs = [1 if sign_at_embedding(e, 1) > 0 else (-1 if sign_at_embedding(e, 1) < 0 else 0) for e in diag]
    assert sorted(signs) == [0, 1]


def test_degenerate_gram_comes_back_with_its_radical():
    # the radical is a zero diagonal entry, as under the Fraction
    # congruence's P, and diagonalize rejects it with the same message as ever
    g = GramForm(RATIONAL_FIELD, [[1, 1], [1, 1]])
    diag = congruence_diagonalize(integer_rows(g), RATIONAL_FIELD)
    assert sorted(bool(e) for e in diag) == [False, True]
    want, p = oracle_congruence(g)
    assert diag == want
    zero = RATIONAL_FIELD.zero()
    for i in range(2):
        for j in range(2):
            entry = sum((p[r][i] * g.entries[r][c] * p[c][j] for r in range(2) for c in range(2)), zero)
            assert entry == (diag[i] if i == j else zero)
    with pytest.raises(DegenerateForm, match=r"^form has a totally isotropic active block$"):
        diagonalize(g)


def random_symmetric(rng: random.Random, field, m: int, kind: str) -> list[list[tuple[int, ...]]]:
    """A symmetric m x m matrix of integer vectors with coefficients in
    [-3, 3], about a third of them zero.  kind "mix" zeroes the diagonal,
    so the elimination has to make its first pivot by e_i += e_j; kind
    "radical" repeats the first row and column as the last ones, so the
    matrix is singular and the radical comes back as zero entries."""
    entries: dict = {}
    for i in range(m):
        for j in range(i, m):
            x = tuple(rng.randint(-3, 3) if rng.random() < 0.7 else 0 for _ in range(field.degree))
            entries[i, j] = entries[j, i] = (0,) * field.degree if kind == "mix" and i == j else x
    if kind == "radical":
        for r in range(m):
            entries[r, m - 1] = entries[m - 1, r] = entries[r, 0] if r < m - 1 else entries[0, 0]
    return [[entries[i, j] for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("field", [RATIONAL_FIELD, Q2, CUBIC, HALF], ids=repr)
def test_bareiss_matches_the_fraction_congruence(field):
    # congruence_diagonalize raises unless P_int^T A P_int = diag(M_k
    # M_(k+1)) holds in integers; its diagonal must be that of the Gauss
    # congruence on Fraction coefficient lists, and P^T A P = diag is
    # recomputed here with FieldElems on that congruence's P
    rng = random.Random(2024)
    zero, seen = field.zero(), {"mix": 0, "radical": 0}
    for trial in range(45):
        kind, m = ("plain", "mix", "radical")[trial % 3], rng.randint(2, 5)
        matrix = random_symmetric(rng, field, m, kind)
        diag = congruence_diagonalize(matrix, field)
        want_diag, want_p = congruence([[[Fraction(x) for x in e] for e in row] for row in matrix], field)
        assert diag == [field.elem(c) for c in want_diag]
        p = [[field.elem(c) for c in row] for row in want_p]
        a = [[field.from_integers(e, 1) for e in row] for row in matrix]
        for i in range(m):
            for j in range(m):
                entry = sum((p[r][i] * a[r][s] * p[s][j] for r in range(m) for s in range(m)), zero)
                assert entry == (diag[i] if i == j else zero)
        seen["mix"] += kind == "mix" and any(any(e) for row in matrix for e in row)
        seen["radical"] += not all(diag)
    assert seen["mix"] >= 10 and seen["radical"] >= 10


def test_family_form_signatures():
    for d, c in [(2, 1), (5, 1), (13, 2)]:
        g = family_form(d, c)
        assert signature(g, 1) == (2, 1)
        assert signature(g, 2) == (0, 3)


def test_family_form_conjugate_entries():
    d, c = 2, 1
    g = family_form(d, c)
    f = g.field
    gc = GramForm(f, [[apply_automorphism(e, 2) for e in row] for row in g.entries])
    a = f.gen()
    assert gc.entries[0][0] == -a
    assert gc.entries[2][2] == -(c * a) - d


def test_conjugation_commutes_with_diagonalization():
    a = CUBIC.gen()
    g = GramForm(CUBIC, [[a, 1, 0], [1, 0, a * a], [0, a * a, -2]])
    base = diagonalize(g)
    for i in (1, 2, 3):
        twisted = diagonalize(
            GramForm(CUBIC, [[apply_automorphism(e, i) for e in row] for row in g.entries])
        )
        assert twisted.entries == [apply_automorphism(e, i) for e in base.entries]


small_rat = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rat, min_size=6, max_size=6), st.permutations(list(range(3))))
def test_signature_is_basis_invariant(vals, perm):
    entries = [
        [vals[0], vals[1], vals[2]],
        [vals[1], vals[3], vals[4]],
        [vals[2], vals[4], vals[5]],
    ]
    g = GramForm(RATIONAL_FIELD, entries)
    try:
        sig = signature(g, 1)
    except DegenerateForm:
        return
    shuffled = GramForm(
        RATIONAL_FIELD,
        [[entries[perm[i]][perm[j]] for j in range(3)] for i in range(3)],
    )
    assert signature(shuffled, 1) == sig
    assert sum(sig) == 3


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=12, max_size=12)
)
def test_certificate_always_exact_over_quadratic_field(raw):
    a = Q2.gen()
    pool = [raw[2 * k] + raw[2 * k + 1] * a for k in range(6)]
    entries = [
        [pool[0], pool[1], pool[2]],
        [pool[1], pool[3], pool[4]],
        [pool[2], pool[4], pool[5]],
    ]
    g = GramForm(Q2, entries)
    try:
        diag = diagonalize(g)
    except DegenerateForm:
        return
    check_certificate(g, diag)
    for i in (1, 2):
        pos, neg = signature(g, i)
        assert pos + neg == 3


def test_validate_family_form_passes_cleanly():
    g = family_form(2, 1)
    report = validate_k3_rm(g.field, g)
    assert report.passed
    assert report.warnings == []
    names = [c.name for c in report.checks]
    assert names == ["dimension", "non_degenerate", "signature_place_1", "signature_place_2"]


def test_validate_identity_form_fails_hard():
    g = GramForm.diagonal(Q2, [1, 1, 1])
    report = validate_k3_rm(Q2, g)
    assert not report.passed
    failed = [c.name for c in report.checks if not c.ok]
    assert "signature_place_1" in failed or "signature_place_2" in failed


def test_validate_dimension_and_degeneracy():
    small = GramForm.diagonal(RATIONAL_FIELD, [1, -1])
    assert not validate_k3_rm(RATIONAL_FIELD, small).passed
    # a 0 x 0 form fails the dimension check and is not diagonalized
    empty = validate_k3_rm(RATIONAL_FIELD, GramForm(RATIONAL_FIELD, []))
    assert [(c.name, c.ok) for c in empty.checks] == [("dimension", False)] and empty.diag is None
    degen = GramForm(RATIONAL_FIELD, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    report = validate_k3_rm(RATIONAL_FIELD, degen)
    assert not report.passed
    assert any(c.name == "non_degenerate" and not c.ok for c in report.checks)


def test_gram_form_repr_lists_its_rows():
    g = GramForm.diagonal(Q2, [Q2.one(), Q2.gen(), Q2.rational(-3)])
    assert repr(g) == "GramForm([1, 0, 0]; [0, sqrt2, 0]; [0, 0, -3])"


def test_validate_rank4_profile_is_only_a_warning():
    g = GramForm.diagonal(RATIONAL_FIELD, [1, 1, 1, -1])
    report = validate_k3_rm(RATIONAL_FIELD, g)
    assert report.passed
    assert len(report.warnings) == 1
    doc = report.to_json_dict()
    assert doc["passed"] is True and len(doc["checks"]) == 3


def test_validate_rational_rank3():
    g = GramForm.diagonal(RATIONAL_FIELD, [1, 1, -1])
    assert validate_k3_rm(RATIONAL_FIELD, g).passed


def test_validate_rejects_field_mismatch():
    g = GramForm.diagonal(RATIONAL_FIELD, [1, 1, -1])
    with pytest.raises(FieldMismatch):
        validate_k3_rm(Q2, g)
    with pytest.raises(FieldMismatch):
        GramForm.diagonal(Q2, [RATIONAL_FIELD.one()])


def test_gram_json_round_trip():
    # the "form" document of the README's input.json example
    doc = {
        "dim": 3,
        "entries": [
            [["0", "1"], "0", "0"],
            ["0", ["0", "1"], "0"],
            ["0", "0", ["-2", "1"]],
        ],
    }
    g = gram_from_json_dict(Q2, doc)
    assert g == family_form(2, 1)
    assert [[e.to_json() for e in row] for row in g.entries] == doc["entries"]


def test_gram_json_rational_shorthand():
    g = gram_from_json_dict(RATIONAL_FIELD, {"dim": 2, "entries": [[1, "1/2"], ["1/2", -3]]})
    assert g.entries[0][1] == RATIONAL_FIELD.rational(Fraction(1, 2))


@pytest.mark.parametrize(
    "doc,needle",
    [
        ({"entries": [[1]]}, "dim"),
        ({"dim": 2, "entries": [[1, 0]]}, "entries"),
        ({"dim": 1, "entries": [[1.5]]}, "entries"),
        ({"dim": 2, "entries": [[1, 2], [3, 1]]}, "symmetric"),
        ({"dim": 0, "entries": []}, "dim"),
        ({"dim": 1, "entries": [[[1, 2, 3]]]}, "degree"),
    ],
)
def test_gram_json_malformed(doc, needle):
    with pytest.raises(MalformedInput, match=needle):
        gram_from_json_dict(Q2, doc)


def malformed_grams() -> list:
    """(rows over Q(sqrt 2), message) that GramForm must refuse in every
    mode, with the message the JSON reader gives for the same entries."""
    a = Q2.gen()
    return [([[a, 1], [1, a, 0]], "key 'entries': expected a 2x2 matrix"),
            ([[a, 1], [2, a]], "key 'entries': not symmetric at (2, 1)")]


def test_gram_form_rejects_a_matrix_that_is_not_square_or_not_symmetric():
    for rows, message in malformed_grams():
        with pytest.raises(MalformedInput, match=re.escape(message)):
            GramForm(Q2, rows)


_MALFORMED_UNDER_O = """
from test_qform import Q2, malformed_grams
from ksalgebra.errors import MalformedInput
from ksalgebra.qform import GramForm

if __debug__:
    raise SystemExit("not running under python -O")
for rows, _ in malformed_grams():
    try:
        GramForm(Q2, rows)
    except MalformedInput as exc:
        print(exc)
    else:
        raise SystemExit(f"{rows} accepted")
"""


def test_gram_form_rejects_a_malformed_matrix_under_python_O():
    done = run_under_O(_MALFORMED_UNDER_O)
    assert done.returncode == 0, done.stderr or done.stdout
    assert done.stdout.splitlines() == [message for _, message in malformed_grams()]
