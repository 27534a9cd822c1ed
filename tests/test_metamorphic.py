"""Metamorphic tests: a report depends on the isometry class of the form only.

A seeded generator draws diagonal forms that meet the K3 signature profile,
(2, m - 2) at place 1 and (0, m) at every other place, five per field and
rank: over Q, Q(sqrt 2) and Q(sqrt 5) at m = 3 and 4 and over the cyclic
cubic at m = 3.  Each form is changed four ways, none of which changes the
corestriction of its even Clifford algebra (Lam, Introduction to Quadratic
Forms over Fields, Ch. I and V):

- its entries permuted;
- one entry multiplied by the square (alpha + 1)^2, or 2^2 over Q, where
  the generator alpha is 0;
- the whole form multiplied by the totally positive lambda = alpha + 3, as
  C0(lambda q) and C0(q) are isomorphic;
- the form given as the Gram matrix P^T D P of a unitriangular P, which the
  report diagonalizes itself.

The report of each must agree with the form's own: validation, dim, center
dim, trace signature (read off the fixed algebra's unit column at every
field), definiteness and warnings, and the ramification set
where both reports have a symbol route.  The C0 symbol, its scalings and
the field block are not invariants and are not compared.  Whether the
symbol route is available may change with the presentation; such a change
is printed (pytest -s shows it), not failed.
"""

import random
from functools import lru_cache

import pytest

from ksalgebra.exactfield import RATIONAL_FIELD, cyclic_cubic_field, quadratic_field, sign_at_embedding
from ksalgebra.pipeline import ks_report
from ksalgebra.qform import GramForm

FIELDS = {"Q": lambda: RATIONAL_FIELD, "Q(sqrt 2)": lambda: quadratic_field(2),
          "Q(sqrt 5)": lambda: quadratic_field(5), "cubic": cyclic_cubic_field}
CONFIGS = (("Q", 3), ("Q", 4), ("Q(sqrt 2)", 3), ("Q(sqrt 2)", 4), ("Q(sqrt 5)", 3), ("Q(sqrt 5)", 4),
           ("cubic", 3))
FORMS = 5  # per config
RESISTED = "first slot of the C0 symbol resisted rationalization"


@lru_cache(maxsize=None)
def field(label: str):
    return FIELDS[label]()


def signs(x) -> tuple:
    return tuple(sign_at_embedding(x, i) for i in range(1, x.field.degree + 1))


def draw_entry(f, rng: random.Random, want: tuple):
    """The first element with coefficients in [-3, 3] drawn whose signs at
    the places are want."""
    while True:
        x = f.elem([rng.randint(-3, 3) for _ in range(f.degree)])
        if x and signs(x) == want:
            return x


@lru_cache(maxsize=None)
def diagonal_form(label: str, m: int, index: int) -> tuple:
    """Seeded entries of a profile-valid diagonal form: two positive at
    place 1 only, the other m - 2 totally negative.  At an even index the
    first entry is repeated, diag(u, u, ...), whose C0 symbol has the first
    slot -u^2, so that the symbol route is there to compare."""
    f = field(label)
    rng = random.Random(f"{label} m={m} #{index}")
    first = (1,) + (-1,) * (f.degree - 1)
    entries = [draw_entry(f, rng, first if i < 2 else (-1,) * f.degree) for i in range(m)]
    if index % 2 == 0:
        entries[1] = entries[0]
    return tuple(entries)


def gram(f, entries, p) -> GramForm:
    """P^T diag(entries) P."""
    m = len(entries)
    return GramForm(f, [[sum((p[k][i] * entries[k] * p[k][j] for k in range(m)), f.zero()) for j in range(m)]
                        for i in range(m)])


def transforms(label: str, m: int, index: int) -> dict:
    """The four forms of the same class as diagonal_form(label, m, index)."""
    f, entries = field(label), list(diagonal_form(label, m, index))
    rng = random.Random(f"{label} m={m} #{index} transforms")
    a = f.gen()
    order = list(range(m))
    while order == list(range(m)):
        rng.shuffle(order)
    i = rng.randrange(m)
    root = a + 1 if a else f.rational(2)
    square = [e * root * root if k == i else e for k, e in enumerate(entries)]
    lam = a + 3
    assert signs(lam) == (1,) * f.degree
    p = [[f.one() if r == c else f.elem([rng.randint(-1, 1) for _ in range(f.degree)]) if r < c else f.zero()
          for c in range(m)] for r in range(m)]
    return {
        "permuted": GramForm.diagonal(f, [entries[k] for k in order]),
        "square": GramForm.diagonal(f, square),
        "scaled": GramForm.diagonal(f, [lam * e for e in entries]),
        "congruent": gram(f, entries, p),
    }


def compared(rep) -> dict:
    route = rep.cores_invariant_route
    return {
        "passed": rep.validation.passed,
        "dim": route["dim"],
        "center_dim": route["center_dim"],
        "trace_signature": route["trace_signature"],
        "definiteness": route["definiteness"],
        "warnings": [w for w in rep.warnings if w != RESISTED],
    }


CASES = [(label, m, index) for label, m in CONFIGS for index in range(FORMS)]


@pytest.mark.parametrize("label, m, index", CASES, ids=[f"{label} m={m} #{i}" for label, m, i in CASES])
def test_report_depends_on_the_isometry_class_only(label, m, index):
    f = field(label)
    base = ks_report(f, GramForm.diagonal(f, diagonal_form(label, m, index)))
    assert base.validation.passed and not base.validation.warnings
    expected = compared(base)
    for name, form in transforms(label, m, index).items():
        rep = ks_report(f, form)
        assert compared(rep) == expected, name
        had, has = base.cores_symbol_route is not None, rep.cores_symbol_route is not None
        if had and has:
            ram = [route["ramification"].sorted_list() for route in (rep.cores_symbol_route, base.cores_symbol_route)]
            assert ram[0] == ram[1], name
        elif had != has:
            print(f"symbol route {label} m={m} #{index} {name}: {'lost' if had else 'gained'}")
