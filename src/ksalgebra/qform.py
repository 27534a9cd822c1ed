"""Quadratic forms over a totally real Galois field, diagonalized exactly.

Symmetric Bareiss congruence (Bareiss, Math. Comp. 22, 1968) on the
field's integer vectors, for E and Q alike: at each step take the first
nonzero diagonal entry in the active block as pivot; if the whole active
diagonal vanishes but some off-diagonal entry survives, mix that column in
(e_i <- e_i + e_j) to create a pivot, which works in characteristic zero
since the new diagonal entry is twice the off-diagonal one.  The pivots
M_1, M_2, ... are minors of the matrix, and the step after M_k divides by
it exactly: it multiplies by the adjugate of M_k and divides the integers
by its norm.  The diagonal is D_k = M_k / M_(k-1), M_0 = 1, and the
integer change of basis P_int is certified in integers, P_int^T G P_int =
diag(M_(k-1) M_k) (CertificateFailure otherwise), so every diagonal
is certified where it is made.

Signatures are per real place: count exact signs of the diagonal entries
under each embedding.  The K3-with-real-multiplication shape is signature
(2, m-2) at the distinguished place and negative definite at all others;
for m = 3 that profile is a hard requirement, beyond m = 3 it is the
natural generalization and only flagged as a warning when it fails.
"""

from dataclasses import dataclass, field as dc_field
from math import lcm
from operator import add

from .errors import CertificateFailure, DegenerateForm, FieldMismatch, MalformedInput
from .exactfield import (
    FieldDescriptor,
    FieldElem,
    parse_rational,
    sign_at_embedding,
)


class GramForm:
    """A symmetric Gram matrix with entries in the field, else MalformedInput."""

    def __init__(self, field: FieldDescriptor, entries):
        self.field = field
        self.entries: list[list[FieldElem]] = [[self._coerce(e) for e in row] for row in entries]
        m = self.dim = len(self.entries)
        if any(len(row) != m for row in self.entries):
            raise MalformedInput(f"key 'entries': expected a {m}x{m} matrix")
        ij = next(((i, j) for i in range(m) for j in range(i) if self.entries[i][j] != self.entries[j][i]), None)
        if ij:
            raise MalformedInput(f"key 'entries': not symmetric at ({ij[0] + 1}, {ij[1] + 1})")

    def _coerce(self, e) -> FieldElem:
        if isinstance(e, FieldElem):
            if e.field != self.field:
                raise FieldMismatch("Gram entry lives in a different field")
            return e
        return self.field.rational(e)

    @classmethod
    def diagonal(cls, field: FieldDescriptor, entries) -> "GramForm":
        entries = list(entries)
        m = len(entries)
        zero = field.zero()
        return cls(field, [[entries[i] if i == j else zero for j in range(m)] for i in range(m)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GramForm)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        rows = "; ".join("[" + ", ".join(repr(e) for e in row) + "]" for row in self.entries)
        return f"GramForm({rows})"


@dataclass
class DiagForm:
    """The diagonal entries of a form, from a certified congruence."""

    field: FieldDescriptor
    entries: list[FieldElem]


def congruence_diagonalize(matrix, field: FieldDescriptor):
    """The diagonal P^T A P, as FieldElems, for A a symmetric matrix of
    integer vectors (d ints each, over 1), by the module's Bareiss, with
    P_int = P diag(M_k) certified in integers.  A totally isotropic active
    block ends it: the radical gives zero entries."""
    m, multiply, rd = len(matrix), field.multiply, field.reduction_den
    zero = (0,) * field.degree
    a, one = [list(row) for row in matrix], (1,) + zero[1:]
    cols = [[one if r == c else zero for r in range(m)] for c in range(m)]  # P_int
    adj, rn, steps = one, rd, []  # at step k, a vector v over M_k is multiply(v, adj) / rn

    def step(x, b, y):  # (M_(k+1) x - b y) / M_k
        w = [s - t for s, t in zip(multiply(pivot, x), multiply(b, y))]
        return tuple([z // rn for z in multiply(w, adj)])

    for k in range(m):
        if k:
            adj, n = field.adjugate(pivot)
            adj, rn = (adj, rd * n) if n > 0 else (tuple([-x for x in adj]), -rd * n)
        piv = next((i for i in range(k, m) if any(a[i][i])), None)
        if piv is None:
            off = next(((i, j) for i in range(k, m) for j in range(i + 1, m) if any(a[i][j])), None)
            if off is None:
                steps += [(zero, adj, rn)] * (m - k)
                break
            piv, j = off  # e_piv += e_j: the diagonal entry becomes 2 a[piv][j] != 0
            for r in range(k, m):
                a[r][piv] = tuple(map(add, a[r][piv], a[r][j]))
            a[piv] = [tuple(map(add, x, y)) for x, y in zip(a[piv], a[j])]
            cols[piv] = [tuple(map(add, x, y)) for x, y in zip(cols[piv], cols[j])]
        if piv != k:
            for row in a:
                row[k], row[piv] = row[piv], row[k]
            a[k], a[piv] = a[piv], a[k]
            cols[k], cols[piv] = cols[piv], cols[k]
        pivot, top = a[k][k], a[k]
        steps.append((pivot, adj, rn))
        for i in range(k + 1, m):
            for j in range(i, m):
                a[i][j] = a[j][i] = step(a[i][j], top[i], top[j])
        for j in range(k + 1, m):
            cols[j] = [step(x, top[j], y) for x, y in zip(cols[j], cols[k])]
    # P_int^T A P_int = diag(M_i M_(i+1)): entry (i, i) over M_i is rd^2 times the pivot M_(i+1)
    for i, (row, (pivot, adj, rn)) in enumerate(zip(_congruence_products(field, matrix, cols), steps)):
        for j, x in enumerate(row):
            if (multiply(x, adj) != tuple([rd * rd * rn * y for y in pivot])) if i == j else any(x):
                raise CertificateFailure(f"congruence certificate P^T G P fails at ({i},{j})")
    return [field.from_integers(multiply(v, adj), rn) for v, adj, rn in steps]


def _congruence_products(field: FieldDescriptor, matrix, cols) -> list[list[tuple[int, ...]]]:
    """cols[i]^T matrix cols[j] at (i, j): each entry of matrix cols[j], then
    of cols[i]^T times those, is the sum of the FieldDescriptor.multiply
    products of its terms with no zero factor, so over reduction_den^2 and
    the columns' denominators."""
    multiply, zero = field.multiply, (0,) * field.degree

    def dot(u, v):
        terms = [multiply(x, y) for x, y in zip(u, v) if any(x) and any(y)]
        return tuple(map(sum, zip(*terms))) if terms else zero

    images = [[dot(row, c) for row in matrix] for c in cols]  # images[j] = matrix cols[j]
    return [[dot(c, y) for y in images] for c in cols]


def diagonalize(g: GramForm) -> DiagForm:
    """Diagonalize a non-degenerate Gram form, certified in integers: the
    entries over their common denominator L, the diagonal divided by L."""
    f = g.field
    den = lcm(1, *(e.den for row in g.entries for e in row))
    rows = [[tuple([x * (den // e.den) for x in e.num]) for e in row] for row in g.entries]
    diag = congruence_diagonalize(rows, f)
    if not all(diag):
        raise DegenerateForm("form has a totally isotropic active block")
    return DiagForm(f, [f.from_integers(e.num, e.den * den) for e in diag])


def _inertia(diag: DiagForm, i: int) -> tuple[int, int]:
    signs = [sign_at_embedding(e, i) for e in diag.entries]
    assert all(s != 0 for s in signs)
    return signs.count(1), signs.count(-1)


@dataclass
class ValidationCheck:
    name: str
    ok: bool
    severity: str  # "error" | "warning"
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "severity": self.severity, "detail": self.detail}


@dataclass
class ValidationReport:
    checks: list[ValidationCheck] = dc_field(default_factory=list)
    diag: DiagForm | None = dc_field(default=None, init=False)  # set when non-degenerate

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks if c.severity == "error")

    @property
    def warnings(self) -> list[str]:
        return [f"{c.name}: {c.detail}" for c in self.checks if not c.ok and c.severity == "warning"]

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
            "warnings": self.warnings,
        }


def validate_k3_rm(f: FieldDescriptor, g: GramForm) -> ValidationReport:
    """Check the K3-with-real-multiplication signature profile.

    Requirements: dim >= 3, non-degenerate, signature (2, m-2) at place 1
    and (0, m) at every other place.  The profile checks are errors for
    m = 3 and warnings beyond (the shape is only pinned down classically
    in the rank-3 case).  The form is diagonalized once and every place
    reads its signs from that one diagonal, which the report hands on.
    """
    if g.field != f:
        raise FieldMismatch("form is not defined over the given field")
    report = ValidationReport()
    m = g.dim
    report.checks.append(
        ValidationCheck("dimension", m >= 3, "error", f"need dim >= 3, found {m}")
    )
    if m < 1:
        return report
    try:
        diag = report.diag = diagonalize(g)
        report.checks.append(ValidationCheck("non_degenerate", True, "error", "determinant is nonzero"))
    except DegenerateForm as exc:
        report.checks.append(ValidationCheck("non_degenerate", False, "error", str(exc)))
        return report
    profile_severity = "error" if m == 3 else "warning"
    want_first = (2, m - 2)
    got = _inertia(diag, 1)
    report.checks.append(
        ValidationCheck(
            "signature_place_1",
            got == want_first,
            profile_severity,
            f"want {want_first}, found {got}",
        )
    )
    for i in range(2, f.degree + 1):
        got = _inertia(diag, i)
        report.checks.append(
            ValidationCheck(
                f"signature_place_{i}",
                got == (0, m),
                profile_severity,
                f"want {(0, m)}, found {got}",
            )
        )
    return report


# -- JSON ----------------------------------------------------------------------


def _parse_entry(field: FieldDescriptor, value, key: str) -> FieldElem:
    if isinstance(value, list):
        if len(value) > field.degree:
            raise MalformedInput(f"key {key!r}: coefficient list longer than field degree")
        return field.elem([parse_rational(c, key) for c in value])
    return field.rational(parse_rational(value, key))


def gram_from_json_dict(field: FieldDescriptor, doc: dict) -> GramForm:
    if not isinstance(doc, dict):
        raise MalformedInput("form document must be a JSON object")
    for key in ("dim", "entries"):
        if key not in doc:
            raise MalformedInput(f"form document is missing key {key!r}")
    m = doc["dim"]
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise MalformedInput("key 'dim': expected a positive integer")
    if m * field.degree > 21:  # a projective K3 has a transcendental lattice of rank at most 21
        raise MalformedInput(f"key 'dim': dim times the field degree must be at most 21, got {m} x {field.degree}")
    rows = doc["entries"]
    if not isinstance(rows, list) or len(rows) != m or any(
        not isinstance(r, list) or len(r) != m for r in rows
    ):
        raise MalformedInput(f"key 'entries': expected a {m}x{m} matrix")
    return GramForm(field, [[_parse_entry(field, rows[i][j], "entries") for j in range(m)] for i in range(m)])
