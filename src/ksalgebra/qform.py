"""Quadratic forms over a totally real Galois field, diagonalized exactly.

Symmetric Gauss congruence: at each step take the first nonzero diagonal
entry in the active block as pivot; if the whole active diagonal vanishes
but some off-diagonal entry survives, mix that column in (e_i <- e_i + e_j)
to create a pivot, which works in characteristic zero since the new
diagonal entry is twice the off-diagonal one.  The change of basis P is
accumulated and P^T G P = diag is checked exactly (CertificateFailure
otherwise), so every diagonalization carries its own certificate.

Signatures are per real place: count exact signs of the diagonal entries
under each embedding.  The K3-with-real-multiplication shape is signature
(2, m-2) at the distinguished place and negative definite at all others;
for m = 3 that profile is a hard requirement, beyond m = 3 it is the
natural generalization and only flagged as a warning when it fails.
"""

from dataclasses import dataclass, field as dc_field

from .errors import CertificateFailure, DegenerateForm, FieldMismatch, MalformedInput
from .exactfield import (
    FieldDescriptor,
    FieldElem,
    parse_rational,
    sign_at_embedding,
)


class GramForm:
    """A symmetric Gram matrix with entries in the field."""

    def __init__(self, field: FieldDescriptor, entries):
        self.field = field
        self.entries: list[list[FieldElem]] = [[self._coerce(e) for e in row] for row in entries]
        self.dim = len(self.entries)
        for row in self.entries:
            assert len(row) == self.dim, "Gram matrix must be square"
        for i in range(self.dim):
            for j in range(i):
                assert self.entries[i][j] == self.entries[j][i], "Gram matrix must be symmetric"

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
    """Diagonal entries plus the congruence certificate that produced them."""

    field: FieldDescriptor
    entries: list[FieldElem]
    certificate: list[list[FieldElem]]  # P with P^T G P = diag(entries)


def _mat_mul(a, b, field):
    n, k, m = len(a), len(b), len(b[0])
    zero = field.zero()
    out = [[zero for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for t in range(k):
            ait = a[i][t]
            if not ait:
                continue
            for j in range(m):
                if b[t][j]:
                    out[i][j] = out[i][j] + ait * b[t][j]
    return out


def _transpose(a):
    return [list(col) for col in zip(*a)]


def congruence_diagonalize(matrix, field: FieldDescriptor):
    """Symmetric Gauss over the field; returns (diag, P) with P^T A P = diag.

    A totally isotropic active block ends the elimination, so the radical
    shows up as zero diagonal entries.
    """
    m = len(matrix)
    a = [[e for e in row] for row in matrix]
    zero, one = field.zero(), field.one()
    p = [[one if i == j else zero for j in range(m)] for i in range(m)]

    def col_add(dst: int, src: int, lam: FieldElem) -> None:
        # basis op v_dst += lam * v_src, applied congruently
        for r in range(m):
            a[r][dst] = a[r][dst] + lam * a[r][src]
        for r in range(m):
            a[dst][r] = a[dst][r] + lam * a[src][r]
        for r in range(m):
            p[r][dst] = p[r][dst] + lam * p[r][src]

    def swap(i: int, j: int) -> None:
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(m):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    for k in range(m):
        piv = next((i for i in range(k, m) if a[i][i]), None)
        if piv is None:
            off = next(
                ((i, j) for i in range(k, m) for j in range(i + 1, m) if a[i][j]),
                None,
            )
            if off is None:
                break
            i, j = off
            col_add(i, j, one)  # diagonal entry becomes 2*a[i][j] != 0
            piv = i
        if piv != k:
            swap(k, piv)
        for j in range(k + 1, m):
            if a[k][j]:
                col_add(j, k, -(a[k][j] / a[k][k]))

    diag = [a[i][i] for i in range(m)]
    check = _mat_mul(_mat_mul(_transpose(p), [list(r) for r in matrix], field), p, field)
    for i in range(m):
        for j in range(m):
            if check[i][j] != (diag[i] if i == j else zero):
                raise CertificateFailure(f"congruence certificate P^T G P fails at ({i},{j})")
    return diag, p


def diagonalize(g: GramForm) -> DiagForm:
    """Diagonalize a non-degenerate Gram form with an exact certificate."""
    diag, p = congruence_diagonalize(g.entries, g.field)
    if not all(diag):
        raise DegenerateForm("form has a totally isotropic active block")
    return DiagForm(g.field, diag, p)


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
    rows = doc["entries"]
    if not isinstance(rows, list) or len(rows) != m or any(
        not isinstance(r, list) or len(r) != m for r in rows
    ):
        raise MalformedInput(f"key 'entries': expected a {m}x{m} matrix")
    entries = [[_parse_entry(field, rows[i][j], "entries") for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i):
            if entries[i][j] != entries[j][i]:
                raise MalformedInput(f"key 'entries': not symmetric at ({i + 1}, {j + 1})")
    return GramForm(field, entries)
