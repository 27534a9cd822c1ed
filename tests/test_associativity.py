"""The associativity sweep against a FieldElem oracle, with negative controls.

The oracle is the sweep as it was first written: every product is a
FieldElem multiplication, so it shares nothing with the integer sweep in
csa.check_associativity but the table.  Over Q, Q(sqrt 2), Q(sqrt 5) and
the cyclic cubic both must accept the tables the pipeline builds (C0, Z(A)
and the fixed algebra) and a quaternion table whose constants have
unequal denominators, and both must reject each of them, at the same
first triple, once one structure constant is perturbed.  The rejection is
run once more under python -O, where an assert-based sweep would vanish,
together with the other certificates that must fire in that mode too: the
unit law (a wrong unit), the action certification of Z(A) and the fixed
algebra built from it (corrupted monomial moves), the congruence
certificate P^T G P and the 16 quaternion relations of C0.
"""

import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from ksalgebra import clifford, qform
from ksalgebra.brauer import QuaternionSymbol
from ksalgebra.clifford import CliffordAlgebra, even_part
from ksalgebra.csa import (
    StructureAlgebra,
    build_ZG,
    check_associativity,
    from_symbol,
    invariants,
)
from ksalgebra.errors import CertificateFailure, NotAssociative, NotClosedUnderMultiplication
from ksalgebra.exactfield import RATIONAL_FIELD, cyclic_cubic_field, quadratic_field

FIELDS = ("Q", "Q(sqrt 2)", "Q(sqrt 5)", "cubic")


def oracle_associativity_failure(constants) -> tuple | None:
    """First basis triple (i, j, k), in sweep order, at which the table
    fails associativity, computed in FieldElem arithmetic; None if none."""
    n = len(constants)
    for i in range(n):
        for j in range(n):
            rij = constants[i][j]
            for k in range(n):
                lhs = {}
                for t, c in rij:
                    for s, c2 in constants[t][k]:
                        v = c * c2
                        lhs[s] = lhs[s] + v if s in lhs else v
                rhs = {}
                for t, c in constants[j][k]:
                    for s, c2 in constants[i][t]:
                        v = c * c2
                        rhs[s] = rhs[s] + v if s in rhs else v
                lhs = {s: v for s, v in lhs.items() if v}
                rhs = {s: v for s, v in rhs.items() if v}
                if lhs != rhs:
                    return (i, j, k)
    return None


@lru_cache(maxsize=None)
def tables(name: str) -> dict:
    """The C0, Z(A) and fixed-algebra tables of one field, and the
    quaternion table (1/2 + a, 2/3 + a/5), whose constants need the common
    denominator (over Q it is (1/2, 2/3)).

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
    c0 = even_part(CliffordAlgebra(f, rank3))
    z = build_ZG(c0 if small is rank3 else even_part(CliffordAlgebra(f, small)), f)
    symbol = QuaternionSymbol(
        f.elem([Fraction(1, 2), 1]), f.elem([Fraction(2, 3), Fraction(1, 5)])
    )
    return {
        "C0": c0,
        "Z(A)": z.underlying,
        "fixed": invariants(z),
        "symbol": from_symbol(symbol),
    }


def perturbed(alg: StructureAlgebra) -> list:
    """The table with its first constant beyond the unit row and column
    (i, j >= 1) multiplied by 2 + alpha (by 2 over Q)."""
    factor = alg.field.elem([2, 1])
    out = [[list(cell) for cell in row] for row in alg.constants]
    i, j = next(
        (i, j) for i in range(1, alg.dim) for j in range(1, alg.dim) if out[i][j]
    )
    k, c = out[i][j][0]
    out[i][j][0] = (k, c * factor)
    return out


@pytest.mark.parametrize("name", FIELDS)
def test_sweep_and_oracle_accept_the_pipeline_tables(name):
    for label, alg in tables(name).items():
        assert oracle_associativity_failure(alg.constants) is None, label
        check_associativity(alg.field, alg.constants)


@pytest.mark.parametrize("name", FIELDS)
def test_sweep_and_oracle_reject_a_perturbed_table_at_the_same_triple(name):
    for label, alg in tables(name).items():
        bad = perturbed(alg)
        triple = oracle_associativity_failure(bad)
        assert triple is not None, f"{label}: the oracle accepts the perturbed table"
        where = "({},{},{})".format(*triple)
        with pytest.raises(NotAssociative, match=re.escape(where)):
            check_associativity(alg.field, bad)
    c0 = tables(name)["C0"]
    with pytest.raises(NotAssociative):
        StructureAlgebra(c0.field, perturbed(c0), c0.unit)


def build_with_wrong_unit() -> None:
    """The quaternion table over Q with unit 2 u_0 in place of u_0."""
    h = tables("Q")["symbol"]
    StructureAlgebra(h.field, h.constants, [2, 0, 0, 0])


def corrupted_moves(name: str):
    """Z(A) over Q(sqrt 2) (the family form) or the cubic (a rank-2 form)
    with the images of monomials 1 and 2 under sigma_2 exchanged after
    construction."""
    f = quadratic_field(2) if name == "Q(sqrt 2)" else cyclic_cubic_field()
    a = f.gen()
    entries = [a, a, a - 2] if name == "Q(sqrt 2)" else [a, a - 1]
    z = build_ZG(even_part(CliffordAlgebra(f, entries)), f)
    moves = z.moves[2]
    moves[1], moves[2] = moves[2], moves[1]
    return z


def certify_corrupted_action() -> None:
    corrupted_moves("Q(sqrt 2)")._check_actions()


# invariants(z) of a corrupted z: the error and its message, per field
CORRUPTED_INVARIANTS = (
    ("Q(sqrt 2)", NotClosedUnderMultiplication, "product leaves the fixed subspace"),
    ("cubic", CertificateFailure, "basis element at monomial 1 is not fixed"),
)


def diagonalize_with_broken_certificate() -> None:
    """diag(a, a, a - 2) over Q(sqrt 2) with P^T G P computed as zero."""
    f = quadratic_field(2)
    a = f.gen()
    form = qform.GramForm.diagonal(f, [a, a, a - 2])
    real = qform._mat_mul
    qform._mat_mul = lambda x, y, field: [[field.zero()] * len(y[0]) for _ in x]
    try:
        qform.diagonalize(form)
    finally:
        qform._mat_mul = real


def symbol_with_broken_relation() -> None:
    """C0 of diag(1, 2, -3) over Q checked against the symbol with its
    second slot negated."""
    real = clifford.rank3_map

    def wrong_symbol(diag):
        symbol, images = real(diag)
        return QuaternionSymbol(symbol.a, -symbol.b), images

    clifford.rank3_map = wrong_symbol
    try:
        clifford.even_rank3_to_symbol([RATIONAL_FIELD.rational(x) for x in (1, 2, -3)])
    finally:
        clifford.rank3_map = real


def test_wrong_unit_and_corrupted_action_raise_certificate_failure():
    with pytest.raises(CertificateFailure, match="left unit law fails"):
        build_with_wrong_unit()
    with pytest.raises(CertificateFailure, match=r"not multiplicative on monomials \(1,1\)"):
        certify_corrupted_action()


def test_invariants_reject_moves_corrupted_after_construction():
    for name, error, message in CORRUPTED_INVARIANTS:
        with pytest.raises(error, match=message):
            invariants(corrupted_moves(name))


def test_congruence_and_quaternion_certificates_raise_certificate_failure():
    with pytest.raises(CertificateFailure, match=r"P\^T G P fails at \(0,0\)"):
        diagonalize_with_broken_certificate()
    with pytest.raises(CertificateFailure, match=r"quaternion relation fails at \(2,2\)"):
        symbol_with_broken_relation()


_UNDER_O = """
from test_associativity import (
    CORRUPTED_INVARIANTS, FIELDS, build_with_wrong_unit, certify_corrupted_action,
    corrupted_moves, diagonalize_with_broken_certificate, perturbed,
    symbol_with_broken_relation, tables,
)
from ksalgebra.csa import StructureAlgebra, check_associativity, invariants
from ksalgebra.errors import CertificateFailure, NotAssociative

if __debug__:
    raise SystemExit("not running under python -O")
for name in FIELDS:
    for label, alg in tables(name).items():
        try:
            check_associativity(alg.field, perturbed(alg))
        except NotAssociative as exc:
            print(f"{name} {label}: {exc}")
        else:
            raise SystemExit(f"{name} {label}: perturbed table accepted")
    c0 = tables(name)["C0"]
    try:
        StructureAlgebra(c0.field, perturbed(c0), c0.unit)
    except NotAssociative as exc:
        print(f"{name} C0 built: {exc}")
    else:
        raise SystemExit(f"{name}: perturbed C0 built")
for label, build in (("wrong unit", build_with_wrong_unit),
                     ("corrupted action", certify_corrupted_action),
                     ("congruence", diagonalize_with_broken_certificate),
                     ("quaternion relations", symbol_with_broken_relation)):
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
"""


def test_negative_control_survives_python_O():
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr or done.stdout
    lines = done.stdout.splitlines()
    assert len(lines) == 5 * len(FIELDS) + 6
    assert all("associativity fails at (" in line for line in lines[:-6])
    assert lines[-6:] == [
        "wrong unit: left unit law fails at u_0",
        "corrupted action: action 2 is not multiplicative on monomials (1,1)",
        "congruence: congruence certificate P^T G P fails at (0,0)",
        "quaternion relations: quaternion relation fails at (2,2)",
        "Q(sqrt 2) corrupted invariants: NotClosedUnderMultiplication:"
        " product leaves the fixed subspace",
        "cubic corrupted invariants: CertificateFailure: basis element at monomial 1 is not fixed",
    ]
