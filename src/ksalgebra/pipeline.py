"""End-to-end classification reports.

Input: a totally real Galois field E and a Gram form over it with the
K3-with-real-multiplication signature profile ((2, m-2) at the first real
place, negative definite at the others).  The report ties the layers
together: the even Clifford algebra of the form, its drop to Q along two
independent corestriction routes, the classification of the resulting
quaternion class by its ramification set, and the bookkeeping that turns
algebra dimensions into decomposition statements about the associated
abelian variety.

The symbol route works on the rank-3 quaternion symbol: rewrite the first
slot to a rational by dividing out squares, then apply the norm projection
to land in a symbol over Q.  The invariant route never leaves structure
constants: it builds the fixed algebra of the twisted tensor model from
its monomial orbits and reads off dimension, center and trace signature.
The two routes share no code beyond the Clifford layer and are compared
whenever both complete.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .brauer import (
    INF,
    QuaternionSymbol,
    corestrict_symbol,
    ramification,
    rational_symbol,
    reduced_symbol,
    squarefree_kernel,
    symbol_scale,
)
from .clifford import CliffordAlgebra, even_part, even_rank3_to_symbol
from .csa import build_ZG, center, invariants, trace_form_signature
from .errors import (
    CertificateFailure,
    InvalidPermutation,
    ParameterConstraintViolated,
    RouteDisagreement,
)
from .exactfield import (
    FieldDescriptor,
    FieldElem,
    field_to_json_dict,
    quadratic_field,
    sign_at_embedding,
)
from .qform import GramForm, validate_k3_rm

# -- orbit combinatorics of sign vectors ----------------------------------------------


def _check_perm(p, d: int) -> tuple:
    try:
        t = tuple(int(x) for x in p)
    except (TypeError, ValueError):
        t = ()
    if sorted(t) != list(range(1, d + 1)):
        raise InvalidPermutation(f"{p!r} is not a permutation of 1..{d}")
    return t


def _act_on_vector(perm: tuple, vec: tuple) -> tuple:
    # position i is sent to position perm(i), carrying its entry along
    out = [0] * len(vec)
    for i, v in enumerate(vec):
        out[perm[i] - 1] = v
    return tuple(out)


@dataclass(frozen=True)
class OrbitData:
    """Orbits of the even-weight sign vectors {0,1}^d under a permutation
    group: (lexicographic representative, orbit size, stabilizer order)."""

    d: int
    group_order: int
    orbits: tuple

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "group_order": self.group_order,
            "orbits": [
                {"representative": list(rep), "size": size, "stabilizer": stab}
                for rep, size, stab in self.orbits
            ],
        }

    def sizes(self) -> list:
        return [size for _, size, _ in self.orbits]


def even_weight_orbits(d: int, generators, group_order: int) -> OrbitData:
    """Partition the even-weight vectors in {0,1}^d into the orbits of the
    permutation group that the generators generate, of the stated order.

    The orbit count controls how many isogeny factors the big abelian
    variety splits into.  A breadth-first walk that follows every image
    under the generators closes each orbit.  The orbit sums certificate:
    each size divides group_order (stabilizer order group_order // size)
    and the sizes sum to 2^(d-1); a failure raises CertificateFailure.
    """
    assert d >= 1, "degree must be positive"
    gens = [_check_perm(p, d) for p in generators]
    assigned = set()
    orbits = []
    for vec in product((0, 1), repeat=d):
        if sum(vec) % 2 or vec in assigned:
            continue
        orbit, frontier = {vec}, {vec}
        while frontier:
            frontier = {_act_on_vector(p, v) for v in frontier for p in gens} - orbit
            orbit |= frontier
        assigned |= orbit
        size = len(orbit)
        if group_order % size:
            raise CertificateFailure(
                f"orbit sums: orbit size {size} does not divide the group order {group_order}"
            )
        orbits.append((vec, size, group_order // size))
    total = sum(size for _, size, _ in orbits)
    if total != 2 ** (d - 1):
        raise CertificateFailure(
            f"orbit sums: even-weight orbit sizes sum to {total}, not 2^(d-1) = {2 ** (d - 1)}"
        )
    return OrbitData(d=d, group_order=group_order, orbits=tuple(orbits))


def cyclic_generators(d: int) -> list:
    return [tuple(range(2, d + 1)) + (1,)]


def symmetric_generators(d: int) -> list:
    swap = [(2, 1) + tuple(range(3, d + 1))] if d >= 2 else []
    return cyclic_generators(d) + swap


def _galois_generators(f: FieldDescriptor) -> list:
    d = f.degree
    return [tuple(f.compose(g, i) for i in range(1, d + 1)) for g in range(1, d + 1)]


# -- the two corestriction routes ------------------------------------------------------


def _elem_size(x: FieldElem) -> int:
    return sum(abs(c.numerator) + c.denominator for c in x.coeffs)


def _slot_state(x: FieldElem) -> tuple:
    return (0 if x.is_rational() else 1, _elem_size(x))


def _rationalize_first_slot(sym: QuaternionSymbol, candidates: list) -> QuaternionSymbol | None:
    """Square-scale the first slot down to a small rational.

    Each step divides slot 1 by the square of a candidate (the field
    generator or a diagonal entry) and is kept only if it strictly
    improves the slot: irrational to rational first, then coefficient
    size.  Strict improvement makes the rewrite terminate at a fixpoint;
    for the six-lines family the fixpoint is -1, matching the hand
    rewrite by the generator.  None means the slot never became rational
    and the symbol route is unavailable.
    """
    cur = sym
    while True:
        best, best_state = None, _slot_state(cur.a)
        for u in candidates:
            if not u:
                continue
            scaled = symbol_scale(cur, u)
            state = _slot_state(scaled.a)
            if state < best_state:
                best, best_state = scaled, state
        if best is None:
            break
        cur = best
    if not cur.a.is_rational():
        return None
    return cur


def _symbol_route(c0: QuaternionSymbol, f: FieldDescriptor, diag_entries: list) -> dict | None:
    candidates = [f.gen()] + list(diag_entries)
    scaled = _rationalize_first_slot(c0, candidates)
    if scaled is None:
        return None
    cores = corestrict_symbol(scaled)
    ram = ramification(cores)
    if INF in ram:
        verdict = "definite"
    elif ram.empty:
        verdict = "split"
    else:
        verdict = "indefinite"
    return {
        "symbol": cores,
        "reduced": reduced_symbol(cores),
        "ramification": ram,
        "definiteness": verdict,
        "scalings": scaled.history,
    }


def _invariant_route(ev_algebra, f: FieldDescriptor, m: int) -> dict:
    inv = invariants(build_ZG(ev_algebra, f))
    sig = trace_form_signature(inv)
    verdict = None
    if m == 3 and sig[2] == 0:
        # B is M_n(H) or M_2n(Q), n = 2^(d-1).  Trace forms multiply under
        # tensor products, and pos - neg is k for M_k(Q) and -2 for H, so
        # pos - neg is -2^d for the definite class and +2^d for the other.
        d = f.degree
        verdict = {-(2 ** d): "definite", 2 ** d: "indefinite_or_split"}.get(sig[0] - sig[1])
    return {
        "dim": inv.dim,
        "center_dim": center(inv),
        "trace_signature": sig,
        "definiteness": verdict,
    }


# -- the report ------------------------------------------------------------------------


@dataclass
class KSReport:
    validation: object
    field: FieldDescriptor
    m: int
    d: int
    dim_T_Q: int
    ks_dim: int
    cores_dim: int
    smt_dim: int
    orbit_data: OrbitData
    parity_expected: str
    c0_symbol: QuaternionSymbol | None = None
    cores_symbol_route: dict | None = None
    cores_invariant_route: dict | None = None
    decomposition: str | None = None
    rank3_extras: str | None = None
    route_agreement: bool | None = None
    warnings: tuple = ()

    def to_json_dict(self) -> dict:
        doc = {
            "validation": self.validation.to_json_dict(),
            "field": field_to_json_dict(self.field),
            "m": self.m,
            "d": self.d,
            "dim_T_Q": self.dim_T_Q,
            "ks_dim": self.ks_dim,
            "cores_dim": self.cores_dim,
            "smt_dim": self.smt_dim,
            "orbit_data": self.orbit_data.to_json_dict(),
            "parity_expected": self.parity_expected,
            "c0_symbol": self.c0_symbol.to_json_dict() if self.c0_symbol else None,
            "cores_symbol_route": None,
            "cores_invariant_route": None,
            "decomposition": self.decomposition,
            "rank3_extras": self.rank3_extras,
            "route_agreement": self.route_agreement,
            "warnings": list(self.warnings),
        }
        if self.cores_symbol_route is not None:
            route = self.cores_symbol_route
            doc["cores_symbol_route"] = {
                "symbol": route["symbol"].to_json_dict(),
                "reduced": route["reduced"].to_json_dict(),
                "ramification": route["ramification"].sorted_list(),
                "definiteness": route["definiteness"],
                "scalings": [
                    {"slot": slot, "factor": u.to_json()}
                    for slot, u in route["scalings"]
                ],
            }
            doc["cores"] = route["reduced"].render()
            doc["ramification"] = route["ramification"].sorted_list()
        if self.cores_invariant_route is not None:
            route = self.cores_invariant_route
            doc["cores_invariant_route"] = {
                "dim": route["dim"],
                "center_dim": route["center_dim"],
                "trace_signature": list(route["trace_signature"]),
                "definiteness": route["definiteness"],
            }
        return doc

    def to_text(self) -> str:
        lines = []
        lines.append(f"field: {self.field.name} (degree {self.d})")
        lines.append(f"validation: {'passed' if self.validation.passed else 'FAILED'}")
        for warning in self.validation.warnings:
            lines.append(f"  warning: {warning}")
        if not self.validation.passed:
            for check in self.validation.checks:
                if not check.ok and check.severity == "error":
                    lines.append(f"  failed: {check.name}: {check.detail}")
            return "\n".join(lines) + "\n"
        lines.append(
            f"m = {self.m}, d = {self.d}, dim_T_Q = {self.dim_T_Q}, "
            f"ks_dim = {self.ks_dim}, cores_dim = {self.cores_dim}"
        )
        if self.c0_symbol is not None:
            lines.append(f"C0 symbol over E: {self.c0_symbol.render()}")
        if self.cores_symbol_route is not None:
            route = self.cores_symbol_route
            ram = ", ".join(str(p) for p in route["ramification"].sorted_list())
            lines.append(
                f"symbol route: cores = {route['reduced'].render()}, "
                f"ramification {{{ram}}}, {route['definiteness']}"
            )
        else:
            lines.append("symbol route: unavailable")
        if self.cores_invariant_route is not None:
            route = self.cores_invariant_route
            verdict = route["definiteness"] or "unclassified"
            lines.append(
                f"invariant route: dim {route['dim']}, center {route['center_dim']}, "
                f"trace signature {route['trace_signature']}, {verdict}"
            )
        if self.route_agreement is not None:
            lines.append(f"routes agree: {'yes' if self.route_agreement else 'NO'}")
        if self.decomposition:
            lines.append(f"decomposition: {self.decomposition}")
        if self.rank3_extras:
            lines.append(f"rank-3: {self.rank3_extras}")
        sizes = self.orbit_data.sizes()
        lines.append(f"orbits: sizes {sizes} (sum {sum(sizes)})")
        if self.m == 3:
            lines.append(f"parity expectation for d = {self.d}: {self.parity_expected}")
        lines.append(f"smt_dim = {self.smt_dim} (reported, not asserted)")
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines) + "\n"


def ks_report(f: FieldDescriptor, g: GramForm) -> KSReport:
    """Classify the even Clifford algebra of g and its corestriction to Q.

    Validation failures are reported, not raised; everything after the
    shape numbers is omitted in that case.  For rank 3 both corestriction
    routes run and their definiteness verdicts are compared; a conflict
    raises RouteDisagreement (it would mean one of two independent
    computations is wrong).  For higher rank only the invariant route
    runs and no quaternion classification is claimed.
    """
    validation = validate_k3_rm(f, g)
    d = f.degree
    m = g.dim
    # the descriptor certifies d distinct automorphisms closed under composition
    orbit_data = even_weight_orbits(d, _galois_generators(f), d)
    parity_expected = "definite" if d % 2 == 0 else "indefinite_or_split"
    report = KSReport(
        validation=validation,
        field=f,
        m=m,
        d=d,
        dim_T_Q=m * d,
        ks_dim=2 ** (m * d - 2),
        cores_dim=(2 ** (m - 1)) ** d,
        smt_dim=d * m * (m - 1) // 2,
        orbit_data=orbit_data,
        parity_expected=parity_expected,
    )
    if not validation.passed:
        return report
    warnings = list(validation.warnings)
    diag = validation.diag
    ev = even_part(CliffordAlgebra(f, diag.entries))
    if m == 3:
        report.c0_symbol = even_rank3_to_symbol(ev, diag.entries)
        report.cores_symbol_route = _symbol_route(report.c0_symbol, f, diag.entries)
        if report.cores_symbol_route is None:
            warnings.append("first slot of the C0 symbol resisted rationalization")
    report.cores_invariant_route = _invariant_route(ev, f, m)
    symbol_verdict = report.cores_symbol_route and report.cores_symbol_route["definiteness"]
    invariant_verdict = report.cores_invariant_route["definiteness"]
    if invariant_verdict is None and m == 3:
        warnings.append("trace signature matches neither reference class")
    if symbol_verdict and invariant_verdict:
        if (symbol_verdict == "definite") != (invariant_verdict == "definite"):
            raise RouteDisagreement(
                f"symbol route says {symbol_verdict}, invariant route says {invariant_verdict}"
            )
        report.route_agreement = True
    verdict = symbol_verdict or invariant_verdict
    if verdict is not None and (verdict == "definite") != (parity_expected == "definite"):
        warnings.append(f"parity expectation {parity_expected} not met (got {verdict})")
    cores_desc = (
        report.cores_symbol_route["reduced"].render()
        if report.cores_symbol_route
        else "cores"
    )
    report.decomposition = f"A ~ B'^{2 ** (d - 1)}, End(B') = {cores_desc}"
    if m == 3:
        dverdict = (verdict or "unclassified").replace("_", " ")
        report.rank3_extras = f"A ~ B^{2 ** (2 * d - 2)}, dim B = {2 ** d}, D {dverdict}"
    report.warnings = tuple(warnings)
    return report


# -- presets ---------------------------------------------------------------------------


def six_lines_family(d, c, e) -> KSReport:
    """The family diag(sqrt(d), sqrt(d), c*sqrt(d) - d) over Q(sqrt(d))
    with d = c^2 + e^2: the K3 surfaces carrying six disjoint lines.

    The symbol route must complete and the classified corestriction must
    be the definite symbol (-1,-1) over Q, or CertificateFailure is raised;
    that constancy across the family is the point of the preset.
    """
    d_q, c_q, e_q = Fraction(d), Fraction(c), Fraction(e)
    if d_q.denominator != 1 or d_q < 2:
        raise ParameterConstraintViolated(
            f"d must be a squarefree integer >= 2, got {d}"
        )
    d_int = int(d_q)
    if squarefree_kernel(Fraction(d_int)) != d_int:
        raise ParameterConstraintViolated(f"d must be squarefree, got {d}")
    if c_q <= 0 or e_q <= 0:
        raise ParameterConstraintViolated("c and e must be positive rationals")
    if c_q * c_q + e_q * e_q != d_q:
        raise ParameterConstraintViolated(
            f"need d = c^2 + e^2, got {d} != {c}^2 + {e}^2"
        )
    f = quadratic_field(d_int)
    form = GramForm.diagonal(
        f, [f.gen(), f.gen(), f.elem([Fraction(-d_int), c_q])]
    )
    report = ks_report(f, form)
    route = report.cores_symbol_route
    if route is None:
        raise CertificateFailure("family symbol route must complete")
    if route["ramification"] != ramification(rational_symbol(-1, -1)):
        raise CertificateFailure("family corestriction must be the definite (-1,-1) class")
    return report


SEARCH_COEFF_BOUND = 2


def search_cubic_diagonal(f: FieldDescriptor) -> GramForm:
    """diag(u, u, w) over a degree-3 field meeting the signature profile:
    u is the first coefficient vector, entries bounded by
    SEARCH_COEFF_BOUND in lexicographic order, with signs (+, -, -) at the
    three places, and w the first with signs (-, -, -).  A diagonal form's
    signature at a place counts the signs of its entries, so the form has
    (2, 1) at the first place and (0, 3) at the others.

    The repeated first entry keeps the first symbol slot equal to -u^2,
    which the square-scaling rewrite always rationalizes, so the symbol
    route is available for the found form.
    """
    assert f.degree == 3, "search preset is for cubic fields"
    rng = range(-SEARCH_COEFF_BOUND, SEARCH_COEFF_BOUND + 1)

    def first_with_signs(signs: tuple) -> FieldElem | None:
        scan = (f.elem(coeffs) for coeffs in product(rng, repeat=3))
        return next((x for x in scan if tuple(sign_at_embedding(x, i) for i in (1, 2, 3)) == signs), None)

    u, w = first_with_signs((1, -1, -1)), first_with_signs((-1, -1, -1))
    if u is None or w is None:
        raise ParameterConstraintViolated(
            f"no valid diagonal form with coefficients bounded by {SEARCH_COEFF_BOUND}"
        )
    return GramForm.diagonal(f, [u, u, w])
