"""The four workloads: seeded inputs, one operation each, and output checks.

Inputs are a pure function of the seed.  Pooled workloads walk their pool
in epochs, each a seeded shuffle of the whole pool, so every run of a few
epochs sees the same mix of inputs and only the order depends on the seed.
ksalgebra is imported by the plan constructors, never at module import, so
set-up time includes it.

Every report is checked against a sha256 of its canonical JSON (sorted
keys, two-space indent, trailing newline) pinned in digests.json.  A
mismatch, an ExactAlgebraError or a failed assertion fails that operation
and names the input.
"""

import hashlib
import json
import random
import time
from fractions import Fraction
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# (d, c, e) with d squarefree and d = c^2 + e^2; the first, second and sixth
# are acceptance criterion 1's triples
FAMILY_POOL = (
    (2, 1, 1), (5, 1, 2), (5, 2, 1), (10, 1, 3), (10, 3, 1), (13, 2, 3),
    (13, 3, 2), (17, 1, 4), (2, Fraction(7, 5), Fraction(1, 5)),
)
CLI_TRIPLES = 3

# (d, diagonal entries as coefficient pairs [a, b] meaning a + b*sqrt(d))
RANK4_POOL = (
    (2, ((0, 1), (0, 1), (-2, 1), (-2, 1))),
    (2, ((0, 1), (1, 1), (-2, 1), (-3, 1))),
    (5, ((0, 1), (0, 1), (-3, 1), (-3, 1))),
    (5, ((0, 1), (1, 1), (-3, 1), (-4, 1))),
)

SYMBOL_POOL_SIZE = 2048
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
MID_PRIME_RANGE = (1_000, 100_000)  # well below brauer's trial-division bound
MID_PRIME_SHARE = 0.25
TWO_MID_PRIMES_SHARE = 0.05

EPOCHS = 16


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def _fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def family_label(triple) -> str:
    return ",".join(_fmt(x) for x in triple)


def rank4_label(entry) -> str:
    d, diag = entry
    return f"Q(sqrt{d}) diag(" + ", ".join(f"{a}{b:+}s" for a, b in diag) + ")"


def epoch_order(pool_size: int, seed: int, epochs: int = EPOCHS) -> list[int]:
    """Pool indices in seeded epochs: each epoch visits every index once."""
    rng = random.Random(seed)
    order = []
    for _ in range(epochs):
        idx = list(range(pool_size))
        rng.shuffle(idx)
        order.extend(idx)
    return order


def _primes_in(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * hi
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(hi ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, hi, p)))
    return [p for p in range(lo, hi) if sieve[p]]


def _mid_prime_counts(rng: random.Random, n: int) -> list[int]:
    """How many mid primes each of n slots carries: exactly MID_PRIME_SHARE
    of them one or two, TWO_MID_PRIMES_SHARE two, in seeded order.  The
    slow symbols are the ones with mid primes, so fixing their number keeps
    the op-time mix the same for every seed."""
    two = round(n * TWO_MID_PRIMES_SHARE)
    one = round(n * MID_PRIME_SHARE) - two
    counts = [2] * two + [1] * one + [0] * (n - two - one)
    rng.shuffle(counts)
    return counts


def _draw_slot(rng: random.Random, mid_primes: list[int], extra: int) -> tuple[Fraction, frozenset]:
    """A signed product of small-prime powers, times `extra` mid primes."""
    num, den = rng.choice((1, -1)), 1
    support = set()
    for p in SMALL_PRIMES:
        e = rng.randint(-2, 2)
        if e > 0:
            num *= p ** e
        elif e < 0:
            den *= p ** -e
        if e:
            support.add(p)
    for p in rng.sample(mid_primes, extra):
        num *= p
        support.add(p)
    return Fraction(num, den), frozenset(support)


def symbol_inputs(seed: int, n: int = SYMBOL_POOL_SIZE) -> list[tuple]:
    """n triples (a, b, a2, support): the symbol (a, b), a second first slot
    a2 for bimultiplicativity, and the primes dividing any of them."""
    rng = random.Random(seed)
    mid_primes = _primes_in(*MID_PRIME_RANGE)
    extras = [_mid_prime_counts(rng, n) for _ in range(3)]
    out = []
    for ea, eb, ea2 in zip(*extras):
        a, sa = _draw_slot(rng, mid_primes, ea)
        b, sb = _draw_slot(rng, mid_primes, eb)
        a2, sa2 = _draw_slot(rng, mid_primes, ea2)
        out.append((a, b, a2, sa | sb | sa2))
    return out


def _is_rational_square(q: Fraction) -> bool:
    from math import isqrt

    if q <= 0:
        return False
    return isqrt(q.numerator) ** 2 == q.numerator and isqrt(q.denominator) ** 2 == q.denominator


def check_symbol(brauer, a, b, a2, support, ram, reduced, definite) -> list[str]:
    """Hilbert-symbol laws at every place of support | {2, inf}, and the
    agreement of ramification, reduced_symbol and is_definite with them."""
    inf = brauer.INF
    h = brauer.hilbert_symbol
    places = sorted(support | {2}) + [inf]
    problems = []
    product = 1
    ramified = set()
    for p in places:
        v = h(a, b, p)
        product *= v
        if v == -1:
            ramified.add(p)
        if v not in (1, -1):
            problems.append(f"value {v} at {p}")
        if h(b, a, p) != v:
            problems.append(f"symmetry fails at {p}")
        if h(a, -a, p) != 1:
            problems.append(f"(a, -a) != 1 at {p}")
        if h(a * a2, b, p) != v * h(a2, b, p):
            problems.append(f"bimultiplicativity fails at {p}")
    if product != 1:
        problems.append("product formula fails")
    if len(ram.places) % 2:
        problems.append("odd ramification set")
    if set(ram.places) != ramified:
        problems.append(f"ramification {ram.sorted_list()} != places where the symbol is -1")
    if definite != (inf in ramified):
        problems.append("is_definite disagrees with the real place")
    ra, rb = reduced.a.rational_value(), reduced.b.rational_value()
    if not (_is_rational_square(a / ra) and _is_rational_square(b / rb)):
        problems.append("reduced symbol changed a square class")
    return problems


class Plan:
    """A workload's inputs for one seed, and how to run and check one op.

    `run(i)` performs operation i, the timed unit.  `check(i, out, digest)`
    returns None or a message naming the input; `render` turns a report
    into the canonical JSON the digest is taken of.  Operations
    `k * epoch .. (k + 1) * epoch - 1` run the same inputs for every k, so a
    window of whole epochs times the same mix whatever the seed.
    """

    epoch = 1

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed

    def label(self, i: int) -> str:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def render(self, out) -> str:
        return canonical_json(out.to_json_dict())

    def check(self, i: int, out, digests: dict, render=None) -> str | None:
        text = (render or self.render)(out)
        want = digests.get(self.name, {}).get(self.label(i))
        got = sha256(text)
        if got != want:
            return f"{self.name} {self.label(i)}: digest {got[:12]} != pinned {str(want)[:12]}"
        return None


class FamilyPlan(Plan):
    epoch = len(FAMILY_POOL)

    def __init__(self, seed: int):
        super().__init__("family", seed)
        from ksalgebra import exactfield, pipeline

        self.pipeline = pipeline
        # six_lines_family builds its own field; these are set-up work only
        self.fields = {d: exactfield.quadratic_field(d) for d, _, _ in FAMILY_POOL}
        self.order = epoch_order(len(FAMILY_POOL), seed)

    def triple(self, i: int):
        return FAMILY_POOL[self.order[i % len(self.order)]]

    def label(self, i: int) -> str:
        return family_label(self.triple(i))

    def run(self, i: int):
        return self.pipeline.six_lines_family(*self.triple(i))

    def cli_sweep(self) -> str:
        return ";".join(family_label(self.triple(i)) for i in range(CLI_TRIPLES))


class CubicPlan(Plan):
    def __init__(self, seed: int):
        super().__init__("cubic", seed)
        from ksalgebra import exactfield, pipeline

        self.pipeline = pipeline
        self.field = exactfield.cyclic_cubic_field()
        self.form = pipeline.search_cubic_diagonal(self.field)

    def label(self, i: int) -> str:
        return "cyclic_cubic"

    def run(self, i: int):
        return self.pipeline.ks_report(self.field, self.form)


class Rank4Plan(Plan):
    epoch = len(RANK4_POOL)

    def __init__(self, seed: int):
        super().__init__("rank4", seed)
        from ksalgebra import exactfield, pipeline, qform

        self.pipeline = pipeline
        fields = {d: exactfield.quadratic_field(d) for d, _ in RANK4_POOL}
        self.inputs = [
            (fields[d], qform.GramForm.diagonal(fields[d], [fields[d].elem(c) for c in diag]))
            for d, diag in RANK4_POOL
        ]
        self.order = epoch_order(len(RANK4_POOL), seed)

    def label(self, i: int) -> str:
        return rank4_label(RANK4_POOL[self.order[i % len(self.order)]])

    def run(self, i: int):
        f, g = self.inputs[self.order[i % len(self.order)]]
        return self.pipeline.ks_report(f, g)


class SymbolsPlan(Plan):
    """One op: ramification, reduced_symbol and is_definite of one symbol,
    with the Hilbert laws checked inside the op."""

    def __init__(self, seed: int):
        super().__init__("symbols", seed)
        from ksalgebra import brauer

        self.brauer = brauer
        self.inputs = symbol_inputs(seed)

    def label(self, i: int) -> str:
        a, b, _, _ = self.inputs[i % len(self.inputs)]
        return f"({_fmt(a)}, {_fmt(b)})"

    def run(self, i: int):
        br = self.brauer
        a, b, a2, support = self.inputs[i % len(self.inputs)]
        s = br.rational_symbol(a, b)
        ram = br.ramification(s)
        reduced = br.reduced_symbol(s)
        definite = br.is_definite(s)
        return check_symbol(br, a, b, a2, support, ram, reduced, definite)

    def check(self, i: int, out, digests: dict, render=None) -> str | None:
        return f"symbols {self.label(i)}: {'; '.join(out)}" if out else None


PLANS = {"family": FamilyPlan, "cubic": CubicPlan, "rank4": Rank4Plan, "symbols": SymbolsPlan}


def make_plan(name: str, seed: int) -> Plan:
    return PLANS[name](seed)


def run_checked(plan: Plan, i: int, digests: dict, render=None, probe=None):
    """Run op i; return (wall seconds, failure message or None).  Under a
    running SpeedProbe the seconds exclude the probes that fell in the op."""
    from ksalgebra.errors import ExactAlgebraError

    mark = probe.mark() if probe else time.perf_counter()

    def elapsed() -> float:
        return probe.elapsed(mark) if probe else time.perf_counter() - mark

    try:
        out = plan.run(i)
    except (ExactAlgebraError, AssertionError, ArithmeticError) as exc:
        return elapsed(), f"{plan.name} {plan.label(i)}: {type(exc).__name__}: {exc}"
    secs = elapsed()
    return secs, plan.check(i, out, digests, render)
