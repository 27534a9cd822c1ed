"""Command line front end.

Subcommands:
  hilbert    local symbol of a rational pair at one place, printed as +1/-1
  classify   quaternion symbol over Q -> ramification set and verdicts
  report     full classification report for a field + Gram form JSON file
  six-lines  the quadratic family preset, single triple or a sweep
  orbits     even-weight sign-vector orbits under a permutation group
  selftest   the family regression with per-check pass/fail lines

Exit codes: 0 success, 1 a report failed validation (or the selftest
found a mismatch, or any other ExactAlgebraError stopped the command: one
line "error: <ClassName>: <message>"), 2 malformed input.  Malformed-input
diagnostics name the offending key or flag.  JSON output is canonical:
sorted keys, two-space indent, rationals as "p/q" strings, trailing newline.
"""

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .brauer import (
    INF,
    hilbert_symbol,
    ramification,
    rational_symbol,
    reduced_symbol,
)
from .csa import verify_twisted_iso
from .errors import (
    ExactAlgebraError,
    MalformedInput,
    NotAPlace,
    OutputTooLarge,
    ParameterConstraintViolated,
    ZeroInput,
)
from .exactfield import MAX_DEGREE, field_from_json_dict, parse_rational
from .pipeline import (
    cyclic_generators,
    even_weight_orbits,
    ks_report,
    six_lines_family,
    symmetric_generators,
)
from .qform import diagonalize, gram_from_json_dict


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _rendered(reports, fmt: str) -> str:
    """The reports as canonical JSON (one as an object) or as text."""
    try:
        docs = [r.to_json_dict() if fmt == "json" else r.to_text() for r in reports]
    except ValueError:  # str() refuses an int past sys.get_int_max_str_digits()
        raise OutputTooLarge(f"an integer in the report has more than {sys.get_int_max_str_digits()} digits")
    return "\n".join(docs) if fmt == "text" else _canonical(docs[0] if len(docs) == 1 else docs)


def _parse_rational_flag(text: str, flag: str) -> Fraction:
    try:
        return parse_rational(text, flag)
    except MalformedInput:
        raise MalformedInput(f"flag {flag}: expected a rational like -3/4, got {text!r}")


def _parse_place_flag(text: str) -> object:
    if text == "inf":
        return INF
    try:
        return int(text)
    except ValueError:
        raise MalformedInput(f"flag -p: expected a prime number or 'inf', got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksalg",
        description="exact quaternion classification of even Clifford algebras and their drop to Q",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hilbert = sub.add_parser("hilbert", help="local symbol of (a, b) at a place")
    p_hilbert.add_argument("-a", required=True)
    p_hilbert.add_argument("-b", required=True)
    p_hilbert.add_argument("-p", required=True, help="a prime number, or 'inf'")
    p_hilbert.set_defaults(handler=_cmd_hilbert)

    p_classify = sub.add_parser("classify", help="classify the symbol (a, b) over Q")
    p_classify.add_argument("-a", required=True)
    p_classify.add_argument("-b", required=True)
    p_classify.add_argument("--format", choices=("text", "json"), default="text")
    p_classify.set_defaults(handler=_cmd_classify)

    p_report = sub.add_parser("report", help="full report for a JSON input file")
    p_report.add_argument("--input", required=True, help="path to JSON with 'field' and 'form' ('-' for stdin)")
    p_report.add_argument("--format", choices=("text", "json"), default="json")
    p_report.set_defaults(handler=_cmd_report)

    p_six = sub.add_parser("six-lines", help="the quadratic family preset")
    p_six.add_argument("--d")
    p_six.add_argument("--c")
    p_six.add_argument("--e")
    p_six.add_argument("--sweep", help="semicolon-separated triples, e.g. '2,1,1;5,1,2'")
    p_six.add_argument("--format", choices=("text", "json"), default="json")
    p_six.set_defaults(handler=_cmd_six_lines)

    p_orbits = sub.add_parser("orbits", help="even-weight orbit data")
    p_orbits.add_argument("--degree", required=True)
    group = p_orbits.add_mutually_exclusive_group(required=True)
    group.add_argument("--cycle", action="store_true", help="cyclic group")
    group.add_argument("--full", action="store_true", help="full symmetric group")
    p_orbits.add_argument("--format", choices=("text", "json"), default="json")
    p_orbits.set_defaults(handler=_cmd_orbits)

    sub.add_parser("selftest", help="run the family regression").set_defaults(handler=_cmd_selftest)
    return parser


def _cmd_hilbert(args) -> int:
    a = _parse_rational_flag(args.a, "-a")
    b = _parse_rational_flag(args.b, "-b")
    place = _parse_place_flag(args.p)
    value = hilbert_symbol(a, b, place)
    print("+1" if value == 1 else "-1")
    return 0


def _cmd_classify(args) -> int:
    a = _parse_rational_flag(args.a, "-a")
    b = _parse_rational_flag(args.b, "-b")
    if not a or not b:
        raise MalformedInput("flags -a/-b: symbol slots must be nonzero")
    symbol = rational_symbol(a, b)
    ram = ramification(symbol)
    reduced = reduced_symbol(symbol)
    if args.format == "json":
        doc = {
            "symbol": symbol.to_json_dict(),
            "reduced": reduced.render(),
            "ramification": ram.sorted_list(),
            "split": ram.empty,
            "definite": INF in ram,
        }
        sys.stdout.write(_canonical(doc))
        return 0
    places = ", ".join(str(p) for p in ram.sorted_list())
    print(f"symbol: {symbol.render()}")
    print(f"reduced: {reduced.render()}")
    print(f"ramification: {{{places}}}")
    print(f"split: {'yes' if ram.empty else 'no'}")
    print(f"definite: {'yes' if INF in ram else 'no'}")
    return 0


def _load_report_input(path: str) -> tuple:
    try:  # bytes, decoded strictly here whatever text layer the locale gave sys.stdin
        raw = (sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()).decode("utf-8")
    except OSError as exc:
        raise MalformedInput(f"cannot read input file: {exc}")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"input is not UTF-8: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"input is not valid JSON: {exc}")
    except RecursionError:
        raise MalformedInput("input is not valid JSON: nested too deeply")
    except ValueError:  # int() refuses a literal past sys.get_int_max_str_digits()
        raise MalformedInput("input is not valid JSON: an integer has too many digits")
    if not isinstance(doc, dict):
        raise MalformedInput("input must be a JSON object with keys 'field' and 'form'")
    for key in ("field", "form"):
        if key not in doc:
            raise MalformedInput(f"input is missing key {key!r}")
    f = field_from_json_dict(doc["field"])
    g = gram_from_json_dict(f, doc["form"])
    return f, g


def _cmd_report(args) -> int:
    f, g = _load_report_input(args.input)
    rep = ks_report(f, g)
    sys.stdout.write(_rendered([rep], args.format))
    return 0 if rep.validation.passed else 1


def _parse_sweep(text: str) -> list:
    triples = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise MalformedInput(
                f"flag --sweep: each entry needs three comma-separated values, got {chunk!r}"
            )
        triples.append(tuple(_parse_rational_flag(p, "--sweep") for p in parts))
    if not triples:
        raise MalformedInput("flag --sweep: no triples found")
    return triples


def _cmd_six_lines(args) -> int:
    if args.sweep is not None:
        if args.d or args.c or args.e:
            raise MalformedInput("flag --sweep: cannot be combined with --d/--c/--e")
        triples = _parse_sweep(args.sweep)
    else:
        for flag, value in (("--d", args.d), ("--c", args.c), ("--e", args.e)):
            if value is None:
                raise MalformedInput(f"flag {flag}: required unless --sweep is given")
        triples = [
            (
                _parse_rational_flag(args.d, "--d"),
                _parse_rational_flag(args.c, "--c"),
                _parse_rational_flag(args.e, "--e"),
            )
        ]
    reports = [six_lines_family(d, c, e) for d, c, e in triples]
    sys.stdout.write(_rendered(reports, args.format))
    return 0


def _cmd_orbits(args) -> int:
    try:
        degree = int(args.degree)
    except ValueError:
        raise MalformedInput(f"flag --degree: expected an integer, got {args.degree!r}")
    if degree < 1:
        raise MalformedInput("flag --degree: must be at least 1")
    if degree > MAX_DEGREE:  # the orbit walk visits all 2^(d-1) even-weight vectors
        raise MalformedInput(f"flag --degree: must be at most {MAX_DEGREE}")
    if args.cycle:
        data = even_weight_orbits(degree, cyclic_generators(degree), degree)
    else:
        data = even_weight_orbits(degree, symmetric_generators(degree), math.factorial(degree))
    if args.format == "json":
        sys.stdout.write(_canonical(data.to_json_dict()))
        return 0
    print(f"degree {data.d}, group order {data.group_order}")
    for rep, size, stab in data.orbits:
        print(f"orbit {list(rep)}: size {size}, stabilizer {stab}")
    print(f"sizes sum: {sum(data.sizes())}")
    return 0


def _cmd_selftest(args) -> int:
    ok = True

    def check(label: str, good: bool) -> None:
        nonlocal ok
        print(f"{label}: {'ok' if good else 'FAILED'}")
        ok = ok and good

    rep = six_lines_family(2, 1, 1)
    route = rep.cores_symbol_route
    check("symbol route lands on (-1,-1)/Q", route["reduced"] == rational_symbol(-1, -1))
    check("ramification is {2, inf}", route["ramification"].sorted_list() == [2, INF])
    inv = rep.cores_invariant_route
    check("invariant route dim 16, center 1", (inv["dim"], inv["center_dim"]) == (16, 1))
    check("trace signature (6, 10, 0)", inv["trace_signature"] == (6, 10, 0))
    check("both routes agree: definite", rep.route_agreement is True)
    f = rep.field
    from .qform import GramForm  # local import keeps the CLI surface lean

    form = GramForm.diagonal(f, [f.gen(), f.gen(), f.elem([-2, 1])])
    check("twisted tensor comparison", verify_twisted_iso(diagonalize(form), f))
    print("selftest: all checks passed" if ok else "selftest: FAILURES above")
    return 0 if ok else 1


def run(argv) -> int:
    parser = _build_parser()
    # argparse reads a value that starts with '-' as a flag unless it is a
    # plain negative number, so -a -4/9 goes in as -a=-4/9
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("-a", "-b") and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1 : i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (MalformedInput, NotAPlace, ZeroInput, ParameterConstraintViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExactAlgebraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
