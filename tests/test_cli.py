import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksalgebra.cli import _parse_rational_flag, run
from ksalgebra.errors import MalformedInput
from ksalgebra.exactfield import cyclic_cubic_field, field_to_json_dict, parse_rational, quadratic_field
from ksalgebra.pipeline import search_cubic_diagonal

FAMILY_INPUT = {
    "field": {"quadratic_d": 2},
    "form": {
        "dim": 3,
        "entries": [
            [["0", "1"], "0", "0"],
            ["0", ["0", "1"], "0"],
            ["0", "0", ["-2", "1"]],
        ],
    },
}


def write_input(tmp_path, doc) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_hilbert_prints_signed_unit(capsys):
    assert run(["hilbert", "-a", "1", "-b", "5", "-p", "7"]) == 0
    assert capsys.readouterr().out == "+1\n"
    assert run(["hilbert", "-a", "-1", "-b", "-1", "-p", "inf"]) == 0
    assert capsys.readouterr().out == "-1\n"
    assert run(["hilbert", "-a", "2", "-b", "3", "-p", "2"]) == 0
    assert capsys.readouterr().out == "-1\n"


def test_hilbert_rejects_bad_flags(capsys):
    assert run(["hilbert", "-a", "1", "-b", "2", "-p", "6"]) == 2
    assert "6" in capsys.readouterr().err
    assert run(["hilbert", "-a", "x", "-b", "2", "-p", "3"]) == 2
    assert "-a" in capsys.readouterr().err
    assert run(["hilbert", "-a", "0", "-b", "2", "-p", "3"]) == 2
    capsys.readouterr()
    assert run(["hilbert", "-a", "1", "-b", "2", "-p", "x"]) == 2
    assert capsys.readouterr() == ("", "error: flag -p: expected a prime number or 'inf', got 'x'\n")


def test_classify_text_and_json(capsys):
    assert run(["classify", "-a", "-1", "-b", "-1"]) == 0
    out = capsys.readouterr().out
    assert "ramification: {2, inf}" in out
    assert "definite: yes" in out
    assert run(["classify", "-a", "-1", "-b", "-1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ramification"] == [2, "inf"]
    assert doc["definite"] is True and doc["split"] is False
    assert doc["reduced"] == "(-1,-1)/Q"


def test_negative_fraction_flags_read_as_the_equals_form(capsys):
    # argparse alone takes -4/9 for a flag and exits 2
    for separate, joined in (
        (["classify", "-a", "-4/9", "-b", "18"], ["classify", "-a=-4/9", "-b", "18"]),
        (["hilbert", "-a", "2", "-b", "-3/5", "-p", "3"], ["hilbert", "-a", "2", "-b=-3/5", "-p", "3"]),
    ):
        assert run(joined) == 0
        want = capsys.readouterr()
        assert run(separate) == 0
        assert capsys.readouterr() == want


# rationals in decimal or exponent form, which Fraction would take: a short
# exponent stands for a number with as many digits, past every bound
FLOAT_FORMS = ("1e2000000", "3e200000", "3e20000", "0.5", "-2.5e1", "1E3")


@pytest.mark.parametrize("text", FLOAT_FORMS)
def test_rational_parsers_reject_decimal_and_exponent_forms(text):
    # hilbert -a 1e2000000 and classify -a 3e200000 run unbounded once
    # past these parsers, so the parsers are tested, not the runs
    with pytest.raises(MalformedInput, match=re.escape(f"flag -a: expected a rational like -3/4, got {text!r}")):
        _parse_rational_flag(text, "-a")
    with pytest.raises(MalformedInput, match=re.escape(f"key 'quadratic_d': cannot parse rational {text!r}")):
        parse_rational(text, "quadratic_d")


@pytest.mark.parametrize("argv, flag, text", [
    (["classify", "-a", "3e20000", "-b", "-1"], "-a", "3e20000"),
    (["hilbert", "-a", "2", "-b", "0.5", "-p", "3"], "-b", "0.5"),
], ids=["classify exponent", "hilbert decimal"])
def test_flags_in_exponent_or_decimal_form_exit_2(argv, flag, text, capsys):
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: flag {flag}: expected a rational like -3/4, got {text!r}\n")


def test_classify_rejects_zero_slot(capsys):
    assert run(["classify", "-a", "0", "-b", "3"]) == 2
    capsys.readouterr()


def test_classify_domain_error_is_one_line_exit_1(capsys):
    # 1000003 * 1000033: trial division stops at its bound before factoring b
    assert run(["classify", "-a", "-1", "-b", "1000036000099"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: FactorizationBound: cofactor 1000036000099 not factored within bound 1000000\n"
    )


def test_report_over_a_reducible_descriptor_is_one_line_exit_1(tmp_path, capsys):
    # X^4 - 10X^2 + 16 = (X^2 - 2)(X^2 - 8) is accepted as a field; the
    # diagonalization then has to invert an element with a common factor
    doc = {
        "field": {
            "min_poly": [16, 0, -10, 0, 1],
            "automorphisms": [[0, 1], [0, -1], [0, "5/2", 0, "-1/4"], [0, "-5/2", 0, "1/4"]],
            "embeddings": [[1, "3/2"], ["-3/2", -1], ["5/2", 3], [-3, "-5/2"]],
        },
        "form": {"dim": 3, "entries": [[[-2, 0, 1], 1, 0], [1, [0, 1], 0], [0, 0, -1]]},
    }
    assert run(["report", "--input", write_input(tmp_path, doc), "--format", "text"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: InvalidDescriptor: nontrivial gcd with min_poly; descriptor is not a field\n"
    )


def test_report_over_a_huge_quadratic_d_exits_in_time(tmp_path):
    # the field's rational-root test halves its intervals instead of
    # enumerating the divisors of 10^22 + 1; the form then fails validation
    doc = dict(FAMILY_INPUT, field={"quadratic_d": 10**22 + 1})
    done = cli_subprocess("report", "--input", write_input(tmp_path, doc), optimize=False, timeout=30)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.parametrize("min_poly", [["0"], []], ids=["zero", "empty"])
def test_report_over_a_zero_min_poly_is_one_line_exit_2(tmp_path, capsys, min_poly):
    doc = dict(FAMILY_INPUT, field={"min_poly": min_poly, "automorphisms": [[0, 1]], "embeddings": [[-1, 1]]})
    assert run(["report", "--input", write_input(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid field descriptor: min_poly must have degree >= 1\n"


QUADRATIC_DESCRIPTOR = {"min_poly": [-2, 0, 1], "automorphisms": [[0, 1], [0, -1]], "embeddings": [[1, 2], [-2, -1]]}

# X^4 - 10X^2 + 16 = (X^2 - 2)(X^2 - 8), as in the reducible test above:
# an automorphism image acts on the four real roots by its values at sqrt 2
# and at 2 sqrt 2, chosen apart, so the images can fail to close under
# composition, or close on maps that are not bijections; an irreducible
# min_poly allows neither, as its d root images make the field Galois
REDUCIBLE_QUARTIC = {"min_poly": [16, 0, -10, 0, 1], "embeddings": [[1, "3/2"], ["-3/2", -1], ["5/2", 3], [-3, "-5/2"]]}


@pytest.mark.parametrize(
    "field, form, message",
    [
        (dict(QUADRATIC_DESCRIPTOR, min_poly=5), FAMILY_INPUT["form"], "key 'min_poly': expected a list"),
        (dict(QUADRATIC_DESCRIPTOR, automorphisms=5), FAMILY_INPUT["form"], "key 'automorphisms': expected a list"),
        (dict(QUADRATIC_DESCRIPTOR, automorphisms=[[0, 1], 5]), FAMILY_INPUT["form"],
         "key 'automorphisms': each entry must be a list"),
        (dict(QUADRATIC_DESCRIPTOR, embeddings=5), FAMILY_INPUT["form"], "key 'embeddings': expected a list"),
        ({"quadratic_d": 2}, {"dim": True, "entries": [["1"]]}, "key 'dim': expected a positive integer"),
        (dict(QUADRATIC_DESCRIPTOR, automorphisms=[[0, -1], [0, 1]]), FAMILY_INPUT["form"],
         "invalid field descriptor: first automorphism must be the identity X"),
        (dict(QUADRATIC_DESCRIPTOR, embeddings=[[1, 2]]), FAMILY_INPUT["form"],
         "invalid field descriptor: need exactly 2 isolating intervals, got 1"),
        (dict(QUADRATIC_DESCRIPTOR, embeddings=[[2, 1], [-2, -1]]), FAMILY_INPUT["form"],
         "invalid field descriptor: empty interval (2, 1)"),
        (dict(REDUCIBLE_QUARTIC, automorphisms=[[0, 1], [0, "-3/2", 0, "1/4"], [0, "5/2", 0, "-1/4"],
                                                [0, "-17/6", 0, "5/12"]]), FAMILY_INPUT["form"],
         "invalid field descriptor: automorphisms are not closed under composition"),
        (dict(REDUCIBLE_QUARTIC, automorphisms=[[0, 1], [0, "-5/3", 0, "1/3"], [0, "7/3", 0, "-1/6"],
                                                [0, -3, 0, "1/2"]]), FAMILY_INPUT["form"],
         "invalid field descriptor: composition table rows are not permutations"),
        ({"quadratic_d": True}, FAMILY_INPUT["form"], "key 'quadratic_d': expected a rational, got a boolean"),
        ({"quadratic_d": "x"}, FAMILY_INPUT["form"], "key 'quadratic_d': cannot parse rational 'x'"),
        ({"quadratic_d": "1e20000"}, FAMILY_INPUT["form"], "key 'quadratic_d': cannot parse rational '1e20000'"),
        (5, FAMILY_INPUT["form"], "field descriptor must be a JSON object"),
        (dict(QUADRATIC_DESCRIPTOR, name=5), FAMILY_INPUT["form"], "key 'name': expected a string"),
        ({"quadratic_d": 2}, 5, "form document must be a JSON object"),
        (dict(QUADRATIC_DESCRIPTOR, min_poly=[-2] + [0] * 16 + [1]), FAMILY_INPUT["form"],
         "key 'min_poly': degree must be at most 16"),
        (dict(QUADRATIC_DESCRIPTOR, min_poly=[-2] + [0] * 999 + [1]), FAMILY_INPUT["form"],
         "key 'min_poly': degree must be at most 16"),
    ],
    ids=["min_poly", "automorphisms", "one_automorphism", "embeddings", "dim_true", "first_automorphism",
         "interval_count", "empty_interval", "not_closed", "not_permutations", "boolean", "unparsable",
         "exponent", "field_not_object", "name", "form_not_object", "degree_17", "degree_1000"],
)
def test_report_rejects_json_fields_of_the_wrong_shape(tmp_path, capsys, field, form, message):
    assert run(["report", "--input", write_input(tmp_path, {"field": field, "form": form})]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_orbits_full_degree_2(capsys):
    assert run(["orbits", "--degree", "2", "--full"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [o["size"] for o in doc["orbits"]] == [1, 1]


def test_orbits_text_rendering(capsys):
    assert run(["orbits", "--degree", "3", "--cycle", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "degree 3, group order 3" in out
    assert "sizes sum: 4" in out


def test_orbits_rejects_bad_degree(capsys):
    assert run(["orbits", "--degree", "x", "--full"]) == 2
    assert "--degree" in capsys.readouterr().err
    assert run(["orbits", "--degree", "0", "--cycle"]) == 2
    capsys.readouterr()
    assert run(["orbits", "--degree", "17", "--cycle"]) == 2
    assert capsys.readouterr().err == "error: flag --degree: must be at most 16\n"


@pytest.mark.wallclock
@pytest.mark.parametrize("argv", [["--degree", "12", "--full"], ["--degree", "16", "--cycle"]])
def test_orbits_up_to_the_degree_cap_answer_within_a_second(argv, capsys):
    start = time.perf_counter()
    assert run(["orbits", *argv]) == 0
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()


def test_six_lines_reports_family_class(capsys):
    assert run(["six-lines", "--d", "2", "--c", "1", "--e", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cores"] == "(-1,-1)/Q"
    assert doc["ramification"] == [2, "inf"]
    assert doc["cores_invariant_route"]["trace_signature"] == [6, 10, 0]


def test_six_lines_sweep(capsys):
    assert run(["six-lines", "--sweep", "2,1,1;5,1,2"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert isinstance(docs, list) and len(docs) == 2
    assert all(doc["cores"] == "(-1,-1)/Q" for doc in docs)


def test_six_lines_flag_validation(capsys):
    assert run(["six-lines", "--d", "2", "--c", "1", "--e", "2"]) == 2
    capsys.readouterr()
    assert run(["six-lines", "--d", "12", "--c", "2", "--e", "2"]) == 2
    capsys.readouterr()
    assert run(["six-lines", "--d", "2", "--c", "1"]) == 2
    assert "--e" in capsys.readouterr().err
    assert run(["six-lines", "--sweep", "2,1,1", "--d", "2"]) == 2
    capsys.readouterr()
    assert run(["six-lines", "--sweep", "2,1"]) == 2
    capsys.readouterr()
    assert run(["six-lines", "--sweep", ";"]) == 2
    assert capsys.readouterr() == ("", "error: flag --sweep: no triples found\n")


def test_report_from_file(tmp_path, capsys):
    path = write_input(tmp_path, FAMILY_INPUT)
    assert run(["report", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cores"] == "(-1,-1)/Q"
    assert doc["validation"]["passed"] is True
    assert run(["report", "--input", path, "--format", "text"]) == 0
    assert "routes agree: yes" in capsys.readouterr().out


def test_report_accepts_full_field_descriptor(tmp_path, capsys):
    doc = dict(FAMILY_INPUT)
    doc["field"] = field_to_json_dict(quadratic_field(2))
    path = write_input(tmp_path, doc)
    assert run(["report", "--input", path]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["cores"] == "(-1,-1)/Q"


def test_report_validation_failure_exits_1(tmp_path, capsys):
    doc = {
        "field": {"quadratic_d": 2},
        "form": {
            "dim": 3,
            "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        },
    }
    path = write_input(tmp_path, doc)
    assert run(["report", "--input", path, "--format", "text"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_report_malformed_inputs(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert run(["report", "--input", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err

    missing = write_input(tmp_path, {"field": {"quadratic_d": 2}})
    assert run(["report", "--input", missing]) == 2
    assert "'form'" in capsys.readouterr().err

    bad_entries = write_input(
        tmp_path,
        {
            "field": {"quadratic_d": 2},
            "form": {"dim": 2, "entries": [[1.5, "0"], ["0", "1"]]},
        },
    )
    assert run(["report", "--input", bad_entries]) == 2
    capsys.readouterr()

    assert run(["report", "--input", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


# report inputs that json.loads cannot take: bytes that are not UTF-8, an
# array nested past the recursion limit, an integer past the digit limit
UNREADABLE_INPUTS = {
    "not_utf8": (b"\xff\xfe\x00bad",
                 "input is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "deep_array": (b"[" * 1000 + b"]" * 1000, "input is not valid JSON: nested too deeply"),
    "long_integer": (b'{"field": {"quadratic_d": 1' + b"0" * 4999 + b'}, "form": {}}',
                     "input is not valid JSON: an integer has too many digits"),
}


def run_report_on_bytes(data: bytes, via_stdin: bool) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of report --input on data, in process,
    from a file or from stdin."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        path = Path(tmp) / "input.json"
        path.write_bytes(data)
        stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        try:
            code = run(["report", "--input", "-" if via_stdin else str(path)])
        finally:
            sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("via_stdin", [False, True], ids=["file", "stdin"])
@pytest.mark.parametrize("name", UNREADABLE_INPUTS)
def test_report_on_unreadable_input_is_one_line_exit_2(name, via_stdin):
    data, message = UNREADABLE_INPUTS[name]
    assert run_report_on_bytes(data, via_stdin) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("name", UNREADABLE_INPUTS)
def test_report_on_unreadable_input_under_python_O(tmp_path, name):
    # the CLI reads stdin's bytes and decodes them itself, so a real stdin,
    # whose text layer may decode with surrogateescape, says what a file says
    data, message = UNREADABLE_INPUTS[name]
    path = tmp_path / "input.json"
    path.write_bytes(data)
    from_file = cli_subprocess("report", "--input", str(path), optimize=True)
    assert (from_file.returncode, from_file.stdout, from_file.stderr) == (2, b"", f"error: {message}\n".encode())
    from_stdin = cli_subprocess("report", "--input", "-", optimize=True, stdin=data)
    assert (from_stdin.returncode, from_stdin.stdout, from_stdin.stderr) == (2, b"", f"error: {message}\n".encode())


# diagonal forms over Q(sqrt 2) whose report holds an integer past
# sys.get_int_max_str_digits(): diag(sqrt 2, sqrt 2, -10^4000), the entry
# written as 4,001 digits, whose corestricted symbol (in the JSON report
# only) has the slot -2 10^8000, and 10^2200 diag(sqrt 2, sqrt 2, sqrt 2 - 2),
# whose C0 symbol (in both reports) has the slot a = -2 10^4400
OVERSIZED_REPORTS = {
    "corestricted symbol": [["0", "1"], ["0", "1"], "-1" + "0" * 4000],
    "C0 symbol": [["0", "1" + "0" * 2200]] * 2 + [["-2" + "0" * 2200, "1" + "0" * 2200]],
}


def diagonal_input(entries) -> dict:
    return {
        "field": {"quadratic_d": 2},
        "form": {"dim": 3, "entries": [[e if i == j else "0" for j in range(3)] for i, e in enumerate(entries)]},
    }


@pytest.mark.parametrize("name, fmt", [("corestricted symbol", "json"), ("C0 symbol", "json"), ("C0 symbol", "text")])
def test_report_with_an_integer_past_the_digit_limit_is_one_line_exit_1(tmp_path, capsys, name, fmt):
    path = write_input(tmp_path, diagonal_input(OVERSIZED_REPORTS[name]))
    assert run(["report", "--input", path, "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: OutputTooLarge: an integer in the report has more than 4300 digits\n")


def test_text_report_of_a_4001_digit_entry_is_written(tmp_path, capsys):
    # the text report leaves out the corestricted symbol before reduction
    path = write_input(tmp_path, diagonal_input(OVERSIZED_REPORTS["corestricted symbol"]))
    assert run(["report", "--input", path, "--format", "text"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "symbol route: cores = (-1,-2)/Q, ramification {2, inf}, definite" in out


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=256), via_stdin=st.booleans())
def test_report_on_arbitrary_bytes_ends_in_one_error_line(data, via_stdin):
    code, out, err = run_report_on_bytes(data, via_stdin)
    assert code in (1, 2)
    assert out == ""
    assert err.startswith("error:") and err.endswith("\n") and err.count("\n") == 1


def test_report_json_round_trips_byte_identical(tmp_path, capsys):
    path = write_input(tmp_path, FAMILY_INPUT)
    assert run(["report", "--input", path]) == 0
    emitted = capsys.readouterr().out
    reparsed = json.loads(emitted)
    assert json.dumps(reparsed, sort_keys=True, indent=2) + "\n" == emitted


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: all checks passed" in out
    assert "FAILED" not in out


def cli_subprocess(
    *args: str, optimize: bool, timeout: float = 300, stdin: bytes = b""
) -> subprocess.CompletedProcess:
    """python [-O] -m ksalgebra.cli args, with the package's sources on the
    path and stdin fed to it."""
    path = [str(Path(__file__).resolve().parent.parent / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "ksalgebra.cli", *args],
        input=stdin, capture_output=True, env=env, timeout=timeout,
    )


def test_selftest_and_cubic_report_under_python_O(tmp_path):
    f = cyclic_cubic_field()
    form = search_cubic_diagonal(f)
    path = write_input(tmp_path, {
        "field": field_to_json_dict(f),
        "form": {"dim": form.dim, "entries": [[e.to_json() for e in row] for row in form.entries]},
    })
    selftest = cli_subprocess("selftest", optimize=True)
    assert selftest.returncode == 0, selftest.stderr
    assert b"selftest: all checks passed" in selftest.stdout
    optimized = cli_subprocess("report", "--input", path, optimize=True)
    plain = cli_subprocess("report", "--input", path, optimize=False)
    assert optimized.returncode == plain.returncode == 0, optimized.stderr + plain.stderr
    assert b'"cores_dim": 64' in plain.stdout
    assert optimized.stdout == plain.stdout


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
