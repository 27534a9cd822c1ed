"""The command line, byte for byte.

tests/cli_transcript.json lists cases: argv, an optional input document
fed to `--input -` on stdin (a JSON value, or a string taken as raw text),
the exit code, and the sha256 of stdout and of stderr.  Each case runs in
process through cli.run.  No case reads a file, so no message depends on
a path.

After a deliberate change of output, rewrite the recorded codes and
digests with

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from ksalgebra.cli import run

TRANSCRIPT = Path(__file__).resolve().parent / "cli_transcript.json"
CASES = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def run_case(case: dict) -> dict:
    """Exit code and output digests of one case."""
    raw = case.get("input", "")
    text = raw if isinstance(raw, str) else json.dumps(raw)
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(case["argv"])
    finally:
        sys.stdin = stdin
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    }


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_output_matches_the_transcript(case):
    expected = {key: case[key] for key in ("exit", "stdout_sha256", "stderr_sha256")}
    assert run_case(case) == expected


if __name__ == "__main__":
    for case in CASES:
        case.update(run_case(case))
    TRANSCRIPT.write_text(json.dumps(CASES, indent=2) + "\n", encoding="utf-8")
