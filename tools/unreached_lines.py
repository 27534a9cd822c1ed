"""List the statements of src/ksalgebra that a pytest run never executes.

Usage:
    python3 tools/unreached_lines.py [PYTEST ARGS ...]

Runs pytest in this process (default arguments: the tests directory) with
a line tracer installed by sys.settrace and threading.settrace, then
prints `path:line: source` for each statement of src/ksalgebra whose
lines never ran, in file and line order.  Docstrings, `def` and `class`
lines, imports and `global`/`nonlocal` are not listed: they run at import
or compile to nothing.  A compound statement counts as reached when its
header ran, a simple one when any of its lines did.

The tracer sees this process only.  Whatever a test runs in a subprocess,
the `python -O` runs of the negative controls included, is not seen, so a
line reached only there is listed.  Tracing makes the suite about three
times slower, so its wall-clock tests may fail; the listing is printed
after pytest's own output either way.  Standard library only (besides
pytest itself); exits with pytest's exit code.
"""
import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ksalgebra"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(tree: ast.Module) -> dict[int, range]:
    """The lines of each listed statement by its first line: a simple
    statement's own lines, a compound one's header.  A constant expression
    statement, a docstring or a bare string, compiles to nothing."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        found[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
    return found


def main(args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    wanted = {str(p) for p in PACKAGE.glob("*.py")}
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in wanted else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main((args or [str(ROOT / "tests")]) + ["-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for first, span in sorted(statements(ast.parse(source)).items()):
            if not any((str(path), line) in hits for line in span):
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{unreached} statements unreached in process; subprocesses, python -O included, are not traced",
          file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
