"""Smoke tests of the scripts under tools/."""

import ast
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
STAGES = ["validate_k3_rm", "even_part", "even_rank3_to_symbol", "build_ZG", "invariants",
          "trace_form_signature", "center"]


def test_time_reports_times_the_pipeline_stages():
    # the quartic cyclic rank-3 report, about half a second in its child:
    # one JSON line whose stages, timed inside ks_report, sum to at most
    # its CPU seconds
    done = subprocess.run([sys.executable, str(TOOLS / "time_reports.py"), "--report", "quartic-cyclic"],
                          capture_output=True, text=True, check=True, timeout=120)
    [line] = done.stdout.splitlines()
    row = json.loads(line)
    assert set(row) == {"src", "report", "wall_s", "cpu_s", "maxrss_mb", "dim", "center", "signature", "stages",
                        "field_us"}
    assert (row["report"], row["dim"], row["center"], row["signature"]) == ("quartic-cyclic", 256, 1, [120, 136, 0])
    assert list(row["stages"]) == STAGES
    assert all(t >= 0 for t in row["stages"].values())
    assert 0 < row["stages"]["invariants"] <= sum(row["stages"].values()) <= row["cpu_s"]
    # the best of 20 builds of the cyclic quartic, well under the report
    assert 0 < row["field_us"] < 1e6 * row["wall_s"]


def test_unreached_lines_lists_the_statements_a_test_file_leaves_unrun():
    # the line tracer over tests/test_polynomials.py alone, a few seconds:
    # cli's sys.exit(main()) runs only from the command line, and
    # polynomials.interval_eval is what that file tests
    done = subprocess.run([sys.executable, str(TOOLS / "unreached_lines.py"), "-q", "tests/test_polynomials.py"],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:]
    count = re.fullmatch(r"(\d+) statements unreached in process; subprocesses, python -O included, are not traced",
                         done.stderr.splitlines()[-1])
    listed = [line.split(":", 2) for line in done.stdout.splitlines() if line.startswith("src/ksalgebra/")]
    assert count and int(count[1]) == len(listed)
    assert ["src/ksalgebra/cli.py", "sys.exit(main())"] in [[path, source.strip()] for path, _, source in listed]
    source = (ROOT / "src" / "ksalgebra" / "polynomials.py").read_text(encoding="utf-8")
    [node] = [n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == "interval_eval"]
    assert not [line for path, line, _ in listed
                if path == "src/ksalgebra/polynomials.py" and node.lineno <= int(line) <= node.end_lineno]


def test_paired_bench_pairs_a_checkout_with_itself():
    # this checkout as both sides, one pair of 0.2 s cubic runs, a few
    # seconds: one line per run, then one per end-to-end metric of
    # BENCHMARK.json, the change's wins counted by its "better"
    done = subprocess.run([sys.executable, str(TOOLS / "paired_bench.py"), "--parent", str(ROOT), "--change", str(ROOT),
                           "--workload", "cubic", "--pairs", "1", "--seconds", "0.2"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:] or done.stdout[-2000:]
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    runs, rows = lines[:2], lines[2:]
    assert [(r["pair"], r["side"], r["seed"], r["correct"], r["failed"]) for r in runs] == [
        (0, "parent", 1, True, 0), (0, "change", 1, True, 0)]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(r["metric"], r["better"], r["pairs"]) for r in rows] == [(m["name"], m["better"], 1) for m in bench["end_to_end"]]
    for row in rows:
        assert row["parent_iqr"] == 0 and row["change_wins"] in (0, 1)
        assert row["parent_median"] > 0 and row["change_median"] > 0
        assert row["verdict"] in ("gain", "worse", "unresolved", "flat")


def _paired_bench():
    spec = importlib.util.spec_from_file_location("paired_bench", TOOLS / "paired_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent, change, name):
    return [({"metrics": {name: {"value": p}}}, {"metrics": {name: {"value": c}}}) for p, c in zip(parent, change)]


def test_paired_bench_verdicts_follow_the_metric_direction():
    # ten synthetic pairs: the parent at 100..109 (median 104.5, IQR 4.5)
    summary = _paired_bench().summary
    parent = list(range(100, 110))
    for better, sign in (("higher", 1), ("lower", -1)):
        metric = {"name": "m", "better": better, "bound": 0.25}

        def verdict(change, base=parent):
            row = summary(metric, _pairs(base, change, "m"))
            return row["verdict"], row["change_wins"]

        ahead = [p + sign * 10 for p in parent]  # wins 10/10 by 10 > IQR
        assert verdict(ahead) == ("gain", 10)
        assert verdict(ahead[:9] + [parent[9] - sign]) == ("gain", 9)
        assert verdict(ahead[:9], parent[:9]) == ("flat", 9)  # no gain below 10 pairs
        # a parent spread wider than the bound: IQR 30 > 0.25 * median 100
        wide = [100 - sign * 40] * 3 + [100] * 7
        assert verdict(wide, wide) == ("unresolved", 0)
        assert verdict([p + sign * 5 for p in wide], wide) == ("unresolved", 10)  # by 5, inside the IQR
        assert verdict([100 + sign] * 10, wide) == ("flat", 10)  # better than every run of the parent
        assert verdict([p - sign * 30 for p in wide], wide) == ("worse", 0)
        assert verdict(ahead[:8] + [p - sign for p in parent[8:]]) == ("flat", 8)
        assert verdict([p + sign for p in parent]) == ("flat", 10)  # by 1, inside the IQR
        assert verdict([p - sign * 20 for p in parent]) == ("flat", 0)  # 19% worse, inside the bound
        assert verdict([p - sign * 30 for p in parent]) == ("worse", 0)  # 29% worse
    assert "verdict" not in summary({"name": "m", "better": "lower", "bound": 0.1}, _pairs(parent, parent, "other"))
