"""Smoke tests of the scripts under tools/."""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
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
    assert set(row) == {"src", "report", "wall_s", "cpu_s", "maxrss_mb", "dim", "center", "signature", "stages"}
    assert (row["report"], row["dim"], row["center"], row["signature"]) == ("quartic-cyclic", 256, 1, [120, 136, 0])
    assert list(row["stages"]) == STAGES
    assert all(t >= 0 for t in row["stages"].values())
    assert 0 < row["stages"]["invariants"] <= sum(row["stages"].values()) <= row["cpu_s"]
