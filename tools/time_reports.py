"""Time the big ks_report inputs, each in a fresh `python -O` process.

Usage:
    python3 tools/time_reports.py [--src DIR ...] [--report NAME ...] [--runs N]

Each --src is the `src` directory of a checkout (default: this one's).
With several, every report runs once per checkout in turn, so that their
runs interleave on a host whose speed drifts; --runs repeats the whole
round.  Each --report names one report of INPUTS (default: all), so
that a round can time the rank-4 cubic alone.  The quartic fields come
from the checkout's tests/quartic_fields.py.

One JSON line per report: the checkout, the report, wall and CPU seconds
of ks_report alone (imports and the field excluded), the process's peak
resident size (ru_maxrss, in MB), and the invariant route's dim, center
dimension and trace signature, and under "stages" the CPU seconds of
ks_report spent in each of STAGES, names that ksalgebra.pipeline
imports: the child rebinds them there, and nowhere else, to timed
wrappers, so the package is unchanged and no stage is counted inside
another.  Standard library only.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# per report, the field and the diagonal entries as source the child runs, a the generator
INPUTS = {
    "rank4-cubic": ("cyclic_cubic_field()", "[a, a, a - 1, a - 2]"),
    "rank4-cubic-valid": ("cyclic_cubic_field()", "[-2 * a - 2] * 2 + [-2 * a * a - 2 * a - 2] * 2"),
    "quartic-cyclic": ("cyclic_quartic_field()", "[2 * a - 3, 2 * a - 3, -f.one()]"),
    "quartic-biquadratic": ("biquadratic_field()", "[a - 2, a - 2, -f.one()]"),
}
# the stages timed in each report, as named in ksalgebra.pipeline
STAGES = ("validate_k3_rm", "even_part", "even_rank3_to_symbol", "build_ZG", "invariants",
          "trace_form_signature", "center")

_CHILD = """
import json, resource, sys, time
from ksalgebra.exactfield import cyclic_cubic_field
from ksalgebra.pipeline import ks_report
from ksalgebra.qform import GramForm
from quartic_fields import biquadratic_field, cyclic_quartic_field
from ksalgebra import pipeline
stages = dict.fromkeys({stages}, 0.0)

def timed(name, real):
    def stage(*args, **kwargs):
        start = time.process_time()
        try:
            return real(*args, **kwargs)
        finally:
            stages[name] += time.process_time() - start
    return stage

for name in stages:
    setattr(pipeline, name, timed(name, getattr(pipeline, name)))
f = {field}
a = f.gen()
form = GramForm.diagonal(f, {entries})
wall, cpu = time.perf_counter(), time.process_time()
route = ks_report(f, form).cores_invariant_route
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
print(json.dumps({{
    "wall_s": round(wall, 3), "cpu_s": round(cpu, 3),
    "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "dim": route["dim"], "center": route["center_dim"], "signature": list(route["trace_signature"]),
    "stages": {{k: round(v, 4) for k, v in stages.items()}},
}}))
"""


def run(src: Path, name: str) -> dict:
    """One report in a fresh python -O process with src and its tests importable."""
    field, entries = INPUTS[name]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(src.parent / "tests")]))
    done = subprocess.run([sys.executable, "-O", "-c", _CHILD.format(field=field, entries=entries, stages=STAGES)],
                          capture_output=True, text=True, env=env, check=True)
    return {"src": str(src), "report": name, **json.loads(done.stdout)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", type=Path, help="a checkout's src directory (repeatable)")
    parser.add_argument("--report", action="append", choices=INPUTS, help="a report to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=1, help="rounds over every report and checkout")
    args = parser.parse_args()
    sources = [p.resolve() for p in args.src or [Path(__file__).resolve().parent.parent / "src"]]
    for _ in range(args.runs):
        for name in args.report or INPUTS:
            for src in sources:
                print(json.dumps(run(src, name)), flush=True)


if __name__ == "__main__":
    main()
