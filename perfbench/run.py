"""The ksalgebra benchmark: four closed-loop workloads, one client, no threads.

    python3 perfbench/run.py --workload family --seed 1 --seconds 10 --trace 0

Run from the root of a source tree; the package is imported from ./src.
With --trace 0 it measures the end-to-end metrics, timed in reference
seconds (speed.py: wall time scaled by a machine-speed probe sampled while
the work runs; the wall figures are printed beside them); with --trace 1 it
runs the exactfield micro layer and two traced passes in fresh processes,
and reports the per-layer metrics named in BENCHMARK.json.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Fresh processes (set-up samples,
cold first operations, the CLI, traced passes) run one at a time.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import ceil
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("family", "cubic", "rank4", "symbols")
# fresh processes whose first operation is timed, the measuring process
# included; each takes the next input of the seeded stream.  One cubic
# report costs ~10 s and one rank-4 report ~3 s.
COLD_PROCESSES = {"family": 3, "cubic": 1, "rank4": 2, "symbols": 5}
# fresh processes timing set-up alone: some before the window and some
# after it, so the samples do not all fall in one slow spell of the machine
SETUP_PROCESSES_BEFORE = 4
SETUP_PROCESSES = 9
# warm operations are scaled to reference seconds over stretches of at
# least this many seconds (one op, for ops longer than that)
SEGMENT_S = 0.5
# a window still short of an epoch boundary ends here anyway, so the run
# keeps time for its fresh processes within BUDGET_S
WINDOW_DEADLINE_S = 100.0
CLI_STARTUP_PROCESSES = 3
TRACE_OPS = {"family": 3, "cubic": 1, "rank4": 2, "symbols": 300}
BUDGET_S = 170.0

# acceptance bounds: (criterion, seconds, operations the bound covers)
BOUNDS = {
    "family": ("criterion 1: 1 s per triple", 1.0, 1),
    "symbols": ("criterion 5: 5 s per 500 Hilbert pairs", 5.0, 500),
}
CRITERION_2 = ("criterion 2: 10 s for the Q(sqrt 2) invariant route", 10.0, "2,1,1")

STARTED = time.perf_counter()


def _fail_setup(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _subprocess(cmd: list[str], what: str) -> subprocess.CompletedProcess:
    remaining = BUDGET_S - (time.perf_counter() - STARTED)
    if remaining <= 1:
        raise RuntimeError(f"time budget spent before {what}")
    return subprocess.run(
        cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=remaining
    )


def _child(kind: str, workload: str, seed: int, index: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", kind, "--workload", workload,
        "--seed", str(seed), "--index", str(index),
    ]
    proc = _subprocess(cmd, f"{kind} process {index}")
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} process {index} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples: list[float]):
    """(percentile, value) of the highest of p99.9/p99/p95/p90/p75 with at
    least ten samples beyond it (nearest rank), or None."""
    s = sorted(samples)
    n = len(s)
    for p in (99.9, 99, 95, 90, 75):
        rank = ceil(n * p / 100)
        if rank >= 1 and n - rank >= 10:
            return p, s[rank - 1]
    return None


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def _env_lines(args) -> list[str]:
    return [
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"# python={platform.python_version()} nproc={os.cpu_count()} git={_git_revision()}",
    ]


# -- fresh-process children --------------------------------------------------------


def child_cold(workload: str, seed: int, index: int) -> dict:
    """Set-up in this fresh process, then (index >= 0) its first, cold op;
    each in wall and in reference seconds."""
    import workloads as wl

    digests = wl.load_digests()
    with speed.SpeedProbe() as probe:
        mark = probe.mark()
        plan = wl.make_plan(workload, seed)
        wall = probe.elapsed(mark)
        out = {"setup_wall_s": wall, "setup_s": wall * probe.factor(mark)}
        if index >= 0:
            mark = probe.mark()
            secs, fail = wl.run_checked(plan, index, digests, probe=probe)
            out.update(first_op_wall_s=secs, first_op_s=secs * probe.factor(mark),
                       failure=fail, label=plan.label(index))
    return out


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced pass, named after ksalgebra modules."""
    t, n, c = tracer.seconds, tracer.calls_of, tracer.counts.get
    hilbert_n = n("brauer.hilbert_symbol")
    qrow_n = c("csa.GaloisModuleAlgebra.qrow_n", 0)
    return {
        "exactfield.mul_n.q1": c("exactfield.mul_n.q1", 0),
        "exactfield.mul_n.q2": c("exactfield.mul_n.q2", 0),
        "exactfield.mul_n.q3": c("exactfield.mul_n.q3", 0),
        "exactfield.sign_n": n("exactfield.sign_at_embedding"),
        "polynomials.resultant_n": n("polynomials.resultant"),
        "polynomials.interval_eval_n": n("polynomials.interval_eval"),
        "polynomials.self_s": tracer.self_seconds_of_layer("polynomials"),
        "linalg.kernel_s": t("linalg.kernel"),
        "linalg.kernel_shape": c("linalg.kernel_shape", 0),
        "linalg.rref_s": t("linalg.rref"),
        "linalg.coords_n": n("linalg.coords_in_rref_sparse") + n("linalg.coords_in_rref_basis"),
        "linalg.coords_s": t("linalg.coords_in_rref_sparse") + t("linalg.coords_in_rref_basis"),
        "qform.validate_s": t("qform.validate_k3_rm"),
        "qform.diagonalize_s": t("qform.congruence_diagonalize"),
        "clifford.even_part_s": t("clifford.even_part"),
        "clifford.c0_symbol_s": t("clifford.even_rank3_to_symbol"),
        "csa.table_s": t("csa.StructureAlgebra.__init__"),
        "csa.build_ZG_s": t("csa.build_ZG"),
        "csa.invariants_s": tracer.seconds_excluding("csa.invariants", "linalg."),
        "csa.center_s": t("csa.center"),
        "csa.trace_signature_s": t("csa.trace_form_signature"),
        "csa.tensor_s": t("csa.tensor"),
        "csa.table_n": n("csa.StructureAlgebra.__init__"),
        "csa.assoc_triples_n": c("csa.assoc_triples", 0),
        "csa.mul_q_n": n("csa.GaloisModuleAlgebra.mul_q"),
        "csa.qrow_n": qrow_n,
        "csa.qrow_distinct_ratio": c("csa.qrow_distinct", 0) / qrow_n if qrow_n else 0.0,
        "brauer.hilbert_n": hilbert_n,
        "brauer.hilbert_us": t("brauer.hilbert_symbol") / hilbert_n * 1e6 if hilbert_n else 0.0,
        "brauer.ramification_s": t("brauer.ramification"),
        "brauer.reduced_s": t("brauer.reduced_symbol"),
        "brauer.corestrict_s": t("brauer.corestrict_symbol"),
        "brauer.symbol_scale_n": n("brauer.symbol_scale"),
        "pipeline.report_self_s": t("pipeline.ks_report", self_time=True),
        "pipeline.orbits_s": t("pipeline.even_weight_orbits"),
        "pipeline.search_s": t("pipeline.search_cubic_diagonal"),
        "cli.render_s": t("cli.render"),
    }


def child_traced(workload: str, seed: int, index: int) -> dict:
    """One traced pass from a fresh process: set-up and the first
    TRACE_OPS[workload] ops, cold.  Index 0 writes its spans out; index 1
    then times the same ops warm, untraced and traced, for the overhead."""
    import tracer as tr
    import workloads as wl

    tr.ksalgebra_modules()  # import before wrapping
    digests = wl.load_digests()
    k = TRACE_OPS[workload]
    tracer = tr.Tracer()
    render_id = tracer.name_id("cli.render")
    uninstall = tr.install(tracer)
    failures = []
    try:
        plan = wl.make_plan(workload, seed)

        def render(out):
            return tracer.call(render_id, True, plan.render, (out,), {})

        for i in range(k):
            tracer.op = i
            _, fail = wl.run_checked(plan, i, digests, render)
            if fail:
                failures.append(fail)
    finally:
        uninstall()
    counts = dict(tracer.counts)
    counts.update({f"calls.{name}": c for name, c in zip(tracer.names, tracer.calls)})
    result = {"metrics": layer_metrics(tracer), "counts": counts, "failures": failures, "ops": k}
    if index == 0:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps(tracer.to_json_dict()), encoding="utf-8")
        result["trace_file"] = str(path.relative_to(ROOT))
    else:
        untraced, traced = [], []
        for i in range(k):  # interleaved, so slow drift hits both sides alike
            untraced.append(_timed(plan.run, i))
            uninstall = tr.install(tr.Tracer())
            try:
                traced.append(_timed(plan.run, i))
            finally:
                uninstall()
        result["untraced_p50_s"] = statistics.median(untraced)
        result["traced_p50_s"] = statistics.median(traced)
    return result


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


# -- the exactfield micro layer ------------------------------------------------------


def micro_layer(seed: int, repeats: int = 5) -> dict:
    """Median microseconds per mul, inverse, sign and norm over Q, Q(sqrt 2)
    and the cyclic cubic, on seeded operands (ROADMAP 'one multiply')."""
    from ksalgebra import exactfield as ef

    fields = {
        "q1": ef.RATIONAL_FIELD,
        "q2": ef.quadratic_field(2),
        "q3": ef.cyclic_cubic_field(),
    }
    rng = random.Random(seed)
    out = {}
    for tag, f in fields.items():
        xs = []
        while len(xs) < 32:
            x = f.elem([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(f.degree)])
            if x:
                xs.append(x)
        pairs = [(xs[i % 32], xs[(7 * i + 3) % 32]) for i in range(256)]
        d = f.degree
        cases = {
            "mul": (lambda: [x * y for x, y in pairs], len(pairs)),
            "inv": (lambda: [x.inverse() for x in xs], len(xs)),
            "sign": (lambda: [ef.sign_at_embedding(x, 1 + i % d) for i, x in enumerate(xs)], len(xs)),
            "norm": (lambda: [ef.norm(x) for x in xs], len(xs)),
        }
        for op, (fn, n) in cases.items():
            samples = [_timed(fn) / n * 1e6 for _ in range(repeats)]
            out[f"exactfield.{op}_us.{tag}"] = statistics.median(samples)
    return out


# -- the two kinds of run -------------------------------------------------------------


def measure_window(plan, seconds: float, digests: dict, probe) -> dict:
    """Warm operations in whole epochs, from index `plan.epoch` on, until
    `seconds` have passed (or the run reaches WINDOW_DEADLINE_S): each op's
    wall time less the probes in it, and that time in reference seconds,
    scaled over stretches of SEGMENT_S."""
    import workloads as wl

    wall, ref, labels, failures, pending = [], [], [], [], []
    start = i = plan.epoch
    w0 = time.perf_counter()
    segment = probe.mark()
    while True:
        secs, fail = wl.run_checked(plan, i, digests, probe=probe)
        pending.append(secs)
        labels.append(plan.label(i))
        if fail:
            failures.append(fail)
        i += 1
        now = time.perf_counter()
        done = (now - w0 >= seconds and (i - start) % plan.epoch == 0
                or now - STARTED >= WINDOW_DEADLINE_S)
        if done or now - segment[0] >= SEGMENT_S:
            k = probe.factor(segment)
            wall.extend(pending)
            ref.extend(s * k for s in pending)
            pending = []
            segment = probe.mark()
        if done:
            return {"wall": wall, "ref": ref, "labels": labels, "failures": failures,
                    "window_s": time.perf_counter() - w0}


def timed_run(args) -> dict:
    import workloads as wl

    name, seed = args.workload, args.seed
    digests = wl.load_digests()
    plan = wl.make_plan(name, seed)
    setups = [_child("cold", name, seed, -1) for _ in range(SETUP_PROCESSES_BEFORE)]
    with speed.SpeedProbe() as probe:
        mark = probe.mark()
        cold_secs, fail = wl.run_checked(plan, 0, digests, probe=probe)
        cold = [(cold_secs, cold_secs * probe.factor(mark))]
        w = measure_window(plan, args.seconds, digests, probe)
    failures = ([fail] if fail else []) + w["failures"]
    attempted = 1 + len(w["ref"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for index in range(1, COLD_PROCESSES[name]):
        res = _child("cold", name, seed, index)
        setups.append(res)
        cold.append((res["first_op_wall_s"], res["first_op_s"]))
        attempted += 1
        if res["failure"]:
            failures.append(res["failure"])
    while len(setups) < SETUP_PROCESSES:
        setups.append(_child("cold", name, seed, -1))

    cli = None
    if name == "family":
        cli, fail = cli_sweep(plan, digests)
        attempted += 1
        if fail:
            failures.append(fail)

    return {
        "attempted": attempted,
        "failures": failures,
        "setup": [(r["setup_wall_s"], r["setup_s"]) for r in setups],
        "cold": cold,
        "window": w,
        "rss_mb": rss_mb,
        "cli_s": cli,
    }


def cli_sweep(plan, digests) -> tuple[float, str | None]:
    """Wall time of one `ksalg six-lines --sweep` process over the plan's
    first triples; its JSON must match the pinned digests."""
    import workloads as wl

    sweep = plan.cli_sweep()
    cmd = [sys.executable, "-m", "ksalgebra.cli", "six-lines", "--sweep", sweep]
    t0 = time.perf_counter()
    proc = _subprocess(cmd, "the CLI sweep")
    secs = time.perf_counter() - t0
    if proc.returncode != 0:
        return secs, f"ksalg six-lines --sweep '{sweep}' exited {proc.returncode}"
    docs = json.loads(proc.stdout)
    if proc.stdout != wl.canonical_json(docs):
        return secs, f"ksalg six-lines --sweep '{sweep}': output is not canonical JSON"
    for label, doc in zip(sweep.split(";"), docs):
        if wl.sha256(wl.canonical_json(doc)) != digests["family"][label]:
            return secs, f"ksalg six-lines --sweep: {label} does not match its pinned digest"
    return secs, None


def report_timed(args, r: dict) -> dict:
    """Print every end-to-end figure, in reference and in wall seconds;
    return the ones BENCHMARK.json gates, in reference seconds."""
    name, w = args.workload, r["window"]
    n = len(w["ref"])

    def both(pairs, reduce):
        return reduce([p[1] for p in pairs]), reduce([p[0] for p in pairs])

    setup = both(r["setup"], statistics.median)
    first_op = both(r["cold"], statistics.median)
    p50 = statistics.median(w["ref"]), statistics.median(w["wall"])
    ops_per_s = n / sum(w["ref"]), n / sum(w["wall"])
    tail = tail_percentile(w["ref"])
    tail_wall = tail_percentile(w["wall"])
    fail_ratio = len(r["failures"]) / r["attempted"]
    rows = [
        ("setup_s", setup, "s", f"median of {len(r['setup'])} fresh processes"),
        ("first_op_s", first_op, "s", f"median of {len(r['cold'])} cold first operations"),
        ("op_p50_s", p50, "s", f"{n} warm operations, {w['window_s']:.2f} s window"),
        ("op_tail_s", (tail[1], tail_wall[1]) if tail else None, "s",
         f"p{tail[0]:g} of {n} operations" if tail
         else f"omitted: {n} operations allow nothing above the median"),
        ("ops_per_s", ops_per_s, "1/s", "operations over their summed time"),
        ("fail_ratio", fail_ratio, "ratio", f"{len(r['failures'])} of {r['attempted']} attempted"),
        ("peak_rss_mb", r["rss_mb"], "MB", "measuring process"),
    ]
    if name in BOUNDS:
        label, bound, per = BOUNDS[name]
        rows.append(("bound_headroom", (bound / (per * p50[0]), bound / (per * p50[1])), "x", label))
    else:
        rows.append(("bound_headroom", None, "x", "no acceptance bound for this workload"))
    if r["cli_s"] is not None:
        rows.append(("cli_s", r["cli_s"], "s", "wall only: one ksalg six-lines --sweep process"))
    else:
        rows.append(("cli_s", None, "s", "family only"))

    def shown(v):
        return "n/a" if v is None else f"{v:.6g}"

    print(f"# reference seconds: wall seconds at a probe time of {speed.NOMINAL_S} s")
    print(f"{'metric':<16}{'reference':>12}{'measured':>12}  {'unit':<6}note")
    for metric, value, unit, note in rows:
        ref, wall = value if isinstance(value, tuple) else (None, value)
        print(f"{metric:<16}{shown(ref):>12}{shown(wall):>12}  {unit:<6}{note}")
    if name == "family":
        label, bound, triple = CRITERION_2
        hits = [t for t, lab in zip(w["wall"], w["labels"]) if lab == triple]
        print(f"# headroom {label}: {bound / statistics.median(hits):.3g}x wall"
              if hits else f"# headroom {label}: not drawn")
    for failure in r["failures"]:
        print(f"# FAILED {failure}")
    return {
        "setup_s": {"value": setup[0], "unit": "s"},
        "op_p50_s": {"value": p50[0], "unit": "s"},
        "ops_per_s": {"value": ops_per_s[0], "unit": "1/s"},
        "peak_rss_mb": {"value": r["rss_mb"], "unit": "MB"},
    }


def _cli_startup() -> float:
    cmd = [sys.executable, "-c", "import ksalgebra.cli"]
    samples = []
    for _ in range(CLI_STARTUP_PROCESSES):
        t0 = time.perf_counter()
        proc = _subprocess(cmd, "the CLI start-up probe")
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"import ksalgebra.cli failed: {proc.stderr[-2000:]}")
    return statistics.median(samples)


def traced_run(args) -> tuple[dict, int, list, list]:
    name, seed = args.workload, args.seed
    metrics = micro_layer(seed)
    metrics["cli.startup_s"] = _cli_startup()
    a = _child("traced", name, seed, 0)
    b = _child("traced", name, seed, 1)
    failures = a["failures"] + b["failures"]
    problems = []
    if a["counts"] != b["counts"]:
        diff = sorted(k for k in set(a["counts"]) | set(b["counts"])
                      if a["counts"].get(k) != b["counts"].get(k))
        problems.append(f"{name}: traced counts differ between two runs: {', '.join(diff[:8])}")
    metrics.update(a["metrics"])
    metrics["trace.op_p50_s"] = b["traced_p50_s"]
    metrics["trace.overhead_s"] = b["traced_p50_s"] - b["untraced_p50_s"]
    print(f"# spans written to {a['trace_file']}")
    print(f"# tracing overhead: traced {b['traced_p50_s']:.6g} s - untraced "
          f"{b['untraced_p50_s']:.6g} s per op = {metrics['trace.overhead_s']:.6g} s "
          f"({metrics['trace.overhead_s'] / b['untraced_p50_s']:.1%})")
    for failure in failures + problems:
        print(f"# FAILED {failure}")
    return metrics, a["ops"] + b["ops"], failures, problems


UNITS = {"_s": "s", "_us": "us", "_n": "count", "_ratio": "ratio", "_shape": "count"}


def unit_of(metric: str) -> str:
    base = metric.rsplit(".q", 1)[0] if metric.startswith("exactfield.") else metric
    return next(u for suffix, u in UNITS.items() if base.endswith(suffix))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("cold", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ksalgebra" / "__init__.py").is_file():
        _fail_setup(f"no ksalgebra sources under {SRC}; run from the root of a source tree")
    sys.path.insert(0, str(SRC))

    if args.child == "cold":
        print(json.dumps(child_cold(args.workload, args.seed, args.index)))
        return 0
    if args.child == "traced":
        print(json.dumps(child_traced(args.workload, args.seed, args.index)))
        return 0

    for line in _env_lines(args):
        print(line)
    if args.trace == 0:
        r = timed_run(args)
        metrics = report_timed(args, r)
        attempted, failures, problems = r["attempted"], r["failures"], []
    else:
        values, attempted, failures, problems = traced_run(args)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(values.items())}
        for k, m in metrics.items():
            print(f"{k:<32}{m['value']:>16.6g}  {m['unit']}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
