"""Paired benchmark runs on two checkouts, alternating which side runs first.

Usage:
    python3 tools/paired_bench.py --parent DIR --change DIR --workload W [--pairs N] [--seconds S] [--seed K]

Each pair runs `perfbench/run.py --trace 0` once in each checkout, with the
checkout as the working directory, so that each imports its own ./src.
Pair i gives both sides the seed K + i; the parent runs first in the even
pairs and the change in the odd ones, so that a host whose speed drifts
favours neither side.

One JSON line per run: the pair, the side, the seed and the run's result,
the last line run.py prints (correct, attempted, failed and metrics), or
its exit status and the end of its stderr if it failed.  Then one JSON line
per end-to-end metric of the parent's BENCHMARK.json: the median of each
side, the interquartile range of the parent's runs, and the pairs the
change wins by the metric's "better"; a tie counts for neither side.  Exit
status 1 if a run fails or reports an incorrect result, else 0.  Standard
library only.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the checkout at root: its JSON result line."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"], cwd=root, capture_output=True, text=True)
    if done.returncode:
        return {"returncode": done.returncode, "stderr": done.stderr[-2000:]}
    return json.loads(done.stdout.splitlines()[-1])


def summary(metric: dict, pairs: list) -> dict:
    """Both medians, the parent's interquartile range and the change's wins
    for one metric, over the pairs where both runs report it."""
    name, higher = metric["name"], metric["better"] == "higher"
    values = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
              if name in p.get("metrics", {}) and name in c.get("metrics", {})]
    out = {"metric": name, "better": metric["better"], "pairs": len(values)}
    if not values:
        return out
    parent, change = [p for p, _ in values], [c for _, c in values]
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else parent * 3
    return {**out, "parent_median": statistics.median(parent), "change_median": statistics.median(change),
            "parent_iqr": q3 - q1, "change_wins": sum((c > p) if higher else (c < p) for p, c in values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout's root")
    parser.add_argument("--change", type=Path, required=True, help="the changed checkout's root")
    parser.add_argument("--workload", required=True, help="a workload of perfbench/run.py")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0, help="run.py's --seconds")
    parser.add_argument("--seed", type=int, default=1, help="the seed of pair 0; pair i uses seed + i")
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs, ok = [], True
    for i in range(args.pairs):
        seed, result = args.seed + i, {}
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result[side] = run(roots[side], args.workload, seed, args.seconds)
            ok = ok and result[side].get("correct") is True
            print(json.dumps({"pair": i, "side": side, "seed": seed, **result[side]}), flush=True)
        pairs.append((result["parent"], result["change"]))
    bench = json.loads((roots["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in bench["end_to_end"]:
        print(json.dumps(summary(metric, pairs)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
