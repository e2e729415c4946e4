"""Steadiness check: run every workload of BENCHMARK.json on 10 seeds and
report, for every end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median next to the metric's bound.

From the repository root:

    python3 bench/steadiness.py                      # seeds 1-10
    python3 bench/steadiness.py --first-seed 11 --out .bench_work/set2.json \
        --compare .bench_work/steadiness.json

Results go to .bench_work/steadiness.json (or --out).  A metric is marked
WIDE when its spread exceeds its bound and, with --compare, WORSE when its
median is worse than the earlier set's by more than its bound; the failed
share of operations must be one value per workload and the same in both
sets.  The exit code is 1 if anything is marked.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec: dict, results: dict, baseline: dict | None) -> bool:
    steady = True
    for workload, runs in results.items():
        shares = {(r["failed"] / r["attempted"]) for r in runs}
        if baseline and workload in baseline:
            shares |= {(r["failed"] / r["attempted"]) for r in baseline[workload]}
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct={correct}, "
              f"failed shares {sorted(shares)}")
        steady &= correct and len(shares) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            limit_ok = spread <= bound
            steady &= limit_ok
            line = (f"  {name:22s} median {median:12.5g}  spread {spread:7.2%}"
                    f" = {spread / bound:4.0%} of bound {bound:4.0%}"
                    f"  {'ok' if limit_ok else 'WIDE'}")
            if baseline and workload in baseline:
                before = statistics.median(r["metrics"][name]["value"]
                                           for r in baseline[workload])
                change = (median - before) / before
                worse = change if metric["better"] == "lower" else -change
                line += f"  vs baseline {change:+7.2%}"
                if worse > bound:
                    line += " WORSE"
                    steady = False
            print(line)
    return steady


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / ".bench_work" / "steadiness.json"))
    parser.add_argument("--compare", help="earlier results file")
    args = parser.parse_args(argv)
    baseline = None
    if args.compare:
        baseline = json.loads(Path(args.compare).read_text(encoding="utf-8"))

    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = []
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            results[workload].append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed} done", file=sys.stderr)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results), encoding="utf-8")
    return 0 if summarize(spec, results, baseline) else 1


if __name__ == "__main__":
    sys.exit(main())
