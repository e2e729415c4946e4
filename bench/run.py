"""Benchmark for the pathgain CLI, laws and oracles.

Run from the repository root:

    python3 bench/run.py --workload cli_session --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for their make-up and the layer map):

- cli_session: many short CLI processes, as a shell script would run them;
- dense_sweep: a few CLI processes that each sweep or read tens of
  thousands of points;
- oracle_sweep: one in-process run through the verify suites and a seeded
  closed-form-versus-oracle gap map.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of an
in-process traced probe instead.  Every run checks the outputs it produces.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are pinned before numpy loads, here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("cli_session", "dense_sweep", "oracle_sweep")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "pathgain" / "cli.py").is_file():
        sys.stderr.write(f"bench: no pathgain sources under {ROOT / 'src'}; "
                         "run from a full checkout\n")
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    import harness

    with harness.Session(ROOT, args.workload, args.seed) as session:
        if args.trace:
            import tracing
            result = tracing.traced_run(session)
        else:
            import workloads
            result = workloads.run(session, args.seconds)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
