#!/usr/bin/env python3
"""tscode benchmark: one workload per run, one JSON result line at the end.

Usage (from the repository root):
    python3 tsbench/run.py --workload codec-stream --seed 1 --seconds 10 --trace 0

Workloads: codec-stream, cli-cold, analysis (see tsbench/README.md). With
--trace 0 the result carries the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a traced run. The exit code is 0 only when
every operation's output passed its check.
"""

import os
import sys

# single-threaded numerics, for this process and every CLI process it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

import argparse  # noqa: E402
import json  # noqa: E402

from workloads import OUT, WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "tscode", "__init__.py")):
        print(f"tscode sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    runner, end_to_end = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    result = runner.result(end_to_end)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if runner.tracer:
        runner.tracer.dump(stem + ".spans.json")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
