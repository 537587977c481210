"""Tracing overhead: one untraced and one traced run of a workload, compared.

Usage:
    python3 perfbench/overhead.py --workload NAME --seed N --seconds S

Prints the traced run's per-layer table, then each end-to-end metric
untraced, traced, and the traced change as a share of the untraced value.
The traced run reports its own end-to-end numbers on the line before its
result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload, seed, seconds, trace):
    """Returns the run's end-to-end values, its metric table lines and its
    result line."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    docs = [json.loads(line) for line in lines if line.startswith("{")]
    table = [line for line in lines if not line.startswith("{")]
    if trace:
        values = next(doc["traced_end_to_end"] for doc in docs if "traced_end_to_end" in doc)
    else:
        values = {name: metric["value"] for name, metric in docs[-1]["metrics"].items()}
    return values, table, docs[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    args = parser.parse_args()
    plain, _, plain_result = run(args.workload, args.seed, args.seconds, 0)
    traced, table, traced_result = run(args.workload, args.seed, args.seconds, 1)
    print("\n".join(table))
    print(f"\n{'metric':24s} {'untraced':>12s} {'traced':>12s} {'change':>8s}")
    for name, value in plain.items():
        print(f"{name:24s} {value:12.5g} {traced[name]:12.5g} {traced[name] / value - 1:+8.1%}")
    for label, result in (("untraced", plain_result), ("traced", traced_result)):
        print(f"{label}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")


if __name__ == "__main__":
    main()
