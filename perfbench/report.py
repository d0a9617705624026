"""Run every workload once and print its metric table.

    python3 perfbench/report.py --seed 1 --seconds 30 [--trace 1]

Run from the repository root. Each workload runs in its own process via
run.py; --trace 0 prints the eight end-to-end metrics per workload, and
--trace 1 the per-layer metrics and tracing overhead. Exits nonzero if any
run fails or reports incorrect output.
"""

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    status = 0
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{name}: run failed with exit code {out.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        print(f"# {name:<22} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}\n")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
