"""Run every workload, each in its own fresh process, untraced then traced.

    python3 bench/all.py --seed N [--seconds S]

Prints failed_ops, the run summary or trace report, and one line per
metric (workload, name, value, unit) for each run; exits 1 if any run
fails a check.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    args = p.parse_args(argv)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    ok = True
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{workload} trace={trace}: exit {done.returncode}")
                ok = False
                continue
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{workload} trace={trace}: failed_ops {result['failed']}/{result['attempted']}")
            print("\n".join(lines[:-2]))  # run summary or trace report
            for name, m in result["metrics"].items():
                print(f"{workload:<18} {name:<38} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
