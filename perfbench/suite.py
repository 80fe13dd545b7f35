"""Run every benchmark workload, or the benchmark's self-check.

    python3 perfbench/suite.py [--seed 0] [--seconds 35]
    python3 perfbench/suite.py --selfcheck

The first form runs each workload once untraced and once traced, each in a
process of its own, and prints every end-to-end and per-layer metric by
name and unit.  The self-check runs each workload at reduced size twice,
traced, and fails unless every op passes its oracle and every count repeats
exactly.  Run from the root of a loglosslab checkout.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def _run(workload: str, seed: int, seconds: float, trace: int, small: bool = False):
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + (["--small"] if small else [])
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}\n{done.stderr}")
    record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return record, result


def _report(seed: int, seconds: float) -> int:
    failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            record, result = _run(workload, seed, seconds, trace)
            failed += result["failed"]
            print(f"# {workload} trace={trace} seed={seed} "
                  f"ops_attempted={result['attempted']} ops_failed={result['failed']} "
                  f"op_tail_percentile={record['op_tail_percentile']:.1f}")
            for failure in record["failures"]:
                print(f"#   FAILED {failure['op']}: {failure['error']}: {failure['message']}")
            for name, metric in result["metrics"].items():
                print(f"{workload:14s} {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    return 1 if failed else 0


def _selfcheck() -> int:
    problems = []
    for workload in WORKLOADS:
        runs = [_run(workload, 0, 1, 1, small=True) for _ in range(2)]
        for record, result in runs:
            for failure in record["failures"]:
                problems.append(f"{workload}: {failure['op']} failed: {failure['message']}")
        counts = [{name: m["value"] for name, m in result["metrics"].items()
                   if m["unit"] == "count"} for _, result in runs]
        for name in sorted(counts[0]):
            if counts[0][name] != counts[1][name]:
                problems.append(f"{workload}: {name} {counts[0][name]} then {counts[1][name]}")
        print(f"{workload}: {runs[0][1]['attempted']} ops, counts "
              + ", ".join(f"{k}={v:g}" for k, v in counts[0].items() if v))
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    if not problems:
        print("self-check passed: every op met its oracle and every count repeated")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    return _selfcheck() if args.selfcheck else _report(args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
