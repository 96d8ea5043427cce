"""Benchmark entry point: run one workload, or all of them, in fresh processes.

    python3 perfbench/run.py --workload typical-cold --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py                 # every workload, then a summary
    python3 perfbench/run.py --selftest      # checks and digest reject corruption

Run from the repository root.  Each workload runs in its own process with
PYTHONHASHSEED pinned and ``src`` on the path, so ``peak_rss_mb`` belongs to
that workload.  With ``--workload`` the last line of output is the workload's
JSON result; without it, the last line combines every workload's result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("typical-cold", "search-warm", "atypical-oracle", "atypical-enum")
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(script: str, extra: list[str], capture: bool) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / script), *extra],
        env=child_env(),
        stdout=subprocess.PIPE if capture else None,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not Path("src/superweyl/__init__.py").is_file():
        print("run.py: no src/superweyl here; run from the repository root", file=sys.stderr)
        return 2
    if args.selftest:
        return run_child("selftest.py", [], capture=False).returncode

    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    if args.workload:
        return run_child("bench.py", ["--workload", args.workload, *common],
                         capture=False).returncode

    results = {}
    for name in WORKLOADS:
        proc = run_child("bench.py", ["--workload", name, *common], capture=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"run.py: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
    print(f"{'workload':<16} {'metric':<28} {'value':>14} unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:<16} {metric:<28} {m['value']:>14.6g} {m['unit']}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
