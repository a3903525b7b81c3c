"""Check that traced runs repeat their counts exactly.

    python3 perfbench/determinism.py [--seed N] [--workload NAME ...] [--record]

Runs the traced benchmark twice per workload with the same seed and
compares every per-layer metric whose unit is ``count`` (call counts, hits,
the completion counters that `--stats` prints, checked pairs).  Exits 1 on
any difference.  With --record the counts are written to
perfbench/baseline.json as the baseline counts of the measured commit.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cycle8-symmetric", "cycle8-verify", "flow-membership")


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stdout}{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    counts = {}
    differ = False
    for workload in args.workload or WORKLOADS:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        for name, (a, b) in sorted(diff.items()):
            print(f"{workload}: {name} {a} != {b}")
        differ |= bool(diff)
        counts[workload] = first
        print(f"{workload}: {len(first)} counts, {len(diff)} differ")
    if args.record and not differ:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text(encoding="utf-8"))
        baseline["baseline_counts"] = {"seed": args.seed, **counts}
        path.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
