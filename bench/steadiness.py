#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/steadiness.py --workload federated --seeds 1 2 3 4 5

Runs one after another (never in parallel), with BENCHMARK.json's
`run_seconds` unless `--seconds` is given. The spread of a metric is the
inter-quartile distance of its values over the seeds as a share of their
median; a benchmark is steady when every end-to-end spread but `setup_s`'s
is below a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None, help="write the per-seed results as JSON here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {values}",
              flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        line = f"{name}: median {statistics.median(values):.6g}"
        if len(values) >= 2 and statistics.median(values) != 0:
            spread = relative_spread(values)
            line += f", spread {spread:.4f}"
            bound = bounds.get(name)
            if name == "setup_s":
                line += " (exempt: set-up is compared by median only)"
            elif bound:
                line += f" (bound {bound}, {'ok' if spread < bound / 3 else 'OVER a third'})"
        print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
