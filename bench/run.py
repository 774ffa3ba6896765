#!/usr/bin/env python3
"""Benchmark of the multisource CLI: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload csv_score --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from `src/`; the
benchmark edits nothing there. One process drives the workload as a closed
loop for `--seconds`, checks every output, and prints a report (every metric
with its unit, median, quartiles and sample count, plus the environment)
followed, as the last line, by one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` gives the `end_to_end`
metrics of BENCHMARK.json, `--trace 1` its `per_layer` metrics.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: the load generator is one
# single-threaded process, and a BLAS thread pool would only add noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import json
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"git_sha": git_sha(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "load": "1 process, 1 client, closed loop"}


def time_setup(workload, work: Path, seed: int, clock) -> list[float]:
    """Normalized seconds of a fresh interpreter importing the program plus
    the workload's input generation, repeated SETUP_REPEATS times."""
    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); import multisource.cli"
    out = []
    for _ in range(SETUP_REPEATS):
        clock.mark()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], check=True)
        workload.prepare(work, seed)
        out.append((time.perf_counter() - start) * clock.scale())
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the report as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "multisource" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'multisource'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import multisource.cli  # noqa: F401  (loads every layer module)

    if not Path(multisource.__file__).resolve().is_relative_to(SRC):
        print("multisource was not imported from this checkout", file=sys.stderr)
        return 2
    from measure import UNITS, Clock, Tally, traced_run, untraced_run
    from stats import summarize
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        clock = Clock()
        setup = summarize(time_setup(workload, work, args.seed, clock))
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values = traced_run(workload, clock, args.seconds, tally, spans)
            wanted = spec["per_layer"]
            report = {"per_layer": values, "spans_file": str(spans.relative_to(ROOT))}
        else:
            metrics = untraced_run(workload, clock, args.seconds, tally)
            metrics["setup_s"] = setup
            for name, m in metrics.items():
                m["unit"] = UNITS[name]
            values = {name: m["median"] for name, m in metrics.items()}
            wanted = spec["end_to_end"]
            report = {"end_to_end": metrics, "work_unit": workload.work_unit}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures[:20], environment=environment())
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
