#!/usr/bin/env python3
"""sha256 digests of `multisource experiment` artifacts, of case-2 traces and
of the CSV scoring sequence, for checking that a change keeps them byte for byte.

With no arguments, runs the benchmark's c07_sweep and full_grid configs
(`bench/workloads.py`, read only) at seeds derive_seed(s, j) for s in
(1, 9001) and j = 0..3: 16 sweeps, 48 artifacts; then runs
`simulate-federated --case 2 --rounds 1000 --trace` on the benchmark's
federated configs at the same 8 seeds: 16 more digests, of stdout and of the
JSONL trace. Given experiment config paths, or federated config paths after
`--federated`, runs only those. With `--csv`, runs only the benchmark's
csv_score sequence (`corrupt` on half the source CSVs, then `discrepancy`,
`weights` and `train`) at base seeds 1 and 9001, and digests the corrupted
files and the stdout of the last three calls; then runs it again on copies
of the inputs whose non-negative cells carry a leading `+`, which are no
JSON numbers, so the per-cell reader reads them: 28 lines. Prints one
`sha256  name` line per artifact. Run it in two trees with the same BLAS
thread count and diff the outputs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/sweep_digests.py > digests.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import C07, FULL_GRID, CsvScore, Federated, derive_seed  # noqa: E402

from multisource.cli import main as cli_main  # noqa: E402

BASE_SEEDS = (1, 9001)
VARIANTS = 4
CASE2_ROUNDS = 1000


def bench_configs(work: Path) -> list[Path]:
    """Write the benchmark's sweep configs at every seed into `work`."""
    paths = []
    for sweep in (C07, FULL_GRID):
        for base in BASE_SEEDS:
            for j in range(VARIANTS):
                path = work / f"{sweep.name}-{base}-{j}.json"
                config = dict(sweep.config, seed=derive_seed(base, j))
                path.write_text(json.dumps(config), encoding="utf-8")
                paths.append(path)
    return paths


def bench_federated_configs(work: Path) -> list[Path]:
    """Write the benchmark's federated configs at every seed into `work`."""
    paths, workload = [], Federated()
    for base in BASE_SEEDS:
        workload.prepare(work, base)  # writes federated-{j}.json, j = 0..3
        paths += [path.rename(work / f"federated-{base}-{j}.json")
                  for j, path in enumerate(workload.paths)]
    return paths


def _digest(data: bytes, name: str) -> None:
    print(f"{hashlib.sha256(data).hexdigest()}  {name}", flush=True)


def _run(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(argv)
    return code, stdout.getvalue()


def plus_signed(path: Path) -> None:
    """Rewrite the CSV file at `path` with a `+` before every data cell that
    has no `-`."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([header] + [",".join(c if c.startswith("-") else "+" + c
                                                   for c in row.split(",")) for row in rows])
                    + "\n", encoding="utf-8")


def csv_digests(work: Path, base: int, plus: bool = False) -> int:
    """Digest the csv_score sequence at `base`, run in a new directory
    `work` on relative paths so that no stdout names the directory; with
    `plus`, on inputs rewritten by `plus_signed`."""
    work.mkdir()
    with contextlib.chdir(work):
        workload = CsvScore()
        workload.prepare(Path(), base)
        if plus:
            for path in [*workload.src_paths, workload.ref_path, workload.test_path]:
                plus_signed(path)
        tag = f"csv{'-plus' if plus else ''}-{base}"
        for src, dst in zip(workload.src_paths, workload.corrupted):
            code, _ = _run(["corrupt", "--input", str(src), "--output", str(dst), "--kind",
                            "shuffled_labels", "--proportion", "0.5",
                            "--seed", str(workload.corrupt_seed)])
            if code != 0:
                return code
        for dst in workload.corrupted:
            _digest(dst.read_bytes(), f"{tag}.{dst.name}")
        code, scores = _run(["discrepancy", *map(str, workload.scored),
                             "--reference", str(workload.ref_path)])
        if code != 0:
            return code
        _digest(scores.encode("utf-8"), f"{tag}.discrepancy.stdout")
        report = json.loads(scores)
        weights_in = Path("scores.json")
        weights_in.write_text(json.dumps({
            "discrepancies": [r["discrepancy"] for r in report],
            "sample_counts": [r["samples"] for r in report]}), encoding="utf-8")
        for name, argv in (("weights", [str(weights_in), "--lambda", str(workload.lam)]),
                           ("train", ["--method", workload.method,
                                      "--config", str(workload.train_config)])):
            code, stdout = _run([name, *argv])
            if code != 0:
                return code
            _digest(stdout.encode("utf-8"), f"{tag}.{name}.stdout")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*",
                        help="experiment config files (default: the benchmark's sweeps)")
    parser.add_argument("--federated", nargs="+", default=[], metavar="CONFIG",
                        help="configs to run case 2 on (default: the benchmark's federated ones)")
    parser.add_argument("--csv", action="store_true",
                        help="run only the benchmark's csv_score sequence")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if args.csv:
            for plus in (False, True):
                for base in BASE_SEEDS:
                    code = csv_digests(work / f"{plus}-{base}", base, plus)
                    if code != 0:
                        return code
            return 0
        default = not (args.configs or args.federated)
        experiments = bench_configs(work) if default else [Path(c) for c in args.configs]
        federated = bench_federated_configs(work) if default else map(Path, args.federated)
        for config in experiments:
            out = work / f"{config.stem}.csv"
            code, _ = _run(["experiment", "--config", str(config), "--out", str(out)])
            if code != 0:
                return code
            for artifact in (out, out.with_suffix(".sidecar.json"),
                             out.with_suffix(".summary.csv")):
                _digest(artifact.read_bytes(), artifact.name)
        for config in federated:
            trace = work / f"{config.stem}.case2.jsonl"
            code, stdout = _run(["simulate-federated", "--case", "2", "--config", str(config),
                                 "--rounds", str(CASE2_ROUNDS), "--trace", str(trace)])
            if code != 0:
                return code
            _digest(stdout.encode("utf-8"), f"{config.stem}.case2.stdout")
            _digest(trace.read_bytes(), trace.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
