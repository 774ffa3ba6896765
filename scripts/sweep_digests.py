#!/usr/bin/env python3
"""sha256 digests of `multisource experiment` artifacts, for checking that a
change keeps sweep outputs byte for byte.

With no arguments, runs the benchmark's c07_sweep and full_grid configs
(`bench/workloads.py`, read only) at seeds derive_seed(s, j) for s in
(1, 9001) and j = 0..3: 16 sweeps, 48 artifacts. Given config paths, runs
only those. Prints one `sha256  name` line per artifact (results CSV,
sidecar JSON, summary CSV). Run it in two trees with the same BLAS thread
count and diff the outputs:

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
from workloads import C07, FULL_GRID, derive_seed  # noqa: E402

from multisource.cli import main as cli_main  # noqa: E402

BASE_SEEDS = (1, 9001)
VARIANTS = 4


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*",
                        help="experiment config files (default: the benchmark's sweeps)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for config in [Path(c) for c in args.configs] or bench_configs(work):
            out = work / f"{config.stem}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["experiment", "--config", str(config), "--out", str(out)])
            if code != 0:
                return code
            for artifact in (out, out.with_suffix(".sidecar.json"),
                             out.with_suffix(".summary.csv")):
                digest = hashlib.sha256(artifact.read_bytes()).hexdigest()
                print(f"{digest}  {artifact.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
