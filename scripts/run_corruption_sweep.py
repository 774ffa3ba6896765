#!/usr/bin/env python3
"""Corruption-robustness curves on the synthetic Gaussian task.

Sweeps the number of corrupted sources for every requested method and writes
three artifacts next to --out: the per-run results CSV, a JSON sidecar with
the source weights and discrepancies of each weighted run, and a
per-(method, n) mean/stddev summary CSV ready for plotting.

Example:
    python scripts/run_corruption_sweep.py --kind shuffled_labels \
        --n-grid 0 5 10 15 19 --repeats 20 --out results/shuffled.csv
"""

from __future__ import annotations

import argparse
from pathlib import Path

from multisource.corruption import CORRUPTION_KINDS
from multisource.harness import (
    METHODS,
    CorruptionSetting,
    ExperimentConfig,
    SyntheticSpec,
    run_sweep,
    write_results_csv,
    write_sidecar_json,
    write_summary_csv,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True, help="results CSV path")
    parser.add_argument("--kind", default="shuffled_labels", choices=CORRUPTION_KINDS)
    parser.add_argument("--proportion", type=float, default=1.0,
                        help="fraction of samples modified inside each corrupted source")
    parser.add_argument("--n-grid", type=int, nargs="+", default=[0, 5, 10, 15, 19])
    parser.add_argument("--methods", nargs="+", default=["ours", "all_data",
                                                         "reference_only",
                                                         "median_of_probs"],
                        choices=METHODS)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--n-sources", type=int, default=20)
    parser.add_argument("--samples-per-source", type=int, default=100)
    parser.add_argument("--reference-size", type=int, default=100)
    parser.add_argument("--test-size", type=int, default=2000)
    parser.add_argument("--n-features", type=int, default=2)
    parser.add_argument("--class-separation", type=float, default=3.0)
    parser.add_argument("--positive-fraction", type=float, default=0.75)
    parser.add_argument("--lambda-grid", type=float, nargs="+",
                        default=[1e-2, 1.0, 100.0])
    parser.add_argument("--ridge-grid", type=float, nargs="+", default=[1e-2])
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    config = ExperimentConfig(
        data=SyntheticSpec(
            n_sources=args.n_sources,
            samples_per_source=args.samples_per_source,
            reference_size=args.reference_size,
            test_size=args.test_size,
            n_features=args.n_features,
            class_separation=args.class_separation,
            positive_fraction=args.positive_fraction,
        ),
        method=tuple(args.methods),
        lambda_grid=tuple(args.lambda_grid),
        ridge_grid=tuple(args.ridge_grid),
        repeats=args.repeats,
        seed=args.seed,
        corruption=CorruptionSetting(args.kind, tuple(args.n_grid), args.proportion),
    )
    cells = run_sweep(config)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_results_csv(cells, args.out)
    write_sidecar_json(cells, args.out.with_suffix(".sidecar.json"))
    write_summary_csv(cells, args.out.with_suffix(".summary.csv"))
    print(f"wrote {len(cells)} runs to {args.out}")
    print(args.out.with_suffix(".summary.csv").read_text())


if __name__ == "__main__":
    main()
