#!/usr/bin/env python3
"""Communication cost of the two decentralized discrepancy protocols.

Runs both simulations on the same synthetic pool and prints message/byte
totals plus the per-source deviation of each protocol's estimates from the
centralized computation. Case 1 ships the whole reference dataset to every
node; case 2 keeps it private: d + 2 gradient queries per source determine
that source's quadratic term, one solve gives the minimizer, and the rest of
the `--rounds` budget (at least d + 2) queries it.
"""

from __future__ import annotations

import argparse

import numpy as np

from multisource.discrepancy import empirical_discrepancy
from multisource.federated import run_case1, run_case2
from multisource.harness import SyntheticSpec, generate_synthetic_pool


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-sources", type=int, default=5)
    parser.add_argument("--samples-per-source", type=int, default=80)
    parser.add_argument("--reference-size", type=int, default=60)
    parser.add_argument("--n-features", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace-out", default=None,
                        help="optional JSONL path for the case-2 message log")
    args = parser.parse_args()

    spec = SyntheticSpec(
        n_sources=args.n_sources,
        samples_per_source=args.samples_per_source,
        reference_size=args.reference_size,
        test_size=10,
        n_features=args.n_features,
        class_separation=2.0,
    )
    pool, _ = generate_synthetic_pool(spec, args.seed)
    central = [empirical_discrepancy(s, pool.reference).value for s in pool.sources]

    trace1 = run_case1(pool)
    trace2 = run_case2(pool, rounds=args.rounds)
    if args.trace_out:
        trace2.export_jsonl(args.trace_out)

    print(f"centralized d:  {np.round(central, 4)}")
    for name, trace in (("case 1", trace1), ("case 2", trace2)):
        values = [est.value for est in trace.result]
        gap = max(abs(a - b) for a, b in zip(values, central))
        print(f"{name}: {trace.n_messages:6d} messages, {trace.total_bytes:10d} bytes, "
              f"max |d - centralized| = {gap:.2e}")


if __name__ == "__main__":
    main()
