"""Command-line entry points.

Subcommands:
  discrepancy        score source CSVs against a reference CSV
  weights            solve the simplex weighting program from a JSON input
  train              train one method from an experiment config
  corrupt            corrupt a CSV file
  experiment         run a full sweep, writing results + sidecar + summary
  simulate-federated run the case-1 or case-2 protocol simulation
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

from .corruption import CORRUPTION_KINDS, CorruptionSpec, corrupt
from .data import load_csvs, rewrite_csv
from .discrepancy import empirical_discrepancy, finite_moments
from .federated import run_case1, run_case2
from .harness import (
    METHODS,
    _nonempty,
    build_pool,
    config_from_json,
    run_method,
    run_sweep,
    write_results_csv,
    write_sidecar_json,
    write_summary_csv,
)
from .weights import WeightProblem, solve_weights


def _read_json(path: str, parse):
    """`parse` of the text of the JSON file at `path`, with the path in front
    of any ValueError (a syntax error too); an OSError names it already."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _weights_input(text: str) -> WeightProblem:
    """The weighting problem of a JSON input."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    missing = [key for key in ("discrepancies", "sample_counts") if key not in obj]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(missing)}")
    for key in ("discrepancies", "sample_counts"):
        if not (isinstance(obj[key], list) and all(type(v) in (int, float) for v in obj[key])):
            raise ValueError(f"{key} must be a list of numbers")
    return WeightProblem(obj["discrepancies"], obj["sample_counts"])


def _cmd_discrepancy(args: argparse.Namespace) -> int:
    files = load_csvs([args.reference, *args.sources], args.label_column)
    with contextlib.closing(files):
        reference = _nonempty(args.reference, "reference", next(files))
        finite_moments(reference, f"{args.reference}: the reference's")
        report = []
        for path, source in zip(args.sources, files):  # each source is scored as it arrives
            source = _nonempty(path, "source", source)
            try:
                estimate = empirical_discrepancy(source, reference)
            except (ValueError, FloatingPointError) as exc:  # a mismatch or overflow: name it
                raise type(exc)(f"{path}: {exc}") from None
            report.append({
                "source": path,
                "discrepancy": estimate.value,
                "solver_risk": estimate.solver_risk,
                "samples": source.n_samples,
            })
    print(json.dumps(report, indent=2))
    return 0


def _cmd_weights(args: argparse.Namespace) -> int:
    # lam comes from the command line, so its error does not name the file
    alpha = solve_weights(_read_json(args.input, _weights_input), args.lam)
    print(json.dumps({"lambda": args.lam, "alpha": [float(v) for v in alpha]}, indent=2))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _read_json(args.config, config_from_json)
    pool, test = build_pool(config, config.seed)
    result = run_method(pool, test, config, args.method)
    summary = {
        "method": result.method,
        "test_error": result.test_error,
        "selected_lambda": result.selected_lambda,
        "selected_ridge": result.selected_ridge,
    }
    if result.alpha is not None:
        summary["alpha"] = [float(v) for v in result.alpha]
        summary["discrepancies"] = [float(v) for v in result.discrepancies]
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_corrupt(args: argparse.Namespace) -> int:
    spec = CorruptionSpec(kind=args.kind, proportion=args.proportion, seed=args.seed)
    rewrite_csv(args.input, args.output, lambda data: corrupt(data, spec), args.label_column)
    print(f"wrote corrupted copy to {args.output}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = _read_json(args.config, config_from_json)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    cells = run_sweep(config)
    write_results_csv(cells, out)
    write_sidecar_json(cells, out.with_suffix(".sidecar.json"))
    write_summary_csv(cells, out.with_suffix(".summary.csv"))
    print(f"wrote {len(cells)} rows to {out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _read_json(args.config, config_from_json)
    pool, _ = build_pool(config, config.seed)
    if args.case == 1:
        trace = run_case1(pool)
    else:
        trace = run_case2(pool, rounds=args.rounds)
    if args.trace:
        trace.export_jsonl(args.trace)
    print(json.dumps({
        "case": args.case,
        "messages": trace.n_messages,
        "total_bytes": trace.total_bytes,
        "rounds": trace.rounds,
        "discrepancies": [est.value for est in trace.result],
    }, indent=2))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one:
    parsing leaves it unchanged, and every default is immutable."""
    parser = argparse.ArgumentParser(
        prog="multisource",
        description="Robust learning from multiple untrusted data sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discrepancy", help="score source CSVs against a reference")
    p.add_argument("sources", nargs="+", help="source CSV files")
    p.add_argument("--reference", required=True, help="reference CSV file")
    p.add_argument("--label-column", default="label")
    p.set_defaults(func=_cmd_discrepancy)

    p = sub.add_parser("weights", help="solve the weighting program")
    p.add_argument("input", help="JSON with 'discrepancies' and 'sample_counts'")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("train", help="train one method from a config")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("corrupt", help="corrupt a CSV file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--kind", required=True, choices=CORRUPTION_KINDS)
    p.add_argument("--proportion", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label-column", default="label")
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("experiment", help="run a sweep from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="results CSV path")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("simulate-federated", help="simulate a discrepancy protocol")
    p.add_argument("--case", type=int, required=True, choices=(1, 2))
    p.add_argument("--config", required=True)
    p.add_argument("--rounds", type=int, default=500)
    p.add_argument("--trace", default=None, help="write the message log as JSON lines")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. Invalid input (a bad config or file, a value out of
    range, data so large that it overflows) prints one error line to stderr
    and returns 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"multisource {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
