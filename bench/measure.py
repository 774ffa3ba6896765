"""Timed loops: the untraced run for end-to-end metrics and the traced run
for per-layer metrics.

Times are normalized for machine speed. Every CLI call is followed by a
bracket of a fixed calibration kernel that calls nothing in the program, and
the call's seconds are rescaled by CALIBRATION_REFERENCE_S / (mean kernel
seconds of the brackets before and after it). On a shared machine whose
speed drifts by a quarter over seconds, this keeps run-to-run spread small;
a change to the program cannot move the kernel, so it shows in full.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

from oracle import exact_discrepancy
from spans import LAYERS, Tracer, layer_totals
from stats import summarize

MIN_ITERATIONS = 3
CALIBRATION_REFERENCE_S = 0.006
FIT_SPANS = ("models.train_weighted_erm", "models.train_erm")
UNITS = {"setup_s": "s", "wall_s": "s", "wall_raw_s": "s", "calibration_kernel_s": "s",
         "work_per_s": "1/s", "runs_per_s": "1/s", "csv_rows_per_s": "1/s",
         "sources_scored_per_s": "1/s", "case2_rounds_per_s": "1/s", "peak_rss_mb": "MB",
         "ours_test_error": "ratio"}


def calibration_kernel() -> float:
    """Seconds for a fixed mix of the kinds of work the program does:
    interpreter loops, small-array numpy calls, a BLAS product and a
    streaming pass over a large array."""
    start = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i
    v = np.arange(64, dtype=np.float64)
    for _ in range(1200):
        v = v * 0.999 + 1.0
    a = np.full((150, 150), 0.5)
    (a @ a).sum()
    (np.arange(70000, dtype=np.float64) * 1.5 + 2.0).sum()
    return time.perf_counter() - start


def bracket() -> float:
    """Machine speed at one moment: the median of three kernel runs."""
    return statistics.median(calibration_kernel() for _ in range(3))


class Clock:
    """Brackets timed work with calibration runs and rescales its seconds."""

    def __init__(self):
        self.last = bracket()
        self.kernel_s: list[float] = []

    def mark(self) -> None:
        """Start a bracket without recording the work since the last one."""
        self.last = bracket()

    def scale(self) -> float:
        """Factor for the work done since the previous bracket."""
        before, self.last = self.last, bracket()
        kernel = 0.5 * (before + self.last)
        self.kernel_s.append(kernel)
        return CALIBRATION_REFERENCE_S / kernel


class Tally:
    """Operations and output checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, workload, k: int, clock: Clock):
        """One checked iteration; a failure is counted, logged and survived,
        giving None."""
        clock.mark()
        try:
            sample = workload.iterate(k, clock)
        except Exception:  # the run must go on and report the failure
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"iteration {k} raised")
            return None
        self.attempted += 1 + len(sample.checks)
        for name, ok in sample.checks:
            if not ok:
                self.failed += 1
                self.failures.append(f"iteration {k}: {name}")
        return sample


def untraced_run(workload, clock: Clock, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics: medians over closed-loop iterations."""
    samples = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_ITERATIONS or time.perf_counter() < deadline:
        sample = tally.run(workload, k, clock)
        k += 1
        if sample is not None:
            samples.append(sample)
    metrics = {}
    if samples:
        metrics["wall_s"] = summarize([s.norm_s for s in samples])
        metrics["work_per_s"] = summarize([s.work / s.work_s for s in samples])
        for name in samples[0].extra:
            metrics[name] = summarize([s.extra[name] for s in samples])
        metrics["wall_raw_s"] = summarize([s.wall_s for s in samples])
        metrics["wall_s"]["samples"] = [s.norm_s for s in samples]
        metrics["wall_raw_s"]["samples"] = [s.wall_s for s in samples]
    metrics["calibration_kernel_s"] = summarize(clock.kernel_s)
    metrics["peak_rss_mb"] = {
        "median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "n": 1}
    metrics.update({name: {"median": v, "n": 1} for name, v in workload.quality().items()})
    return metrics


def _source_args(args, kwargs):
    return (args[0] if args else kwargs["source"],
            args[1] if len(args) > 1 else kwargs["reference"])


def traced_run(workload, clock: Clock, seconds: float, tally: Tally, spans_path) -> dict:
    """Per-layer metrics. Untraced and traced iterations alternate (the order
    flips every pair) so their difference estimates the tracing overhead."""
    tracer = Tracer()
    first = 0  # run id whose inputs feed the oracle comparisons
    tracer.captures = {
        "discrepancy.empirical_discrepancy": lambda a, kw, r: (
            (*_source_args(a, kw), r.value) if tracer.run == first else None),
        "federated.run_case1": lambda a, kw, r: (None, None, len(r.messages), r.total_bytes),
        "federated.run_case2": lambda a, kw, r: (
            a[0] if tracer.run == first else None, [e.value for e in r.result],
            len(r.messages), r.total_bytes),
        "data.load_csv": lambda a, kw, r: r.n_samples,
        "data.save_csv": lambda a, kw, r: a[0].n_samples,
    }
    walls = {False: [], True: []}
    scales: dict[int, float] = {}
    deadline = time.perf_counter() + seconds
    p = 0
    while p < MIN_ITERATIONS or time.perf_counter() < deadline:
        for traced in ((False, True) if p % 2 == 0 else (True, False)):
            if traced:
                tracer.run = p
                tracer.install()
            try:
                sample = tally.run(workload, p, clock)
            finally:
                tracer.uninstall()
            if sample is None:
                continue
            walls[traced].append(sample.norm_s)
            if traced:
                scales[p] = sample.norm_s / sample.wall_s
        p += 1
    tracer.export_jsonl(spans_path)
    metrics = layer_metrics(tracer.spans, scales, sum(walls[True]), first)
    metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False]))
    return metrics


def layer_metrics(spans, scales: dict[int, float], traced_wall: float, first: int) -> dict:
    """Per-layer counts and normalized times, per traced iteration."""
    n = max(len(scales), 1)
    by_run = defaultdict(list)
    for s in spans:
        if s.run in scales:
            by_run[s.run].append(s)
    totals = {layer: defaultdict(float) for layer in LAYERS}
    for run, run_spans in by_run.items():
        for layer, t in layer_totals(run_spans).items():
            totals[layer]["calls"] += t["calls"]
            totals[layer]["busy_s"] += t["busy_s"] * scales[run]
            totals[layer]["self_s"] += t["self_s"] * scales[run]
    out = {}
    for layer in LAYERS:
        t = totals[layer]
        out[f"{layer}.calls"] = t["calls"] / n
        out[f"{layer}.busy_s"] = t["busy_s"] / n
        out[f"{layer}.self_s"] = t["self_s"] / n
        out[f"{layer}.share"] = t["self_s"] / traced_wall if traced_wall > 0 else 0.0

    def per_call(layer: str, unit: float) -> float:
        calls = totals[layer]["calls"]
        return unit * totals[layer]["busy_s"] / calls if calls else 0.0

    def timed(names) -> tuple[list, float]:
        chosen = [s for s in spans if s.name in names and s.run in scales]
        return chosen, sum(s.duration * scales[s.run] for s in chosen)

    out["discrepancy.ms_per_call"] = per_call("discrepancy", 1e3)
    out["weights.us_per_call"] = per_call("weights", 1e6)
    fits, fit_s = timed(FIT_SPANS)
    out["models.ms_per_fit"] = 1e3 * fit_s / len(fits) if fits else 0.0
    for fn, key in (("data.load_csv", "data.load_rows_per_s"),
                    ("data.save_csv", "data.save_rows_per_s")):
        chosen, secs = timed((fn,))
        out[key] = sum(s.payload for s in chosen) / secs if secs > 0 else 0.0
    protocol, _ = timed(("federated.run_case1", "federated.run_case2"))
    out["federated.messages"] = sum(s.payload[2] for s in protocol) / n
    out["federated.bytes"] = sum(s.payload[3] for s in protocol) / n
    out.update(oracle_metrics([s for s in spans if s.run == first]))
    out["trace.spans"] = sum(len(v) for v in by_run.values()) / n
    return out


def oracle_metrics(spans) -> dict:
    """Agreement of the first traced iteration's discrepancy values with the
    exact relaxation: a match ratio over every call, and the largest case-2 gap."""
    calls = [s.payload for s in spans
             if s.name == "discrepancy.empirical_discrepancy" and s.payload is not None]
    matches = sum(
        value == exact_discrepancy(src.features, src.labels, ref.features, ref.labels)
        for src, ref, value in calls)
    gap = 0.0
    for s in spans:
        if s.name == "federated.run_case2" and s.payload[0] is not None:
            pool, values = s.payload[0], s.payload[1]
            ref = pool.reference
            for src, value in zip(pool.sources, values):
                exact = exact_discrepancy(src.features, src.labels, ref.features, ref.labels)
                gap = max(gap, abs(value - exact))
    return {"discrepancy.exact_match_ratio": matches / len(calls) if calls else 0.0,
            "federated.case2_max_gap": gap}
