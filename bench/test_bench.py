"""Tests of the benchmark's own arithmetic.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from measure import layer_metrics  # noqa: E402
from oracle import exact_relaxation  # noqa: E402
from spans import Span, Tracer, layer_totals, self_times  # noqa: E402
from stats import percentile, summarize, tail_percentile  # noqa: E402


def span(i, parent, name, start, end, run=0, payload=None):
    return Span(i, parent, name, start, end, run, payload)


# cli.main [0, 10] > harness.run_sweep [1, 9] > discrepancy [2, 5] > models [3, 4]
#                                             > models [6, 8]
NESTED = [
    span(0, None, "cli.main", 0.0, 10.0),
    span(1, 0, "harness.run_sweep", 1.0, 9.0),
    span(2, 1, "discrepancy.empirical_discrepancy", 2.0, 5.0),
    span(3, 2, "models.minimize_weighted_loss", 3.0, 4.0),
    span(4, 1, "models.train_weighted_erm", 6.0, 8.0),
]


def test_self_time_subtracts_direct_children_only():
    selfs = self_times(NESTED)
    assert selfs == {0: 2.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 2.0}
    assert sum(selfs.values()) == NESTED[0].duration


def test_layer_totals_count_entries_and_do_not_double_count_nesting():
    spans = NESTED + [span(5, 4, "models.stack_weighted_pool", 6.0, 7.0)]
    totals = layer_totals(spans)
    assert totals["models"]["calls"] == 2  # the nested models span is not a new entry
    assert totals["models"]["busy_s"] == 3.0
    assert totals["models"]["self_s"] == 3.0
    assert totals["discrepancy"] == {"calls": 1, "busy_s": 3.0, "self_s": 2.0}
    assert totals["weights"] == {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    assert sum(t["self_s"] for t in totals.values()) == 10.0


def test_layer_metrics_are_per_traced_iteration_and_normalized():
    second = [span(10 + s.span_id, None if s.parent is None else 10 + s.parent, s.name,
                   s.start, s.end, run=1) for s in NESTED]
    out = layer_metrics(NESTED + second, scales={0: 1.0, 1: 0.5}, traced_wall=15.0, first=0)
    assert out["cli.calls"] == 1.0
    assert out["models.calls"] == 2.0
    assert out["models.self_s"] == pytest.approx((3.0 + 1.5) / 2)
    assert out["discrepancy.ms_per_call"] == pytest.approx(1e3 * (3.0 + 1.5) / 2)
    assert out["models.ms_per_fit"] == pytest.approx(1e3 * (2.0 + 1.0) / 2)
    assert sum(out[f"{layer}.share"] for layer in ("cli", "harness", "discrepancy", "models")) \
        == pytest.approx(1.0)
    assert out["weights.us_per_call"] == 0.0


@pytest.mark.parametrize("n, expected", [
    (1, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 90.0) == 90
    assert percentile(values, 50.0) == 50
    assert percentile([3.0], 99.0) == 3.0


def test_summarize_reports_median_count_and_tail_only_when_supported():
    few = summarize([3.0, 1.0, 2.0])
    assert few["median"] == 2.0 and few["n"] == 3 and "p90" not in few
    many = summarize([float(v) for v in range(200)])
    assert many["n"] == 200 and many["p90"] == 179.0


def test_tracer_wraps_cross_module_references_and_restores_them(tmp_path, capsys):
    import multisource.cli as cli
    import multisource.discrepancy as discrepancy
    import multisource.harness as harness
    import multisource.models as models
    from multisource.data import Dataset

    from workloads import write_csv

    rng = np.random.default_rng(0)
    source = Dataset(rng.standard_normal((20, 2)), np.where(rng.random(20) < 0.5, 1.0, -1.0))
    paths = [tmp_path / "source.csv", tmp_path / "reference.csv"]
    for path in paths:
        write_csv(path, source.features, source.labels)
    original = models.minimize_weighted_loss
    tracer = Tracer()
    tracer.install()
    try:
        assert discrepancy.minimize_weighted_loss is not original
        assert models.minimize_weighted_loss is original  # same-module calls stay direct
        harness.empirical_discrepancy(source, source)  # outside the CLI: no spans
        assert tracer.spans == []
        assert cli.main(["discrepancy", str(paths[0]), "--reference", str(paths[1])]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert discrepancy.minimize_weighted_loss is original
    names = [s.name for s in tracer.spans]
    assert names == ["cli.main", "data.load_csv", "data.load_csv",
                     "discrepancy.empirical_discrepancy", "models.minimize_weighted_loss"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 0, 3]


def test_oracle_solves_the_ridge_normal_equations():
    rng = np.random.default_rng(1)
    xs, xr = rng.standard_normal((30, 3)), rng.standard_normal((20, 3))
    ys, yr = np.where(rng.random(30) < 0.5, 1.0, -1.0), np.where(rng.random(20) < 0.5, 1.0, -1.0)
    ridge = 0.3
    w, b = exact_relaxation(xs, ys, xr, yr, ridge)
    x = np.column_stack([np.vstack([xs, xr]), np.ones(50)])
    y = np.concatenate([-ys, yr])
    s = np.concatenate([np.full(30, 1 / 30), np.full(20, 1 / 20)])
    penalty = np.diag([ridge / 2] * 3 + [0.0])
    theta = np.linalg.solve(x.T @ (s[:, None] * x) + penalty, x.T @ (s * y))
    assert np.allclose(np.append(w, b), theta, rtol=1e-10, atol=1e-12)
