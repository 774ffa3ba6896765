"""Config-driven experiment harness.

Builds a pool (synthetic Gaussian task or CSV files), optionally corrupts a
chosen number of sources, and runs either the discrepancy-weighting pipeline
("ours") or one of the comparison methods. Hyperparameters (lam and the
ridge strength) are selected by k-fold cross-validation on the reference
data; during CV, discrepancies are recomputed against the reference's
training folds only, so the held-out fold never leaks into the weighting.

The weighting pipeline appends the reference dataset to the pool as an
extra source whose discrepancy is zero by construction, so lam -> infinity
recovers training on all merged data and lam -> 0 recovers training on the
reference alone.
"""

from __future__ import annotations

import csv
import functools
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .baselines import (
    MedianOfProbsEnsemble,
    aggregate_predictors,
    apply_normalization,
    fit_normalization,
    normalize_features,
    train_local_models,
)
from .corruption import CorruptionSpec, corrupt_pool
from .data import Dataset, SourcePool, _derive_seed, kfold_indices, load_csv, merge
from .discrepancy import empirical_discrepancy
from .models import TrainConfig, train_erm, train_weighted_erm, zero_one_error
from .weights import WeightProblem, solve_weights

__all__ = [
    "METHODS",
    "DEFAULT_LAMBDA_GRID",
    "DEFAULT_RIDGE_GRID",
    "SyntheticSpec",
    "CsvDataSpec",
    "CorruptionSetting",
    "ExperimentConfig",
    "RunResult",
    "SweepCell",
    "generate_synthetic_pool",
    "build_pool",
    "run_ours",
    "run_baseline",
    "run_method",
    "run_sweep",
    "write_results_csv",
    "write_sidecar_json",
    "write_summary_csv",
    "config_from_json",
    "config_to_json",
]

METHODS = (
    "ours",
    "reference_only",
    "all_data",
    "geometric_median",
    "componentwise_median",
    "median_of_probs",
    "robust_loss",
    "batch_norm",
)

# methods whose model fit does not look at the reference data
_REFERENCE_FREE_FITS = frozenset(
    {"geometric_median", "componentwise_median", "median_of_probs"}
)

DEFAULT_LAMBDA_GRID = (0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
DEFAULT_RIDGE_GRID = (1e-4, 1e-3, 1e-2, 1e-1)


@dataclass(frozen=True)
class SyntheticSpec:
    """Two Gaussian class-conditional clouds, unit covariance, means
    class_separation apart along the first axis."""

    n_sources: int
    samples_per_source: int
    reference_size: int
    test_size: int
    n_features: int
    class_separation: float
    positive_fraction: float = 0.5

    def __post_init__(self) -> None:
        for name in ("n_sources", "samples_per_source", "reference_size", "test_size",
                     "n_features"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (0.0 < self.positive_fraction < 1.0):
            raise ValueError("positive_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class CsvDataSpec:
    source_paths: tuple[str, ...]
    reference_path: str
    test_path: str
    label_column: str = "label"
    label_encoding: str = "signed"


@dataclass(frozen=True)
class CorruptionSetting:
    kind: str
    n_corrupted: tuple[int, ...]
    proportion: float = 1.0

    def __post_init__(self) -> None:
        n = self.n_corrupted
        n = (int(n),) if isinstance(n, (int, np.integer)) else tuple(int(v) for v in n)
        if any(v < 0 for v in n):
            raise ValueError("n_corrupted values must be nonnegative")
        object.__setattr__(self, "n_corrupted", n)
        # kind/proportion are validated again by CorruptionSpec at use time
        CorruptionSpec(kind=self.kind, proportion=self.proportion, seed=0)


@dataclass(frozen=True)
class ExperimentConfig:
    data: SyntheticSpec | CsvDataSpec
    method: tuple[str, ...]
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    ridge_grid: tuple[float, ...] = DEFAULT_RIDGE_GRID
    cv_folds: int = 5
    repeats: int = 1
    seed: int = 0
    corruption: CorruptionSetting | None = None

    def __post_init__(self) -> None:
        methods = (self.method,) if isinstance(self.method, str) else tuple(self.method)
        for m in methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
        object.__setattr__(self, "method", methods)
        object.__setattr__(self, "lambda_grid", tuple(float(v) for v in self.lambda_grid))
        object.__setattr__(self, "ridge_grid", tuple(float(v) for v in self.ridge_grid))
        if not self.lambda_grid or not self.ridge_grid:
            raise ValueError("hyperparameter grids must be nonempty")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


@dataclass
class RunResult:
    method: str
    test_error: float
    selected_lambda: float | None
    selected_ridge: float
    alpha: np.ndarray | None
    discrepancies: np.ndarray | None
    seed: int
    wall_time: float


@dataclass
class SweepCell:
    n_corrupted: int
    repeat: int
    result: RunResult


def _draw_cloud(
    rng: np.random.Generator, n: int, spec: SyntheticSpec, source_id: str
) -> Dataset:
    labels = np.where(rng.random(n) < spec.positive_fraction, 1.0, -1.0)
    features = rng.standard_normal((n, spec.n_features))
    features[:, 0] += labels * (spec.class_separation / 2.0)
    return Dataset(features, labels, source_id=source_id)


def generate_synthetic_pool(
    spec: SyntheticSpec, seed: int
) -> tuple[SourcePool, Dataset]:
    """All sources, the reference, and the test set drawn i.i.d. from the
    same clean distribution; deterministic under the seed."""
    rng = np.random.default_rng(seed)
    sources = tuple(
        _draw_cloud(rng, spec.samples_per_source, spec, f"source_{i}")
        for i in range(spec.n_sources)
    )
    reference = _draw_cloud(rng, spec.reference_size, spec, "reference")
    test = _draw_cloud(rng, spec.test_size, spec, "test")
    return SourcePool(sources, reference), test


def load_csv_pool(spec: CsvDataSpec) -> tuple[SourcePool, Dataset]:
    sources = tuple(
        load_csv(p, spec.label_column, spec.label_encoding, source_id=f"source_{i}")
        for i, p in enumerate(spec.source_paths)
    )
    reference = load_csv(spec.reference_path, spec.label_column, spec.label_encoding,
                         source_id="reference")
    test = load_csv(spec.test_path, spec.label_column, spec.label_encoding,
                    source_id="test")
    return SourcePool(sources, reference), test


def build_pool(config: ExperimentConfig, seed: int) -> tuple[SourcePool, Dataset]:
    if isinstance(config.data, SyntheticSpec):
        return generate_synthetic_pool(config.data, seed)
    return load_csv_pool(config.data)


def _pool_discrepancies(sources: Sequence[Dataset], reference: Dataset) -> np.ndarray:
    return np.array([empirical_discrepancy(s, reference).value for s in sources])


def _cross_validate(
    pool: SourcePool,
    grid: Sequence,
    folds: int,
    seed: int,
    fit_fold: Callable[[Dataset], Callable],
):
    """The grid point with the lowest held-out 0/1 error summed over k folds
    of the reference; the first such point in grid order wins ties.

    `fit_fold(ref_train)` returns a function from a grid point to a predictor
    trained against `ref_train`. A one-point grid returns without any fit.
    """
    if len(grid) == 1:
        return grid[0]
    n = pool.reference.n_samples
    scores = np.zeros(len(grid))
    for heldout in kfold_indices(n, folds, seed):
        fit = fit_fold(pool.reference.take(np.setdiff1d(np.arange(n), heldout)))
        heldout_data = pool.reference.take(heldout)
        scores += [zero_one_error(fit(point), heldout_data) for point in grid]
    return grid[int(np.argmin(scores))]


def _fit_weighted(
    sources: Sequence[Dataset],
    reference: Dataset,
    discrepancies: np.ndarray,
    lam: float,
    ridge: float,
    base: TrainConfig,
) -> tuple:
    """Weight and train on sources plus the reference as an extra source."""
    all_sets = tuple(sources) + (reference,)
    d_full = np.append(discrepancies, 0.0)  # reference matches itself exactly
    counts = np.array([s.n_samples for s in all_sets])
    alpha = solve_weights(WeightProblem(d_full, counts, lam))
    predictor = train_weighted_erm(
        SourcePool(all_sets, reference), alpha, "logistic",
        replace(base, ridge_strength=ridge),
    )
    return predictor, alpha, d_full


def run_ours(
    pool: SourcePool,
    test_data: Dataset,
    config: ExperimentConfig,
    seed: int | None = None,
    base_train: TrainConfig = TrainConfig(),
) -> RunResult:
    """Full pipeline: discrepancies, weight program, weighted ERM, with
    (lam, ridge) chosen by cross-validation on the reference data."""
    started = time.perf_counter()
    seed = config.seed if seed is None else seed
    grid = [(lam, ridge) for lam in sorted(config.lambda_grid)
            for ridge in sorted(config.ridge_grid)]

    def fit_fold(ref_train: Dataset):
        d_vec = _pool_discrepancies(pool.sources, ref_train)
        return lambda point: _fit_weighted(pool.sources, ref_train, d_vec, *point,
                                           base_train)[0]

    best_lam, best_ridge = _cross_validate(pool, grid, config.cv_folds, seed, fit_fold)
    d_vec = _pool_discrepancies(pool.sources, pool.reference)
    predictor, alpha, d_full = _fit_weighted(
        pool.sources, pool.reference, d_vec, best_lam, best_ridge, base_train
    )
    return RunResult(
        method="ours",
        test_error=zero_one_error(predictor, test_data),
        selected_lambda=best_lam,
        selected_ridge=best_ridge,
        alpha=alpha.alpha,
        discrepancies=d_full,
        seed=seed,
        wall_time=time.perf_counter() - started,
    )


class _NormalizedPredictor:
    """Applies reference normalization statistics before the inner model."""

    def __init__(self, inner, stats):
        self.inner = inner
        self.stats = stats

    def predict_labels(self, features: np.ndarray) -> np.ndarray:
        return self.inner.predict_labels(normalize_features(features, self.stats))


def _fit_baseline(
    method: str,
    sources: Sequence[Dataset],
    reference: Dataset,
    ridge: float,
    base: TrainConfig,
):
    cfg = replace(base, ridge_strength=ridge)
    if method == "reference_only":
        return train_erm(reference, "logistic", cfg)
    if method == "all_data":
        return train_erm(merge(tuple(sources) + (reference,)), "logistic", cfg)
    if method == "robust_loss":
        return train_erm(merge(tuple(sources) + (reference,)), "huber_logistic", cfg)
    if method == "batch_norm":
        normalized = [apply_normalization(s, fit_normalization(s)) for s in sources]
        ref_stats = fit_normalization(reference)
        normalized.append(apply_normalization(reference, ref_stats))
        inner = train_erm(merge(normalized), "logistic", cfg)
        return _NormalizedPredictor(inner, ref_stats)
    locals_ = train_local_models(SourcePool(tuple(sources), reference), cfg)
    if method == "median_of_probs":
        return MedianOfProbsEnsemble(locals_)
    if method in ("geometric_median", "componentwise_median"):
        return aggregate_predictors(locals_, method)
    raise ValueError(f"unknown baseline {method!r}")


def run_baseline(
    pool: SourcePool,
    test_data: Dataset,
    config: ExperimentConfig,
    method: str,
    seed: int | None = None,
    base_train: TrainConfig = TrainConfig(),
) -> RunResult:
    """Run a comparison method with its ridge cross-validated on the reference."""
    if method == "ours" or method not in METHODS:
        raise ValueError(f"not a baseline method: {method!r}")
    started = time.perf_counter()
    seed = config.seed if seed is None else seed

    full_fit = functools.cache(
        lambda ridge: _fit_baseline(method, pool.sources, pool.reference, ridge, base_train)
    )

    def fit_fold(ref_train: Dataset):
        if method in _REFERENCE_FREE_FITS:  # one fit per ridge serves every fold
            return full_fit
        return lambda ridge: _fit_baseline(method, pool.sources, ref_train, ridge,
                                           base_train)

    best_ridge = _cross_validate(pool, sorted(config.ridge_grid), config.cv_folds, seed,
                                 fit_fold)
    fitted = full_fit(best_ridge)
    return RunResult(
        method=method,
        test_error=zero_one_error(fitted, test_data),
        selected_lambda=None,
        selected_ridge=best_ridge,
        alpha=None,
        discrepancies=None,
        seed=seed,
        wall_time=time.perf_counter() - started,
    )


def run_method(
    pool: SourcePool,
    test_data: Dataset,
    config: ExperimentConfig,
    method: str,
    seed: int | None = None,
    base_train: TrainConfig = TrainConfig(),
) -> RunResult:
    if method == "ours":
        return run_ours(pool, test_data, config, seed, base_train)
    return run_baseline(pool, test_data, config, method, seed, base_train)


def run_sweep(
    config: ExperimentConfig, base_train: TrainConfig = TrainConfig()
) -> list[SweepCell]:
    """methods x corruption grid x repeats, with per-cell derived seeds.

    The base pool for a repeat is shared across corruption levels, and all
    seeds are independent of the method list and its order.
    """
    n_grid = config.corruption.n_corrupted if config.corruption is not None else (0,)
    cells: list[SweepCell] = []
    for repeat in range(config.repeats):
        data_seed = _derive_seed(config.seed, 0, repeat)
        for n in n_grid:
            pool, test = build_pool(config, data_seed)
            if config.corruption is not None and n > 0:
                spec = CorruptionSpec(
                    kind=config.corruption.kind,
                    proportion=config.corruption.proportion,
                    seed=_derive_seed(config.seed, 1, repeat, n),
                )
                pool, _ = corrupt_pool(pool, n, spec, _derive_seed(config.seed, 2, repeat, n))
            run_seed = _derive_seed(config.seed, 3, repeat, n)
            for method in config.method:
                result = run_method(pool, test, config, method, run_seed, base_train)
                cells.append(SweepCell(n_corrupted=n, repeat=repeat, result=result))
    return cells


def _format_float(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_results_csv(cells: Sequence[SweepCell], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "n_corrupted", "repeat", "seed", "test_error",
             "selected_lambda", "selected_ridge"]
        )
        for cell in cells:
            r = cell.result
            writer.writerow([
                r.method, cell.n_corrupted, cell.repeat, r.seed,
                _format_float(r.test_error), _format_float(r.selected_lambda),
                _format_float(r.selected_ridge),
            ])


def write_sidecar_json(cells: Sequence[SweepCell], path: str | Path) -> None:
    rows = []
    for cell in cells:
        r = cell.result
        rows.append({
            "method": r.method,
            "n_corrupted": cell.n_corrupted,
            "repeat": cell.repeat,
            "seed": r.seed,
            "alpha": None if r.alpha is None else [float(v) for v in r.alpha],
            "discrepancies": (
                None if r.discrepancies is None else [float(v) for v in r.discrepancies]
            ),
        })
    Path(path).write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")


def write_summary_csv(cells: Sequence[SweepCell], path: str | Path) -> None:
    """Per-(method, n_corrupted) mean and population stddev of the test error."""
    groups: dict[tuple[str, int], list[float]] = {}
    for cell in cells:
        groups.setdefault((cell.result.method, cell.n_corrupted), []).append(
            cell.result.test_error
        )
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "n_corrupted", "mean_test_error", "stddev_test_error"])
        for (method, n), errors in sorted(groups.items()):
            arr = np.asarray(errors)
            writer.writerow([method, n, repr(float(arr.mean())), repr(float(arr.std()))])


def _data_to_dict(data: SyntheticSpec | CsvDataSpec) -> dict:
    if isinstance(data, SyntheticSpec):
        return {"synthetic": {
            "n_sources": data.n_sources,
            "samples_per_source": data.samples_per_source,
            "reference_size": data.reference_size,
            "test_size": data.test_size,
            "n_features": data.n_features,
            "class_separation": data.class_separation,
            "positive_fraction": data.positive_fraction,
        }}
    return {"csv_paths": {
        "source_paths": list(data.source_paths),
        "reference_path": data.reference_path,
        "test_path": data.test_path,
        "label_column": data.label_column,
        "label_encoding": data.label_encoding,
    }}


def config_to_json(config: ExperimentConfig) -> str:
    obj = {
        "data": _data_to_dict(config.data),
        "method": list(config.method),
        "lambda_grid": list(config.lambda_grid),
        "ridge_grid": list(config.ridge_grid),
        "cv_folds": config.cv_folds,
        "repeats": config.repeats,
        "seed": config.seed,
        "corruption": None if config.corruption is None else {
            "kind": config.corruption.kind,
            "n_corrupted": list(config.corruption.n_corrupted),
            "proportion": config.corruption.proportion,
        },
    }
    return json.dumps(obj, indent=2)


def config_from_json(text: str) -> ExperimentConfig:
    obj = json.loads(text)
    data_obj = obj["data"]
    if "synthetic" in data_obj:
        data: SyntheticSpec | CsvDataSpec = SyntheticSpec(**data_obj["synthetic"])
    elif "csv_paths" in data_obj:
        csv_obj = dict(data_obj["csv_paths"])
        csv_obj["source_paths"] = tuple(csv_obj["source_paths"])
        data = CsvDataSpec(**csv_obj)
    else:
        raise ValueError("config data must contain 'synthetic' or 'csv_paths'")
    corruption = None
    if obj.get("corruption") is not None:
        c = obj["corruption"]
        n = c["n_corrupted"]
        corruption = CorruptionSetting(
            kind=c["kind"],
            n_corrupted=tuple(n) if isinstance(n, list) else (int(n),),
            proportion=float(c.get("proportion", 1.0)),
        )
    method = obj["method"]
    return ExperimentConfig(
        data=data,
        method=tuple(method) if isinstance(method, list) else (method,),
        lambda_grid=tuple(obj.get("lambda_grid", DEFAULT_LAMBDA_GRID)),
        ridge_grid=tuple(obj.get("ridge_grid", DEFAULT_RIDGE_GRID)),
        cv_folds=int(obj.get("cv_folds", 5)),
        repeats=int(obj.get("repeats", 1)),
        seed=int(obj.get("seed", 0)),
        corruption=corruption,
    )
