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
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .baselines import MedianOfProbsEnsemble, componentwise_median, geometric_median, standardize
from .corruption import CorruptionSpec, corrupt_pool
from .data import (
    Dataset,
    SourcePool,
    _derive_seed,
    _resolve_encoding,
    kfold_indices,
    load_csv,
    merge,
)
from .discrepancy import empirical_discrepancy
from .models import LinearPredictor, train_erm, train_weighted_erm, zero_one_error
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
    "run_method",
    "run_sweep",
    "write_results_csv",
    "write_sidecar_json",
    "write_summary_csv",
    "config_from_json",
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


def _number(name: str, value, whole: bool = False):
    """`value` as a finite float, or as an int if `whole` (2.0 becomes 2).
    Any other value, a bool or a string included, raises a ValueError that
    names the field."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value) and (not whole or int(value) == value):
                return int(value) if whole else float(value)
        except OverflowError:  # an int too large for a float
            pass
    raise ValueError(f"{name} must be a {'whole' if whole else 'finite'} number, got {value!r}")


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
            value = _number(name, getattr(self, name), whole=True)
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
            object.__setattr__(self, name, value)
        for name in ("class_separation", "positive_fraction"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if not (0.0 < self.positive_fraction < 1.0):
            raise ValueError("positive_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class CsvDataSpec:
    source_paths: tuple[str, ...]
    reference_path: str
    test_path: str
    label_column: str = "label"
    label_encoding: str = "signed"

    def __post_init__(self) -> None:
        _resolve_encoding(self.label_encoding)
        paths = self.source_paths
        paths = (paths,) if isinstance(paths, str) else paths
        if not (isinstance(paths, (tuple, list)) and all(isinstance(p, str) for p in paths)):
            raise ValueError(f"source_paths must be a path or a list of paths, got {paths!r}")
        object.__setattr__(self, "source_paths", tuple(paths))
        for name in ("reference_path", "test_path", "label_column"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class CorruptionSetting:
    kind: str
    n_corrupted: tuple[int, ...]
    proportion: float = 1.0

    def __post_init__(self) -> None:
        n = self.n_corrupted
        n = n if isinstance(n, (tuple, list)) else (n,)
        n = tuple(_number("n_corrupted", v, whole=True) for v in n)
        if any(v < 0 for v in n):
            raise ValueError("n_corrupted values must be nonnegative")
        object.__setattr__(self, "n_corrupted", n)
        object.__setattr__(self, "proportion", _number("proportion", self.proportion))
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
        methods = (self.method,) if isinstance(self.method, str) else self.method
        if not (isinstance(methods, (tuple, list)) and methods
                and all(m in METHODS for m in methods)):
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS} "
                             "or a nonempty list of them")
        object.__setattr__(self, "method", tuple(methods))
        for name in ("lambda_grid", "ridge_grid"):
            try:
                grid = tuple(_number(name, v) for v in getattr(self, name))
            except (TypeError, ValueError):  # not a sequence of numbers, e.g. [[1.0]]
                grid = ()
            if not grid or not all(v >= 0.0 for v in grid):
                raise ValueError(f"{name} must be a nonempty grid of finite, nonnegative values")
            object.__setattr__(self, name, grid)
        for name in ("cv_folds", "repeats", "seed"):
            object.__setattr__(self, name, _number(name, getattr(self, name), whole=True))
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


@dataclass
class SweepCell:
    n_corrupted: int
    repeat: int
    result: RunResult


def _draw_cloud(rng: np.random.Generator, n: int, spec: SyntheticSpec) -> Dataset:
    labels = np.where(rng.random(n) < spec.positive_fraction, 1.0, -1.0)
    features = rng.standard_normal((n, spec.n_features))
    features[:, 0] += labels * (spec.class_separation / 2.0)
    return Dataset(features, labels)


def generate_synthetic_pool(
    spec: SyntheticSpec, seed: int
) -> tuple[SourcePool, Dataset]:
    """All sources, the reference, and the test set drawn i.i.d. from the
    same clean distribution; deterministic under the seed."""
    rng = np.random.default_rng(seed)
    sources = tuple(
        _draw_cloud(rng, spec.samples_per_source, spec) for _ in range(spec.n_sources)
    )
    reference = _draw_cloud(rng, spec.reference_size, spec)
    test = _draw_cloud(rng, spec.test_size, spec)
    return SourcePool(sources, reference), test


def build_pool(config: ExperimentConfig, seed: int) -> tuple[SourcePool, Dataset]:
    spec = config.data
    if isinstance(spec, SyntheticSpec):
        return generate_synthetic_pool(spec, seed)
    load = functools.partial(load_csv, label_column=spec.label_column,
                             label_encoding=spec.label_encoding)
    sources = tuple(load(p) for p in spec.source_paths)
    return SourcePool(sources, load(spec.reference_path)), load(spec.test_path)


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


def _fit_baseline(
    method: str,
    sources: Sequence[Dataset],
    reference: Dataset,
    ridge: float,
):
    if method == "reference_only":
        return train_erm(reference, "logistic", ridge)
    if method == "all_data":
        return train_erm(merge(tuple(sources) + (reference,)), "logistic", ridge)
    if method == "robust_loss":
        return train_erm(merge(tuple(sources) + (reference,)), "huber_logistic", ridge)
    if method == "batch_norm":
        # standardize each sample by its own statistics, then fold the
        # reference's into the model: w.(x - mean)/std + b = (w/std).x + b - (w/std).mean
        z_ref, mean, std = standardize(reference.features)
        merged = merge([Dataset(standardize(s.features)[0], s.labels) for s in sources]
                       + [Dataset(z_ref, reference.labels)])
        inner = train_erm(merged, "logistic", ridge)
        weights = inner.weights / std
        return LinearPredictor(weights, inner.bias - weights @ mean)
    locals_ = [train_erm(s, "logistic", ridge) for s in sources]
    if method == "median_of_probs":
        return MedianOfProbsEnsemble(locals_)
    median = geometric_median if method == "geometric_median" else componentwise_median
    agg = median(np.array([np.append(m.weights, m.bias) for m in locals_]))
    return LinearPredictor(agg[:-1], float(agg[-1]))


def _fitter(method: str, sources: Sequence[Dataset], reference: Dataset) -> Callable:
    """A function from a grid point (lam, ridge) to (predictor, alpha,
    discrepancies) trained against `reference`.

    For "ours" the discrepancies are scored once, and the reference joins the
    pool as an extra source with discrepancy 0 (it matches itself exactly).
    A baseline ignores lam and has no alpha or discrepancies.
    """
    if method != "ours":
        return lambda point: (_fit_baseline(method, sources, reference, point[1]), None, None)
    pool = SourcePool(tuple(sources) + (reference,), reference)
    d_full = np.array([empirical_discrepancy(s, reference).value for s in sources] + [0.0])

    def fit(point):
        lam, ridge = point
        alpha = solve_weights(WeightProblem(d_full, pool.sample_counts, lam))
        return train_weighted_erm(pool, alpha, "logistic", ridge), alpha.alpha, d_full

    return fit


def run_method(
    pool: SourcePool,
    test_data: Dataset,
    config: ExperimentConfig,
    method: str,
    seed: int | None = None,
) -> RunResult:
    """Run `method` with its hyperparameters chosen by cross-validation on the
    reference: (lam, ridge) for "ours", the ridge alone for a baseline."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    seed = config.seed if seed is None else seed
    lams = sorted(config.lambda_grid) if method == "ours" else [None]
    grid = [(lam, ridge) for lam in lams for ridge in sorted(config.ridge_grid)]
    full_fit = functools.cache(_fitter(method, pool.sources, pool.reference))

    def fit_fold(ref_train: Dataset):
        # a reference-free fit is the same in every fold: one per ridge serves all
        fit = (full_fit if method in _REFERENCE_FREE_FITS
               else _fitter(method, pool.sources, ref_train))
        return lambda point: fit(point)[0]

    best_lam, best_ridge = _cross_validate(pool, grid, config.cv_folds, seed, fit_fold)
    predictor, alpha, discrepancies = full_fit((best_lam, best_ridge))
    return RunResult(
        method=method,
        test_error=zero_one_error(predictor, test_data),
        selected_lambda=best_lam,
        selected_ridge=best_ridge,
        alpha=alpha,
        discrepancies=discrepancies,
        seed=seed,
    )


def run_sweep(config: ExperimentConfig) -> list[SweepCell]:
    """methods x corruption grid x repeats, with per-cell derived seeds.

    The base pool for a repeat is shared across corruption levels, and all
    seeds are independent of the method list and its order.
    """
    n_grid = config.corruption.n_corrupted if config.corruption is not None else (0,)
    cells: list[SweepCell] = []
    for repeat in range(config.repeats):
        base_pool, test = build_pool(config, _derive_seed(config.seed, 0, repeat))
        for n in n_grid:
            pool = base_pool
            if config.corruption is not None and n > 0:
                spec = CorruptionSpec(
                    kind=config.corruption.kind,
                    proportion=config.corruption.proportion,
                    seed=_derive_seed(config.seed, 1, repeat, n),
                )
                pool, _ = corrupt_pool(pool, n, spec, _derive_seed(config.seed, 2, repeat, n))
            run_seed = _derive_seed(config.seed, 3, repeat, n)
            for method in config.method:
                result = run_method(pool, test, config, method, run_seed)
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


_DATA_KINDS = {"synthetic": SyntheticSpec, "csv_paths": CsvDataSpec}


def _from_dict(cls, obj, key: str):
    """`cls(**obj)` for the config object under `key`, naming any key that is
    not one of its fields and any required field that is missing."""
    if not isinstance(obj, dict):
        raise ValueError(f"config {key} must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s) in config: {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in obj and f.default is MISSING]
    if missing:
        raise ValueError(f"missing {cls.__name__} key(s) in config: {', '.join(missing)}")
    return cls(**obj)


def config_from_json(text: str) -> ExperimentConfig:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"config must be a JSON object, got {type(obj).__name__}")
    data_obj = obj.get("data")
    if not (isinstance(data_obj, dict) and len(data_obj) == 1
            and next(iter(data_obj)) in _DATA_KINDS):
        raise ValueError("config data must contain exactly one of 'synthetic' or 'csv_paths'")
    [(kind, spec)] = data_obj.items()
    obj["data"] = _from_dict(_DATA_KINDS[kind], spec, kind)
    if obj.get("corruption") is not None:
        obj["corruption"] = _from_dict(CorruptionSetting, obj["corruption"], "corruption")
    return _from_dict(ExperimentConfig, obj, "config")
