"""Config-driven experiment harness.

Builds a pool (synthetic Gaussian task, or CSV files read through one
`load_csvs` generator that the pool's checks consume file by file, in the
order of a one-by-one read), optionally corrupts a chosen number of
sources, and runs either the discrepancy-weighting pipeline ("ours") or one
of the comparison methods. Hyperparameters (lam and the ridge strength) are
selected by k-fold cross-validation on the reference data; during CV,
discrepancies are recomputed against the reference's training folds only,
so the held-out fold never leaks into the weighting.
Each fold, and the final fit, prepares its data once in one fitter, which
fits each distinct (alpha, ridge) once; the per-source models of the median
baselines never read the reference and are fit once per ridge for all folds.

The weighting pipeline appends the reference dataset to the pool as an
extra source whose discrepancy is zero by construction, so lam -> infinity
recovers training on all merged data and lam -> 0 recovers training on the
reference alone.
"""

from __future__ import annotations

import contextlib
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
    kfold_indices,
    load_csvs,
    merge,
)
from .discrepancy import empirical_discrepancies, finite_moments
from .models import LinearPredictor, misses, train_erm, train_weighted_erm, zero_one_error
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

    def __post_init__(self) -> None:
        paths = self.source_paths
        paths = (paths,) if isinstance(paths, str) else paths
        if not (isinstance(paths, (tuple, list)) and paths
                and all(isinstance(p, str) for p in paths)):
            raise ValueError("source_paths must be a path or a nonempty list of paths, "
                             f"got {paths!r}")
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
        if not n or any(v < 0 for v in n):
            raise ValueError("n_corrupted must be a nonempty list of nonnegative values")
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
        repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
        if repeated:  # it would write the same results rows twice
            raise ValueError(f"method {repeated[0]!r} is listed more than once")
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
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.corruption is not None:
            spec = self.data
            k = spec.n_sources if isinstance(spec, SyntheticSpec) else len(spec.source_paths)
            top = max(self.corruption.n_corrupted)
            if top > k:
                raise ValueError(f"n_corrupted={top} exceeds the pool's {k} sources")


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
    """The config's pool and test set. A CSV input that its reader rejects
    (one with no data row too), whose feature count differs from the
    reference's, or (a source or the reference) whose feature moments
    overflow is named before any fit."""
    spec = config.data
    if isinstance(spec, SyntheticSpec):
        return generate_synthetic_pool(spec, seed)
    files = load_csvs([*spec.source_paths, spec.reference_path, spec.test_path],
                      spec.label_column)
    with contextlib.closing(files):
        sources = tuple(next(files) for _ in spec.source_paths)
        reference = next(files)
        for path, source in zip(spec.source_paths, sources):
            if source.n_features != reference.n_features:
                raise ValueError(f"{path}: feature mismatch: source has {source.n_features}, "
                                 f"reference {reference.n_features}")
            finite_moments((source,), f"{path}: the source's")  # one source's design at a time
        finite_moments((reference,), f"{spec.reference_path}: the reference's")
        test = next(files)
    if test.n_features != reference.n_features:
        raise ValueError(f"{spec.test_path}: feature mismatch: test set has {test.n_features}, "
                         f"reference {reference.n_features}")
    return SourcePool(sources, reference), test


def _cross_validate(
    reference: Dataset,
    grid: Sequence,
    folds: int,
    seed: int,
    fit_fold: Callable[[Dataset], Callable],
):
    """The grid point with the lowest held-out 0/1 error summed over k folds
    of the reference; the first such point in grid order wins ties. The sum
    is exact: the folds have a or a + 1 rows, and fold f adds its misses
    times a(a + 1) / n_f, an integer.

    `fit_fold(ref_train)` returns a function from a grid point to a predictor
    trained against `ref_train`. A one-point grid returns without any fit.
    """
    if len(grid) == 1:
        return grid[0]
    n = reference.n_samples
    if folds > n:
        raise ValueError(f"cv_folds={folds} exceeds the reference's {n} rows")
    a = n // folds
    scores = [0] * len(grid)
    for heldout in kfold_indices(n, folds, seed):
        fit = fit_fold(reference.take(np.setdiff1d(np.arange(n), heldout)))
        heldout_data = reference.take(heldout)
        scale = a * (a + 1) // len(heldout)
        scores = [s + misses(fit(point), heldout_data) * scale
                  for s, point in zip(scores, grid)]
        del fit  # frees this fold's prepared data before the next fold's is built
    return grid[scores.index(min(scores))]


def _fitter(method: str, sources: Sequence[Dataset], reference: Dataset,
            local_fit: Callable = train_erm) -> Callable:
    """A function from a grid point (lam, ridge) to (predictor, alpha,
    discrepancies) trained against `reference`, on data prepared once here.

    For "ours" one `empirical_discrepancies` call, federated case 1's code,
    scores every source; the reference joins the pool with discrepancy 0.
    A baseline ignores lam and has no alpha or discrepancies. The median
    baselines aggregate the per-source models `local_fit(source, "logistic",
    ridge)`, which never read the reference, so a caller may share them.
    """
    if method == "ours":
        pool = SourcePool(tuple(sources) + (reference,), reference)
        d_full = np.array([e.value for e in empirical_discrepancies(sources, reference)] + [0.0])
        problem = WeightProblem(d_full, pool.sample_counts)
        fits = {}

        def fit(point):
            alpha = solve_weights(problem, point[0])
            key = (alpha.tobytes(), point[1])
            if key not in fits:  # many lam give the same alpha
                fits[key] = train_weighted_erm(pool, alpha, "logistic", point[1])
            return fits[key], alpha, d_full

        return fit
    if method in ("reference_only", "all_data", "robust_loss"):
        data = reference if method == "reference_only" else merge(tuple(sources) + (reference,))
        loss = "huber_logistic" if method == "robust_loss" else "logistic"
        train = functools.partial(train_erm, data, loss)
    elif method == "batch_norm":
        # standardize each sample by its own statistics, then fold the
        # reference's into the model: w.(x - mean)/std + b = (w/std).x + b - (w/std).mean
        z_ref, mean, std = standardize(reference.features)
        merged = merge([Dataset(standardize(s.features)[0], s.labels) for s in sources]
                       + [Dataset(z_ref, reference.labels)])

        def train(ridge):
            inner = train_erm(merged, "logistic", ridge)
            weights = inner.weights / std
            return LinearPredictor(weights, inner.bias - weights @ mean)
    else:
        def train(ridge):
            locals_ = [local_fit(s, "logistic", ridge) for s in sources]
            if method == "median_of_probs":
                return MedianOfProbsEnsemble(locals_)
            median = geometric_median if method == "geometric_median" else componentwise_median
            agg = median(np.array([np.append(m.weights, m.bias) for m in locals_]))
            return LinearPredictor(agg[:-1], float(agg[-1]))
    return lambda point: (train(point[1]), None, None)


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
    local_fit = functools.cache(train_erm)  # one per-source model per ridge, for all folds
    fitter = functools.partial(_fitter, method, pool.sources, local_fit=local_fit)

    def fit_fold(ref_train: Dataset):
        fit = fitter(ref_train)
        return lambda point: fit(point)[0]

    best = _cross_validate(pool.reference, grid, config.cv_folds, seed, fit_fold)
    predictor, alpha, discrepancies = fitter(pool.reference)(best)
    return RunResult(method=method, test_error=zero_one_error(predictor, test_data),
                     selected_lambda=best[0], selected_ridge=best[1], alpha=alpha,
                     discrepancies=discrepancies, seed=seed)


def run_sweep(config: ExperimentConfig) -> list[SweepCell]:
    """methods x corruption grid x repeats, with per-cell derived seeds.

    The base pool for a repeat is shared across corruption levels, and all
    seeds are independent of the method list and its order. CSV files, whose
    data ignore the seed, are read once for every repeat.
    """
    n_grid = config.corruption.n_corrupted if config.corruption is not None else (0,)
    files = build_pool(config, 0) if isinstance(config.data, CsvDataSpec) else None
    cells: list[SweepCell] = []
    for repeat in range(config.repeats):
        base_pool, test = files or build_pool(config, _derive_seed(config.seed, 0, repeat))
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
