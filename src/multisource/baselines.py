"""Comparison methods: robust aggregation of per-source models, the
Huber-tempered logistic loss, and per-source batch normalization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, SourcePool
from .models import (
    HUBER_C,
    LinearPredictor,
    TrainConfig,
    logistic_loss,
    train_erm,
)

__all__ = [
    "NormalizationStats",
    "geometric_median",
    "componentwise_median",
    "median_of_probabilities",
    "MedianOfProbsEnsemble",
    "huber_logistic_loss",
    "fit_normalization",
    "apply_normalization",
    "train_local_models",
    "aggregate_predictors",
]

WEISZFELD_EPS = 1e-10
WEISZFELD_MAX_ITER = 10_000
DEGENERATE_STD = 1e-12


def geometric_median(points: Sequence[np.ndarray], tolerance: float = 1e-10) -> np.ndarray:
    """Point minimizing the summed Euclidean distances, by Weiszfeld iteration.

    Denominators are floored at 1e-10 so iterates sitting on a data point do
    not blow up. Each update weakly decreases the objective; the loop stops
    once the decrease falls below `tolerance` (relative to the objective).
    When the minimizer is one of the input points the iteration only
    approaches it, so the final answer is the best of the limit and the
    input points themselves.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("need at least one point, all of equal dimension")
    if pts.shape[0] == 1:
        return pts[0].copy()

    z = pts.mean(axis=0)
    objective = float(np.linalg.norm(pts - z, axis=1).sum())
    for _ in range(WEISZFELD_MAX_ITER):
        dist = np.maximum(np.linalg.norm(pts - z, axis=1), WEISZFELD_EPS)
        inv = 1.0 / dist
        z_new = (pts * inv[:, None]).sum(axis=0) / inv.sum()
        new_objective = float(np.linalg.norm(pts - z_new, axis=1).sum())
        if new_objective > objective:
            break  # denominator flooring artifact; keep the better iterate
        improved = objective - new_objective
        z, objective = z_new, new_objective
        if improved <= tolerance * max(1.0, objective):
            break
    vertex_objectives = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2).sum(axis=1)
    best_vertex = int(np.argmin(vertex_objectives))
    if vertex_objectives[best_vertex] < objective:
        return pts[best_vertex].copy()
    return z


def componentwise_median(points: Sequence[np.ndarray]) -> np.ndarray:
    """Per-coordinate median; even counts average the two middle values."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("need at least one point, all of equal dimension")
    return np.median(pts, axis=0)


def median_of_probabilities(models: Sequence[LinearPredictor], x: np.ndarray) -> float:
    """Median of the models' class probabilities at x, thresholded at 0.5
    (an exact 0.5 goes to +1)."""
    if not models:
        raise ValueError("need at least one model")
    probs = np.array([float(m.probabilities(np.asarray(x))) for m in models])
    return 1.0 if float(np.median(probs)) >= 0.5 else -1.0


class MedianOfProbsEnsemble:
    """Batch predictor applying the median-of-probabilities rule per row."""

    def __init__(self, models: Sequence[LinearPredictor]):
        if not models:
            raise ValueError("need at least one model")
        self.models = tuple(models)

    def predict_labels(self, features: np.ndarray) -> np.ndarray:
        probs = np.stack([m.probabilities(features) for m in self.models])
        return np.where(np.median(probs, axis=0) >= 0.5, 1.0, -1.0)


def huber_logistic_loss(
    predictor: LinearPredictor, x: np.ndarray, y: float, c: float = HUBER_C
) -> float:
    """Logistic loss below the knot c, square-root-tempered continuation above."""
    if c <= 0:
        raise ValueError("c must be positive")
    ell = logistic_loss(predictor, x, y)
    if ell <= c:
        return ell
    return 2.0 * float(np.sqrt(c * ell)) - c


@dataclass(frozen=True, eq=False)
class NormalizationStats:
    """Per-feature mean and population standard deviation."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean and std must be vectors of equal length")
        if np.any(std < 0):
            raise ValueError("std entries must be nonnegative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def fit_normalization(data: Dataset) -> NormalizationStats:
    if data.n_samples == 0:
        raise ValueError("cannot fit normalization on an empty dataset")
    return NormalizationStats(
        mean=data.features.mean(axis=0), std=data.features.std(axis=0)
    )


def apply_normalization(data: Dataset, stats: NormalizationStats) -> Dataset:
    """Standardize features; near-constant columns (std < 1e-12) map to 0."""
    if stats.mean.shape[0] != data.n_features:
        raise ValueError("stats dimensionality does not match the dataset")
    return data.with_arrays(features=normalize_features(data.features, stats))


def normalize_features(features: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    safe = stats.std >= DEGENERATE_STD
    return np.where(safe, (features - stats.mean) / np.where(safe, stats.std, 1.0), 0.0)


def train_local_models(
    pool: SourcePool, config: TrainConfig = TrainConfig()
) -> list[LinearPredictor]:
    """One regularized-logistic model per source, each trained on that source only."""
    return [train_erm(source, "logistic", config) for source in pool.sources]


def aggregate_predictors(
    models: Sequence[LinearPredictor], how: str, tolerance: float = 1e-10
) -> LinearPredictor:
    """Combine local models by aggregating their stacked (weights, bias) vectors."""
    stacked = np.array([np.append(m.weights, m.bias) for m in models])
    if how == "geometric_median":
        agg = geometric_median(stacked, tolerance=tolerance)
    elif how == "componentwise_median":
        agg = componentwise_median(stacked)
    else:
        raise ValueError(f"unknown aggregation {how!r}")
    return LinearPredictor(agg[:-1], float(agg[-1]))
