"""Comparison methods: robust aggregation of per-source models and the
per-source standardization of the batch-normalization baseline. The
Huber-tempered logistic loss of the robust-loss baseline lives with the
other losses in `models`."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .models import LinearPredictor

__all__ = [
    "geometric_median",
    "componentwise_median",
    "MedianOfProbsEnsemble",
    "standardize",
    "aggregate_predictors",
]

WEISZFELD_EPS = 1e-10
WEISZFELD_RTOL = 1e-10
WEISZFELD_MAX_ITER = 10_000
DEGENERATE_STD = 1e-12


def geometric_median(points: Sequence[np.ndarray]) -> np.ndarray:
    """Point minimizing the summed Euclidean distances, by Weiszfeld iteration.

    Denominators are floored at 1e-10 so iterates sitting on a data point do
    not blow up. Each update weakly decreases the objective; the loop stops
    once the decrease falls below `WEISZFELD_RTOL` (relative to the objective).
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
        if improved <= WEISZFELD_RTOL * max(1.0, objective):
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


class MedianOfProbsEnsemble:
    """Per row, the median of the models' class probabilities, thresholded at
    0.5; an exact 0.5 goes to +1."""

    def __init__(self, models: Sequence[LinearPredictor]):
        if not models:
            raise ValueError("need at least one model")
        self.models = tuple(models)

    def predict_labels(self, features: np.ndarray) -> np.ndarray:
        probs = np.stack([m.probabilities(features) for m in self.models])
        return np.where(np.median(probs, axis=0) >= 0.5, 1.0, -1.0)


def standardize(features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each column minus its mean over its population std: (z, mean, std).

    A near-constant column (std < DEGENERATE_STD), or one finite value
    repeated at any magnitude, reports std = inf, so both its standardized
    values and a weight divided by its std are exactly 0. Other features so
    large that their std overflows raise `FloatingPointError`.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] == 0:
        raise ValueError("cannot standardize an empty sample")
    constant = np.isfinite(features[0]) & (features == features[0]).all(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below instead
        mean = np.where(constant, features[0], features.mean(axis=0))
        std = features.std(axis=0)
    if not np.isfinite(std[~constant]).all():  # also when the mean overflowed
        raise FloatingPointError("feature standard deviations overflowed; rescale the features")
    std[constant | (std < DEGENERATE_STD)] = np.inf
    return (features - mean) / std, mean, std


def aggregate_predictors(models: Sequence[LinearPredictor], how: str) -> LinearPredictor:
    """Combine local models by aggregating their stacked (weights, bias) vectors."""
    stacked = np.array([np.append(m.weights, m.bias) for m in models])
    if how == "geometric_median":
        agg = geometric_median(stacked)
    elif how == "componentwise_median":
        agg = componentwise_median(stacked)
    else:
        raise ValueError(f"unknown aggregation {how!r}")
    return LinearPredictor(agg[:-1], float(agg[-1]))
