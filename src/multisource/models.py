"""Linear predictors, loss functions, and the weighted regularized ERM trainer.

The trainer minimizes

    F(w, b) = sum_j s_j * L(y_j * (w . x_j + b)) + (ridge/2) * ||w||^2

by deterministic full-batch gradient descent from the zero predictor, where
the per-sample weights s_j encode the source weighting (alpha_i / m_i for
every point of source i). The bias is never regularized. Steps are chosen
by Armijo backtracking, a pure function of the inputs, so identical inputs
give identical predictors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, SourcePool

__all__ = [
    "LOSSES",
    "HUBER_C",
    "TrainConfig",
    "LinearPredictor",
    "TrainingDivergedError",
    "logistic_loss",
    "zero_one_error",
    "loss_values",
    "loss_derivatives",
    "weighted_objective",
    "weighted_objective_grad",
    "minimize_weighted_loss",
    "stack_weighted_pool",
    "train_weighted_erm",
    "train_erm",
]

LOSSES = ("logistic", "huber_logistic")

# robust-loss knot; 1.345 is the classic Huber tuning constant
HUBER_C = 1.345**2

# Armijo sufficient-decrease constant and trial-step growth shared by every
# backtracking loop in the package (the federated simulator mirrors them).
ARMIJO_C = 1e-4
STEP_GROWTH = 2.0
STEP_SHRINK = 0.5
MAX_HALVINGS = 200
MAX_STEP = 1e12


class TrainingDivergedError(RuntimeError):
    """Non-finite objective at the zero predictor; the data are pathological."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings for the Armijo gradient-descent ERM trainer."""

    ridge_strength: float = 1e-4
    max_iterations: int = 50_000
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.ridge_strength < 0:
            raise ValueError("ridge_strength must be nonnegative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(eq=False)
class LinearPredictor:
    """h(x) = sign(w . x + b), with the sign tie at 0 broken to +1."""

    weights: np.ndarray
    bias: float

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=np.float64, copy=True)
        if weights.ndim != 1:
            raise ValueError("weights must be a vector")
        bias = float(self.bias)
        if not (np.isfinite(weights).all() and np.isfinite(bias)):
            raise ValueError("predictor parameters must be finite")
        self.weights = weights
        self.bias = bias

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.shape[-1] != self.n_features:
            raise ValueError(
                f"predictor expects {self.n_features} features, got {features.shape[-1]}"
            )
        return features @ self.weights + self.bias

    def predict_labels(self, features: np.ndarray) -> np.ndarray:
        return np.where(self.decision_function(features) >= 0.0, 1.0, -1.0)

    def probabilities(self, features: np.ndarray) -> np.ndarray:
        """sigmoid(w . x + b), computed without overflow."""
        return _sigmoid(self.decision_function(features))

    def to_json(self) -> str:
        values = ", ".join(f"{v:.17g}" for v in self.weights)
        return f'{{"weights": [{values}], "bias": {self.bias:.17g}}}'

    @classmethod
    def from_json(cls, text: str) -> "LinearPredictor":
        obj = json.loads(text)
        return cls(np.asarray(obj["weights"], dtype=np.float64), float(obj["bias"]))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softplus_neg(margins: np.ndarray) -> np.ndarray:
    # log(1 + exp(-m)) without overflow for very negative margins
    return np.logaddexp(0.0, -margins)


def loss_values(margins: np.ndarray, loss: str) -> np.ndarray:
    """Pointwise loss as a function of the margin m = y * (w . x + b)."""
    margins = np.asarray(margins, dtype=np.float64)
    if loss == "logistic":
        return _softplus_neg(margins)
    if loss == "huber_logistic":
        ell = _softplus_neg(margins)
        return np.where(ell > HUBER_C, 2.0 * np.sqrt(HUBER_C * ell) - HUBER_C, ell)
    raise ValueError(f"unknown loss {loss!r}; expected one of {LOSSES}")


def loss_derivatives(margins: np.ndarray, loss: str) -> np.ndarray:
    """d(loss)/d(margin); matches `loss_values` branch for branch."""
    margins = np.asarray(margins, dtype=np.float64)
    if loss == "logistic":
        return -_sigmoid(-margins)
    if loss == "huber_logistic":
        ell = _softplus_neg(margins)
        dldm = -_sigmoid(-margins)
        big = ell > HUBER_C
        scale = np.ones_like(ell)
        scale[big] = np.sqrt(HUBER_C / ell[big])
        return scale * dldm
    raise ValueError(f"unknown loss {loss!r}; expected one of {LOSSES}")


def weighted_objective(
    w: np.ndarray,
    b: float,
    features: np.ndarray,
    labels: np.ndarray,
    sample_weight: np.ndarray,
    loss: str,
    ridge: float,
) -> float:
    margins = labels * (features @ w + b)
    return float(sample_weight @ loss_values(margins, loss) + 0.5 * ridge * (w @ w))


def weighted_objective_grad(
    w: np.ndarray,
    b: float,
    features: np.ndarray,
    labels: np.ndarray,
    sample_weight: np.ndarray,
    loss: str,
    ridge: float,
) -> tuple[float, np.ndarray, float]:
    """Objective value and its gradient with respect to (w, b)."""
    margins = labels * (features @ w + b)
    value = float(sample_weight @ loss_values(margins, loss) + 0.5 * ridge * (w @ w))
    coeff = sample_weight * loss_derivatives(margins, loss) * labels
    grad_w = features.T @ coeff + ridge * w
    grad_b = float(coeff.sum())
    return value, grad_w, grad_b


def minimize_weighted_loss(
    features: np.ndarray,
    labels: np.ndarray,
    sample_weight: np.ndarray,
    loss: str,
    config: TrainConfig,
) -> LinearPredictor:
    """Deterministic descent from the zero predictor.

    Stops when the relative objective change drops below `config.tolerance`,
    when the gradient vanishes, or after `config.max_iterations` steps.
    Every accepted step decreases the objective, so the result is never
    worse than the zero predictor.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    sample_weight = np.asarray(sample_weight, dtype=np.float64)
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}; expected one of {LOSSES}")

    w = np.zeros(features.shape[1])
    b = 0.0
    ridge = config.ridge_strength
    value, grad_w, grad_b = weighted_objective_grad(
        w, b, features, labels, sample_weight, loss, ridge
    )
    if not np.isfinite(value):
        raise TrainingDivergedError("objective is non-finite at the zero predictor")

    step = 1.0
    for _ in range(config.max_iterations):
        gnorm2 = float(grad_w @ grad_w) + grad_b * grad_b
        if gnorm2 == 0.0:
            break
        step = min(step * STEP_GROWTH, MAX_STEP)
        for _ in range(MAX_HALVINGS):
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            new_value = weighted_objective(
                w_new, b_new, features, labels, sample_weight, loss, ridge
            )
            if np.isfinite(new_value) and new_value <= value - ARMIJO_C * step * gnorm2:
                break
            step *= STEP_SHRINK
        else:
            break  # no decreasing step exists at float precision: converged
        moved = abs(value - new_value)
        w, b = w_new, b_new
        converged = moved <= config.tolerance * max(1.0, abs(value))
        value, grad_w, grad_b = weighted_objective_grad(
            w, b, features, labels, sample_weight, loss, ridge
        )
        if converged:
            break
    return LinearPredictor(w, b)


def stack_weighted_pool(
    pool: SourcePool, alpha: Sequence[float] | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack pool sources into (features, labels, per-sample weights alpha_i/m_i)."""
    alpha = np.asarray(getattr(alpha, "alpha", alpha), dtype=np.float64)
    if alpha.shape != (pool.n_sources,):
        raise ValueError(f"alpha has length {alpha.shape}, pool has {pool.n_sources} sources")
    features = np.vstack([s.features for s in pool.sources])
    labels = np.concatenate([s.labels for s in pool.sources])
    weights = np.concatenate(
        [np.full(s.n_samples, a / s.n_samples) for a, s in zip(alpha, pool.sources)]
    )
    return features, labels, weights


def train_weighted_erm(
    pool: SourcePool,
    alpha: Sequence[float] | np.ndarray,
    loss: str = "logistic",
    config: TrainConfig = TrainConfig(),
) -> LinearPredictor:
    """Minimize the alpha-weighted empirical risk over the pool's sources."""
    features, labels, weights = stack_weighted_pool(pool, alpha)
    return minimize_weighted_loss(features, labels, weights, loss, config)


def train_erm(
    dataset: Dataset, loss: str = "logistic", config: TrainConfig = TrainConfig()
) -> LinearPredictor:
    """Plain regularized ERM on a single dataset."""
    weights = np.full(dataset.n_samples, 1.0 / dataset.n_samples)
    return minimize_weighted_loss(dataset.features, dataset.labels, weights, loss, config)


def logistic_loss(predictor: LinearPredictor, x: np.ndarray, y: float) -> float:
    """`loss_values(margin, "logistic")` at one point x with label y."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (predictor.n_features,):
        raise ValueError(f"expected a vector of length {predictor.n_features}")
    return float(loss_values(float(y) * predictor.decision_function(x), "logistic"))


def zero_one_error(predictor, data: Dataset) -> float:
    """Fraction of `data` misclassified; `predictor` needs predict_labels()."""
    if data.n_samples == 0:
        raise ValueError("cannot score an empty dataset")
    predicted = predictor.predict_labels(data.features)
    return float(np.mean(predicted != data.labels))
