"""Linear predictors, loss functions, and the weighted regularized ERM trainer.

The trainer minimizes

    F(w, b) = sum_j s_j * L(y_j * (w . x_j + b)) + (ridge/2) * ||w||^2

by damped Newton (iteratively reweighted least squares) from the zero
predictor, where the per-sample weights s_j encode the source weighting
(alpha_i / m_i for every point of source i). The bias is never regularized.
Only sources with alpha_i > 0 are stacked: a zero-weight source is never
read, and an all-zero alpha gives the zero predictor. Each fit builds one
transposed bias-augmented design of shape (d+1, n), so with theta = (w, b)
the margins, gradient and Hessian each take one product and the bias needs
no special case.
Each loss is defined once, in `loss_terms`, which gives its value, slope
and curvature in the margin together, so every trial point of the trainer
reads the data once. The sigmoid is defined once, by the softplus
ell = log(1 + e^-m): sigma(m) = exp(-ell) and sigma(-m) = -expm1(-ell).
Each iteration solves one (d+1)x(d+1) system; the Huber-tempered loss is
concave past its knot, so its curvature is clipped at 0 there and the
Hessian stays positive semidefinite. Steps are chosen by Armijo
backtracking, a pure function of the inputs, so identical inputs give
identical predictors. A fit normally ends once the gradient norm has fallen
to 1e-10 of its value at zero, within a few dozen iterations even at
ridge 0 on separable data, where no minimizer exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, SourcePool

__all__ = [
    "LOSSES",
    "HUBER_C",
    "LinearPredictor",
    "misses",
    "zero_one_error",
    "loss_terms",
    "minimize_weighted_loss",
    "stack_weighted_pool",
    "train_weighted_erm",
    "train_erm",
]

LOSSES = ("logistic", "huber_logistic")

# robust-loss knot; 1.345 is the classic Huber tuning constant
HUBER_C = 1.345**2

# Armijo sufficient-decrease constant and backtracking factor of Newton's
# line search
ARMIJO_C = 1e-4
STEP_SHRINK = 0.5
MAX_HALVINGS = 200

# Newton stops once the gradient norm is this fraction of its value at zero;
# it converges quadratically, so the cap is only reached on pathological data
GRAD_RTOL = 1e-10
MAX_ITERATIONS = 100
# relative change of the objective below which its rounding error can hide
# a decrease; the gradients then decide instead (see minimize_weighted_loss)
FLOAT_SLACK = 1e-12


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
        """sigmoid(w . x + b), by the identity of `loss_terms`."""
        return np.exp(-np.logaddexp(0.0, -self.decision_function(features)))


def loss_terms(margins: np.ndarray, loss: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pointwise loss of the margin m = y * (w . x + b), with its first
    and second derivatives in m: (values, slopes, curvatures).

    The Huber-tempered loss is the logistic loss ell = log(1 + e^-m) up to
    its knot ell = HUBER_C and 2 sqrt(HUBER_C ell) - HUBER_C past it, where
    it is concave (margin < -1.63), so its curvature there is negative.
    The logistic slope -sigma(-m) and curvature sigma(m) sigma(-m) come from
    ell by sigma(m) = exp(-ell) and sigma(-m) = -expm1(-ell), which hold to
    rounding at either tail with no branch on the sign of m.
    """
    margins = np.asarray(margins, dtype=np.float64)
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}; expected one of {LOSSES}")
    # the terms are updated in place, so a fit holds few n-vectors at once
    ell = np.logaddexp(0.0, -margins)
    slopes = np.expm1(-ell)
    curvatures = np.exp(-ell)
    curvatures *= -slopes
    if loss == "logistic":
        return ell, slopes, curvatures
    tempered = ell > HUBER_C
    knee = np.maximum(ell, HUBER_C)
    scale = np.sqrt(HUBER_C / knee)  # exactly 1.0 up to the knot
    values = np.where(tempered, 2.0 * np.sqrt(HUBER_C * ell) - HUBER_C, ell)
    curvatures -= tempered * slopes**2 / (2.0 * knee)
    curvatures *= scale
    slopes *= scale
    return values, slopes, curvatures


def _design_t(features: np.ndarray) -> np.ndarray:
    """The bias-augmented design, transposed and contiguous: the feature
    columns as rows, then a row of ones; shape (d+1, n)."""
    return np.vstack([features.T, np.ones(features.shape[0])])


def _evaluate(
    theta: np.ndarray,
    design_t: np.ndarray,
    labels: np.ndarray,
    sample_weight: np.ndarray,
    loss: str,
    ridge: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """F at theta = (w, b), its gradient, and each sample's weight in the
    Newton Hessian (its weighted loss curvature, clipped at 0), from one
    pass over the data."""
    margins = labels * (theta @ design_t)
    values, slopes, curvatures = loss_terms(margins, loss)
    grad = design_t @ (sample_weight * slopes * labels)
    w = theta[:-1]
    grad[:-1] += ridge * w
    np.maximum(curvatures, 0.0, out=curvatures)
    curvatures *= sample_weight
    return float(sample_weight @ values + 0.5 * ridge * (w @ w)), grad, curvatures


def minimize_weighted_loss(
    features: np.ndarray,
    labels: np.ndarray,
    sample_weight: np.ndarray,
    loss: str,
    ridge: float,
) -> LinearPredictor:
    """Damped Newton descent from the zero predictor.

    Each iteration solves the Newton system, with every sample's loss
    curvature clipped at 0, and backtracks from the full step. A step is
    taken when it lowers the objective by the Armijo margin or, once the
    objective moves by no more than its rounding error, when the trapezoid
    estimate of its change from the two end gradients shows that margin.
    Each trial point is evaluated once; the curvatures of the accepted one
    give the next Hessian. Stops when the gradient norm falls to `GRAD_RTOL`
    times its value at zero, when no backtracked step qualifies (the float
    floor), or after `MAX_ITERATIONS` steps. No step raises the objective by
    more than its rounding error.
    """
    design_t = _design_t(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.float64)
    sample_weight = np.asarray(sample_weight, dtype=np.float64)
    if not (np.isfinite(ridge) and ridge >= 0):
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge!r}")

    d = design_t.shape[0] - 1
    theta = np.zeros(d + 1)  # (w, b)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
        value, grad, curvatures = _evaluate(theta, design_t, labels, sample_weight, loss, ridge)
        grad_norm = np.linalg.norm(grad)
    if not (np.isfinite(value) and np.isfinite(grad_norm)):
        raise FloatingPointError("objective or its gradient is non-finite at the zero predictor")
    stop_norm = GRAD_RTOL * grad_norm

    for _ in range(MAX_ITERATIONS):
        if np.linalg.norm(grad) <= stop_norm:
            break
        hess = (design_t * curvatures) @ design_t.T
        hess[range(d), range(d)] += ridge
        # damping at machine precision keeps a singular Hessian (ridge 0 and
        # a repeated feature) solvable and moves other steps only by rounding
        hess[range(d + 1), range(d + 1)] += np.finfo(np.float64).eps * np.trace(hess)
        direction = np.linalg.solve(hess, -grad)
        slope = float(grad @ direction)
        step = 1.0
        for _ in range(MAX_HALVINGS):
            trial = theta + step * direction
            new_value, new_grad, new_curvatures = _evaluate(
                trial, design_t, labels, sample_weight, loss, ridge
            )
            margin = ARMIJO_C * step * slope
            if new_value < value and new_value <= value + margin:
                break
            # within rounding of F, judge the step by the trapezoid estimate
            # of its change from the two gradients, which keep the precision F lost
            if new_value - value <= FLOAT_SLACK * value and (
                0.5 * step * (slope + float(new_grad @ direction)) <= margin < 0.0
            ):
                break
            step *= STEP_SHRINK
        else:
            break  # float floor
        theta, value, grad, curvatures = trial, new_value, new_grad, new_curvatures
    return LinearPredictor(theta[:d], theta[d])


def stack_weighted_pool(
    pool: SourcePool, alpha: Sequence[float] | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack the sources with alpha_i > 0 into (features, labels, per-sample
    weights alpha_i/m_i); a zero-weight source is never read, and an all-zero
    alpha stacks no rows."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (pool.n_sources,):
        raise ValueError(f"alpha has length {alpha.shape}, pool has {pool.n_sources} sources")
    if not (np.isfinite(alpha).all() and (alpha >= 0.0).all()):
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha.tolist()}")
    kept = [(a, s) for a, s in zip(alpha, pool.sources) if a > 0.0]
    if not kept:
        return np.empty((0, pool.n_features)), np.empty(0), np.empty(0)
    features = np.vstack([s.features for _, s in kept])
    labels = np.concatenate([s.labels for _, s in kept])
    weights = np.concatenate([np.full(s.n_samples, a / s.n_samples) for a, s in kept])
    return features, labels, weights


def train_weighted_erm(
    pool: SourcePool,
    alpha: Sequence[float] | np.ndarray,
    loss: str = "logistic",
    ridge: float = 1e-4,
) -> LinearPredictor:
    """Minimize the alpha-weighted empirical risk over the pool's sources."""
    features, labels, weights = stack_weighted_pool(pool, alpha)
    return minimize_weighted_loss(features, labels, weights, loss, ridge)


def train_erm(dataset: Dataset, loss: str = "logistic", ridge: float = 1e-4) -> LinearPredictor:
    """Plain regularized ERM on a single dataset."""
    if dataset.n_samples == 0:
        raise ValueError("cannot train on an empty dataset")
    weights = np.full(dataset.n_samples, 1.0 / dataset.n_samples)
    return minimize_weighted_loss(dataset.features, dataset.labels, weights, loss, ridge)


def misses(predictor, data: Dataset) -> int:
    """Rows of `data` misclassified, as an integer; `predictor` needs
    predict_labels()."""
    return int(np.count_nonzero(predictor.predict_labels(data.features) != data.labels))


def zero_one_error(predictor, data: Dataset) -> float:
    """Fraction of `data` misclassified: `misses` over the row count."""
    if data.n_samples == 0:
        raise ValueError("cannot score an empty dataset")
    return misses(predictor, data) / data.n_samples
