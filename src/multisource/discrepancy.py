"""Empirical discrepancy between a source and the reference dataset.

The discrepancy of interest is the largest gap in 0/1 risk any linear
classifier can exhibit between the two samples. Estimating it reduces to a
weighted ERM over the merged data in which the source carries negated
labels; the minimization is relaxed to a ridge-stabilized weighted least
squares, and the achieved weighted 0/1 risk r of the resulting sign
classifier yields the estimate clamp(1 - r, 0, 1). The relaxation is solved
exactly: its minimizer is one (d+1)x(d+1) linear solve of the normal
equations, built from per-sample second moments.

For small 1-D and 2-D instances, `exact_discrepancy_oracle` computes the
supremum exactly by enumerating every labeling a threshold/halfplane
classifier can realize. Risks are accumulated as integer counts over the
common denominator m_src * m_ref, so identities like d(S, S) = 0 hold
exactly, not just to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .models import LinearPredictor

__all__ = [
    "RELAX_RIDGE",
    "DiscrepancyEstimate",
    "empirical_discrepancy",
    "moments",
    "ridged_system",
    "exact_discrepancy_oracle",
]

# small ridge on w (never the bias), purely for conditioning of the
# least-squares relaxation
RELAX_RIDGE = 1e-6

ORACLE_MAX_POINTS = 200


@dataclass(frozen=True)
class DiscrepancyEstimate:
    """The weighted 0/1 risk the relaxation's sign classifier achieves on the
    flipped-label problem, clamped to [0, 1]; the estimated gap is 1 - risk."""

    solver_risk: float

    def __post_init__(self) -> None:
        if math.isnan(self.solver_risk):
            raise ValueError("solver risk is NaN")
        object.__setattr__(self, "solver_risk", min(max(float(self.solver_risk), 0.0), 1.0))

    @property
    def value(self) -> float:
        """Estimated risk gap in [0, 1]."""
        return 1.0 - self.solver_risk


def moments(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(X~^T X~ / m, X~^T y / m), where X~ is X with a constant column appended."""
    design = np.hstack([data.features, np.ones((data.n_samples, 1))])
    return design.T @ design / data.n_samples, design.T @ data.labels / data.n_samples


def ridged_system(gram: np.ndarray) -> np.ndarray:
    """The relaxation's normal-equation matrix: `gram` plus RELAX_RIDGE/2 on
    the w-diagonal (never the bias), which makes it positive definite."""
    system = gram.copy()
    w_diagonal = np.arange(gram.shape[0] - 1)
    system[w_diagonal, w_diagonal] += RELAX_RIDGE / 2.0
    return system


def empirical_discrepancy(source: Dataset, reference: Dataset) -> DiscrepancyEstimate:
    """Estimate the source-vs-reference risk gap via the flipped-label relaxation.

    The relaxation minimizes mean_src (w.x + b + y)^2 + mean_ref (w.x + b - y)^2
    + (RELAX_RIDGE/2) ||w||^2. Its normal-equation matrix is positive definite
    for any positive ridge, so the minimizer is a single linear solve.
    Features so large that their moments overflow raise `FloatingPointError`.
    """
    if source.n_features != reference.n_features:
        raise ValueError(
            f"feature mismatch: source has {source.n_features}, reference {reference.n_features}"
        )
    if source.n_samples == 0 or reference.n_samples == 0:
        raise ValueError("both datasets must be nonempty")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below instead
        gram_src, moment_src = moments(source)
        gram_ref, moment_ref = moments(reference)
        system = ridged_system(gram_src + gram_ref)
        target = moment_ref - moment_src  # source labels are flipped
    if not (np.isfinite(system).all() and np.isfinite(target).all()):
        raise FloatingPointError("feature moments overflowed; rescale the features")
    theta = np.linalg.solve(system, target)
    predictor = LinearPredictor(theta[:-1], theta[-1])
    miss_src = int(np.sum(predictor.predict_labels(source.features) != -source.labels))
    miss_ref = int(np.sum(predictor.predict_labels(reference.features) != reference.labels))
    m_src, m_ref = source.n_samples, reference.n_samples
    return DiscrepancyEstimate((miss_src * m_ref + miss_ref * m_src) / (m_src * m_ref))


def _halfplane_directions(points: np.ndarray) -> np.ndarray:
    """Directions whose threshold sweeps realize every halfplane labeling.

    The set of labelings changes only at normals perpendicular to some
    point-pair difference. One representative per angular arc between
    consecutive critical normals (plus the criticals themselves) therefore
    covers all of them. Differences are sign-canonicalized so the result is
    identical however the points were ordered.
    """
    n = points.shape[0]
    ii, jj = np.triu_indices(n, k=1)
    diffs = points[jj] - points[ii]
    diffs = diffs[np.any(diffs != 0.0, axis=1)]
    if diffs.size == 0:
        return np.array([[1.0, 0.0]])
    flip = (diffs[:, 0] < 0) | ((diffs[:, 0] == 0) & (diffs[:, 1] < 0))
    diffs[flip] *= -1.0
    # normals to the differences, folded into [0, pi)
    critical = np.mod(np.arctan2(diffs[:, 1], diffs[:, 0]) + 0.5 * np.pi, np.pi)
    critical = np.unique(critical)
    if critical.size == 1:
        reps = np.array([np.mod(critical[0] + 0.5 * np.pi, np.pi)])
    else:
        mids = 0.5 * (critical[:-1] + critical[1:])
        wrap = np.mod(0.5 * (critical[-1] + critical[0] + np.pi), np.pi)
        reps = np.concatenate([mids, [wrap]])
    angles = np.concatenate([critical, reps])
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _max_gap_counts(
    projections: np.ndarray, labels: np.ndarray, is_source: np.ndarray
) -> int:
    """Largest |m_ref * mistakes_src - m_src * mistakes_ref| over all threshold
    classifiers (both orientations) along one projection axis, as an integer."""
    order = np.argsort(projections, kind="stable")
    s = projections[order]
    pos = labels[order] > 0
    src = is_source[order]

    m_src = int(src.sum())
    m_ref = int(len(src) - m_src)
    # prefix[k] = count among the k smallest projections
    src_pos = np.concatenate([[0], np.cumsum(src & pos)])
    src_neg = np.concatenate([[0], np.cumsum(src & ~pos)])
    ref_pos = np.concatenate([[0], np.cumsum(~src & pos)])
    ref_neg = np.concatenate([[0], np.cumsum(~src & ~pos)])

    n = len(s)
    valid = np.ones(n + 1, dtype=bool)
    valid[1:n] = s[:-1] < s[1:]  # cannot thread a threshold between tied values
    ks = np.flatnonzero(valid)

    # orientation A: the n-k largest projections are labeled +1
    mis_src_a = src_pos[ks] + (src_neg[-1] - src_neg[ks])
    mis_ref_a = ref_pos[ks] + (ref_neg[-1] - ref_neg[ks])
    # orientation B: the k smallest projections are labeled +1
    mis_src_b = src_neg[ks] + (src_pos[-1] - src_pos[ks])
    mis_ref_b = ref_neg[ks] + (ref_pos[-1] - ref_pos[ks])

    gap_a = np.abs(mis_src_a * m_ref - mis_ref_a * m_src)
    gap_b = np.abs(mis_src_b * m_ref - mis_ref_b * m_src)
    return int(max(gap_a.max(), gap_b.max()))


def exact_discrepancy_oracle(
    source: Dataset, reference: Dataset, hypothesis_family: str
) -> float:
    """Exact sup over the family of |risk_source(h) - risk_reference(h)|.

    `thresholds_1d` enumerates all threshold classifiers of both orientations
    on 1-feature data; `lines_2d` enumerates all halfplane labelings of
    2-feature data. Guarded to at most 200 total samples.
    """
    if source.n_features != reference.n_features:
        raise ValueError("datasets must share the feature dimension")
    if source.n_samples == 0 or reference.n_samples == 0:
        raise ValueError("both datasets must be nonempty")
    total = source.n_samples + reference.n_samples
    if total > ORACLE_MAX_POINTS:
        raise ValueError(f"oracle limited to {ORACLE_MAX_POINTS} samples, got {total}")

    points = np.vstack([source.features, reference.features])
    labels = np.concatenate([source.labels, reference.labels])
    is_source = np.zeros(total, dtype=bool)
    is_source[: source.n_samples] = True

    if hypothesis_family == "thresholds_1d":
        if source.n_features != 1:
            raise ValueError("thresholds_1d requires exactly 1 feature")
        best = _max_gap_counts(points[:, 0], labels, is_source)
    elif hypothesis_family == "lines_2d":
        if source.n_features != 2:
            raise ValueError("lines_2d requires exactly 2 features")
        best = 0
        for direction in _halfplane_directions(points):
            best = max(best, _max_gap_counts(points @ direction, labels, is_source))
    else:
        raise ValueError(f"unknown hypothesis family {hypothesis_family!r}")

    return best / (source.n_samples * reference.n_samples)
