"""Shared test utilities: independent oracles and small statistics helpers."""

from __future__ import annotations

import numpy as np

from multisource.data import Dataset
from multisource.weights import WeightProblem


def simplex_grid(n: int, resolution: float) -> np.ndarray:
    """All simplex points on a regular grid with the given step (n <= 3)."""
    steps = int(round(1.0 / resolution))
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        t = np.arange(steps + 1) / steps
        return np.column_stack([t, 1.0 - t])
    if n == 3:
        i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        keep = (i + j) <= steps
        a = i[keep] / steps
        b = j[keep] / steps
        return np.column_stack([a, b, 1.0 - a - b])
    raise ValueError("grid oracle only implemented for n <= 3")


def grid_search_objective(problem: WeightProblem, resolution: float = 1e-3) -> float:
    """Brute-force minimum of the weighting objective over a simplex grid."""
    grid = simplex_grid(problem.n, resolution)
    linear = grid @ problem.discrepancies
    quad = np.sqrt(grid**2 @ (1.0 / problem.sample_counts))
    return float(np.min(linear + problem.lam * quad))


def brute_force_threshold_gap(source: Dataset, reference: Dataset) -> float:
    """Exhaustive 1-D threshold enumeration, independent of the library oracle.

    Thresholds run strictly between consecutive distinct values (plus one
    below and one above everything), in both orientations.
    """
    xs = np.concatenate([source.features[:, 0], reference.features[:, 0]])
    distinct = np.unique(xs)
    thresholds = [distinct[0] - 1.0, distinct[-1] + 1.0]
    thresholds += [0.5 * (a + b) for a, b in zip(distinct[:-1], distinct[1:])]
    best = 0.0
    for t in thresholds:
        for sign in (1.0, -1.0):
            pred_src = np.where(sign * (source.features[:, 0] - t) > 0, 1.0, -1.0)
            pred_ref = np.where(sign * (reference.features[:, 0] - t) > 0, 1.0, -1.0)
            err_src = float(np.mean(pred_src != source.labels))
            err_ref = float(np.mean(pred_ref != reference.labels))
            best = max(best, abs(err_src - err_ref))
    return best


def lstsq_relaxation(source: Dataset, reference: Dataset, ridge: float = 1e-6) -> np.ndarray:
    """Minimizer theta = (w, b) of the flipped-label relaxation, solved as one
    stacked least-squares problem.

    Rows are sqrt(s_j) [x_j, 1] with targets sqrt(s_j) y_j (source labels
    negated, s_j = 1/m of the row's sample), plus d ridge rows
    sqrt(ridge/2) e_k on w only.
    """
    d = source.n_features
    m_src, m_ref = source.n_samples, reference.n_samples
    design = np.vstack([
        np.hstack([source.features, np.ones((m_src, 1))]) / np.sqrt(m_src),
        np.hstack([reference.features, np.ones((m_ref, 1))]) / np.sqrt(m_ref),
        np.hstack([np.sqrt(ridge / 2.0) * np.eye(d), np.zeros((d, 1))]),
    ])
    target = np.concatenate([
        -source.labels / np.sqrt(m_src), reference.labels / np.sqrt(m_ref), np.zeros(d)
    ])
    return np.linalg.lstsq(design, target, rcond=None)[0]


def lstsq_discrepancy(source: Dataset, reference: Dataset, ridge: float = 1e-6) -> float:
    """clamp(1 - r, 0, 1), where r is the weighted 0/1 risk of the sign
    classifier of `lstsq_relaxation` on the merged flipped-label problem."""
    theta = lstsq_relaxation(source, reference, ridge)
    m_src, m_ref = source.n_samples, reference.n_samples

    def mistakes(data: Dataset, labels: np.ndarray) -> int:
        predicted = np.where(data.features @ theta[:-1] + theta[-1] >= 0.0, 1.0, -1.0)
        return int(np.sum(predicted != labels))

    risk = (mistakes(source, -source.labels) * m_ref
            + mistakes(reference, reference.labels) * m_src) / (m_src * m_ref)
    return min(max(1.0 - risk, 0.0), 1.0)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    sorted_x = x[order]
    i = 0
    while i < len(x):
        j = i
        while j < len(x) and sorted_x[j] == sorted_x[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j - 1)
        i = j
    return ranks


def spearman(a, b) -> float:
    ra = _average_ranks(np.asarray(a, dtype=float))
    rb = _average_ranks(np.asarray(b, dtype=float))
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt(float(ra @ ra) * float(rb @ rb))
    return float(ra @ rb) / denom if denom > 0 else 0.0


def random_dataset(rng: np.random.Generator, n: int, d: int, flip: float = 0.0) -> Dataset:
    """Gaussian two-cloud dataset with an optional label-flip rate."""
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    features = rng.standard_normal((n, d))
    features[:, 0] += labels
    if flip > 0:
        flips = rng.random(n) < flip
        labels = np.where(flips, -labels, labels)
    return Dataset(features, labels)
