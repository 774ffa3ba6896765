"""Empirical discrepancy between a source and the reference dataset.

The discrepancy of interest is the largest gap in 0/1 risk any linear
classifier can exhibit between the two samples. Estimating it reduces to a
weighted ERM over the merged data in which the source carries negated
labels; the minimization is relaxed to a ridge-stabilized weighted least
squares, and the achieved weighted 0/1 risk r of the resulting sign
classifier yields the estimate clamp(1 - r, 0, 1). The relaxation is solved
exactly: its minimizer is one (d+1)x(d+1) linear solve of the normal
equations, built from per-sample second moments. Risks are accumulated as
integer counts over the common denominator m_src * m_ref, so identities
like d(S, S) = 0 hold exactly, not just to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .models import predicts_positive

__all__ = [
    "RELAX_RIDGE",
    "DiscrepancyEstimate",
    "candidate_misses",
    "empirical_discrepancies",
    "empirical_discrepancy",
    "finite_moments",
    "moments",
    "solve_relaxation",
]

# small ridge on w (never the bias), purely for conditioning of the
# least-squares relaxation
RELAX_RIDGE = 1e-6


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
    # kept (n, d+1), unlike the trainer's (d+1, n): the other layout changes X~^T y's bits
    design = np.empty((data.n_samples, data.n_features + 1))
    design[:, :-1] = data.features
    design[:, -1] = 1.0
    return design.T @ design / data.n_samples, design.T @ data.labels / data.n_samples


def finite_moments(samples: Sequence[Dataset], whose: str) -> tuple[np.ndarray, np.ndarray]:
    """The stacked `moments` of `samples`, checked once: if one overflows, a
    `FloatingPointError` says that `whose` (e.g. "the source's") feature moments overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below instead
        gram, moment = map(np.stack, zip(*map(moments, samples)))
    if not (np.isfinite(gram).all() and np.isfinite(moment).all()):
        raise FloatingPointError(f"{whose} feature moments overflowed; rescale the features")
    return gram, moment


def solve_relaxation(gram: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The relaxation's minimizer theta = (w, b) from its summed moments: the
    solution of (`gram` + RELAX_RIDGE/2 on the w-diagonal, never the bias)
    theta = `target`, for one system or a stack of them. An overflowed input
    or a system singular to working precision raises a `FloatingPointError`."""
    system = gram.copy()
    w_diagonal = np.arange(gram.shape[-1] - 1)
    system[..., w_diagonal, w_diagonal] += RELAX_RIDGE / 2.0
    if not (np.isfinite(system).all() and np.isfinite(target).all()):
        raise FloatingPointError("the summed feature moments overflowed; rescale the features")
    try:
        return np.linalg.solve(system, target[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise FloatingPointError("the relaxation's system is singular to working precision; "
                                 "center or rescale the features") from None


def candidate_misses(theta: np.ndarray, sources: Sequence[Dataset],
                     reference: Dataset) -> list[tuple[int, int]]:
    """Each candidate theta[i] = (w, b)'s misses on sources[i] and on `reference`, as a
    `LinearPredictor` counts them: one matrix-vector product per candidate and sample."""
    if not np.isfinite(theta).all():
        raise ValueError("predictor parameters must be finite")

    def count(candidate: np.ndarray, data: Dataset) -> int:
        scores = data.features @ candidate[:-1] + candidate[-1]
        return int(np.count_nonzero(predicts_positive(scores) != (data.labels > 0.0)))

    return [(count(c, s), count(c, reference)) for c, s in zip(theta, sources)]


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises instead, naming its sample
def empirical_discrepancies(sources: Sequence[Dataset],
                            reference: Dataset) -> tuple[DiscrepancyEstimate, ...]:
    """Each source's risk gap to `reference` by the flipped-label relaxation
    mean_src (w.x + b + y)^2 + mean_ref (w.x + b - y)^2 + (RELAX_RIDGE/2) ||w||^2,
    solved in one stack, the reference's moments built once, and scored by
    `candidate_misses`; each mean is over a row at least. An overflow raises a
    `FloatingPointError` naming its sample, the sources' stack before the reference."""
    if not sources:
        raise ValueError("no sources to score")
    for source in sources:
        if source.n_features != reference.n_features:
            raise ValueError(f"feature mismatch: source has {source.n_features}, "
                             f"reference {reference.n_features}")
    gram_src, moment_src = finite_moments(sources, "the source's")
    gram_ref, moment_ref = finite_moments((reference,), "the reference's")
    # source labels are flipped; an overflowed sum raises in `solve_relaxation`
    theta = solve_relaxation(gram_src + gram_ref, moment_ref - moment_src)
    # the flipped-label misses: with labels of +-1, every source row not missed
    m_ref = reference.n_samples
    return tuple(DiscrepancyEstimate(((s.n_samples - src) * m_ref + ref * s.n_samples)
                                     / (s.n_samples * m_ref))
                 for s, (src, ref) in zip(sources, candidate_misses(theta, sources, reference)))


def empirical_discrepancy(source: Dataset, reference: Dataset) -> DiscrepancyEstimate:
    """`empirical_discrepancies` of the one source `source`."""
    return empirical_discrepancies((source,), reference)[0]
