"""Simplex-constrained source weighting and the excess-risk bound evaluator.

The weighting objective is

    f(alpha) = sum_i alpha_i * d_i  +  lam * sqrt(sum_i alpha_i^2 / m_i)

over the probability simplex. Its KKT conditions collapse to a single
scalar equation: on the active set {i : d_i < nu} the optimum satisfies
alpha_i proportional to m_i * (nu - d_i), where nu solves

    sum_i m_i * max(nu - d_i, 0)^2 = lam^2.

The left side is piecewise quadratic and strictly increasing past min(d),
so nu is found exactly by scanning the sorted breakpoints and solving one
quadratic, in a form that never squares lam and so cannot overflow. This
reproduces both limits: lam -> 0 concentrates mass on the argmin-d set
(proportional to m_i within it), lam -> inf tends to alpha_i = m_i / sum(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimplexWeights",
    "WeightProblem",
    "BoundInputs",
    "solve_weights",
    "excess_risk_bound",
]

NEGATIVITY_SLACK = 1e-12
SUM_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class SimplexWeights:
    """A point on the probability simplex; tiny negative noise is clamped."""

    alpha: np.ndarray

    def __post_init__(self) -> None:
        alpha = np.array(self.alpha, dtype=np.float64, copy=True)
        if alpha.ndim != 1 or alpha.size < 1:
            raise ValueError("alpha must be a nonempty vector")
        if not np.isfinite(alpha).all():
            raise ValueError("alpha must be finite")
        if np.any(alpha < -NEGATIVITY_SLACK):
            raise ValueError(f"alpha has a negative entry: {alpha.min()}")
        np.clip(alpha, 0.0, None, out=alpha)
        total = float(alpha.sum())
        if abs(total - 1.0) > SUM_SLACK:
            raise ValueError(f"alpha sums to {total}, not 1")
        alpha.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)

    def __len__(self) -> int:
        return self.alpha.size


@dataclass(frozen=True, eq=False)
class WeightProblem:
    """Inputs to the weighting program: discrepancies, sample counts, lam."""

    discrepancies: np.ndarray
    sample_counts: np.ndarray
    lam: float

    def __post_init__(self) -> None:
        d = np.array(self.discrepancies, dtype=np.float64, copy=True)
        counts = np.array(self.sample_counts, dtype=np.float64)
        # below 2**53 every whole float is an exact int64; NaN and inf fail
        if not np.all((np.abs(counts) < 2.0**53) & (counts == np.round(counts))):
            raise ValueError("sample_counts must be whole numbers below 2**53")
        m = counts.astype(np.int64)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("discrepancies must be a nonempty vector")
        if not np.all((d >= 0.0) & (d <= 1.0)):
            raise ValueError("discrepancies must lie in [0, 1]")
        if m.shape != d.shape:
            raise ValueError("sample_counts length must match discrepancies")
        if np.any(m < 1):
            raise ValueError("sample counts must be positive")
        if not (0.0 <= self.lam < math.inf):
            raise ValueError("lam must be finite and nonnegative")
        d.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "discrepancies", d)
        object.__setattr__(self, "sample_counts", m)
        object.__setattr__(self, "lam", float(self.lam))

    def objective(self, alpha: np.ndarray | SimplexWeights) -> float:
        a = np.asarray(getattr(alpha, "alpha", alpha), dtype=np.float64)
        return float(
            self.discrepancies @ a + self.lam * math.sqrt(float(a**2 @ (1.0 / self.sample_counts)))
        )


@dataclass(frozen=True, eq=False)
class BoundInputs:
    """Everything the excess-risk bound needs, with R_i passed in explicitly."""

    alpha: SimplexWeights
    discrepancies: np.ndarray
    sample_counts: np.ndarray
    rademacher_bounds: np.ndarray
    loss_bound: float
    delta: float

    def __post_init__(self) -> None:
        n = len(self.alpha)
        d = np.asarray(self.discrepancies, dtype=np.float64)
        m = np.asarray(self.sample_counts, dtype=np.float64)
        r = np.asarray(self.rademacher_bounds, dtype=np.float64)
        if not (d.shape == m.shape == r.shape == (n,)):
            raise ValueError("alpha, discrepancies, sample_counts, rademacher_bounds "
                             "must all have the same length")
        if self.loss_bound <= 0:
            raise ValueError("loss_bound must be positive")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        object.__setattr__(self, "discrepancies", d)
        object.__setattr__(self, "sample_counts", m)
        object.__setattr__(self, "rademacher_bounds", r)


def solve_weights(problem: WeightProblem) -> SimplexWeights:
    """Exact minimizer of the weighting objective on the simplex."""
    d = problem.discrepancies
    m = problem.sample_counts.astype(np.float64)
    lam = problem.lam

    order = np.argsort(d, kind="stable")
    ds = d[order]
    ms = m[order]
    a = np.cumsum(ms)  # sum m_i
    b = np.cumsum(ms * ds)  # sum m_i d_i
    c = np.cumsum(ms * ds * ds)  # sum m_i d_i^2

    # g(nu) = a_k nu^2 - 2 b_k nu + c_k on [ds[k-1], ds[k]); find the crossing.
    # Compare sqrt(g) with lam rather than g with lam^2, which can overflow.
    k = len(ds)
    for i in range(1, len(ds)):
        g_end = a[i - 1] * ds[i] ** 2 - 2.0 * b[i - 1] * ds[i] + c[i - 1]
        if math.sqrt(max(g_end, 0.0)) >= lam:
            k = i
            break
    # On the active set g(nu) = a_k ((nu - mean)^2 + var), so
    # nu = mean + sqrt((s - sd)(s + sd)) with s = lam / sqrt(a_k).
    ak = a[k - 1]
    mean = b[k - 1] / ak
    sd = math.sqrt(float(ms[:k] @ (ds[:k] - mean) ** 2) / ak)
    s = lam / math.sqrt(ak)
    nu = mean + math.sqrt(max(s - sd, 0.0)) * math.sqrt(s + sd)

    # dividing by max(nu, 1) keeps the weights finite for any finite lam
    raw = m * np.clip((nu - d) / max(nu, 1.0), 0.0, None)
    total = raw.sum()
    if total <= 0.0:  # lam so small the support collapses numerically:
        raw = np.where(d == d.min(), m, 0.0)  # the argmin-d set, in proportion to m
        total = raw.sum()
    return SimplexWeights(raw / total)


def excess_risk_bound(inputs: BoundInputs) -> float:
    """High-probability excess of the weighted ERM over the best-in-class risk:
    4 sum(a R) + 2 sum(a d) + 6 sqrt(ln(4/delta) M^2 / 2) sqrt(sum(a^2/m))."""
    a = inputs.alpha.alpha
    complexity = 4.0 * float(a @ inputs.rademacher_bounds)
    disagreement = 2.0 * float(a @ inputs.discrepancies)
    effective = math.sqrt(float(a**2 @ (1.0 / inputs.sample_counts)))
    confidence = 6.0 * math.sqrt(
        math.log(4.0 / inputs.delta) * inputs.loss_bound**2 / 2.0
    )
    return complexity + disagreement + confidence * effective

