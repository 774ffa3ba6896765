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

`WeightProblem` checks d and m; `solve_weights(problem, lam)` returns alpha
as a read-only array, and `excess_risk_bound` evaluates the paper's bound
from alpha and the same problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["WeightProblem", "solve_weights", "excess_risk_bound"]


def _floats(values, out_of_range: str) -> np.ndarray:
    """A float64 copy of `values`; an int too large for a float is `out_of_range`."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(out_of_range) from None


@dataclass(frozen=True, eq=False)
class WeightProblem:
    """The per-source data of the weighting program and of the bound:
    discrepancies in [0, 1] and whole, positive sample counts."""

    discrepancies: np.ndarray
    sample_counts: np.ndarray

    def __post_init__(self) -> None:
        d = _floats(self.discrepancies, "discrepancies must lie in [0, 1]")
        counts = _floats(self.sample_counts, "sample_counts must be whole numbers below 2**53")
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
        d.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "discrepancies", d)
        object.__setattr__(self, "sample_counts", m)


def solve_weights(problem: WeightProblem, lam: float) -> np.ndarray:
    """Exact minimizer of the weighting objective on the simplex, as a
    read-only vector: nonnegative, summing to 1 by construction."""
    if not (0.0 <= lam < math.inf):
        raise ValueError("lam must be finite and nonnegative")
    lam = float(lam)
    d = problem.discrepancies
    m = problem.sample_counts.astype(np.float64)

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
    alpha = raw / total
    alpha.flags.writeable = False
    return alpha


def excess_risk_bound(alpha: np.ndarray, problem: WeightProblem, rademacher_bounds: np.ndarray,
                      loss_bound: float, delta: float) -> float:
    """High-probability excess of the weighted ERM over the best-in-class risk:
    4 sum(a R) + 2 sum(a d) + 6 sqrt(ln(4/delta) M^2 / 2) sqrt(sum(a^2/m)).

    `alpha` must lie on the simplex; entries down to -1e-12 count as 0.
    """
    a = np.array(alpha, dtype=np.float64, copy=True)
    r = np.asarray(rademacher_bounds, dtype=np.float64)
    if not (a.shape == r.shape == problem.discrepancies.shape):
        raise ValueError("alpha, rademacher_bounds and the discrepancies "
                         "must all have the same length")
    if not np.isfinite(a).all():
        raise ValueError("alpha must be finite")
    if np.any(a < -1e-12):
        raise ValueError(f"alpha has a negative entry: {a.min()}")
    np.clip(a, 0.0, None, out=a)
    total = float(a.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"alpha sums to {total}, not 1")
    if not np.all((r >= 0.0) & (r < math.inf)):
        raise ValueError("rademacher_bounds must be finite and nonnegative")
    if not (0.0 < loss_bound < math.inf):
        raise ValueError("loss_bound must be positive and finite")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    complexity = 4.0 * float(a @ r)
    disagreement = 2.0 * float(a @ problem.discrepancies)
    effective = math.sqrt(float(a**2 @ (1.0 / problem.sample_counts)))
    confidence = 6.0 * math.sqrt(math.log(4.0 / delta) * loss_bound**2 / 2.0)
    return complexity + disagreement + confidence * effective

