"""Exact flipped-label relaxation, independent of the program's solver.

The program estimates a source-vs-reference discrepancy by minimizing the
ridge-stabilized weighted squared loss over the merged sample in which the
source rows carry negated labels (weights 1/m_src and 1/m_ref), then scoring
the sign classifier of the minimizer. Here the same problem is solved
directly with `np.linalg.lstsq`: the objective

    sum_j s_j (w . x_j + b - y_j)^2 + (ridge / 2) ||w||^2

is the squared norm of the stacked residual [sqrt(s) * (X w + b - y);
sqrt(ridge / 2) * w], with the bias left unregularized.
"""

from __future__ import annotations

import numpy as np

RELAX_RIDGE = 1e-6


def exact_relaxation(source_x, source_y, ref_x, ref_y, ridge: float = RELAX_RIDGE):
    """Minimizer (w, b) of the flipped-label relaxation."""
    m_src, m_ref = len(source_y), len(ref_y)
    d = source_x.shape[1]
    x = np.vstack([source_x, ref_x])
    y = np.concatenate([-np.asarray(source_y), np.asarray(ref_y)])
    root = np.sqrt(np.concatenate([np.full(m_src, 1.0 / m_src), np.full(m_ref, 1.0 / m_ref)]))
    design = np.zeros((m_src + m_ref + d, d + 1))
    design[: m_src + m_ref, :d] = x * root[:, None]
    design[: m_src + m_ref, d] = root
    design[m_src + m_ref:, :d] = np.sqrt(ridge / 2.0) * np.eye(d)
    target = np.concatenate([y * root, np.zeros(d)])
    theta = np.linalg.lstsq(design, target, rcond=None)[0]
    return theta[:d], float(theta[d])


def exact_discrepancy(source_x, source_y, ref_x, ref_y, ridge: float = RELAX_RIDGE) -> float:
    """clamp(1 - r, 0, 1), r the merged-sample 0/1 risk of the exact minimizer's
    sign classifier (ties at 0 go to +1), from integer mistake counts."""
    w, b = exact_relaxation(source_x, source_y, ref_x, ref_y, ridge)
    src_pred = np.where(source_x @ w + b >= 0.0, 1.0, -1.0)
    ref_pred = np.where(ref_x @ w + b >= 0.0, 1.0, -1.0)
    miss_src = int(np.sum(src_pred != -np.asarray(source_y)))
    miss_ref = int(np.sum(ref_pred != np.asarray(ref_y)))
    m_src, m_ref = len(source_y), len(ref_y)
    risk = (miss_src * m_ref + miss_ref * m_src) / (m_src * m_ref)
    risk = min(max(risk, 0.0), 1.0)
    return min(max(1.0 - risk, 0.0), 1.0)
