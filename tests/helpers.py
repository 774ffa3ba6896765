"""Shared test utilities: independent oracles and small statistics helpers."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict

import numpy as np

from multisource.data import Dataset
from multisource.discrepancy import RELAX_RIDGE, moments
from multisource.harness import ExperimentConfig, SyntheticSpec
from multisource.weights import WeightProblem

ORACLE_MAX_POINTS = 200


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


def config_to_json(config: ExperimentConfig) -> str:
    """The JSON text that `harness.config_from_json` reads back as `config`."""
    obj = asdict(config)
    kind = "synthetic" if isinstance(config.data, SyntheticSpec) else "csv_paths"
    obj["data"] = {kind: obj["data"]}
    return json.dumps(obj, indent=2)


def write_csv(dataset: Dataset, path, label_column: str = "label") -> None:
    """Write `dataset` to `path` as csv.writer rows: columns f0..f{d-1} then
    `label_column`, every number as `%.17g` (round-trip safe), CRLF line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(dataset.n_features)] + [label_column])
        for x, y in zip(dataset.features.tolist(), dataset.labels.tolist()):
            writer.writerow([f"{v:.17g}" for v in x] + [f"{y:.17g}"])


def zero_one_copy(signed, path):
    """`path`, a copy of the `write_csv` file `signed` with its -1 labels written as 0."""
    path.write_bytes(signed.read_bytes().replace(b",-1\r\n", b",0\r\n"))
    assert path.read_bytes() != signed.read_bytes()
    return path


def weight_objective(problem: WeightProblem, lam: float, alpha: np.ndarray) -> float:
    """The weighting objective sum_i alpha_i d_i + lam sqrt(sum_i alpha_i^2 / m_i)."""
    a = np.asarray(alpha, dtype=np.float64)
    return float(
        problem.discrepancies @ a
        + lam * math.sqrt(float(a**2 @ (1.0 / problem.sample_counts)))
    )


def grid_search_objective(problem: WeightProblem, lam: float, resolution: float = 1e-3) -> float:
    """Brute-force minimum of the weighting objective over a simplex grid."""
    grid = simplex_grid(problem.discrepancies.size, resolution)
    linear = grid @ problem.discrepancies
    quad = np.sqrt(grid**2 @ (1.0 / problem.sample_counts))
    return float(np.min(linear + lam * quad))


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


def brute_force_threshold_gap(source: Dataset, reference: Dataset) -> float:
    """Exhaustive 1-D threshold enumeration, independent of `exact_discrepancy_oracle`.

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


def bench_seed(*parts: int) -> int:
    """The benchmark's config seed for these parts (`derive_seed` in bench/workloads.py)."""
    return int(np.random.SeedSequence([int(p) & (2**63 - 1) for p in parts])
               .generate_state(1)[0])


def case2_oracle(source: Dataset, reference: Dataset, rounds: int):
    """One source's case-2 exchange, written plainly: (queries, replies, final theta).

    Each reply is 2 (G q + h) from the source's moments. The learner queries
    theta = 0, then e_0..e_d; the first reply is 2h, and reply j + 2 minus
    the first is column j of 2G. It adds the reference's moments, solves the
    ridged relaxation for theta, and queries theta for the rest of the budget.
    """
    gram_src, moment_src = moments(source)
    gram_ref, moment_ref = moments(reference)
    probes = [np.zeros(source.n_features + 1), *np.eye(source.n_features + 1)]
    queries, replies = [], []
    for query in probes:
        queries.append(query)
        replies.append(2.0 * (gram_src @ query + moment_src))
    gram = np.column_stack([reply - replies[0] for reply in replies[1:]]) / 2.0
    ridge = np.diag([*[RELAX_RIDGE / 2.0] * source.n_features, 0.0])  # on w, not the bias
    theta = np.linalg.solve(gram + gram_ref + ridge, moment_ref - replies[0] / 2.0)
    for _ in range(rounds - len(probes)):
        queries.append(theta)
        replies.append(2.0 * (gram_src @ theta + moment_src))
    return np.array(queries), np.array(replies), theta


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
