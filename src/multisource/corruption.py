"""Seed-deterministic corruption generators for poisoning experiments.

Three corruption kinds act on a chosen fraction p of a dataset's rows:

  label_bias        the chosen rows all get label +1
  shuffled_labels   the chosen rows' labels are permuted among themselves
  shuffled_features one feature-index permutation is applied to every chosen row

Inputs are never modified; corrupting the same dataset with the same spec
twice yields bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, SourcePool, _derive_seed

__all__ = ["CORRUPTION_KINDS", "CorruptionSpec", "corrupt", "corrupt_pool"]

CORRUPTION_KINDS = ("label_bias", "shuffled_labels", "shuffled_features")


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    proportion: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if not (0.0 < self.proportion <= 1.0):
            raise ValueError("proportion must lie in (0, 1]")


def _chosen_rows(rng: np.random.Generator, n: int, proportion: float) -> np.ndarray:
    share = proportion * n
    # 0.28 * 25 is 7.000000000000001 in floating point; it means 7 rows, not 8
    whole = round(share)
    count = whole if math.isclose(share, whole, rel_tol=1e-12) else math.ceil(share)
    return rng.choice(n, size=min(count, n), replace=False)


def corrupt(data: Dataset, spec: CorruptionSpec) -> Dataset:
    """Return a corrupted copy of `data`; sample count and feature count
    are always preserved."""
    rng = np.random.default_rng(spec.seed)
    rows = _chosen_rows(rng, data.n_samples, spec.proportion)

    if spec.kind == "label_bias":
        labels = data.labels.copy()
        labels[rows] = 1.0
        return Dataset(data.features, labels)

    if spec.kind == "shuffled_labels":
        labels = data.labels.copy()
        labels[rows] = labels[rows][rng.permutation(rows.size)]
        return Dataset(data.features, labels)

    # shuffled_features: one permutation shared by every chosen row
    perm = rng.permutation(data.n_features)
    features = data.features.copy()
    features[rows] = features[np.ix_(rows, perm)]
    return Dataset(features, data.labels)


def corrupt_pool(
    pool: SourcePool, n_corrupted: int, spec: CorruptionSpec, seed: int
) -> tuple[SourcePool, list[int]]:
    """Corrupt `n_corrupted` seed-chosen sources; the reference is never touched.

    Each chosen source is corrupted with its own seed derived from
    (spec.seed, source index), so shuffles are independent across sources.
    Returns the new pool and the sorted indices of the corrupted sources.
    """
    if not (0 <= n_corrupted <= pool.n_sources):
        raise ValueError(
            f"n_corrupted={n_corrupted} outside [0, {pool.n_sources}]"
        )
    if n_corrupted == 0:
        return pool, []
    rng = np.random.default_rng(seed)
    chosen = sorted(int(i) for i in rng.choice(pool.n_sources, n_corrupted, replace=False))
    sources = list(pool.sources)
    for i in chosen:
        per_source = replace(spec, seed=_derive_seed(spec.seed, i))
        sources[i] = corrupt(sources[i], per_source)
    return SourcePool(tuple(sources), pool.reference), chosen
