"""Dataset containers, validation, deterministic splitting, and CSV ingestion.

Labels live in {-1, +1} everywhere inside the library; {0, 1} files are
converted at the CSV boundary. All randomized operations are pure functions
of their inputs and an explicit 64-bit seed (see `_derive_seed`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "Dataset",
    "SourcePool",
    "CsvFormatError",
    "RaggedRowError",
    "BadNumericCellError",
    "BadLabelError",
    "load_csv",
    "save_csv",
    "merge",
    "split",
    "kfold_indices",
]

LABEL_ENCODINGS: dict[str, dict[float, float]] = {
    "signed": {-1.0: -1.0, 1.0: 1.0},
    "zero_one": {0.0: -1.0, 1.0: 1.0},
}


def _derive_seed(*parts: int) -> int:
    """The explicit 64-bit seed of a randomized operation, derived from integer
    parts (each reduced mod 2**64) so that distinct parts give independent
    streams."""
    entropy = [int(p) & (2**64 - 1) for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


class CsvFormatError(ValueError):
    """Malformed CSV input; the message names the offending row or column."""


class RaggedRowError(CsvFormatError):
    pass


class BadNumericCellError(CsvFormatError):
    pass


class BadLabelError(CsvFormatError):
    pass


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature matrix with binary labels in {-1, +1}.

    Arrays are copied at construction, validated (finite features, signed
    labels, consistent shapes), and marked read-only so instances can be
    shared freely across threads.
    """

    features: np.ndarray
    labels: np.ndarray
    source_id: str | None = None

    def __post_init__(self) -> None:
        features = np.array(self.features, dtype=np.float64, copy=True)
        labels = np.array(self.labels, dtype=np.float64, copy=True)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if features.shape[1] < 1:
            raise ValueError("datasets need at least one feature column")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"label count {labels.shape} does not match {features.shape[0]} rows"
            )
        if not np.isfinite(features).all():
            bad = np.argwhere(~np.isfinite(features))[0]
            raise ValueError(f"non-finite feature value at row {bad[0]}, column {bad[1]}")
        if labels.size and not np.all(np.abs(labels) == 1.0):
            bad_row = int(np.flatnonzero(np.abs(labels) != 1.0)[0])
            raise ValueError(f"label at row {bad_row} is {labels[bad_row]!r}, not -1 or +1")
        features.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices: np.ndarray | Sequence[int]) -> "Dataset":
        """Row subset in the given index order."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.features[idx], self.labels[idx], source_id=self.source_id)

    def with_arrays(
        self, features: np.ndarray | None = None, labels: np.ndarray | None = None
    ) -> "Dataset":
        return Dataset(
            self.features if features is None else features,
            self.labels if labels is None else labels,
            source_id=self.source_id,
        )


@dataclass(frozen=True, eq=False)
class SourcePool:
    """An ordered collection of source datasets plus one trusted reference."""

    sources: tuple[Dataset, ...]
    reference: Dataset

    def __post_init__(self) -> None:
        sources = tuple(self.sources)
        if len(sources) < 1:
            raise ValueError("a pool needs at least one source")
        d = self.reference.n_features
        for i, src in enumerate(sources):
            if src.n_features != d:
                raise ValueError(
                    f"source {i} has {src.n_features} features, reference has {d}"
                )
            if src.n_samples < 1:
                raise ValueError(f"source {i} is empty")
        object.__setattr__(self, "sources", sources)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_features(self) -> int:
        return self.reference.n_features

    @property
    def sample_counts(self) -> np.ndarray:
        return np.array([s.n_samples for s in self.sources], dtype=np.int64)


def _resolve_encoding(label_encoding: str | Mapping[float, float]) -> dict[float, float]:
    if isinstance(label_encoding, str):
        try:
            return LABEL_ENCODINGS[label_encoding]
        except KeyError:
            raise ValueError(
                f"unknown label encoding {label_encoding!r}; "
                f"expected one of {sorted(LABEL_ENCODINGS)} or an explicit mapping"
            ) from None
    table = {float(k): float(v) for k, v in label_encoding.items()}
    if any(v not in (-1.0, 1.0) for v in table.values()):
        raise ValueError("label encodings must map onto {-1, +1}")
    return table


def load_csv(
    path: str | Path,
    label_column: str = "label",
    label_encoding: str | Mapping[float, float] = "signed",
    source_id: str | None = None,
) -> Dataset:
    """Read a header-row CSV into a validated Dataset.

    Lines starting with '#' are skipped. Every non-label column must parse
    as a float; labels are mapped through `label_encoding` ("signed",
    "zero_one", or an explicit value -> {-1,+1} mapping). Errors name the
    offending 1-based data row and the column.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    encoding = _resolve_encoding(label_encoding)

    with path.open(newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise CsvFormatError(f"{path}: no header row found")
    header = [c.strip() for c in rows[0]]
    if label_column not in header:
        raise CsvFormatError(f"{path}: label column {label_column!r} not in header {header}")
    label_idx = header.index(label_column)
    feature_names = [c for i, c in enumerate(header) if i != label_idx]
    if not feature_names:
        raise CsvFormatError(f"{path}: no feature columns besides {label_column!r}")

    n_cols = len(header)
    features = np.empty((len(rows) - 1, n_cols - 1), dtype=np.float64)
    labels = np.empty(len(rows) - 1, dtype=np.float64)
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != n_cols:
            raise RaggedRowError(f"{path}: row {r} has {len(row)} cells, expected {n_cols}")
        k = 0
        for c, cell in enumerate(row):
            if c == label_idx:
                continue
            try:
                features[r - 1, k] = float(cell)
            except ValueError:
                raise BadNumericCellError(
                    f"{path}: row {r}, column {header[c]!r}: cannot parse {cell!r}"
                ) from None
            k += 1
        try:
            raw = float(row[label_idx])
        except ValueError:
            raise BadLabelError(
                f"{path}: row {r}: label {row[label_idx]!r} is not numeric"
            ) from None
        if raw not in encoding:
            raise BadLabelError(
                f"{path}: row {r}: label {raw!r} not covered by the declared encoding"
            )
        labels[r - 1] = encoding[raw]
    if not np.isfinite(features).all():
        r, k = np.argwhere(~np.isfinite(features))[0]
        raise BadNumericCellError(
            f"{path}: row {r + 1}, column {feature_names[k]!r}: "
            f"non-finite value {features[r, k]}"
        )
    return Dataset(features, labels, source_id=source_id)


def save_csv(dataset: Dataset, path: str | Path, label_column: str = "label") -> None:
    """Write `dataset` as CSV with 17-significant-digit numbers (round-trip safe)."""
    path = Path(path)
    names = [f"f{j}" for j in range(dataset.n_features)] + [label_column]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for x, y in zip(dataset.features, dataset.labels):
            writer.writerow([f"{v:.17g}" for v in x] + [f"{y:.17g}"])


def merge(datasets: Sequence[Dataset], source_id: str | None = None) -> Dataset:
    """Concatenate datasets row-wise (feature dimensions must agree)."""
    if not datasets:
        raise ValueError("nothing to merge")
    feats = np.vstack([d.features for d in datasets])
    labels = np.concatenate([d.labels for d in datasets])
    return Dataset(feats, labels, source_id=source_id)


def _largest_remainder_sizes(n: int, fractions: Sequence[float]) -> np.ndarray:
    quotas = np.asarray(fractions, dtype=np.float64) * n
    base = np.floor(quotas).astype(np.int64)
    leftover = n - int(base.sum())
    # stable sort: remainder ties resolved by position
    order = np.argsort(-(quotas - base), kind="stable")
    base[order[:leftover]] += 1
    return base


def split(dataset: Dataset, fractions: Sequence[float], seed: int) -> list[Dataset]:
    """Seed-deterministic disjoint partition with largest-remainder sizing."""
    fractions = [float(f) for f in fractions]
    if not fractions or any(f <= 0 for f in fractions):
        raise ValueError("fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions sum to {sum(fractions)}, not 1")
    if dataset.n_samples < len(fractions):
        raise ValueError(
            f"cannot split {dataset.n_samples} samples into {len(fractions)} parts"
        )
    sizes = _largest_remainder_sizes(dataset.n_samples, fractions)
    perm = np.random.default_rng(seed).permutation(dataset.n_samples)
    parts = []
    start = 0
    for size in sizes:
        parts.append(dataset.take(perm[start : start + size]))
        start += size
    return parts


def kfold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Partition {0..n-1} into k seed-deterministic folds, sizes within 1."""
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > n:
        raise ValueError(f"cannot build {k} folds from {n} samples")
    perm = np.random.default_rng(seed).permutation(n)
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    folds = []
    start = 0
    for size in sizes:
        folds.append(np.sort(perm[start : start + size]))
        start += size
    return folds
