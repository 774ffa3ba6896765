"""Dataset containers, validation, deterministic folds, and CSV ingestion.

Labels live in {-1, +1} everywhere inside the library; {0, 1} files are
converted at the CSV boundary. All randomized operations are pure functions
of their inputs and an explicit 64-bit seed (see `_derive_seed`).

A CSV file is parsed with one numpy call and written in one formatting
pass; the per-cell loop `_load_csv_per_cell` runs only to locate a fault
(a `CsvFormatError` naming the file, row and column) or to read input that
the numpy parse does not model.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "Dataset",
    "SourcePool",
    "CsvFormatError",
    "load_csv",
    "save_csv",
    "merge",
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
    """Malformed CSV input; the message names the file and the row or column."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature matrix with binary labels in {-1, +1}.

    Arrays are copied at construction, validated (finite features, signed
    labels, consistent shapes), and marked read-only so instances can be
    shared freely across threads.
    """

    features: np.ndarray
    labels: np.ndarray

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
        return Dataset(self.features[idx], self.labels[idx])


@dataclass(frozen=True, eq=False)
class SourcePool:
    """An ordered collection of source datasets plus one trusted reference."""

    sources: tuple[Dataset, ...]
    reference: Dataset

    def __post_init__(self) -> None:
        sources = tuple(self.sources)
        if len(sources) < 1:
            raise ValueError("a pool needs at least one source")
        if self.reference.n_samples < 1:
            raise ValueError("the reference is empty")
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


def _resolve_encoding(label_encoding: str) -> dict[float, float]:
    if isinstance(label_encoding, str) and label_encoding in LABEL_ENCODINGS:
        return LABEL_ENCODINGS[label_encoding]
    raise ValueError(
        f"unknown label encoding {label_encoding!r}; expected one of {sorted(LABEL_ENCODINGS)}"
    )


def load_csv(
    path: str | Path,
    label_column: str = "label",
    label_encoding: str = "signed",
) -> Dataset:
    """Read a header-row CSV into a validated Dataset.

    Blank lines and lines whose first cell starts with '#' are skipped. Every
    non-label column must parse as a finite float; labels are mapped through
    `label_encoding`, "signed" ({-1, 1}) or "zero_one" ({0, 1}). A header
    that repeats a name is rejected.

    The data rows are parsed with one `np.loadtxt` call. Only when that
    fails, or the file quotes a cell or breaks lines in a way the fast path
    does not model, does the per-cell loop run: it raises the error that
    names the offending 1-based data row and column, or returns its own
    result where `float()` accepts a cell that numpy does not (`1_0`).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    encoding = _resolve_encoding(label_encoding)

    lines = _plain_lines(path)
    # a header-only file is left to the loop: np.loadtxt warns on no data
    if lines is not None and len(lines) > 1:
        header, label_idx = _parse_header(path, lines[0].split(","), label_column)
        parsed = _parse_plain_rows(lines[1:], len(header), label_idx, encoding)
        if parsed is not None:
            return Dataset(*parsed)
    return Dataset(*_load_csv_per_cell(path, label_column, encoding))


def _plain_lines(path: Path) -> list[str] | None:
    """The header and data lines of the file: the rows csv.reader would give,
    less blank and comment rows, as unsplit lines.

    None when splitting at line ends and commas would not give csv.reader's
    cells (a quote, a carriage return outside CRLF, or a line longer than
    csv's field size limit, on which csv.reader raises even in a comment),
    when the text holds one of the separators \\x1c-\\x1f, which numpy
    strips from a number as whitespace but `float()` rejects, or when it is
    not UTF-8 (the loop's error gives the offset within the chunk it read).
    """
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            return None
    if any(c in text for c in '"\x1c\x1d\x1e\x1f') or text.count("\r") != text.count("\r\n"):
        return None
    text = text.replace("\r\n", "\n")  # rebound so that the CRLF original is freed
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    return [line for line in lines if line and not line.lstrip().startswith("#")]


def _parse_header(path: Path, row: list[str], label_column: str) -> tuple[list[str], int]:
    """The stripped column names and the label column's index."""
    header = [c.strip() for c in row]
    if label_column not in header:
        raise CsvFormatError(f"{path}: label column {label_column!r} not in header {header}")
    if len(set(header)) != len(header):
        repeated = next(c for c in header if header.count(c) > 1)
        raise CsvFormatError(f"{path}: column {repeated!r} appears more than once in header")
    if len(header) < 2:
        raise CsvFormatError(f"{path}: no feature columns besides {label_column!r}")
    return header, header.index(label_column)


def _parse_plain_rows(
    rows: list[str], n_cols: int, label_idx: int, encoding: dict[float, float]
) -> tuple[np.ndarray, np.ndarray] | None:
    """(features, labels) of unquoted data lines in one numpy parse, or None
    when a line is malformed, a label unmapped or a feature non-finite."""
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(rows), n_cols):
        return None
    raw = table[:, label_idx]
    if not np.isin(raw, list(encoding)).all():
        return None
    features = np.delete(table, label_idx, axis=1)
    if not np.isfinite(features).all():
        return None
    labels = np.empty_like(raw)
    for value, label in encoding.items():
        labels[raw == value] = label
    return features, labels


def _load_csv_per_cell(
    path: Path, label_column: str, encoding: dict[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """The reference reader: csv.reader rows, one `float()` per cell. Raises
    an error naming the first offending row and column."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise CsvFormatError(f"{path}: no header row found")
    header, label_idx = _parse_header(path, rows[0], label_column)
    feature_names = [c for i, c in enumerate(header) if i != label_idx]

    n_cols = len(header)
    features = np.empty((len(rows) - 1, n_cols - 1), dtype=np.float64)
    labels = np.empty(len(rows) - 1, dtype=np.float64)
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != n_cols:
            raise CsvFormatError(f"{path}: row {r} has {len(row)} cells, expected {n_cols}")
        k = 0
        for c, cell in enumerate(row):
            if c == label_idx:
                continue
            try:
                features[r - 1, k] = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {r}, column {header[c]!r}: cannot parse {cell!r}"
                ) from None
            k += 1
        try:
            raw = float(row[label_idx])
        except ValueError:
            raise CsvFormatError(
                f"{path}: row {r}: label {row[label_idx]!r} is not numeric"
            ) from None
        if raw not in encoding:
            raise CsvFormatError(
                f"{path}: row {r}: label {raw!r} not covered by the declared encoding"
            )
        labels[r - 1] = encoding[raw]
    if not np.isfinite(features).all():
        r, k = np.argwhere(~np.isfinite(features))[0]
        raise CsvFormatError(
            f"{path}: row {r + 1}, column {feature_names[k]!r}: "
            f"non-finite value {features[r, k]}"
        )
    return features, labels


def save_csv(dataset: Dataset, path: str | Path, label_column: str = "label") -> None:
    """Write `dataset` as CSV: columns f0..f{d-1} then `label_column`, every
    number with 17 significant digits (round-trip safe), CRLF line ends.

    The header goes through csv.writer, which quotes an unusual label name;
    the rows are written with one call, formatted one at a time so that no
    copy of the whole text is held.
    """
    path = Path(path)
    names = [f"f{j}" for j in range(dataset.n_features)]
    if not label_column or label_column != label_column.strip():
        # load_csv strips header cells, so it could never find this column
        raise ValueError(f"label column {label_column!r} is empty or has surrounding whitespace")
    if label_column in names:
        raise ValueError(f"label column {label_column!r} collides with a feature column name")
    row = ",".join(["%.17g"] * (dataset.n_features + 1)) + "\r\n"
    table = np.column_stack([dataset.features, dataset.labels])
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(names + [label_column])
        fh.writelines(row % tuple(values.tolist()) for values in table)


def merge(datasets: Sequence[Dataset]) -> Dataset:
    """Concatenate datasets row-wise (feature dimensions must agree)."""
    if not datasets:
        raise ValueError("nothing to merge")
    feats = np.vstack([d.features for d in datasets])
    labels = np.concatenate([d.labels for d in datasets])
    return Dataset(feats, labels)


def kfold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Partition {0..n-1} into k seed-deterministic folds, sizes within 1."""
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > n:
        raise ValueError(f"cannot build {k} folds from {n} samples")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(fold) for fold in np.array_split(perm, k)]
