"""Dataset containers, validation, deterministic folds, and CSV ingestion.

Labels live in {-1, +1} everywhere inside the library. A CSV file writes
its negative class as -1 or as 0, and each file is read by its own labels:
1 maps to +1, and -1 and 0 both map to -1, but one file may not use both.
All randomized operations are pure functions of their inputs and an
explicit 64-bit seed (see `_derive_seed`).

A CSV file is read as JSON numbers by orjson, 256 data lines per call,
else by the per-cell loop `_load_csv_per_cell`, which also locates a fault
(a `CsvFormatError` naming the file, row and column). Before the JSON
parse, `_plain_lines` reads the file with universal newlines, screens its
whole text with string searches for what sends it to the loop (a quote, a
field over csv's field size limit) and tests lines one by one for a
comment only when the text holds a '#'. Both readers skip a leading UTF-8
BOM. `rewrite_csv` writes a changed copy of a file from the lines it read,
formatting only the cells the change moved, a block of lines per write.

`load_csvs` parses a command's files in forked readers through
`_fork.forked`, and each reader sends a file back as its shape and raw
float64 bytes.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from ._fork import forked

__all__ = [
    "Dataset",
    "SourcePool",
    "CsvFormatError",
    "load_csv",
    "load_csvs",
    "rewrite_csv",
    "merge",
    "kfold_indices",
]

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

    Arrays are copied at construction, validated (a row and a feature column
    at least, finite features, signed labels, consistent shapes), and marked
    read-only so instances can be shared freely across threads. As every
    Dataset has a row, no consumer checks for an empty sample.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = np.array(self.features, dtype=np.float64, copy=True)
        labels = np.array(self.labels, dtype=np.float64, copy=True)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if features.shape[0] < 1:
            raise ValueError("datasets need at least one row")
        if features.shape[1] < 1:
            raise ValueError("datasets need at least one feature column")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"label count {labels.shape} does not match {features.shape[0]} rows"
            )
        if not np.isfinite(features).all():
            bad = np.argwhere(~np.isfinite(features))[0]
            raise ValueError(f"non-finite feature value at row {bad[0]}, column {bad[1]}")
        if not (np.abs(labels) == 1.0).all():
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
    """Ordered source datasets plus one trusted reference, all of one width."""

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


def load_csv(path: str | Path, label_column: str = "label") -> Dataset:
    """Read a header-row CSV into a validated Dataset.

    A leading UTF-8 BOM, blank lines and lines whose first cell starts with
    '#' are skipped. Every non-label column must parse as a finite float.
    A label is 1, -1 or 0 (so -0 and 1.0 too): 1 maps to +1, and -1 and 0
    both map to -1, but a file that writes its negative class both ways is
    rejected. A header that repeats a name is rejected.

    The file is read as JSON numbers by orjson, else by the per-cell loop:
    a cell that is no JSON number (`+4`, `.5`, `nan`) or a quoted cell sends
    the file to the loop, which raises the error that names the offending
    1-based data row and column, or returns its result. Both readers raise
    one that names the file for a file with no data row, a field over csv's
    field size limit, or text that is not UTF-8.
    """
    path = _existing(path)
    data = _parse_plain(path, _plain_lines(path), label_column)
    return data if data is not None else Dataset(*_load_csv_per_cell(path, label_column))


def rewrite_csv(source: str | Path, target: str | Path, change: Callable[[Dataset], Dataset],
                label_column: str = "label") -> None:
    """Write `change(load_csv(source, label_column))` to `target` as the rows of
    `source`: its header and data rows, less blank and comment rows, with CRLF
    line ends. Every label cell is written as 1 or -1, and every feature cell
    whose value the change moved (compared bit for bit) as `%.17g`; every other
    cell keeps its text. So `load_csv` of `target` is the changed dataset, bit
    for bit. `change` must keep the row and feature counts.

    `source` is read once, and checked and changed before `target` is opened,
    so an invalid input (one with no data row too) leaves `target` as it
    was, and `target` may be `source`. A file read as JSON numbers by orjson
    (no cell of it needs quoting) is written `_BLOCK_ROWS` lines per write,
    each line split and joined at its commas, except in a label-last file's
    blocks with no moved feature, whose lines keep their text up to the last
    comma. Any file read by the per-cell loop goes through csv.reader and
    csv.writer, which quote a cell only where they must.
    """
    source, target = _existing(source), Path(target)
    lines = _plain_lines(source)
    data = _parse_plain(source, lines, label_column)
    plain = data is not None
    if not plain:  # csv.reader's rows, as lists of cells
        lines = _csv_rows(source)
        data = Dataset(*_parse_cells(source, lines, label_column))
    header = lines.pop(0)
    label_idx = _parse_header(source, header.split(",") if plain else header, label_column)[1]
    labels, texts = _changed_cells(data, change(data), label_idx)

    def cells(r: int, row: list[str]) -> list[str]:  # data row r's cells, rewritten in place
        row[label_idx] = labels[r]
        for c, text in texts.get(r, ()):
            row[c] = text
        return row

    with target.open("w", newline="", encoding="utf-8") as fh:
        if not plain:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(map(cells, range(len(lines)), lines))
            return
        fh.write(header + "\r\n")
        label_last = label_idx == header.count(",")
        moved_blocks = {r // _BLOCK_ROWS for r in texts}
        for first in range(0, len(lines), _BLOCK_ROWS):
            block = lines[first:first + _BLOCK_ROWS]
            if label_last and first // _BLOCK_ROWS not in moved_blocks:
                # no cell holds a comma, so the label cell is all after the last one
                out = [line[:line.rindex(",") + 1] + y
                       for line, y in zip(block, labels[first:first + _BLOCK_ROWS])]
            else:
                out = [",".join(cells(r, line.split(","))) for r, line in enumerate(block, first)]
            fh.write("\r\n".join(out) + "\r\n")


def _changed_cells(data: Dataset, changed: Dataset,
                   label_idx: int) -> tuple[list[str], dict[int, list[tuple[int, str]]]]:
    """The changed dataset's label cells, 1 or -1, and the (column, `%.17g`)
    cells of each data row whose features it moved (compared bit for bit)."""
    if changed.features.shape != data.features.shape:
        raise ValueError(f"the change turned a {data.features.shape} table into a "
                         f"{changed.features.shape} one")
    labels = ["1" if y == 1.0 else "-1" for y in changed.labels.tolist()]
    moved = changed.features.view(np.uint64) != data.features.view(np.uint64)
    columns = [c for c in range(data.n_features + 1) if c != label_idx]
    texts = {int(r): [(columns[j], "%.17g" % changed.features[r, j])
                      for j in np.flatnonzero(moved[r])]
             for r in np.flatnonzero(moved.any(axis=1))}
    return labels, texts


def _existing(path: str | Path) -> Path:
    """`path` as a Path, or FileNotFoundError naming it."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    return path


def _parse_plain(path: Path, lines: list[str] | None, label_column: str) -> Dataset | None:
    """The Dataset of `_plain_lines`' lines read as JSON numbers, or None when
    the per-cell loop must read the file (one with no data line too, for its
    error). A bad header raises here."""
    if lines is None or len(lines) < 2:
        return None
    header, label_idx = _parse_header(path, lines[0].split(","), label_column)
    parsed = _parse_plain_rows(lines[1:], len(header), label_idx)
    return None if parsed is None else Dataset(*parsed)


def _plain_lines(path: Path) -> list[str] | None:
    """The header and data lines of the file: the rows csv.reader would give,
    less blank and comment rows, as unsplit lines for the JSON parse; None
    sends the file to the per-cell loop.

    The file is decoded whole, less a leading UTF-8 BOM, with universal
    newlines: CRLF and a lone CR both end a line, as each ends a csv.reader
    row. The text is screened by string searches over the whole of it. None
    when splitting at line ends and commas would not give csv.reader's cells
    (a quote, or a field longer than csv's field size limit, on which
    csv.reader raises even in a comment; only a line over the limit is split
    to look for one), or when it is not UTF-8; the loop raises the error
    that names the file for both. Lines are tested one by one for a comment
    only when the text holds a '#'.
    """
    with path.open(encoding="utf-8-sig") as fh:  # universal newlines
        try:
            text = fh.read()
        except UnicodeDecodeError:
            return None
    if '"' in text:
        return None
    lines = text.split("\n")
    limit = csv.field_size_limit()
    if max(map(len, lines)) > limit and any(
            max(map(len, line.split(","))) > limit for line in lines if len(line) > limit):
        return None
    if "#" not in text:
        return list(filter(None, lines))
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


_BLOCK_ROWS = 256  # data lines per orjson call, whose lists are held at once
# a cell ending in -0: no '.', digit, e or E after (a lookbehind would take 8x the time)
_MINUS_ZERO_END = re.compile(r"-0(?=\s*(?:,|$))", re.MULTILINE)


def _parse_plain_rows(
    rows: list[str], n_cols: int, label_idx: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """(features, labels) of unquoted data lines, each read as a JSON array,
    `_BLOCK_ROWS` lines per orjson call; None when a block is not n_cols JSON
    numbers per line, a label not 1, -1 or 0, the labels hold both -1 and 0,
    or a feature is non-finite.

    JSON's numbers are a subset of `float()`'s grammar, and orjson rounds
    them as `float()` does, except that it reads the integer -0 as 0: so
    lines with a feature cell -0 are None too, searched for only when the text
    holds "-0" and a feature is 0. A block that holds a t, f, n or [ is None,
    so that no true, false, null or nested array reads as a number.
    """
    import orjson  # here, not at the top, which would grow every CLI process

    table = np.empty((len(rows), n_cols), dtype=np.float64)
    minus_zero = False
    for first in range(0, len(rows), _BLOCK_ROWS):
        block = rows[first:first + _BLOCK_ROWS]
        text = "],[".join(block)
        if any(c in text for c in "tfn") or "[" in "".join(block):
            return None
        try:
            part = np.array(orjson.loads("[[" + text + "]]"), dtype=np.float64)
        except (ValueError, TypeError):  # orjson's decode error is a ValueError
            return None
        if part.shape != (len(block), n_cols):
            return None
        table[first:first + len(block)] = part
        minus_zero = minus_zero or "-0" in text
    raw = table[:, label_idx]
    mixed = (raw == -1.0).any() and (raw == 0.0).any()
    if mixed or not np.isin(raw, (1.0, -1.0, 0.0)).all():
        return None
    features = np.delete(table, label_idx, axis=1)
    if not np.isfinite(features).all():
        return None
    if minus_zero and (features == 0.0).any():  # is a feature cell an integer -0?
        text = "\n".join(rows)
        heads = (text[text.rfind("\n", 0, m.start()) + 1:m.start()]  # each -0's line up to it
                 for m in _MINUS_ZERO_END.finditer(text))
        if any(not h.rsplit(",", 1)[-1].strip() and h.count(",") != label_idx for h in heads):
            return None
    labels = np.full_like(raw, -1.0)  # np.where here raised the benchmark's peak RSS
    labels[raw == 1.0] = 1.0
    return features, labels


def _load_csv_per_cell(path: Path, label_column: str) -> tuple[np.ndarray, np.ndarray]:
    """The reference reader: csv.reader rows, one `float()` per cell. Raises
    an error naming the first offending row and column."""
    return _parse_cells(path, _csv_rows(path), label_column)


def _csv_rows(path: Path) -> list[list[str]]:
    """csv.reader's rows of the file, less blank and comment rows; a field
    over csv's field size limit, or text that is not UTF-8, is named."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            return [r for r in reader if r and not r[0].lstrip().startswith("#")]
        except csv.Error as exc:  # not a ValueError
            raise CsvFormatError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_cells(path: Path, rows: list[list[str]],
                 label_column: str) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) of `_csv_rows`' rows, one `float()` per cell."""
    if not rows:
        raise CsvFormatError(f"{path}: no header row found")
    header, label_idx = _parse_header(path, rows[0], label_column)
    if len(rows) < 2:
        raise CsvFormatError(f"{path}: no data rows")
    feature_names = [c for i, c in enumerate(header) if i != label_idx]

    n_cols = len(header)
    features = np.empty((len(rows) - 1, n_cols - 1), dtype=np.float64)
    labels = np.empty(len(rows) - 1, dtype=np.float64)
    negative = None  # the first negative label, -1.0 or 0.0
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
            raw = float(row[label_idx]) + 0.0  # -0 reads as 0
        except ValueError:
            raise CsvFormatError(
                f"{path}: row {r}: label {row[label_idx]!r} is not numeric"
            ) from None
        if raw not in (1.0, -1.0, 0.0):
            raise CsvFormatError(f"{path}: row {r}: label {raw!r} is not 1, -1 or 0")
        if negative is None and raw != 1.0:
            negative = raw
        if raw not in (1.0, negative):
            raise CsvFormatError(
                f"{path}: row {r}: label {raw!r}, but an earlier row has {negative!r}; "
                "write the negative class as -1 or as 0, not both"
            )
        labels[r - 1] = 1.0 if raw == 1.0 else -1.0
    if not np.isfinite(features).all():
        r, k = np.argwhere(~np.isfinite(features))[0]
        raise CsvFormatError(
            f"{path}: row {r + 1}, column {feature_names[k]!r}: "
            f"non-finite value {features[r, k]}"
        )
    return features, labels


def load_csvs(paths: Sequence[str | Path], label_column: str = "label") -> Iterator[Dataset]:
    """`load_csv(path, label_column)` of each path, in order, as a generator.

    The files are parsed by `_fork.forked` in up to one reader process per
    usable CPU, none of them this one (a parent that parses files made
    `discrepancy` slower), and each comes back as its shape and raw float64
    bytes. So every result, and every error with its order, is the one of
    `load_csv` called on each path in turn.

    Read the generator to its end or close it (`contextlib.closing`): either
    closes the pipes, then kills and reaps every reader.
    """
    import orjson  # noqa: F401 -- imported before the readers fork, so each inherits it
    return forked(lambda path: load_csv(path, label_column), paths,
                  _pack_dataset, _unpack_dataset)


def _pack_dataset(data: Dataset) -> bytes:
    """The (rows, cols) of `data` as two int64, then its features' and labels'
    float64 bytes."""
    return b"".join([np.array(data.features.shape, dtype=np.int64).tobytes(),
                     data.features.tobytes(), data.labels.tobytes()])


def _unpack_dataset(frame: bytes) -> Dataset:
    """The Dataset of `_pack_dataset`'s bytes."""
    rows, cols = np.frombuffer(frame, dtype=np.int64, count=2)
    values = np.frombuffer(frame, dtype=np.float64, offset=16)
    return Dataset(values[:rows * cols].reshape(rows, cols), values[rows * cols:])


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
