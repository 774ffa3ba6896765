import contextlib
import csv
import inspect
import itertools
import os
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from helpers import write_csv, zero_one_copy
from multisource import _fork, data
from multisource.corruption import CORRUPTION_KINDS, CorruptionSpec, corrupt
from multisource.data import (
    CsvFormatError,
    Dataset,
    SourcePool,
    kfold_indices,
    load_csv,
    merge,
)


def test_dataset_rejects_bad_labels():
    with pytest.raises(ValueError, match="not -1 or \\+1"):
        Dataset([[1.0], [2.0]], [1.0, 0.0])


def test_dataset_rejects_nonfinite_features():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset([[1.0, np.nan]], [1.0])
    with pytest.raises(ValueError, match="non-finite"):
        Dataset([[np.inf, 0.0]], [1.0])


def test_dataset_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        Dataset([[1.0], [2.0]], [1.0])
    with pytest.raises(ValueError):
        Dataset(np.empty((2, 0)), [1.0, -1.0])
    with pytest.raises(ValueError, match=r"^features must be 2-D, got shape \(2,\)$"):
        Dataset([1.0, 2.0], [1.0, -1.0])


def test_dataset_rejects_zero_rows():
    # every statistic of the method averages over a sample's rows, so the
    # Dataset is the one place that checks for an empty sample
    with pytest.raises(ValueError, match="^datasets need at least one row$"):
        Dataset(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError, match="^datasets need at least one row$"):
        Dataset([[1.0], [2.0]], [1.0, -1.0]).take([])


def test_dataset_is_immutable():
    ds = Dataset([[1.0], [2.0]], [1.0, -1.0])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.labels[0] = -1.0


def test_pool_validation():
    a = Dataset([[1.0]], [1.0])
    b = Dataset([[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError, match="features"):
        SourcePool((a, b), a)
    with pytest.raises(ValueError, match="at least one source"):
        SourcePool((), a)


def test_load_csv_zero_one_encoding(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# comment line\nf0,f1,label\n0.5,1.0,1\n0.25,2.0,0\n1.5,3.0,1\n")
    ds = load_csv(path, "label")
    assert list(ds.labels) == [1.0, -1.0, 1.0]
    assert ds.features.shape == (3, 2)


def test_a_zero_one_copy_loads_to_the_same_bytes_in_both_readers(tmp_path):
    rng = np.random.default_rng(8)
    signed, zero_one = tmp_path / "signed.csv", tmp_path / "zero_one.csv"
    write_csv(Dataset(rng.standard_normal((40, 3)), np.where(rng.random(40) < 0.5, 1.0, -1.0)),
              signed)
    zero_one_copy(signed, zero_one)
    assert b",-1\r\n" not in zero_one.read_bytes()
    expected = load_csv(signed)
    for path in (signed, zero_one):
        quoted = tmp_path / f"quoted_{path.name}"  # a quoted header cell forces the loop
        quoted.write_bytes(path.read_bytes().replace(b"label", b'"label"', 1))
        for ds in (load_csv(path), load_csv(quoted)):
            assert ds.features.tobytes() == expected.features.tobytes()
            assert ds.labels.tobytes() == expected.labels.tobytes()


@pytest.mark.parametrize("rows, message", [
    ("0.5,1\n1.5,-1\n2.5,0\n", "row 3: label 0.0, but an earlier row has -1.0; write the "
                                 "negative class as -1 or as 0, not both"),
    ("0.5,0\n1.5,1\n2.5,-1\n", "row 3: label -1.0, but an earlier row has 0.0"),
    ("0.5,-0\n1.5,-1\n", "row 2: label -1.0, but an earlier row has 0.0"),
    ("0.5,1\n1.5,2\n", "row 2: label 2.0 is not 1, -1 or 0"),
    ("0.5,1\n1.5,0.5\n", "row 2: label 0.5 is not 1, -1 or 0"),
], ids=["minus_one_then_zero", "zero_then_minus_one", "minus_zero_then_minus_one", "two",
        "half"])
def test_load_csv_rejects_labels_outside_one_negative_class(tmp_path, rows, message):
    path = tmp_path / "d.csv"
    path.write_text("f0,label\n" + rows)
    assert data._parse_plain_rows(rows.splitlines(), 2, 1) is None
    with pytest.raises(CsvFormatError) as fast:
        load_csv(path)
    with pytest.raises(CsvFormatError) as loop:
        data._load_csv_per_cell(path, "label")
    assert str(fast.value) == str(loop.value)
    assert str(fast.value).startswith(f"{path}: {message}")


def test_load_csv_bad_cell_names_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,label\n1.0,1\noops,-1\n")
    with pytest.raises(CsvFormatError, match="row 2"):
        load_csv(path, "label")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_csv_non_finite_cell_names_path_row_and_column(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"f0,f1,label\n1.0,2.0,1\n3.0,{cell},-1\n")
    with pytest.raises(CsvFormatError, match=r"d\.csv: row 2, column 'f1'"):
        load_csv(path, "label")


def test_load_csv_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "missing.csv", "label")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("f0,f1,label\n1.0,2.0,1\n1.0,-1\n")
    with pytest.raises(CsvFormatError, match="row 2"):
        load_csv(ragged, "label")
    badlab = tmp_path / "badlab.csv"
    badlab.write_text("f0,label\n1.0,3\n")
    with pytest.raises(CsvFormatError, match="row 1"):
        load_csv(badlab, "label")
    nolab = tmp_path / "nolab.csv"
    nolab.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(CsvFormatError, match="label column"):
        load_csv(nolab, "y")
    only_label = tmp_path / "only_label.csv"
    only_label.write_text("label\n1\n-1\n")
    with pytest.raises(CsvFormatError, match="no feature columns besides 'label'"):
        load_csv(only_label)
    no_header = tmp_path / "no_header.csv"
    no_header.write_text("# only a comment\n\n  # and another\n")
    with pytest.raises(CsvFormatError, match=r"no_header\.csv: no header row found$"):
        load_csv(no_header)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    special = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-300, -1e300,
               1.7976931348623157e308, 0.1, 1 / 3, 123456789012345678.0]
    features = np.concatenate([
        np.reshape(special + special[::-1], (-1, 2)),
        rng.standard_normal((40, 2)) * 10.0 ** rng.integers(-300, 301, (40, 2)),
    ])
    ds = Dataset(features, np.where(rng.random(len(features)) < 0.5, 1.0, -1.0))
    path = tmp_path / "rt.csv"
    for label_column in ("label", "y,class"):  # the second is quoted: the per-cell loop
        write_csv(ds, path, label_column)
        back = load_csv(path, label_column)
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()


def test_label_column_colliding_with_a_feature_name_is_rejected(tmp_path):
    # the header f0,f1,f1 used to read back the feature f1 as the labels
    path = tmp_path / "d.csv"
    path.write_text("f0,f1,f1\n0.5,2.0,1\n1.5,3.0,-1\n")
    with pytest.raises(CsvFormatError, match=r"d\.csv: column 'f1' appears more than once"):
        load_csv(path, label_column="f1")
    path.write_text('"f0",f0,label\n0.5,2.0,1\n')  # quoted: read by the per-cell loop
    with pytest.raises(CsvFormatError, match="column 'f0' appears more than once"):
        load_csv(path)


def test_plain_files_do_not_fall_back_to_the_per_cell_loop(tmp_path, monkeypatch):
    def no_fallback(*args):
        raise AssertionError("the per-cell loop ran on a plain file")

    monkeypatch.setattr(data, "_load_csv_per_cell", no_fallback)
    rng = np.random.default_rng(5)
    ds = Dataset(rng.standard_normal((30, 3)), np.where(rng.random(30) < 0.5, 1.0, -1.0))
    saved = tmp_path / "saved.csv"
    write_csv(ds, saved)
    back = load_csv(saved)
    assert back.features.tobytes() == ds.features.tobytes()
    commented = tmp_path / "commented.csv"
    commented.write_bytes(b"# a comment\r\n  # indented\r\nf0,label\r\n\r\n"
                          b"0.5,1\r\n#,x\r\n-0.5,0\r\n")
    back = load_csv(commented)
    assert back.features.tobytes() == np.array([[0.5], [-0.5]]).tobytes()
    assert list(back.labels) == [1.0, -1.0]


def test_both_readers_skip_a_leading_utf8_bom(tmp_path, monkeypatch):
    # the BOM used to stay in the first header cell, so the label column was
    # not found: label column 'label' not in header ['\ufefflabel', 'f0']
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbflabel,f0\r\n1,0.5\r\n-1,2\r\n")
    features, labels = data._load_csv_per_cell(path, "label")
    assert features.tobytes() == np.array([[0.5], [2.0]]).tobytes()
    assert list(labels) == [1.0, -1.0]

    def no_fallback(*args):
        raise AssertionError("the per-cell loop ran on a plain file")

    monkeypatch.setattr(data, "_load_csv_per_cell", no_fallback)
    fast = load_csv(path)
    assert fast.features.tobytes() == features.tobytes()
    assert fast.labels.tobytes() == labels.tobytes()


def test_lines_wider_than_the_field_size_limit_read_on_the_fast_path(tmp_path, monkeypatch):
    # csv's limit holds for each field, not for a line: a file of many short
    # cells, as bag-of-words features are, has longer lines and reads fine
    rng = np.random.default_rng(7)
    ds = Dataset(rng.standard_normal((20, 7000)), np.where(rng.random(20) < 0.5, 1.0, -1.0))
    path = tmp_path / "wide.csv"
    write_csv(ds, path)
    rows = path.read_text().splitlines()[1:]
    assert min(map(len, rows)) > csv.field_size_limit()
    features, labels = data._load_csv_per_cell(path, "label")

    def no_fallback(*args):
        raise AssertionError("the per-cell loop ran on a plain file")

    monkeypatch.setattr(data, "_load_csv_per_cell", no_fallback)
    fast = load_csv(path)
    assert fast.features.tobytes() == features.tobytes() == ds.features.tobytes()
    assert fast.labels.tobytes() == labels.tobytes() == ds.labels.tobytes()


@pytest.mark.parametrize("content", [
    b"#" + b"x" * csv.field_size_limit() + b"\nf0,label\n1.0,1\n",  # csv.Error
    b"#,x," + b"x" * (csv.field_size_limit() + 1) + b"\nf0,label\n1.0,1\n",  # csv.Error
    b"f0,label\n" + b"1.5,1\n" * 2000 + b"\xff,1\n",  # past the first decoded chunk
], ids=["long_comment_field", "long_field_of_a_wide_comment", "invalid_utf8"])
def test_load_csv_raises_the_loops_error_on_input_the_fast_path_skips(tmp_path, content):
    path = tmp_path / "d.csv"
    path.write_bytes(content)
    with pytest.raises(Exception) as fast:
        load_csv(path)
    with pytest.raises(Exception) as loop:
        data._load_csv_per_cell(path, "label")
    assert (type(fast.value), str(fast.value)) == (type(loop.value), str(loop.value))
    assert type(loop.value) is CsvFormatError and str(loop.value).startswith(f"{path}: ")


_NUMBERS = ["0.5", "-3", "1e-320", "-0", "2.5e300", " 4.25 ", "1_0", "１", "nan", "inf",
            "-inf", "oops", "", "0x1p3", "7.", ".5", "+1", "\xa01", "2\x0c", "3\x1c", "\x1f4",
            "1#2",
            # JSON that is no number, or that JSON and float() read apart
            "true", "false", "null", "[1]", "1]", "[2", "1E5", "-0e0", "00", "1e400",
            "18446744073709551616"]
_LABELS = ["1", "-1", "0", "1.0", "-0", " 1", "2", "nan", "1_0", "x", ""]


@st.composite
def _csv_texts(draw):
    """CSV texts mixing everything `load_csv` must treat as the loop does."""
    d = draw(st.integers(1, 3))
    names = [f"f{j}" for j in range(d)]
    label_at = draw(st.integers(0, d))
    names.insert(label_at, draw(st.sampled_from(["label", " label "])))
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "comment", "blank", "space", "quoted",
                                     "ragged", "stray_cr"]))
        if kind == "comment":
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(["# note", "  # indented", "#,1,2", "\t#x"])))
        elif kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t "])))
        else:
            cells = [draw(st.sampled_from(_NUMBERS)) for _ in range(d)]
            cells.insert(label_at, draw(st.sampled_from(_LABELS)))
            if kind == "quoted":
                j = draw(st.integers(0, d))
                cells[j] = f'"{cells[j]}"'
            elif kind == "ragged":
                cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
            elif kind == "stray_cr":  # csv.reader, and universal newlines, end the row there
                j = draw(st.integers(0, d))
                cells[j] = draw(st.sampled_from(["\r" + cells[j], cells[j] + "\r"]))
            lines.append(",".join(cells))
    # LF, CRLF, both mixed in one file, or mixed with a bare CR ending a line
    ends = draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"], ["\n", "\r\n", "\r"]]))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    tail = draw(st.sampled_from(["cut", "keep", "space"]))
    if tail == "cut":  # no line end after the last line
        text = text[:-2] if text.endswith("\r\n") else text[:-1]
    elif tail == "space":  # a whitespace-only last line with no line end
        text += draw(st.sampled_from([" ", "\t "]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


def _outcome(read):
    try:
        features, labels = read()
    except Exception as exc:
        return type(exc), str(exc)
    return features.shape, features.tobytes(), labels.tobytes()


@given(_csv_texts())
@settings(max_examples=400, deadline=None)
def test_load_csv_matches_the_per_cell_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode("utf-8"))

    def fast():
        ds = load_csv(path, "label")
        return ds.features, ds.labels

    def loop():
        return data._load_csv_per_cell(path, "label")

    assert _outcome(fast) == _outcome(loop)


@st.composite
def _float_texts(draw):
    """CSV texts of float64 bit patterns in the forms programs write them,
    with integer cells and both negative zeros among them."""
    d = draw(st.integers(1, 4))

    def cell():
        kind = draw(st.sampled_from(["bits", "bits", "bits", "integer", "zero"]))
        if kind == "integer":
            return str(draw(st.integers(-2**70, 2**70)))
        if kind == "zero":
            return draw(st.sampled_from(["-0", "-0.0", "0"]))
        value = float(np.uint64(draw(st.integers(0, 2**64 - 1))).view(np.float64))
        return draw(st.sampled_from(["%.17g", "%.16g", "%r", "%.25e"])) % value

    rows = [",".join([cell() for _ in range(d)] + [draw(st.sampled_from(["1", "-1"]))])
            for _ in range(draw(st.integers(1, 20)))]
    return "\n".join([",".join(f"f{j}" for j in range(d)) + ",label"] + rows) + "\n"


@given(_float_texts())
@settings(max_examples=300, deadline=None)
def test_load_csv_of_written_floats_matches_the_per_cell_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("floats") / "d.csv"
    path.write_text(text)

    def fast():
        ds = load_csv(path)
        return ds.features, ds.labels

    assert _outcome(fast) == _outcome(lambda: data._load_csv_per_cell(path, "label"))


def test_a_plain_file_is_parsed_as_json_and_never_by_the_per_cell_loop(tmp_path, monkeypatch):
    def no_fallback(*args):
        raise AssertionError("the per-cell loop ran on a plain file")

    rng = np.random.default_rng(9)
    ds = Dataset(rng.standard_normal((600, 3)), np.where(rng.random(600) < 0.5, 1.0, -1.0))
    saved = tmp_path / "saved.csv"
    write_csv(ds, saved)  # %.17g, in three blocks of rows
    monkeypatch.setattr(data, "_load_csv_per_cell", no_fallback)
    back = load_csv(saved)
    assert back.features.tobytes() == ds.features.tobytes()


# +4, .5 and 7. are no JSON numbers, and JSON reads the integer -0 as +0
@pytest.mark.parametrize("cell, value", [("+4", 4.0), (".5", 0.5), ("7.", 7.0), ("-0", -0.0)])
def test_a_file_of_cells_json_does_not_read_is_read_by_the_per_cell_loop(tmp_path, monkeypatch,
                                                                        cell, value):
    path = tmp_path / "d.csv"
    path.write_text(f"f0,f1,label\n0.5,0,1\n{cell},2,-1\n")  # f1 holds a zero
    loop, calls = data._load_csv_per_cell, []

    def spy(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(data, "_load_csv_per_cell", spy)
    back = load_csv(path)
    assert len(calls) == 1
    features, labels = loop(path, "label")
    assert back.features.tobytes() == features.tobytes()
    assert back.features.tobytes() == np.array([[0.5, 0.0], [value, 2.0]]).tobytes()
    assert back.labels.tobytes() == labels.tobytes()


def _spied(monkeypatch, name):
    """The calls of `data.<name>` from now on, each still run."""
    real, calls = getattr(data, name), []
    monkeypatch.setattr(data, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_a_minus_zero_that_json_reads_right_keeps_the_json_reader(tmp_path, monkeypatch):
    # -0.5, -0.0 and 1e-0 hold "-0" beside the zero features of f1, and the
    # label -0 is no feature, so no feature cell is an integer -0
    path, target = tmp_path / "d.csv", tmp_path / "out.csv"
    path.write_text("f0,label,f1,f2\n-0.5,1,0,1e-0\n-0.0,-0,1,-0.25\n0.125,0,0, -0.75\n")
    loop_calls = _spied(monkeypatch, "_load_csv_per_cell")
    row_calls = _spied(monkeypatch, "_csv_rows")
    back = load_csv(path)
    data.rewrite_csv(path, target, lambda ds: Dataset(ds.features, -ds.labels))
    assert loop_calls == [] and row_calls == []  # JSON numbers, written by split and join
    features, labels = data._load_csv_per_cell(path, "label")
    assert back.features.tobytes() == features.tobytes()
    assert back.labels.tobytes() == labels.tobytes()
    assert target.read_bytes() == (b"f0,label,f1,f2\r\n-0.5,-1,0,1e-0\r\n-0.0,1,1,-0.25\r\n"
                                   b"0.125,1,0, -0.75\r\n")


# an integer -0 feature cell: first, after the label, or in blanks
@pytest.mark.parametrize("text", ["f0,label,f1\n-0,1,2\n", "f0,label,f1\n1,0,-0\n",
                                  "f0,label,f1\n1,-0, -0 \n0.5,1,3\n"])
def test_an_integer_minus_zero_feature_anywhere_is_read_by_the_per_cell_loop(
        tmp_path, monkeypatch, text):
    path = tmp_path / "d.csv"
    path.write_text(text)
    calls = _spied(monkeypatch, "_load_csv_per_cell")
    back = load_csv(path)
    assert len(calls) == 1
    assert np.signbit(back.features).any()


# named columns, the label second, numbers as people write them, 0/1 labels
_NAMED = ("# heights and weights\n"
          "height, label ,weight,age\n"
          "0.1,1,1e3, 2.5\n"
          "\n"
          "2.50,0,-0,7\n"
          "  # a comment between rows\n"
          "1e-3,1,+4,0.1\n"
          "3,0,5.0,1e3\n")


def _quoted_twin(text: str) -> str:
    """`text` with every cell of its header and data rows quoted."""
    return "\n".join(line if not line.strip() or line.lstrip().startswith("#")
                     else ",".join(f'"{cell}"' for cell in line.split(","))
                     for line in text.split("\n"))


@pytest.mark.parametrize("kind, expected", [
    ("label_bias", "height, label ,weight,age\r\n0.1,1,1e3, 2.5\r\n2.50,1,-0,7\r\n"
                   "1e-3,1,+4,0.1\r\n3,1,5.0,1e3\r\n"),
    # every row's height and age swap places: each moved value is written as
    # %.17g, and the weights, which stay, keep their text
    ("shuffled_features", "height, label ,weight,age\r\n2.5,1,1e3,0.10000000000000001\r\n"
                          "7,-1,-0,2.5\r\n0.10000000000000001,1,+4,0.001\r\n"
                          "1000,-1,5.0,3\r\n"),
], ids=["label_bias", "shuffled_features"])
def test_rewrite_csv_keeps_the_text_of_every_cell_it_does_not_change(tmp_path, kind, expected):
    spec = CorruptionSpec(kind, 1.0, 3)
    source, quoted = tmp_path / "named.csv", tmp_path / "quoted.csv"
    source.write_text(_NAMED)
    quoted.write_text(_quoted_twin(_NAMED))
    data.rewrite_csv(quoted, tmp_path / "from_quoted.csv", lambda ds: corrupt(ds, spec))
    target = tmp_path / "out.csv"
    data.rewrite_csv(source, target, lambda ds: corrupt(ds, spec))
    assert target.read_bytes() == expected.encode()
    assert (tmp_path / "from_quoted.csv").read_bytes() == expected.encode()
    back, changed = load_csv(target), corrupt(load_csv(source), spec)
    assert back.features.tobytes() == changed.features.tobytes()
    assert back.labels.tobytes() == changed.labels.tobytes()


def _negating(seed):
    """The change that negates about half the feature cells (so 0 becomes -0,
    which differs from it bit for bit)."""
    def negate(ds):
        flip = np.random.default_rng(seed).random(ds.features.shape) < 0.5
        return Dataset(np.where(flip, -ds.features, ds.features), ds.labels)

    return negate


def _reference_rewrite(source, target, change):
    """The bytes the csv-module branch of `rewrite_csv` writes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_plain_lines", lambda path: None)
        data.rewrite_csv(source, target, change)
    return target.read_bytes()


# more than two blocks of rows, the label first, in the middle and last, and
# proportions that leave some blocks with no changed row and change every row
@pytest.mark.parametrize("kind", [*CORRUPTION_KINDS, "negate"])
def test_rewrite_csv_of_a_save_csv_file_writes_the_save_csv_bytes(tmp_path, kind):
    rng = np.random.default_rng(31)
    n = 700
    ds = Dataset(rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-300, 301, (n, 4)),
                 np.where(rng.random(n) < 0.5, 1.0, -1.0))
    source, expected, target, reference = (tmp_path / f"{name}.csv" for name in
                                           ("in", "expected", "out", "reference"))
    changes = [_negating(8)] if kind == "negate" else [
        lambda d, spec=CorruptionSpec(kind, proportion, 8): corrupt(d, spec)
        for proportion in (0.01, 1.0)]

    def no_csv_module(path):
        raise AssertionError("a file of JSON numbers was read through csv.reader")

    for label_at, change in itertools.product((0, 2, 4), changes):
        write_csv(ds, source, label_at=label_at)
        write_csv(change(ds), expected, label_at=label_at)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_csv_rows", no_csv_module)
            data.rewrite_csv(source, target, change)
        assert target.read_bytes() == expected.read_bytes() == _reference_rewrite(
            source, reference, change)
        back, changed = load_csv(target), change(ds)
        assert back.features.tobytes() == changed.features.tobytes()
        assert back.labels.tobytes() == changed.labels.tobytes()


def test_rewrite_csv_splits_only_the_lines_of_blocks_with_a_moved_feature(tmp_path,
                                                                          monkeypatch):
    rng = np.random.default_rng(5)
    n = 3 * data._BLOCK_ROWS + 8
    ds = Dataset(rng.standard_normal((n, 3)), np.where(rng.random(n) < 0.5, 1.0, -1.0))
    source, target = tmp_path / "in.csv", tmp_path / "out.csv"
    write_csv(ds, source)  # the label last
    split, writes = [], []

    class CountingLine(str):
        def split(self, *args):
            split.append(self.row)
            return str.split(self, *args)

    def counted_lines(path):
        header, *lines = plain_lines(path)
        counted = [CountingLine(line) for line in lines]
        for r, line in enumerate(counted):
            line.row = r
        return [header, *counted]

    def counted_open(path, mode="r", *args, **kwargs):
        fh = path_open(path, mode, *args, **kwargs)
        if mode == "w":
            fh.write = lambda text: writes.append(text) or type(fh).write(fh, text)
        return fh

    plain_lines, path_open = data._plain_lines, Path.open
    monkeypatch.setattr(data, "_plain_lines", counted_lines)
    monkeypatch.setattr(Path, "open", counted_open)
    for kind in ("label_bias", "shuffled_labels"):
        writes.clear()
        data.rewrite_csv(source, target, lambda d: corrupt(d, CorruptionSpec(kind, 0.5, 4)))
        assert split == []  # no data line of a label-only change is split
        assert len(writes) == 1 + 4 and writes[0] == "f0,f1,f2,label\r\n"  # a write per block
    spec = CorruptionSpec("shuffled_features", 0.005, 2)
    changed = corrupt(ds, spec)
    data.rewrite_csv(source, target, lambda d: corrupt(d, spec))
    moved = np.flatnonzero((changed.features != ds.features).any(axis=1))
    blocks = {r // data._BLOCK_ROWS for r in moved}
    assert 0 < len(blocks) < 4
    assert split == [r for r in range(n) if r // data._BLOCK_ROWS in blocks]
    assert target.read_bytes() == _reference_rewrite(source, tmp_path / "ref.csv",
                                                     lambda d: corrupt(d, spec))


def _failing_change(ds):
    raise ValueError("the change failed")


@pytest.mark.parametrize("content, change, error", [
    ("f0,label\n1,1\n2\n", None, "row 2 has 1 cells"),
    ("f0,y\n1,1\n", None, "label column 'label' not in header"),
    (None, None, "no such file"),
    ("f0,label\n1,1\n2,-1\n", _failing_change, "the change failed"),
    ("f0,label\n1,1\n2,-1\n", lambda ds: ds.take([0]), r"\(2, 1\) table into a \(1, 1\)"),
], ids=["ragged", "no_label_column", "missing", "failing_change", "fewer_rows"])
@pytest.mark.parametrize("existing", [False, True])
def test_rewrite_csv_of_an_invalid_input_leaves_the_target_as_it_was(tmp_path, content, change,
                                                                     error, existing):
    source, target = tmp_path / "in.csv", tmp_path / "out.csv"
    if content is not None:
        source.write_text(content)
    if existing:
        target.write_bytes(b"kept\r\n")
    with pytest.raises((ValueError, FileNotFoundError), match=error):
        data.rewrite_csv(source, target, change or (lambda ds: ds))
    assert target.read_bytes() == b"kept\r\n" if existing else not target.exists()


# JSON numbers only: a cell like +4, 7., .5 or 1_0, or an integer -0 (read
# as 0 by orjson), sends a file to the per-cell loop
_PLAIN_NUMBERS = ["0.1", "1e3", " 2.5", "2.50 ", "0", "5e-324", "-2.5e-320",
                  "1.7976931348623157e308", "123456789012345678"]
_POSITIVE = ["1", "1.0", " 1"]
_NEGATIVE = [["-1", "-1.0", " -1"], ["0", "0.0"]]


@st.composite
def _plain_csv_texts(draw):
    """Valid CSV texts that are read as JSON numbers: no quote, lines that
    end in LF, CRLF or a lone CR, column names as people write them, and no
    data row, or some."""
    d = draw(st.integers(1, 3))
    names = [draw(st.sampled_from([f"x{j}", f" f{j}", f"weight {j}"])) for j in range(d)]
    label_at = draw(st.integers(0, d))
    names.insert(label_at, draw(st.sampled_from(["label", " label "])))
    negative = draw(st.sampled_from(_NEGATIVE))
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "comment", "blank"]))
        if kind == "comment":
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(["# note", "  # indented", "#,1,2"])))
        elif kind == "blank":
            lines.append("")
        else:
            cells = [draw(st.sampled_from(_PLAIN_NUMBERS)) for _ in range(d)]
            cells.insert(label_at, draw(st.sampled_from(_POSITIVE + negative)))
            lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return ("\ufeff" if draw(st.booleans()) else "") + text


@st.composite
def _changes(draw):
    """A corruption, or `_negating`'s change."""
    kind = draw(st.sampled_from([*CORRUPTION_KINDS, "negate"]))
    seed = draw(st.integers(0, 2**32))
    if kind == "negate":
        return _negating(seed)
    spec = CorruptionSpec(kind, draw(st.sampled_from([0.3, 0.5, 1.0])), seed)
    return lambda ds: corrupt(ds, spec)


def _rewritten(source, target, change):
    """The bytes `rewrite_csv` writes to `target`, or the (type, message) of
    its error."""
    try:
        data.rewrite_csv(source, target, change)
    except CsvFormatError as exc:
        return type(exc), str(exc)
    return target.read_bytes()


@given(_plain_csv_texts(), _changes())
@settings(max_examples=300, deadline=None)
def test_rewrite_csv_of_a_plain_file_equals_the_csv_module_path(tmp_path_factory, text, change):
    folder = tmp_path_factory.mktemp("rewrite")
    source, plain, reference = (folder / f"{name}.csv" for name in ("in", "plain", "reference"))
    source.write_bytes(text.encode("utf-8"))
    read_by_csv_module, csv_rows = [], data._csv_rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_csv_rows",
                      lambda path: read_by_csv_module.append(path) or csv_rows(path))
        written = _rewritten(source, plain, change)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_plain_lines", lambda path: None)
        assert _rewritten(source, reference, change) == written
    if written == (CsvFormatError, f"{source}: no data rows"):
        assert read_by_csv_module == [source]  # the loop raises for both branches
        return
    assert read_by_csv_module == []  # the split/join branch
    back, changed = load_csv(plain), change(load_csv(source))
    assert back.features.shape == changed.features.shape
    assert back.features.tobytes() == changed.features.tobytes()
    assert back.labels.tobytes() == changed.labels.tobytes()


def _mixed_csvs(tmp_path, rows=3000):
    """Paths of files of every kind `load_csv` reads: CRLF, LF, a BOM,
    comment lines, 0 labels, a quoted cell (the per-cell loop), and last a
    header only, which it rejects. Each of the first five holds more than a
    pipe's 64 KiB."""
    rng = np.random.default_rng(23)
    crlf = tmp_path / "crlf.csv"
    write_csv(Dataset(rng.standard_normal((rows, 3)), np.where(rng.random(rows) < 0.5, 1.0, -1.0)),
              crlf)
    text = crlf.read_bytes()
    texts = {
        "lf": text.replace(b"\r\n", b"\n"),
        "bom": b"\xef\xbb\xbf" + text,
        "comments": b"# a comment\r\n" + text.replace(b"\r\n", b"\r\n  # indented\r\n", 3),
        "zero_one": text.replace(b",-1\r\n", b",0\r\n"),
        "quoted": b'f0,label\r\n"0.5",1\r\n-2,-1\r\n',
        "header_only": b"f0,f1,label\r\n",
    }
    for name, content in texts.items():
        (tmp_path / f"{name}.csv").write_bytes(content)
    return [crlf] + [tmp_path / f"{name}.csv" for name in texts]


def _fork_spy(monkeypatch) -> list[int]:
    """The pids of the children forked from now on, in order."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_load_csvs_equals_load_csv_of_each_file(tmp_path, monkeypatch, cpus):
    paths = _mixed_csvs(tmp_path)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
    readers = _fork_spy(monkeypatch)
    with contextlib.closing(data.load_csvs(paths)) as files:
        got = _outcomes(files)
    assert len(readers) == (cpus if cpus > 1 else 0)  # 1: read in process
    assert got == _outcomes(load_csv(p) for p in paths)
    assert got[-1] == (CsvFormatError, f"{paths[-1]}: no data rows")


def _outcomes(datasets) -> list:
    """Each dataset's shape, bytes and write flags, in order, then the
    (type, message) of the error that stops the iteration, if any."""
    out = []
    try:
        for ds in datasets:
            out.append((ds.features.shape, ds.features.tobytes(), ds.labels.tobytes(),
                        ds.features.flags.writeable, ds.labels.flags.writeable))
    except Exception as exc:
        out.append((type(exc), str(exc)))
    return out


def test_a_file_with_no_data_row_raises_one_named_error_from_every_reader(tmp_path,
                                                                          monkeypatch):
    good, *_, header_only = _mixed_csvs(tmp_path, rows=50)
    expected = [(CsvFormatError, f"{header_only}: no data rows")]
    for read in (load_csv, lambda path: Dataset(*data._load_csv_per_cell(path, "label"))):
        assert _outcomes(map(read, [header_only])) == expected
    readers = _fork_spy(monkeypatch)
    for cpus in (1, 2):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        with contextlib.closing(data.load_csvs([good, header_only])) as files:
            assert _outcomes(files)[1:] == expected
        assert len(readers) == 2 * (cpus - 1)  # 2: the header-only file is read in a child
    target = tmp_path / "out.csv"
    target.write_bytes(b"kept\r\n")
    assert _rewritten(header_only, target, lambda ds: ds) == expected[0]
    assert target.read_bytes() == b"kept\r\n"


@pytest.mark.parametrize("bad_at", range(4))
def test_load_csvs_raises_the_first_error_of_the_one_by_one_reads(tmp_path, monkeypatch,
                                                                  bad_at):
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    good, *_ = _mixed_csvs(tmp_path, rows=50)
    ragged = tmp_path / "ragged.csv"
    ragged.write_bytes(b"f0,label\n1,1\n2\n")
    paths = [good] * 4 + [tmp_path / "missing.csv", good]
    paths[bad_at] = ragged
    expected = _outcomes(load_csv(p) for p in paths)
    assert expected[-1][0] is CsvFormatError
    with contextlib.closing(data.load_csvs(paths)) as files:
        assert _outcomes(files) == expected


def test_a_reader_killed_mid_stream_leaves_the_results_unchanged(tmp_path, monkeypatch):
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    paths = _mixed_csvs(tmp_path)[:5]  # each too large for a pipe to hold
    readers = _fork_spy(monkeypatch)
    parent, read_here = os.getpid(), []
    load = data.load_csv

    def spy(path, label_column="label"):
        if os.getpid() == parent:
            read_here.append(path)
        return load(path, label_column)

    monkeypatch.setattr(data, "load_csv", spy)
    with contextlib.closing(data.load_csvs(paths)) as files:
        got = [next(files)]
        os.kill(readers[1], signal.SIGKILL)  # it is parsing or sending paths[1]
        # wait for its death without reaping it: alive, it could finish the frame
        os.waitid(os.P_PID, readers[1], os.WEXITED | os.WNOWAIT)
        got += list(files)
    assert read_here == paths[1::2]
    assert _outcomes(got) == _outcomes(map(load, paths))


def test_a_reader_that_cannot_be_forked_leaves_the_results_unchanged(tmp_path, monkeypatch):
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 3)
    paths = _mixed_csvs(tmp_path, rows=50)
    readers, fork, calls = _fork_spy(monkeypatch), os.fork, []

    def second_fails():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    with contextlib.closing(data.load_csvs(paths)) as files:
        got = _outcomes(files)
    assert len(calls) == 3 and len(readers) == 2
    assert got == _outcomes(load_csv(p) for p in paths)
    assert got[-1] == (CsvFormatError, f"{paths[-1]}: no data rows")


def _forked_outcomes(results) -> list:
    """The results, in order, then the (type, message) of the error that
    stops the iteration, if any."""
    out = []
    try:
        out.extend(results)
    except Exception as exc:
        out.append((type(exc), str(exc)))
    return out


def _encode(value: int) -> bytes:
    return str(value).encode()


@pytest.mark.parametrize("close_early", [False, True])
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_forked_equals_work_of_each_item_in_order(monkeypatch, n, cpus, close_early):
    children = _fork_spy(monkeypatch)
    parent, computed_here = os.getpid(), []

    def work(i):
        if os.getpid() == parent:
            computed_here.append(i)
        return i * i

    taken = (n + 1) // 2 if close_early else n  # then closed with children still running
    monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
    results = _fork.forked(work, range(n), _encode, int)
    got = list(itertools.islice(results, taken))
    results.close()
    assert got == [i * i for i in range(taken)]
    k = min(cpus, n)
    assert len(children) == (0 if k < 2 else k)  # no child without an item
    # item i goes to process i % k, and this process is the only one when k is 1
    assert computed_here == [i for i in range(taken) if k < 2]
    with pytest.raises(ChildProcessError):  # no child is left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("bad", [0, 1, 2, 6])
@pytest.mark.parametrize("only_in_children", [False, True])
@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_raises_the_first_error_of_the_one_by_one_calls(monkeypatch, cpus,
                                                                only_in_children, bad):
    monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
    parent = os.getpid()

    def work(i):
        # fails from item `bad` on, in every process or only in the children
        if i >= bad and i % 2 == bad % 2 and not (only_in_children and os.getpid() == parent):
            raise ValueError(f"item {i} is bad")
        return i * i

    got = _forked_outcomes(_fork.forked(work, range(7), _encode, int))
    # a child's error is not final: its item, and its later ones, are computed here
    assert got == _forked_outcomes(map(work, range(7)))
    assert got == ([i * i for i in range(7)] if only_in_children
                   else [i * i for i in range(bad)] + [(ValueError, f"item {bad} is bad")])


@pytest.mark.parametrize("first", [False, True])
def test_forked_computes_the_items_of_a_child_that_cannot_be_forked_here(monkeypatch, first):
    children, fork, calls = _fork_spy(monkeypatch), os.fork, []
    parent, computed_here = os.getpid(), []
    failing = 1 if first else 2  # which of the three forks fails

    def one_fails():
        calls.append(None)
        if len(calls) == failing:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    def work(i):
        if os.getpid() == parent:
            computed_here.append(i)
        return -i

    monkeypatch.setattr(os, "fork", one_fails)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 3)
    got = list(_fork.forked(work, range(10), _encode, int))
    assert got == [-i for i in range(10)]
    assert len(calls) == 3 and len(children) == 2
    assert computed_here == [i for i in range(10) if i % 3 == failing - 1]


def test_forked_takes_no_in_process_flag():
    # with k > 1 every process of the fork-map is a child, and k is one per
    # usable CPU, which no caller sets
    assert list(inspect.signature(_fork.forked).parameters) == ["work", "items", "pack", "unpack"]


def test_kfold_sizes():
    folds = kfold_indices(10, 5, seed=1)
    assert [len(f) for f in folds] == [2, 2, 2, 2, 2]
    folds = kfold_indices(11, 5, seed=1)
    assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 3]


def test_kfold_deterministic_partition():
    a = kfold_indices(17, 4, seed=9)
    b = kfold_indices(17, 4, seed=9)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa, fb)
    assert sorted(np.concatenate(a)) == list(range(17))


def test_kfold_errors():
    with pytest.raises(ValueError):
        kfold_indices(3, 5, seed=0)
    with pytest.raises(ValueError):
        kfold_indices(10, 1, seed=0)


@given(st.integers(5, 40), st.integers(2, 5), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_kfold_partitions(n, k, seed):
    if k > n:
        return
    folds = kfold_indices(n, k, seed)
    assert sorted(np.concatenate(folds)) == list(range(n))
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1


def test_merge_concatenates():
    a = Dataset([[1.0]], [1.0])
    b = Dataset([[2.0], [3.0]], [-1.0, 1.0])
    m = merge([a, b])
    assert m.n_samples == 3
    assert list(m.features[:, 0]) == [1.0, 2.0, 3.0]
