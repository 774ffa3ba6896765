import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from multisource import data
from multisource.data import (
    CsvFormatError,
    Dataset,
    SourcePool,
    kfold_indices,
    load_csv,
    merge,
    save_csv,
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
    with pytest.raises(ValueError, match="reference is empty"):
        SourcePool((a,), Dataset(np.empty((0, 1)), np.empty(0)))


def test_load_csv_zero_one_encoding(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# comment line\nf0,f1,label\n0.5,1.0,1\n0.25,2.0,0\n1.5,3.0,1\n")
    ds = load_csv(path, "label", "zero_one")
    assert list(ds.labels) == [1.0, -1.0, 1.0]
    assert ds.features.shape == (3, 2)



@pytest.mark.parametrize("encoding", ["binary", {0: -1, 1: 1}, ["zero_one"], None])
def test_load_csv_accepts_only_the_named_encodings(tmp_path, encoding):
    path = tmp_path / "d.csv"
    path.write_text("f0,label\n0.5,1\n")
    with pytest.raises(ValueError, match=r"expected one of \['signed', 'zero_one'\]"):
        load_csv(path, "label", encoding)


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


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ds = Dataset(rng.standard_normal((10, 4)) * 1e3,
                 np.where(rng.random(10) < 0.5, 1.0, -1.0))
    path = tmp_path / "rt.csv"
    save_csv(ds, path)
    back = load_csv(path, "label")
    assert np.max(np.abs(back.features - ds.features)) < 1e-12
    assert np.array_equal(back.labels, ds.labels)


def test_label_column_colliding_with_a_feature_name_is_rejected(tmp_path):
    # the header f0,f1,f1 used to read back the feature f1 as the labels
    ds = Dataset([[0.5, 2.0], [1.5, 3.0]], [1.0, -1.0])
    path = tmp_path / "d.csv"
    with pytest.raises(ValueError, match="'f1' collides"):
        save_csv(ds, path, label_column="f1")
    path.write_text("f0,f1,f1\n0.5,2.0,1\n1.5,3.0,-1\n")
    with pytest.raises(CsvFormatError, match=r"d\.csv: column 'f1' appears more than once"):
        load_csv(path, label_column="f1")
    path.write_text('"f0",f0,label\n0.5,2.0,1\n')  # quoted: read by the per-cell loop
    with pytest.raises(CsvFormatError, match="column 'f0' appears more than once"):
        load_csv(path)


@pytest.mark.parametrize("label_column", ["", " y", "y ", "\ty", " "])
def test_save_csv_rejects_a_label_column_load_csv_cannot_find(tmp_path, label_column):
    path = tmp_path / "d.csv"
    with pytest.raises(ValueError, match="whitespace"):
        save_csv(Dataset([[0.5], [1.5]], [1.0, -1.0]), path, label_column=label_column)
    assert not path.exists()


def _old_save_csv_bytes(dataset, label_column="label"):
    """save_csv as a csv.writer loop over f"{v:.17g}" cells: the byte reference."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow([f"f{j}" for j in range(dataset.n_features)] + [label_column])
    for x, y in zip(dataset.features, dataset.labels):
        writer.writerow([f"{v:.17g}" for v in x] + [f"{y:.17g}"])
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("label_column", ["label", "y,class"])
def test_save_csv_bytes_match_the_csv_writer_loop(tmp_path, label_column):
    rng = np.random.default_rng(17)
    special = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-300, -1e300,
               1.7976931348623157e308, 0.1, 1 / 3, 123456789012345678.0]
    features = np.concatenate([
        np.reshape(special + special[::-1], (-1, 2)),
        rng.standard_normal((40, 2)) * 10.0 ** rng.integers(-300, 301, (40, 2)),
    ])
    ds = Dataset(features, np.where(rng.random(len(features)) < 0.5, 1.0, -1.0))
    path = tmp_path / "d.csv"
    save_csv(ds, path, label_column)
    assert path.read_bytes() == _old_save_csv_bytes(ds, label_column)
    back = load_csv(path, label_column)
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


def test_plain_files_do_not_fall_back_to_the_per_cell_loop(tmp_path, monkeypatch):
    def no_fallback(*args):
        raise AssertionError("the per-cell loop ran on a plain file")

    monkeypatch.setattr(data, "_load_csv_per_cell", no_fallback)
    rng = np.random.default_rng(5)
    ds = Dataset(rng.standard_normal((30, 3)), np.where(rng.random(30) < 0.5, 1.0, -1.0))
    saved = tmp_path / "saved.csv"
    save_csv(ds, saved)
    back = load_csv(saved)
    assert back.features.tobytes() == ds.features.tobytes()
    commented = tmp_path / "commented.csv"
    commented.write_bytes(b"# a comment\r\n  # indented\r\nf0,label\r\n\r\n"
                          b"0.5,1\r\n#,x\r\n-0,0\r\n")
    back = load_csv(commented, label_encoding="zero_one")
    assert back.features.tobytes() == np.array([[0.5], [-0.0]]).tobytes()
    assert list(back.labels) == [1.0, -1.0]


@pytest.mark.parametrize("content", [
    b"#" + b"x" * csv.field_size_limit() + b"\nf0,label\n1.0,1\n",  # csv.Error
    b"f0,label\n" + b"1.5,1\n" * 2000 + b"\xff,1\n",  # past the first decoded chunk
], ids=["long_comment_field", "invalid_utf8"])
def test_load_csv_raises_the_loops_error_on_input_the_fast_path_skips(tmp_path, content):
    path = tmp_path / "d.csv"
    path.write_bytes(content)
    with pytest.raises(Exception) as fast:
        load_csv(path)
    with pytest.raises(Exception) as loop:
        data._load_csv_per_cell(path, "label", data.LABEL_ENCODINGS["signed"])
    assert (type(fast.value), str(fast.value)) == (type(loop.value), str(loop.value))


_NUMBERS = ["0.5", "-3", "1e-320", "-0", "2.5e300", " 4.25 ", "1_0", "１", "nan", "inf",
            "-inf", "oops", "", "0x1p3", "7.", ".5", "+1", "\xa01", "2\x0c", "3\x1c", "\x1f4"]
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
                                     "ragged"]))
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
            lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return text, draw(st.sampled_from(["signed", "zero_one"]))


def _outcome(read):
    try:
        features, labels = read()
    except Exception as exc:
        return type(exc), str(exc)
    return features.shape, features.tobytes(), labels.tobytes()


@given(_csv_texts())
@settings(max_examples=400, deadline=None)
def test_load_csv_matches_the_per_cell_loop(tmp_path_factory, case):
    text, encoding = case
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode("utf-8"))

    def fast():
        ds = load_csv(path, "label", encoding)
        return ds.features, ds.labels

    def loop():
        return data._load_csv_per_cell(path, "label", data.LABEL_ENCODINGS[encoding])

    assert _outcome(fast) == _outcome(loop)


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
