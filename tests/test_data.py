import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from multisource.data import (
    BadLabelError,
    BadNumericCellError,
    CsvFormatError,
    Dataset,
    RaggedRowError,
    SourcePool,
    kfold_indices,
    load_csv,
    merge,
    save_csv,
    split,
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


def test_load_csv_zero_one_encoding(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# comment line\nf0,f1,label\n0.5,1.0,1\n0.25,2.0,0\n1.5,3.0,1\n")
    ds = load_csv(path, "label", "zero_one")
    assert list(ds.labels) == [1.0, -1.0, 1.0]
    assert ds.features.shape == (3, 2)


def test_load_csv_bad_cell_names_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,label\n1.0,1\noops,-1\n")
    with pytest.raises(BadNumericCellError, match="row 2"):
        load_csv(path, "label")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_csv_non_finite_cell_names_path_row_and_column(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"f0,f1,label\n1.0,2.0,1\n3.0,{cell},-1\n")
    with pytest.raises(BadNumericCellError, match=r"d\.csv: row 2, column 'f1'"):
        load_csv(path, "label")


def test_load_csv_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "missing.csv", "label")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("f0,f1,label\n1.0,2.0,1\n1.0,-1\n")
    with pytest.raises(RaggedRowError, match="row 2"):
        load_csv(ragged, "label")
    badlab = tmp_path / "badlab.csv"
    badlab.write_text("f0,label\n1.0,3\n")
    with pytest.raises(BadLabelError, match="row 1"):
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


def test_split_deterministic():
    ds = Dataset(np.arange(10, dtype=float).reshape(10, 1),
                 np.where(np.arange(10) % 2 == 0, 1.0, -1.0))
    a = split(ds, [0.5, 0.5], seed=7)
    b = split(ds, [0.5, 0.5], seed=7)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.features, pb.features)
        assert np.array_equal(pa.labels, pb.labels)


def test_split_single_part_permutes():
    ds = Dataset(np.arange(10, dtype=float).reshape(10, 1), np.ones(10))
    (part,) = split(ds, [1.0], seed=5)
    assert part.n_samples == 10
    assert sorted(part.features[:, 0]) == list(range(10))


def test_split_sizes_and_cover():
    ds = Dataset(np.arange(100, dtype=float).reshape(100, 1), np.ones(100))
    parts = split(ds, [0.2, 0.8], seed=3)
    assert [p.n_samples for p in parts] == [20, 80]
    seen = np.concatenate([p.features[:, 0] for p in parts])
    assert sorted(seen) == list(range(100))


def test_split_errors():
    ds = Dataset([[1.0], [2.0]], [1.0, -1.0])
    with pytest.raises(ValueError, match="sum"):
        split(ds, [0.5, 0.6], seed=0)
    with pytest.raises(ValueError, match="positive"):
        split(ds, [1.5, -0.5], seed=0)
    with pytest.raises(ValueError, match="cannot split"):
        split(ds, [0.4, 0.3, 0.3], seed=0)


@given(st.integers(0, 2**63 - 1))
@settings(max_examples=25, deadline=None)
def test_split_is_permutation(seed):
    ds = Dataset(np.arange(23, dtype=float).reshape(23, 1), np.ones(23))
    parts = split(ds, [0.3, 0.3, 0.4], seed=seed)
    seen = np.concatenate([p.features[:, 0] for p in parts])
    assert sorted(seen) == list(range(23))


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
