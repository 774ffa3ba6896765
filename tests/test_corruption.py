import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from helpers import random_dataset
from multisource.corruption import CorruptionSpec, _chosen_rows, corrupt, corrupt_pool
from multisource.data import Dataset, SourcePool
from multisource.models import LinearPredictor, zero_one_error


def _pool(rng, n_sources=4, n=12):
    sources = tuple(random_dataset(rng, n, 3) for _ in range(n_sources))
    return SourcePool(sources, random_dataset(rng, 10, 3))


def test_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec("melt_gpu", 0.5, 0)
    with pytest.raises(ValueError):
        CorruptionSpec("label_bias", 0.0, 0)
    with pytest.raises(ValueError):
        CorruptionSpec("label_bias", 1.5, 0)
    CorruptionSpec("label_bias", 0.5, 2**64 - 1)  # the largest 64-bit seed
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
            CorruptionSpec("label_bias", 0.5, seed)


def test_label_bias_full_proportion_sets_every_label_positive():
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, 20, 2)
    out = corrupt(ds, CorruptionSpec("label_bias", 1.0, seed=3))
    assert np.all(out.labels == 1.0)
    assert np.array_equal(out.features, ds.features)


def test_label_bias_partial_touches_ceil_fraction():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.standard_normal((10, 2)), -np.ones(10))
    out = corrupt(ds, CorruptionSpec("label_bias", 0.25, seed=3))
    assert int(np.sum(out.labels == 1.0)) == 3  # ceil(0.25 * 10)


@pytest.mark.parametrize("proportion, n, count", [
    (0.28, 25, 7),   # 0.28 * 25 == 7.000000000000001
    (0.07, 100, 7),
    (0.55, 180, 99),
    (0.68, 75, 51),
    (0.5, 7, 4),
    (0.01, 1, 1),
    (1.0, 200, 200),
])
def test_label_bias_touches_the_exact_ceiling_of_the_share(proportion, n, count):
    ds = Dataset(np.zeros((n, 1)), -np.ones(n))
    out = corrupt(ds, CorruptionSpec("label_bias", proportion, seed=3))
    assert int(np.sum(out.labels == 1.0)) == count


def test_every_percentage_of_small_datasets_touches_the_exact_ceiling():
    # percent/100 * n is exact in integers: ceil(percent * n / 100)
    rng = np.random.default_rng(0)
    for percent in range(1, 101):
        for n in range(1, 201):
            rows = _chosen_rows(rng, n, percent / 100)
            assert rows.size == -(-percent * n // 100), (percent, n)


def test_shuffled_labels_preserves_multiset():
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, 30, 2)
    out = corrupt(ds, CorruptionSpec("shuffled_labels", 1.0, seed=9))
    assert sorted(out.labels) == sorted(ds.labels)
    assert np.array_equal(out.features, ds.features)


def test_shuffled_features_inverse_permutation_restores():
    # column j holds the constant value j, so the permutation can be read off
    n, d = 6, 5
    features = np.tile(np.arange(d, dtype=float), (n, 1))
    ds = Dataset(features, np.ones(n))
    out = corrupt(ds, CorruptionSpec("shuffled_features", 1.0, seed=4))
    perm = out.features[0].astype(int)  # out column k came from input column perm[k]
    inverse = np.argsort(perm)
    restored = out.features[:, inverse]
    assert np.array_equal(restored, ds.features)
    assert np.array_equal(out.labels, ds.labels)


def test_shuffled_features_row_multiset_invariant():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 8, 6)
    out = corrupt(ds, CorruptionSpec("shuffled_features", 1.0, seed=11))
    for before, after in zip(ds.features, out.features):
        assert sorted(before) == sorted(after)


def test_same_permutation_applied_to_every_chosen_row():
    rng = np.random.default_rng(4)
    ds = random_dataset(rng, 10, 4)
    out = corrupt(ds, CorruptionSpec("shuffled_features", 1.0, seed=12))
    # recover the permutation from row 0 by matching values, verify on all rows
    perm = [int(np.flatnonzero(ds.features[0] == v)[0]) for v in out.features[0]]
    assert np.array_equal(out.features, ds.features[:, perm])


def test_corrupt_determinism():
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, 25, 3)
    spec = CorruptionSpec("shuffled_labels", 0.6, seed=77)
    a = corrupt(ds, spec)
    b = corrupt(ds, spec)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.features, b.features)


def test_corrupt_does_not_mutate_input():
    rng = np.random.default_rng(6)
    ds = random_dataset(rng, 15, 3)
    before = ds.labels.copy()
    corrupt(ds, CorruptionSpec("label_bias", 1.0, seed=0))
    assert np.array_equal(ds.labels, before)


@given(st.sampled_from(["label_bias", "shuffled_labels", "shuffled_features"]),
       st.floats(0.05, 1.0), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_corrupt_preserves_shape(kind, proportion, seed):
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, 17, 4)
    out = corrupt(ds, CorruptionSpec(kind, proportion, seed))
    assert out.n_samples == ds.n_samples
    assert out.n_features == ds.n_features


def test_label_bias_defeats_constant_negative_predictor():
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, 12, 2)
    out = corrupt(ds, CorruptionSpec("label_bias", 1.0, seed=1))
    always_negative = LinearPredictor(np.zeros(2), -1.0)
    assert zero_one_error(always_negative, out) == 1.0


def test_corrupt_pool_zero_is_identity():
    rng = np.random.default_rng(8)
    pool = _pool(rng)
    out, touched = corrupt_pool(pool, 0, CorruptionSpec("label_bias", 1.0, 5), seed=3)
    assert out is pool and touched == []


def test_corrupt_pool_all_sources():
    rng = np.random.default_rng(9)
    pool = _pool(rng)
    out, touched = corrupt_pool(pool, pool.n_sources,
                                CorruptionSpec("label_bias", 1.0, 5), seed=3)
    assert touched == list(range(pool.n_sources))
    for src in out.sources:
        assert np.all(src.labels == 1.0)
    assert np.array_equal(out.reference.labels, pool.reference.labels)
    assert np.array_equal(out.reference.features, pool.reference.features)


def test_corrupt_pool_deterministic():
    rng = np.random.default_rng(10)
    pool = _pool(rng)
    spec = CorruptionSpec("shuffled_labels", 1.0, 31)
    a, ia = corrupt_pool(pool, 2, spec, seed=8)
    b, ib = corrupt_pool(pool, 2, spec, seed=8)
    assert ia == ib
    for sa, sb in zip(a.sources, b.sources):
        assert np.array_equal(sa.labels, sb.labels)


def test_corrupt_pool_shuffles_independently_across_sources():
    rng = np.random.default_rng(11)
    ds = random_dataset(rng, 40, 2)
    pool = SourcePool((ds, ds), ds)  # identical sources
    out, _ = corrupt_pool(pool, 2, CorruptionSpec("shuffled_labels", 1.0, 13), seed=2)
    # same data, different per-source seeds: shuffles should differ
    assert not np.array_equal(out.sources[0].labels, out.sources[1].labels)


def test_corrupt_pool_bounds():
    rng = np.random.default_rng(12)
    pool = _pool(rng)
    with pytest.raises(ValueError):
        corrupt_pool(pool, pool.n_sources + 1, CorruptionSpec("label_bias", 1.0, 0), 0)
