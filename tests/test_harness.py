import json
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from helpers import config_to_json, random_dataset, write_csv
from multisource import discrepancy, harness
from multisource.baselines import standardize
from multisource.data import Dataset, SourcePool, load_csvs, merge
from multisource.harness import (
    CorruptionSetting,
    CsvDataSpec,
    ExperimentConfig,
    SyntheticSpec,
    _cross_validate,
    _fitter,
    build_pool,
    config_from_json,
    generate_synthetic_pool,
    run_method,
    run_sweep,
    write_results_csv,
    write_summary_csv,
)
from multisource.models import LinearPredictor, train_erm, train_weighted_erm, zero_one_error


def _spec(**overrides):
    base = dict(n_sources=4, samples_per_source=40, reference_size=30, test_size=300,
                n_features=2, class_separation=2.0)
    base.update(overrides)
    return SyntheticSpec(**base)


def _config(**overrides):
    base = dict(data=_spec(), method=("ours",), lambda_grid=(1.0,), ridge_grid=(1e-2,),
                repeats=1, seed=5)
    base.update(overrides)
    return ExperimentConfig(**base)


def _without(text, *path):
    """Config JSON `text` with the key at `path` deleted."""
    obj = json.loads(text)
    *parents, key = path
    target = obj
    for name in parents:
        target = target[name]
    del target[key]
    return json.dumps(obj)


def test_synthetic_pool_deterministic():
    a_pool, a_test = generate_synthetic_pool(_spec(), seed=12)
    b_pool, b_test = generate_synthetic_pool(_spec(), seed=12)
    assert np.array_equal(a_test.features, b_test.features)
    for sa, sb in zip(a_pool.sources, b_pool.sources):
        assert np.array_equal(sa.features, sb.features)
        assert np.array_equal(sa.labels, sb.labels)


def test_synthetic_pool_shapes():
    pool, test = generate_synthetic_pool(_spec(n_sources=3, samples_per_source=11,
                                               reference_size=7, test_size=13), seed=1)
    assert pool.n_sources == 3
    assert [s.n_samples for s in pool.sources] == [11, 11, 11]
    assert pool.reference.n_samples == 7 and test.n_samples == 13


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        _spec(test_size=0)
    with pytest.raises(ValueError):
        _spec(positive_fraction=1.0)


def test_large_separation_is_easy():
    errors = []
    for seed in range(20):
        pool, test = generate_synthetic_pool(_spec(class_separation=10.0), seed=seed)
        pred = train_erm(pool.reference, "logistic", 1e-3)
        errors.append(zero_one_error(pred, test))
    assert float(np.mean(errors)) <= 0.02


def test_zero_separation_is_chance_level():
    errors = []
    for seed in range(20):
        pool, test = generate_synthetic_pool(_spec(class_separation=0.0), seed=seed)
        pred = train_erm(pool.reference, "logistic", 1e-2)
        errors.append(zero_one_error(pred, test))
    assert 0.45 <= float(np.mean(errors)) <= 0.55


def test_all_data_equals_plain_erm_on_concatenation():
    rng = np.random.default_rng(3)
    ref = Dataset(rng.standard_normal((25, 2)), np.where(rng.random(25) < 0.5, 1.0, -1.0))
    pool = SourcePool((ref, ref), ref)
    # run the baseline fit directly to compare predictors, not just errors
    fitted = _fitter("all_data", pool.sources, ref)((None, 1e-2))[0]
    direct = train_erm(merge((ref, ref, ref)), "logistic", 1e-2)
    assert np.max(np.abs(fitted.weights - direct.weights)) <= 1e-8
    assert abs(fitted.bias - direct.bias) <= 1e-8


def test_geometric_median_of_identical_sources_is_local_model():
    rng = np.random.default_rng(4)
    ds = Dataset(rng.standard_normal((30, 2)), np.where(rng.random(30) < 0.5, 1.0, -1.0))
    pool = SourcePool((ds, ds, ds), ds)
    agg = _fitter("geometric_median", pool.sources, ds)((None, 1e-2))[0]
    local = train_erm(ds, "logistic", 1e-2)
    assert np.max(np.abs(agg.weights - local.weights)) <= 1e-8


def test_median_baselines_aggregate_the_stacked_local_models():
    models = [LinearPredictor(np.array([0.0, 1.0]), 5.0),
              LinearPredictor(np.array([1.0, 0.0]), 1.0),
              LinearPredictor(np.array([5.0, 5.0]), 0.0)]
    ds = Dataset(np.zeros((2, 2)), [1.0, -1.0])

    def fit_as(method, local_models):
        fits = iter(local_models)
        fit = _fitter(method, (ds, ds, ds), ds, lambda data, loss, ridge: next(fits))
        return fit((None, 1e-2))[0]

    agg = fit_as("componentwise_median", models)
    assert np.array_equal(agg.weights, [1.0, 1.0])
    assert agg.bias == 1.0
    same = fit_as("geometric_median", [models[0]] * 3)
    assert np.allclose(same.weights, models[0].weights, atol=1e-12)
    assert abs(same.bias - models[0].bias) <= 1e-12


def _standardized(data: Dataset) -> Dataset:
    return Dataset(standardize(data.features)[0], data.labels)


def test_batch_norm_matches_all_data_on_standardized_pool():
    pool, test = generate_synthetic_pool(_spec(), seed=9)
    std_pool = SourcePool(tuple(map(_standardized, pool.sources)), _standardized(pool.reference))
    _, mean, std = standardize(std_pool.reference.features)
    std_test = Dataset((test.features - mean) / std, test.labels)
    cfg = _config()
    a = run_method(std_pool, std_test, cfg, "all_data")
    b = run_method(std_pool, std_test, cfg, "batch_norm")
    assert abs(a.test_error - b.test_error) <= 1e-6


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-2.0, 2.0),
       shift=st.floats(-50.0, 50.0))
def test_batch_norm_folds_the_reference_statistics_into_a_linear_predictor(
        seed, log_scale, shift):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** (log_scale + rng.uniform(-1.0, 1.0, 3))

    def draw(n):
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        features = rng.standard_normal((n, 3))
        features[:, 0] += labels
        return Dataset(scale * features + shift, labels)

    sources, test = (draw(30), draw(25)), draw(200)
    reference = draw(20)
    reference = Dataset(np.column_stack(  # a constant column
        [reference.features[:, :2], np.full(20, shift + 0.1)]), reference.labels)
    predictor = _fitter("batch_norm", sources, reference)((None, 1e-2))[0]
    assert isinstance(predictor, LinearPredictor)
    assert predictor.weights[2] == 0.0
    _, mean, std = standardize(reference.features)
    inner = train_erm(merge([_standardized(d) for d in sources + (reference,)]), "logistic", 1e-2)
    assert np.array_equal(predictor.predict_labels(test.features),
                          inner.predict_labels((test.features - mean) / std))


def test_run_ours_populates_alpha_and_discrepancies():
    pool, test = generate_synthetic_pool(_spec(), seed=2)
    result = run_method(pool, test, _config(), "ours")
    assert result.alpha is not None and len(result.alpha) == pool.n_sources + 1
    assert result.discrepancies is not None
    assert result.discrepancies[-1] == 0.0  # the appended reference
    assert abs(result.alpha.sum() - 1.0) <= 1e-9
    assert 0.0 <= result.test_error <= 1.0


def test_run_ours_singleton_grids_skip_cv():
    pool, test = generate_synthetic_pool(_spec(), seed=2)
    a = run_method(pool, test, _config(), "ours")
    b = run_method(pool, test, _config(), "ours")
    assert a.test_error == b.test_error
    assert a.selected_lambda == 1.0 and a.selected_ridge == 1e-2


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([1e-2, 1.0, 100.0]),
       ridge=st.sampled_from([1e-4, 1e-2]))
def test_splitting_a_source_into_its_identical_halves_changes_nothing(seed, lam, ridge):
    # the halves go to different places in the pool, the second with its rows
    # shuffled, so the stacked training problem differs in order only
    pool, _ = generate_synthetic_pool(_spec(), seed)
    half = pool.sources[1]
    shuffled = half.take(np.random.default_rng(seed).permutation(half.n_samples))
    whole = (pool.sources[0], merge((half, half)), pool.sources[2])
    split = (pool.sources[0], half, pool.sources[2], shuffled)
    fits = [_fitter("ours", s, pool.reference)((lam, ridge)) for s in (whole, split)]
    (p_whole, a_whole, _), (p_split, a_split, _) = fits
    merged = np.array([a_split[0], a_split[1] + a_split[3], a_split[2], a_split[4]])
    assert np.max(np.abs(a_whole - merged)) <= 1e-9
    assert np.max(np.abs(p_whole.weights - p_split.weights)) <= 1e-9
    assert abs(p_whole.bias - p_split.bias) <= 1e-9


def _separable_pool(n=20):
    # label = sign of the first feature, so LinearPredictor([1, 0], 0) is perfect
    rng = np.random.default_rng(6)
    features = rng.standard_normal((n, 2))
    ref = Dataset(features, np.where(features[:, 0] >= 0, 1.0, -1.0))
    return SourcePool((ref,), ref)


def test_cross_validate_tie_goes_to_first_grid_point():
    same = LinearPredictor(np.array([0.3, -1.0]), 0.1)
    for grid in (["b", "a", "c"], [2.0, 0.5]):
        assert _cross_validate(_separable_pool(), grid, 4, 0,
                               lambda ref_train: lambda point: same) == grid[0]


class _Misses:
    """A predictor that calls +1 every row but the first `count`."""

    def __init__(self, count):
        self.count = count

    def predict_labels(self, features):
        return np.where(np.arange(len(features)) < self.count, -1.0, 1.0)


def test_cross_validate_ties_in_exact_sums_go_to_the_first_grid_point():
    # 20-row folds: misses (1, 2, 0, 0, 0) and (3, 0, 0, 0, 0) tie at 3/20,
    # but as float fractions they sum to 0.15000000000000002 and 0.15
    reference = Dataset(np.zeros((100, 1)), np.ones(100))
    patterns = {0: (1, 2, 0, 0, 0), 1: (3, 0, 0, 0, 0)}
    folds = []

    def fit_fold(ref_train):
        folds.append(None)
        return lambda point: _Misses(patterns[point][len(folds) - 1])

    assert _cross_validate(SourcePool((reference,), reference), [0, 1], 5, 0, fit_fold) == 0
    assert len(folds) == 5


def test_cross_validate_sums_fold_fractions_not_pooled_misses():
    # 11 rows in 5 folds of 2, 2, 2, 2 and 3: one miss in a 2-row fold (1/2)
    # weighs more than one in the 3-row fold (1/3), though both count 1
    reference = Dataset(np.zeros((11, 1)), np.ones(11))
    held_out = []

    def fit_fold(ref_train):
        held_out.append(11 - ref_train.n_samples)
        first_pair = held_out[-1] == 2 and held_out.count(2) == 1
        misses = {0: int(first_pair), 1: int(held_out[-1] == 3)}
        return lambda point: _Misses(misses[point])

    assert _cross_validate(SourcePool((reference,), reference), [0, 1], 5, 0, fit_fold) == 1
    assert sorted(held_out) == [2, 2, 2, 2, 3]


def test_cross_validate_picks_strictly_better_later_point():
    predictors = {"wrong": LinearPredictor(np.array([-1.0, 0.0]), 0.0),
                  "coin": LinearPredictor(np.zeros(2), 0.0),
                  "right": LinearPredictor(np.array([1.0, 0.0]), 0.0)}
    chosen = _cross_validate(_separable_pool(), list(predictors), 4, 0,
                             lambda ref_train: predictors.__getitem__)
    assert chosen == "right"


def test_cross_validate_one_point_grid_never_fits():
    def fit_fold(ref_train):
        raise AssertionError("a one-point grid needs no fit")

    assert _cross_validate(_separable_pool(), [(1.0, 1e-2)], 5, 0, fit_fold) == (1.0, 1e-2)


def test_cross_validate_holds_out_each_fold_once():
    pool = _separable_pool(n=10)
    seen = []

    def fit_fold(ref_train):
        seen.append(ref_train.n_samples)
        return lambda point: LinearPredictor(np.zeros(2), 0.0)

    _cross_validate(pool, [0, 1], 5, 0, fit_fold)
    assert seen == [8] * 5


def test_reference_free_baseline_trains_once_per_ridge(monkeypatch):
    # the local models ignore the reference, so CV folds and the final fit
    # share one set per ridge
    calls = []

    def counting(data, loss, ridge):
        calls.append((data, ridge))
        return train_erm(data, loss, ridge)

    monkeypatch.setattr(harness, "train_erm", counting)
    pool, test = generate_synthetic_pool(_spec(), seed=7)
    cfg = _config(ridge_grid=(1e-2, 1e-1, 1.0), cv_folds=3)
    for method in ("geometric_median", "componentwise_median", "median_of_probs"):
        calls.clear()
        result = run_method(pool, test, cfg, method)
        assert sorted(ridge for _, ridge in calls) == [r for r in (1e-2, 1e-1, 1.0)
                                                       for _ in range(pool.n_sources)]
        assert all(any(data is s for s in pool.sources) for data, _ in calls)
        assert result.selected_ridge in cfg.ridge_grid


def test_ours_builds_each_samples_moments_once_per_fitter(monkeypatch):
    built, moments = [], discrepancy.moments
    monkeypatch.setattr(discrepancy, "moments", lambda data: built.append(data) or moments(data))
    pool, _ = generate_synthetic_pool(_spec(n_sources=5), seed=3)
    fit = _fitter("ours", pool.sources, pool.reference)
    for point in ((0.0, 1e-2), (1.0, 1e-2), (1.0, 1e-1)):
        fit(point)
    assert len(built) == pool.n_sources + 1
    assert sum(data is pool.reference for data in built) == 1


def test_ours_fits_each_distinct_weighted_problem_once_per_fitter(monkeypatch):
    # lam = 0 and 1e-3 often give the same alpha; a fold's fitter, or the
    # final one, fits each distinct (alpha, ridge) it is asked for once
    fitter, asked, fits = harness._fitter, [], []

    def asking(*args, **kwargs):
        fit = fitter(*args, **kwargs)

        def recorded(point):
            predictor, alpha, discrepancies = fit(point)
            asked.append((fit, alpha.tobytes(), point[1]))  # holding fit keeps its id unique
            return predictor, alpha, discrepancies

        return recorded

    def counting(pool, alpha, loss, ridge):
        fits.append((pool, alpha.tobytes(), ridge))
        return train_weighted_erm(pool, alpha, loss, ridge)

    monkeypatch.setattr(harness, "_fitter", asking)
    monkeypatch.setattr(harness, "train_weighted_erm", counting)
    pool, test = generate_synthetic_pool(_spec(), seed=2)
    cfg = _config(lambda_grid=(0.0, 1e-3, 1.0), ridge_grid=(1e-2, 1e-1), cv_folds=3)
    run_method(pool, test, cfg, "ours")
    distinct = {(id(fit), alpha, ridge) for fit, alpha, ridge in asked}
    assert len(asked) == 3 * 3 * 2 + 1  # every fold's grid, then the final fit
    assert len(distinct) < len(asked)  # some lam in this grid share an alpha
    assert len(fits) == len(distinct)
    assert len({(id(p), alpha, ridge) for p, alpha, ridge in fits}) == len(fits)


def test_run_method_rejects_unknown_method():
    pool, test = generate_synthetic_pool(_spec(), seed=2)
    with pytest.raises(ValueError, match="unknown method 'gradient_psychic'"):
        run_method(pool, test, _config(), "gradient_psychic")


@pytest.mark.parametrize("method", ["reference_only", "all_data", "geometric_median",
                                    "componentwise_median", "median_of_probs",
                                    "robust_loss", "batch_norm"])
def test_every_baseline_runs(method):
    pool, test = generate_synthetic_pool(_spec(), seed=7)
    result = run_method(pool, test, _config(), method)
    assert 0.0 <= result.test_error <= 1.0
    assert result.alpha is None and result.selected_lambda is None


def test_sweep_row_count_and_determinism(tmp_path):
    cfg = _config(method=("ours", "all_data"), repeats=2,
                  corruption=CorruptionSetting("shuffled_labels", (0, 2), 1.0))
    cells = run_sweep(cfg)
    assert len(cells) == 2 * 2 * 2  # methods x n grid x repeats
    cells2 = run_sweep(cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(cells, a)
    write_results_csv(cells2, b)
    assert a.read_bytes() == b.read_bytes()


def test_sweep_builds_the_base_pool_once_per_repeat(monkeypatch):
    calls = []

    def counting(config, seed):
        calls.append(seed)
        return build_pool(config, seed)

    monkeypatch.setattr(harness, "build_pool", counting)
    cfg = _config(method=("all_data",), repeats=3,
                  corruption=CorruptionSetting("shuffled_labels", (0, 1, 2), 1.0))
    assert len(run_sweep(cfg)) == 3 * 3
    assert len(calls) == 3 and len(set(calls)) == 3


def test_a_csv_sweep_reads_its_files_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    paths = [str(tmp_path / f"{name}.csv") for name in ("a", "b", "reference", "test")]
    for path in paths:
        write_csv(random_dataset(rng, 30, 2), path)
    reads = []

    def counting(paths, label_column):
        reads.append(paths)
        return load_csvs(paths, label_column)

    monkeypatch.setattr(harness, "load_csvs", counting)
    spec = CsvDataSpec(source_paths=tuple(paths[:2]), reference_path=paths[2],
                       test_path=paths[3])
    cfg = _config(data=spec, method=("all_data",), repeats=3,
                  corruption=CorruptionSetting("shuffled_labels", (0, 1), 1.0))
    cells = run_sweep(cfg)
    assert [(c.repeat, c.n_corrupted) for c in cells] == [(r, n) for r in range(3)
                                                          for n in (0, 1)]
    assert reads == [paths]


def test_sweep_single_cell_matches_direct_call():
    cfg = _config(method=("all_data",))
    cells = run_sweep(cfg)
    assert len(cells) == 1
    from multisource.harness import _derive_seed
    pool, test = build_pool(cfg, _derive_seed(cfg.seed, 0, 0))
    direct = run_method(pool, test, cfg, "all_data", _derive_seed(cfg.seed, 3, 0, 0))
    assert cells[0].result.test_error == direct.test_error


def test_sweep_method_order_does_not_change_cells():
    cfg_fwd = _config(method=("all_data", "reference_only"), repeats=2)
    cfg_rev = _config(method=("reference_only", "all_data"), repeats=2)
    fwd = run_sweep(cfg_fwd)
    rev = run_sweep(cfg_rev)
    table_fwd = {(c.result.method, c.n_corrupted, c.repeat): c.result.test_error for c in fwd}
    table_rev = {(c.result.method, c.n_corrupted, c.repeat): c.result.test_error for c in rev}
    assert table_fwd == table_rev


def test_summary_csv(tmp_path):
    cfg = _config(method=("all_data",), repeats=3)
    cells = run_sweep(cfg)
    path = tmp_path / "summary.csv"
    write_summary_csv(cells, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "method,n_corrupted,mean_test_error,stddev_test_error"
    assert len(lines) == 2
    errors = [c.result.test_error for c in cells]
    mean = float(np.mean(errors))
    assert lines[1].startswith(f"all_data,0,{mean!r}")


def test_config_json_round_trip():
    cfg = _config(method=("ours", "batch_norm"), repeats=3,
                  corruption=CorruptionSetting("label_bias", (0, 1, 3), 0.5))
    back = config_from_json(config_to_json(cfg))
    assert back == cfg


def test_config_json_accepts_scalars():
    text = """
    {"data": {"synthetic": {"n_sources": 2, "samples_per_source": 10,
                            "reference_size": 8, "test_size": 20,
                            "n_features": 2, "class_separation": 1.0}},
     "method": "all_data",
     "lambda_grid": [1.0], "ridge_grid": [0.01],
     "corruption": {"kind": "label_bias", "n_corrupted": 1},
     "seed": 3}
    """
    cfg = config_from_json(text)
    assert cfg.method == ("all_data",)
    assert cfg.corruption.n_corrupted == (1,)
    assert cfg.corruption.proportion == 1.0


def test_csv_config_round_trip(tmp_path):
    spec = CsvDataSpec(source_paths=("a.csv", "b.csv"), reference_path="r.csv",
                       test_path="t.csv", label_column="y")
    cfg = ExperimentConfig(data=spec, method=("reference_only",))
    back = config_from_json(config_to_json(cfg))
    assert back == cfg
    assert CsvDataSpec(["a.csv"], "r.csv", "t.csv").source_paths == ("a.csv",)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        _config(method=("gradient_psychic",))
    with pytest.raises(ValueError):
        _config(lambda_grid=())
    # a bad grid entry fails when the config is read, not at the sweep's first solve or fit
    for name, bad in (("lambda_grid", -1.0), ("lambda_grid", float("inf")),
                      ("ridge_grid", float("nan")), ("ridge_grid", -1.0)):
        with pytest.raises(ValueError, match=name):
            _config(**{name: (1.0, bad)})
    with pytest.raises(ValueError):
        _config(repeats=0)
    with pytest.raises(ValueError, match="^cv_folds must be >= 2$"):
        _config(cv_folds=1)
    # a misspelt key used to fall back to the default grid without a word
    text = config_to_json(_config())
    with pytest.raises(ValueError, match="lamda_grid"):
        config_from_json(text.replace('"lambda_grid"', '"lamda_grid"'))
    with pytest.raises(ValueError, match="n_source"):
        config_from_json(text.replace('"n_sources"', '"n_source"'))
    # a method listed twice would run twice and count each of its errors twice
    with pytest.raises(ValueError, match="method 'ours' is listed more than once"):
        config_from_json(json.dumps(dict(json.loads(text), method=["ours", "all_data", "ours"])))
    with pytest.raises(ValueError, match="seed must be a whole number"):
        config_from_json(text.replace('"seed": 5', '"seed": 5.5'))
    assert config_from_json(text.replace('"seed": 5', '"seed": 5.0')).seed == 5
    with pytest.raises(ValueError, match="seed must be a whole number"):
        config_from_json(text.replace('"seed": 5', '"seed": Infinity'))
    # JSON reads a 400-digit number as an exact int, too large for a float
    with pytest.raises(ValueError, match="^seed must be a whole number, got 9{400}$"):
        config_from_json(text.replace('"seed": 5', '"seed": ' + "9" * 400))
    with pytest.raises(ValueError, match="^class_separation must be a finite number, got 9{400}$"):
        config_from_json(re.sub(r'"class_separation": [^,}]+', '"class_separation": ' + "9" * 400,
                                text))
    # the data block names exactly one known kind
    data = json.loads(text)["data"]
    for bad in (dict(data, csv_paths={"source_paths": ["a.csv"], "reference_path": "r.csv",
                                      "test_path": "t.csv"}),
                {"parquet": data["synthetic"]}, {}):
        with pytest.raises(ValueError, match="^config data must contain exactly one of "
                                             "'synthetic' or 'csv_paths'$"):
            config_from_json(json.dumps(dict(json.loads(text), data=bad)))
    for name in ("reference_path", "test_path", "label_column"):
        paths = dict(source_paths=("a.csv",), reference_path="r.csv", test_path="t.csv")
        with pytest.raises(ValueError, match=f"^{name} must be a string, got 5$"):
            CsvDataSpec(**dict(paths, **{name: 5}))
    # a seed is a 64-bit seed: both ends of the range are read, a value outside is named
    assert [_config(seed=s).seed for s in (0, 2**64 - 1)] == [0, 2**64 - 1]
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
            _config(seed=seed)
    with pytest.raises(ValueError, match="missing ExperimentConfig key.*: method$"):
        config_from_json(_without(text, "method"))
    with pytest.raises(ValueError, match="missing SyntheticSpec key.*: n_sources$"):
        config_from_json(_without(text, "data", "synthetic", "n_sources"))
    csv_text = config_to_json(_config(data=CsvDataSpec(("a.csv",), "r.csv", "t.csv")))
    # each file's labels show its encoding, so the config names none
    with pytest.raises(ValueError, match="unknown CsvDataSpec key.*: label_encoding$"):
        config_from_json(csv_text.replace('"label_column"', '"label_encoding": "zero_one", '
                                          '"label_column"'))
    with pytest.raises(ValueError, match="missing CsvDataSpec key.*: reference_path, test_path$"):
        config_from_json(_without(_without(csv_text, "data", "csv_paths", "reference_path"),
                                  "data", "csv_paths", "test_path"))
    corrupted = config_to_json(_config(corruption=CorruptionSetting("label_bias", (1,))))
    with pytest.raises(ValueError, match="missing CorruptionSetting key.*: kind$"):
        config_from_json(_without(corrupted, "corruption", "kind"))
    # a corruption level the pool cannot run fails when the config is read,
    # not after the sweep has run every level below it
    with pytest.raises(ValueError, match="n_corrupted must be a nonempty list"):
        CorruptionSetting("label_bias", [])
    _config(corruption=CorruptionSetting("label_bias", (0, 4)))  # all 4 sources
    with pytest.raises(ValueError, match="n_corrupted=5 exceeds the pool's 4 sources"):
        _config(corruption=CorruptionSetting("label_bias", (0, 1, 5)))
    csv_spec = CsvDataSpec(("a.csv", "b.csv"), "r.csv", "t.csv")
    _config(data=csv_spec, corruption=CorruptionSetting("label_bias", (2,)))
    with pytest.raises(ValueError, match="n_corrupted=3 exceeds the pool's 2 sources"):
        _config(data=csv_spec, corruption=CorruptionSetting("label_bias", (3, 0)))


@pytest.mark.parametrize("make, field", [
    (lambda: CorruptionSetting("label_bias", [1.5, 2.9]), "n_corrupted"),
    (lambda: CorruptionSetting("label_bias", float("inf")), "n_corrupted"),
    (lambda: _spec(samples_per_source=20.5), "samples_per_source"),
    (lambda: _spec(n_features=float("nan")), "n_features"),
    (lambda: _spec(test_size="300"), "test_size"),
    (lambda: _config(cv_folds=2.5), "cv_folds"),
    (lambda: _config(seed=float("-inf")), "seed"),
    (lambda: _config(repeats=True), "repeats"),
])
def test_whole_number_fields_reject_fractions_and_non_finite_values(make, field):
    with pytest.raises(ValueError, match=f"{field} must be a whole number"):
        make()


def test_whole_number_fields_turn_whole_floats_into_ints():
    spec = _spec(n_sources=3.0, samples_per_source=20.0, n_features=np.float64(2))
    assert (spec.n_sources, spec.samples_per_source, spec.n_features) == (3, 20, 2)
    assert all(type(v) is int for v in (spec.n_sources, spec.samples_per_source, spec.n_features))
    assert CorruptionSetting("label_bias", [0.0, 2.0]).n_corrupted == (0, 2)
    assert CorruptionSetting("label_bias", np.int64(3)).n_corrupted == (3,)
