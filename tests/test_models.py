import math

import numpy as np
import pytest

from multisource.data import Dataset, SourcePool
from multisource.models import (
    LOSSES,
    LinearPredictor,
    TrainConfig,
    logistic_loss,
    loss_derivatives,
    loss_values,
    minimize_weighted_loss,
    stack_weighted_pool,
    train_erm,
    train_weighted_erm,
    weighted_objective,
    weighted_objective_grad,
    zero_one_error,
)

# frozen by direct high-precision evaluation of log(1 + e^3)
LOG1P_EXP3 = 3.0485873515737421


def _random_pool(rng, n_sources=3, n=25, d=4):
    sources = tuple(
        Dataset(rng.standard_normal((n, d)), np.where(rng.random(n) < 0.5, 1.0, -1.0))
        for _ in range(n_sources)
    )
    reference = Dataset(rng.standard_normal((10, d)),
                        np.where(rng.random(10) < 0.5, 1.0, -1.0))
    return SourcePool(sources, reference)


def test_logistic_loss_zero_margin():
    pred = LinearPredictor(np.zeros(3), 0.0)
    assert logistic_loss(pred, np.array([1.0, -2.0, 0.5]), 1.0) == pytest.approx(math.log(2))


def test_logistic_loss_saturates_without_overflow():
    pred = LinearPredictor(np.array([50.0]), 0.0)
    assert logistic_loss(pred, np.array([1.0]), 1.0) < 1e-20
    # very negative margin must not overflow either
    assert np.isfinite(logistic_loss(pred, np.array([20.0]), -1.0))


def test_logistic_loss_margin_minus_three():
    pred = LinearPredictor(np.array([3.0]), 0.0)
    assert logistic_loss(pred, np.array([1.0]), -1.0) == pytest.approx(LOG1P_EXP3, rel=1e-12)


def test_logistic_loss_dimension_mismatch():
    pred = LinearPredictor(np.ones(2), 0.0)
    with pytest.raises(ValueError):
        logistic_loss(pred, np.ones(3), 1.0)


@pytest.mark.parametrize("loss", LOSSES)
def test_losses_accept_a_scalar_margin(loss):
    for margin in (-40.0, -3.0, 0.0, 0.5, 40.0):
        for fn in (loss_values, loss_derivatives):
            scalar = fn(np.float64(margin), loss)
            assert np.ndim(scalar) == 0
            assert float(scalar) == fn(np.array([margin]), loss)[0]


def test_zero_one_error_extremes():
    ds = Dataset([[1.0], [-1.0], [2.0]], [1.0, -1.0, 1.0])
    perfect = LinearPredictor(np.array([1.0]), 0.0)
    assert zero_one_error(perfect, ds) == 0.0
    flipped = LinearPredictor(np.array([-1.0]), -1e-9)
    assert zero_one_error(flipped, ds) == 1.0


def test_zero_one_error_matches_hand_enumeration():
    rng = np.random.default_rng(11)
    ds = Dataset(rng.standard_normal((6, 2)), np.where(rng.random(6) < 0.5, 1.0, -1.0))
    pred = LinearPredictor(rng.standard_normal(2), float(rng.standard_normal()))
    mistakes = 0
    for x, y in zip(ds.features, ds.labels):
        h = 1.0 if float(pred.weights @ x) + pred.bias >= 0 else -1.0
        mistakes += h != y
    assert zero_one_error(pred, ds) == mistakes / 6


def test_zero_one_error_empty():
    ds = Dataset(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError):
        zero_one_error(LinearPredictor(np.ones(2), 0.0), ds)


def test_predict_tie_goes_positive():
    pred = LinearPredictor(np.array([1.0]), 0.0)
    assert pred.predict_labels(np.array([[0.0]]))[0] == 1.0


@pytest.mark.parametrize("loss", ["logistic", "huber_logistic"])
def test_gradient_matches_central_differences(loss):
    rng = np.random.default_rng(0)
    pool = _random_pool(rng)
    alpha = rng.dirichlet(np.ones(pool.n_sources))
    X, y, s = stack_weighted_pool(pool, alpha)
    h = 1e-6
    for _ in range(10):
        w = rng.standard_normal(pool.n_features)
        b = float(rng.standard_normal())
        _, gw, gb = weighted_objective_grad(w, b, X, y, s, loss, 0.01)
        numeric = np.zeros(pool.n_features + 1)
        for k in range(pool.n_features):
            e = np.zeros(pool.n_features)
            e[k] = h
            numeric[k] = (
                weighted_objective(w + e, b, X, y, s, loss, 0.01)
                - weighted_objective(w - e, b, X, y, s, loss, 0.01)
            ) / (2 * h)
        numeric[-1] = (
            weighted_objective(w, b + h, X, y, s, loss, 0.01)
            - weighted_objective(w, b - h, X, y, s, loss, 0.01)
        ) / (2 * h)
        analytic = np.append(gw, gb)
        rel = np.abs(analytic - numeric) / np.maximum(1e-6, np.abs(numeric))
        assert rel.max() <= 1e-5


def test_identical_copies_match_single_source():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.standard_normal((40, 3)), np.where(rng.random(40) < 0.5, 1.0, -1.0))
    cfg = TrainConfig(ridge_strength=1e-2)
    single = train_erm(ds, "logistic", cfg)
    pool = SourcePool((ds, ds, ds), ds)
    tripled = train_weighted_erm(pool, np.full(3, 1 / 3), "logistic", cfg)
    assert np.max(np.abs(single.weights - tripled.weights)) <= 1e-8
    assert abs(single.bias - tripled.bias) <= 1e-8


def test_zero_alpha_source_is_bitwise_irrelevant():
    rng = np.random.default_rng(6)
    fixed = Dataset(rng.standard_normal((20, 3)), np.where(rng.random(20) < 0.5, 1.0, -1.0))
    junk_a = Dataset(rng.standard_normal((15, 3)), np.ones(15))
    junk_b = Dataset(rng.standard_normal((15, 3)) * 100, -np.ones(15))
    cfg = TrainConfig(ridge_strength=1e-3)
    alpha = np.array([1.0, 0.0])
    ref = fixed
    pa = train_weighted_erm(SourcePool((fixed, junk_a), ref), alpha, "logistic", cfg)
    pb = train_weighted_erm(SourcePool((fixed, junk_b), ref), alpha, "logistic", cfg)
    assert np.array_equal(pa.weights, pb.weights)
    assert pa.bias == pb.bias


@pytest.mark.parametrize("loss", ["logistic"])
def test_optimizer_beats_random_predictors(loss):
    rng = np.random.default_rng(7)
    pool = _random_pool(rng, n_sources=2, n=30, d=3)
    alpha = np.array([0.4, 0.6])
    X, y, s = stack_weighted_pool(pool, alpha)
    cfg = TrainConfig(ridge_strength=1e-3)
    trained = minimize_weighted_loss(X, y, s, loss, cfg)
    best = weighted_objective(trained.weights, trained.bias, X, y, s, loss, 1e-3)
    zero = weighted_objective(np.zeros(3), 0.0, X, y, s, loss, 1e-3)
    assert best <= zero
    for _ in range(100):
        w = rng.standard_normal(3)
        w /= max(1.0, np.linalg.norm(w))
        b = float(rng.uniform(-1, 1))
        assert best <= weighted_objective(w, b, X, y, s, loss, 1e-3) + 1e-12


def test_alpha_and_ridge_scaling():
    # scaling alpha by c and the ridge by c scales the objective by exactly c,
    # so the argmin is unchanged (up to optimizer resolution on a flat basin)
    rng = np.random.default_rng(8)
    pool = _random_pool(rng, n_sources=2, n=30, d=3)
    c = 3.0
    alpha = np.array([0.3, 0.7])
    Xa, ya, sa = stack_weighted_pool(pool, alpha)
    Xb, yb, sb = stack_weighted_pool(pool, c * alpha)
    for _ in range(10):
        w = rng.standard_normal(3)
        b = float(rng.standard_normal())
        va = weighted_objective(w, b, Xa, ya, sa, "logistic", 1e-2)
        vb = weighted_objective(w, b, Xb, yb, sb, "logistic", c * 1e-2)
        assert vb == pytest.approx(c * va, rel=1e-12)
    base = train_weighted_erm(pool, alpha, "logistic",
                              TrainConfig(ridge_strength=1e-2, tolerance=1e-14))
    scaled = train_weighted_erm(pool, c * alpha, "logistic",
                                TrainConfig(ridge_strength=c * 1e-2, tolerance=1e-14))
    assert np.max(np.abs(base.weights - scaled.weights)) <= 1e-5
    assert abs(base.bias - scaled.bias) <= 1e-5


def test_objective_invariant_under_source_permutation():
    rng = np.random.default_rng(9)
    ds = Dataset(rng.standard_normal((25, 3)), np.where(rng.random(25) < 0.5, 1.0, -1.0))
    perm = rng.permutation(25)
    shuffled = ds.take(perm)
    ref = ds
    alpha = np.array([1.0])
    w = rng.standard_normal(3)
    b = 0.3
    Xa, ya, sa = stack_weighted_pool(SourcePool((ds,), ref), alpha)
    Xb, yb, sb = stack_weighted_pool(SourcePool((shuffled,), ref), alpha)
    va = weighted_objective(w, b, Xa, ya, sa, "logistic", 1e-2)
    vb = weighted_objective(w, b, Xb, yb, sb, "logistic", 1e-2)
    assert va == pytest.approx(vb, rel=1e-12)


def test_training_is_deterministic():
    rng = np.random.default_rng(10)
    pool = _random_pool(rng)
    alpha = np.full(3, 1 / 3)
    a = train_weighted_erm(pool, alpha, "huber_logistic", TrainConfig(ridge_strength=1e-3))
    b = train_weighted_erm(pool, alpha, "huber_logistic", TrainConfig(ridge_strength=1e-3))
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def test_alpha_length_mismatch():
    rng = np.random.default_rng(12)
    pool = _random_pool(rng)
    with pytest.raises(ValueError, match="alpha"):
        train_weighted_erm(pool, np.array([0.5, 0.5]), "logistic", TrainConfig())


def test_predictor_json_round_trip():
    pred = LinearPredictor(np.array([0.1, -2.5e-17, 3.0]), -0.75)
    back = LinearPredictor.from_json(pred.to_json())
    assert np.array_equal(back.weights, pred.weights)
    assert back.bias == pred.bias


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(ridge_strength=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        TrainConfig(max_iterations=0)
