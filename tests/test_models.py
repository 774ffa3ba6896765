import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from multisource import models
from multisource.data import Dataset, SourcePool
from multisource.models import (
    FLOAT_SLACK,
    HUBER_C,
    LOSSES,
    LinearPredictor,
    _design_t,
    _evaluate,
    loss_terms,
    minimize_weighted_loss,
    stack_weighted_pool,
    train_erm,
    train_weighted_erm,
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
    margin = 1.0 * pred.decision_function(np.array([1.0, -2.0, 0.5]))
    assert loss_terms(margin, "logistic")[0] == pytest.approx(math.log(2))


def test_logistic_loss_saturates_without_overflow():
    pred = LinearPredictor(np.array([50.0]), 0.0)
    assert loss_terms(1.0 * pred.decision_function(np.array([1.0])), "logistic")[0] < 1e-20
    # very negative margin must not overflow either
    assert np.isfinite(loss_terms(-1.0 * pred.decision_function(np.array([20.0])), "logistic")[0])


def test_logistic_loss_margin_minus_three():
    pred = LinearPredictor(np.array([3.0]), 0.0)
    margin = -1.0 * pred.decision_function(np.array([1.0]))
    assert loss_terms(margin, "logistic")[0] == pytest.approx(LOG1P_EXP3, rel=1e-12)


def test_logistic_loss_dimension_mismatch():
    pred = LinearPredictor(np.ones(2), 0.0)
    with pytest.raises(ValueError, match="features"):
        pred.decision_function(np.ones(3))


@pytest.mark.parametrize("loss", LOSSES)
def test_losses_accept_a_scalar_margin(loss):
    for margin in (-40.0, -3.0, 0.0, 0.5, 40.0):
        for scalar, vector in zip(loss_terms(np.float64(margin), loss),
                                  loss_terms(np.array([margin]), loss)):
            assert np.ndim(scalar) == 0
            assert float(scalar) == vector[0]


def test_huber_terms_equal_logistic_up_to_the_knot():
    margins = np.concatenate([np.linspace(-40.0, 40.0, 100_001),
                              [-math.log(math.expm1(HUBER_C)), 0.0, -0.0, 700.0]])
    logistic = loss_terms(margins, "logistic")
    huber = loss_terms(margins, "huber_logistic")
    below = logistic[0] <= HUBER_C
    assert below.sum() > 50_000 and (~below).sum() > 10_000
    for log_term, hub_term in zip(logistic, huber):
        assert np.array_equal(hub_term[below].view(np.uint64), log_term[below].view(np.uint64))


def _two_branch_sigmoid(z):
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: no exp overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_terms_match_a_two_branch_sigmoid():
    margins = np.concatenate([np.linspace(-745.0, 745.0, 149_001), [1e300, -1e300, 0.0, -0.0]])
    # a subnormal result carries its rounding as one absolute unit, not a relative one
    tol = dict(rtol=1e-14, atol=np.finfo(np.float64).smallest_subnormal)
    sig_pos, sig_neg = _two_branch_sigmoid(margins), _two_branch_sigmoid(-margins)
    below_knot = np.logaddexp(0.0, -margins) <= HUBER_C
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for loss in LOSSES:
            _, slopes, curvatures = loss_terms(margins, loss)
            keep = below_knot if loss == "huber_logistic" else slice(None)
            np.testing.assert_allclose(slopes[keep], -sig_neg[keep], **tol)
            np.testing.assert_allclose(curvatures[keep], (sig_pos * sig_neg)[keep], **tol)
        probabilities = LinearPredictor(np.ones(1), 0.0).probabilities(margins[:, None])
    np.testing.assert_allclose(probabilities, sig_pos, **tol)


def test_loss_terms_reject_an_unknown_loss():
    with pytest.raises(ValueError, match="unknown loss"):
        loss_terms(np.zeros(3), "squared")


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


def test_train_erm_rejects_an_empty_dataset():
    ds = Dataset(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError, match="^cannot train on an empty dataset$"):
        train_erm(ds)


def test_linear_predictor_rejects_a_matrix_or_non_finite_parameters():
    with pytest.raises(ValueError, match="^weights must be a vector$"):
        LinearPredictor(np.ones((2, 1)), 0.0)
    for weights, bias in (([1.0, np.nan], 0.0), ([np.inf], 0.0), ([1.0], -np.inf)):
        with pytest.raises(ValueError, match="^predictor parameters must be finite$"):
            LinearPredictor(np.array(weights), bias)


def test_predict_tie_goes_positive():
    pred = LinearPredictor(np.array([1.0]), 0.0)
    assert pred.predict_labels(np.array([[0.0]]))[0] == 1.0


@pytest.mark.parametrize("loss", ["logistic", "huber_logistic"])
def test_gradient_matches_central_differences(loss):
    rng = np.random.default_rng(0)
    pool = _random_pool(rng)
    alpha = rng.dirichlet(np.ones(pool.n_sources))
    X, y, s = stack_weighted_pool(pool, alpha)
    D = _design_t(X)
    h = 1e-6
    for _ in range(10):
        theta = np.append(rng.standard_normal(pool.n_features), rng.standard_normal())
        analytic = _evaluate(theta, D, y, s, loss, 0.01)[1]
        numeric = np.array([
            (_evaluate(theta + e, D, y, s, loss, 0.01)[0]
             - _evaluate(theta - e, D, y, s, loss, 0.01)[0]) / (2 * h)
            for e in h * np.eye(pool.n_features + 1)
        ])
        rel = np.abs(analytic - numeric) / np.maximum(1e-6, np.abs(numeric))
        assert rel.max() <= 1e-5


def test_identical_copies_match_single_source():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.standard_normal((40, 3)), np.where(rng.random(40) < 0.5, 1.0, -1.0))
    single = train_erm(ds, "logistic", 1e-2)
    pool = SourcePool((ds, ds, ds), ds)
    tripled = train_weighted_erm(pool, np.full(3, 1 / 3), "logistic", 1e-2)
    assert np.max(np.abs(single.weights - tripled.weights)) <= 1e-8
    assert abs(single.bias - tripled.bias) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sources=st.integers(1, 4), d=st.integers(1, 6),
       loss=st.sampled_from(LOSSES), data=st.data())
def test_zero_alpha_source_is_bitwise_irrelevant(seed, n_sources, d, loss, data):
    # a zero-weight source of any size, scale and labels, at any position
    rng = np.random.default_rng(seed)
    pool = _random_pool(rng, n_sources=n_sources, n=int(rng.integers(2, 30)), d=d)
    alpha = rng.dirichlet(np.ones(n_sources))
    m = int(rng.integers(1, 40))
    junk = Dataset(rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3, 3),
                   np.where(rng.random(m) < 0.5, 1.0, -1.0))
    at = data.draw(st.integers(0, n_sources), label="position")
    padded = SourcePool(pool.sources[:at] + (junk,) + pool.sources[at:], pool.reference)
    base = train_weighted_erm(pool, alpha, loss, 1e-3)
    fit = train_weighted_erm(padded, np.insert(alpha, at, 0.0), loss, 1e-3)
    assert np.array_equal(fit.weights, base.weights)
    assert fit.bias == base.bias


@pytest.mark.parametrize("loss", ["logistic"])
def test_optimizer_beats_random_predictors(loss):
    rng = np.random.default_rng(7)
    pool = _random_pool(rng, n_sources=2, n=30, d=3)
    alpha = np.array([0.4, 0.6])
    X, y, s = stack_weighted_pool(pool, alpha)
    D = _design_t(X)
    trained = minimize_weighted_loss(X, y, s, loss, 1e-3)
    best = _evaluate(np.append(trained.weights, trained.bias), D, y, s, loss, 1e-3)[0]
    zero = _evaluate(np.zeros(4), D, y, s, loss, 1e-3)[0]
    assert best <= zero
    for _ in range(100):
        w = rng.standard_normal(3)
        w /= max(1.0, np.linalg.norm(w))
        b = float(rng.uniform(-1, 1))
        assert best <= _evaluate(np.append(w, b), D, y, s, loss, 1e-3)[0] + 1e-12


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
        theta = np.append(rng.standard_normal(3), rng.standard_normal())
        va = _evaluate(theta, _design_t(Xa), ya, sa, "logistic", 1e-2)[0]
        vb = _evaluate(theta, _design_t(Xb), yb, sb, "logistic", c * 1e-2)[0]
        assert vb == pytest.approx(c * va, rel=1e-12)
    base = train_weighted_erm(pool, alpha, "logistic", 1e-2)
    scaled = train_weighted_erm(pool, c * alpha, "logistic", c * 1e-2)
    assert np.max(np.abs(base.weights - scaled.weights)) <= 1e-5
    assert abs(base.bias - scaled.bias) <= 1e-5


def test_objective_invariant_under_source_permutation():
    rng = np.random.default_rng(9)
    ds = Dataset(rng.standard_normal((25, 3)), np.where(rng.random(25) < 0.5, 1.0, -1.0))
    perm = rng.permutation(25)
    shuffled = ds.take(perm)
    ref = ds
    alpha = np.array([1.0])
    theta = np.append(rng.standard_normal(3), 0.3)
    Xa, ya, sa = stack_weighted_pool(SourcePool((ds,), ref), alpha)
    Xb, yb, sb = stack_weighted_pool(SourcePool((shuffled,), ref), alpha)
    va = _evaluate(theta, _design_t(Xa), ya, sa, "logistic", 1e-2)[0]
    vb = _evaluate(theta, _design_t(Xb), yb, sb, "logistic", 1e-2)[0]
    assert va == pytest.approx(vb, rel=1e-12)


def test_training_is_deterministic():
    rng = np.random.default_rng(10)
    pool = _random_pool(rng)
    alpha = np.full(3, 1 / 3)
    a = train_weighted_erm(pool, alpha, "huber_logistic", 1e-3)
    b = train_weighted_erm(pool, alpha, "huber_logistic", 1e-3)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def test_alpha_length_mismatch():
    rng = np.random.default_rng(12)
    pool = _random_pool(rng)
    with pytest.raises(ValueError, match="alpha"):
        train_weighted_erm(pool, np.array([0.5, 0.5]), "logistic")


def test_alpha_must_be_finite_and_nonnegative():
    rng = np.random.default_rng(12)
    pool = _random_pool(rng, n_sources=2)
    for alpha in ([1.5, -0.5], [-0.0, -1e-300], [math.nan, 1.0], [math.inf, 0.0],
                  [1.0, -math.inf]):
        with pytest.raises(ValueError, match="alpha"):
            train_weighted_erm(pool, np.array(alpha), "logistic")
    zero = train_weighted_erm(pool, np.zeros(2), "logistic")
    assert not zero.weights.any() and zero.bias == 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sources=st.integers(1, 5), d=st.integers(1, 11),
       ridge=st.sampled_from([1e-4, 1e-2]))
def test_fit_at_a_simplex_vertex_equals_the_single_source_fit(seed, n_sources, d, ridge):
    # alpha = e_last puts weight 1/m_ref on the reference rows and 0 on every
    # source row, so the fit solves exactly the reference-only problem
    rng = np.random.default_rng(seed)
    pool = _random_pool(rng, n_sources=n_sources, n=int(rng.integers(2, 40)), d=d)
    vertex = np.zeros(n_sources + 1)
    vertex[-1] = 1.0
    extended = SourcePool(pool.sources + (pool.reference,), pool.reference)
    for loss in LOSSES:
        weighted = train_weighted_erm(extended, vertex, loss, ridge)
        single = train_erm(pool.reference, loss, ridge)
        assert np.array_equal(weighted.weights, single.weights)
        assert weighted.bias == single.bias


def test_trainers_reject_a_bad_ridge():
    ds = Dataset([[1.0], [-1.0]], [1.0, -1.0])
    for ridge in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="ridge"):
            train_erm(ds, "logistic", ridge)
        with pytest.raises(ValueError, match="ridge"):
            train_weighted_erm(SourcePool((ds,), ds), np.ones(1), "logistic", ridge)


@pytest.mark.parametrize("loss", LOSSES)
def test_overflowing_features_raise_a_floating_point_error(loss):
    # the same exception that the discrepancy and standardization raise
    rng = np.random.default_rng(3)
    ds = Dataset(1e200 * rng.standard_normal((20, 2)), np.where(rng.random(20) < 0.5, 1.0, -1.0))
    with pytest.raises(FloatingPointError, match="non-finite at the zero predictor"):
        train_erm(ds, loss, 1e-2)


@pytest.mark.parametrize("loss", LOSSES)
def test_curvatures_match_central_differences(loss):
    margins = np.linspace(-30.0, 30.0, 601)
    h = 1e-5
    values, slopes, curvatures = loss_terms(margins, loss)
    up, down = loss_terms(margins + h, loss), loss_terms(margins - h, loss)
    assert np.max(np.abs(slopes - (up[0] - down[0]) / (2 * h))) <= 1e-8
    # the Huber-tempered loss has no second derivative at its knot
    smooth = np.abs(values - HUBER_C) > 1e-3
    assert np.max(np.abs(curvatures - (up[1] - down[1]) / (2 * h))[smooth]) <= 1e-8


def _gradient_norm(predictor, X, y, s, loss, ridge):
    theta = np.append(predictor.weights, predictor.bias)
    grad = _evaluate(theta, _design_t(X), y, s, loss, ridge)[1]
    return float(np.linalg.norm(grad))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sources=st.integers(1, 4), d=st.integers(1, 6),
       loss=st.sampled_from(LOSSES), ridge=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 1.0]),
       scale=st.floats(1e-2, 1e2), separable=st.booleans())
def test_every_fit_ends_at_a_stationary_point(seed, n_sources, d, loss, ridge, scale,
                                              separable):
    rng = np.random.default_rng(seed)
    sources = []
    for _ in range(n_sources):
        n = int(rng.integers(2, 60))
        X = scale * rng.standard_normal((n, d)) + rng.uniform(0, 3) * rng.standard_normal(d)
        if separable:
            y = np.where(X[:, 0] >= 0, 1.0, -1.0)
        else:
            y = np.where(rng.random(n) < rng.uniform(0.05, 0.95), 1.0, -1.0)
        sources.append(Dataset(X, y))
    pool = SourcePool(tuple(sources), sources[0])
    alpha = rng.dirichlet(np.ones(n_sources))
    X, y, s = stack_weighted_pool(pool, alpha)
    start = _gradient_norm(LinearPredictor(np.zeros(d), 0.0), X, y, s, loss, ridge)
    weighted = train_weighted_erm(pool, alpha, loss, ridge)
    assert _gradient_norm(weighted, X, y, s, loss, ridge) <= 1e-8 * start

    single = sources[-1]
    X, y, s = single.features, single.labels, np.full(single.n_samples, 1 / single.n_samples)
    start = _gradient_norm(LinearPredictor(np.zeros(d), 0.0), X, y, s, loss, ridge)
    plain = train_erm(single, loss, ridge)
    assert _gradient_norm(plain, X, y, s, loss, ridge) <= 1e-8 * start


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("case", ["single_class", "separable", "repeated_column"])
def test_unregularized_degenerate_data_give_a_finite_predictor(loss, case):
    # at ridge 0 the first two have no minimizer and the third a singular
    # Hessian; the trainer still ends near a stationary point
    rng = np.random.default_rng(13)
    X = rng.standard_normal((30, 3))
    if case == "single_class":
        y = np.ones(30)
    elif case == "separable":
        y = np.where(X[:, 0] >= 0, 1.0, -1.0)
    else:
        X[:, 1] = X[:, 0]
        y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    ds = Dataset(X, y)
    predictor = train_erm(ds, loss, 0.0)
    assert np.isfinite(predictor.weights).all() and np.isfinite(predictor.bias)
    s = np.full(30, 1 / 30)
    start = _gradient_norm(LinearPredictor(np.zeros(3), 0.0), X, y, s, loss, 0.0)
    assert _gradient_norm(predictor, X, y, s, loss, 0.0) <= 1e-8 * start
    if case != "repeated_column":
        assert zero_one_error(predictor, ds) == 0.0


def test_a_newton_step_that_overshoots_is_halved(monkeypatch):
    # features five orders of magnitude apart: full Newton steps overshoot,
    # so the line search halves some of them
    rng = np.random.default_rng(430)
    n, d = rng.integers(2, 40), rng.integers(1, 4)
    features = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-2, 3, d)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    weights = np.full(n, 1.0 / n)
    unspied = minimize_weighted_loss(features, labels, weights, "logistic", 1e-6)

    values, accepted = [], []  # every objective evaluated; the one each solve starts from
    evaluate, solve = models._evaluate, np.linalg.solve

    def evaluate_spy(*args):
        result = evaluate(*args)
        values.append(result[0])
        return result

    def solve_spy(*args):
        accepted.append(values[-1])  # the last trial evaluated was the one taken
        return solve(*args)

    monkeypatch.setattr(models, "_evaluate", evaluate_spy)
    monkeypatch.setattr(np.linalg, "solve", solve_spy)
    fit = minimize_weighted_loss(features, labels, weights, "logistic", 1e-6)
    solves = len(accepted)
    accepted.append(values[-1])  # the fit ended on its gradient, at an accepted point
    assert fit.weights.tobytes() == unspied.weights.tobytes() and fit.bias == unspied.bias
    # one evaluation at zero, then one per full step and one per halving
    assert len(values) - 1 - solves >= 1
    for before, after in zip(accepted, accepted[1:]):
        assert after - before <= FLOAT_SLACK * abs(before)
