import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from helpers import weiszfeld_reference
from multisource.baselines import (
    MedianOfProbsEnsemble,
    componentwise_median,
    geometric_median,
    standardize,
)
from multisource.models import HUBER_C, LinearPredictor, loss_terms


def _objective(z, pts):
    return float(np.linalg.norm(pts - z, axis=1).sum())


def test_geometric_median_identical_points():
    pts = np.tile([2.0, -3.0], (5, 1))
    assert np.array_equal(geometric_median(pts), [2.0, -3.0])


def test_geometric_median_is_1d_median():
    pts = np.array([[0.0], [0.0], [10.0]])
    assert abs(geometric_median(pts)[0]) <= 1e-6


def test_geometric_median_equilateral_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    center = pts.mean(axis=0)
    assert np.max(np.abs(geometric_median(pts) - center)) <= 1e-6


def test_geometric_median_single_point():
    assert np.array_equal(geometric_median(np.array([[4.0, 5.0]])), [4.0, 5.0])


def test_geometric_median_optimality_spot_check():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.standard_normal((int(rng.integers(3, 12)), 2)) * 3
        z = geometric_median(pts)
        assert _objective(z, pts) <= _objective(pts.mean(axis=0), pts) + 1e-9
        for p in pts:
            assert _objective(z, pts) <= _objective(p, pts) + 1e-9


def test_geometric_median_matches_exact_median_on_odd_1d_sets():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(1, 8)) * 2 + 1  # odd count: unique minimizer
        pts = rng.standard_normal((n, 1)) * 5
        assert abs(geometric_median(pts)[0] - np.median(pts)) <= 1e-6


@st.composite
def _point_sets(draw):
    """1 to 12 points of 1 to 4 coordinates, drawn with repeats from up to 6
    distinct ones, so that the optimum is often one of the points."""
    d = draw(st.integers(1, 4))
    coordinates = st.floats(-1e3, 1e3, allow_nan=False)
    distinct = draw(st.lists(st.lists(coordinates, min_size=d, max_size=d),
                             min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=12))
    return np.array([distinct[i] for i in picks])


@given(_point_sets())
@example(np.array([[0.0, 0.0]] * 3 + [[1.0, 0.0], [0.0, 1.0]]))  # optimum at a point
@example(np.array([[0.0], [0.0], [10.0]]))
@settings(max_examples=300, deadline=None)
def test_geometric_median_equals_the_two_norm_loop_bit_for_bit(pts):
    assert geometric_median(pts).tobytes() == weiszfeld_reference(pts).tobytes()


def test_geometric_median_empty():
    with pytest.raises(ValueError):
        geometric_median(np.empty((0, 2)))
    with pytest.raises(ValueError, match="^need at least one point, all of equal dimension$"):
        componentwise_median([])
    with pytest.raises(ValueError, match="^need at least one model$"):
        MedianOfProbsEnsemble([])


def test_componentwise_median():
    pts = np.array([[0.0, 1.0], [1.0, 0.0], [5.0, 5.0]])
    assert np.array_equal(componentwise_median(pts), [1.0, 1.0])
    assert np.array_equal(componentwise_median(np.array([[3.0, 4.0]])), [3.0, 4.0])
    assert np.array_equal(componentwise_median(np.array([[0.0], [2.0]])), [1.0])


def _model_with_probability(p):
    # constant-score model: sigmoid(bias) = p everywhere
    return LinearPredictor(np.zeros(1), math.log(p / (1 - p)))


def median_of_probabilities(models, x):
    """The ensemble's label at a single point x."""
    return MedianOfProbsEnsemble(models).predict_labels(x[None, :])[0]


def test_median_of_probabilities():
    models = [_model_with_probability(p) for p in (0.2, 0.6, 0.9)]
    assert median_of_probabilities(models, np.zeros(1)) == 1.0
    models = [_model_with_probability(p) for p in (0.2, 0.4, 0.45)]
    assert median_of_probabilities(models, np.zeros(1)) == -1.0


def test_median_of_probabilities_tie_goes_positive():
    models = [_model_with_probability(0.4), _model_with_probability(0.6)]
    assert median_of_probabilities(models, np.zeros(1)) == 1.0


def test_median_of_probabilities_identical_models():
    rng = np.random.default_rng(2)
    model = LinearPredictor(rng.standard_normal(3), 0.1)
    x = rng.standard_normal(3)
    expected = model.predict_labels(x[None, :])[0]
    assert median_of_probabilities([model] * 5, x) == expected


def test_median_of_probabilities_odd_count_matches_median_model():
    rng = np.random.default_rng(3)
    models = [LinearPredictor(rng.standard_normal(2), float(rng.standard_normal()))
              for _ in range(7)]
    for _ in range(20):
        x = rng.standard_normal(2)
        probs = [float(m.probabilities(x)) for m in models]
        median_model = models[int(np.argsort(probs)[3])]
        assert median_of_probabilities(models, x) == median_model.predict_labels(x[None, :])[0]


def test_median_of_probs_ensemble_matches_pointwise():
    rng = np.random.default_rng(4)
    models = [LinearPredictor(rng.standard_normal(2), float(rng.standard_normal()))
              for _ in range(4)]
    X = rng.standard_normal((10, 2))
    batch = MedianOfProbsEnsemble(models).predict_labels(X)
    for i in range(10):
        probs = [float(m.probabilities(X[i])) for m in models]
        assert batch[i] == (1.0 if float(np.median(probs)) >= 0.5 else -1.0)


def test_huber_logistic_first_branch():
    assert loss_terms(0.0, "huber_logistic")[0] == pytest.approx(math.log(2), abs=1e-15)


def test_huber_logistic_knot_continuity():
    # margin chosen so the plain logistic loss equals exactly c
    margin = -math.log(math.expm1(HUBER_C))
    ell = float(loss_terms(margin, "logistic")[0])
    assert ell == pytest.approx(HUBER_C, abs=1e-12)
    upper_branch = 2.0 * math.sqrt(HUBER_C * ell) - HUBER_C
    assert abs(upper_branch - ell) <= 1e-12
    for m in (np.nextafter(margin, -np.inf), margin, np.nextafter(margin, np.inf)):
        assert abs(float(loss_terms(m, "huber_logistic")[0]) - ell) <= 1e-12


def test_huber_logistic_at_four_c():
    margin = -math.log(math.expm1(4 * HUBER_C))
    value = float(loss_terms(margin, "huber_logistic")[0])
    assert value == pytest.approx(3 * HUBER_C, rel=1e-12)
    assert value == pytest.approx(5.427075, abs=1e-9)


def test_huber_never_exceeds_logistic():
    for margin in np.linspace(-30, 30, 1000):
        hub = float(loss_terms(margin, "huber_logistic")[0])
        log = float(loss_terms(margin, "logistic")[0])
        assert hub <= log + 1e-12
        if log <= HUBER_C:
            assert hub == log


def test_standardize_identity():
    rng = np.random.default_rng(5)
    features = rng.standard_normal((40, 3)) * 4 + 2
    z, mean, std = standardize(features)
    assert np.max(np.abs(z.mean(axis=0))) <= 1e-10
    assert np.max(np.abs(z.std(axis=0) - 1.0)) <= 1e-10
    assert np.array_equal(mean, features.mean(axis=0))
    assert np.array_equal(std, features.std(axis=0))


def test_standardize_degenerate_column():
    z, _, std = standardize(np.column_stack([np.full(5, 7.1), np.arange(5.0)]))
    assert np.all(z[:, 0] == 0.0)
    assert std[0] == np.inf
    assert np.all(np.array([2.5, -3.0]) / std[0] == 0.0)


def test_standardize_is_invariant_under_positive_affine_maps():
    rng = np.random.default_rng(6)
    features = rng.standard_normal((20, 2))
    scale, shift = np.array([3.0, 0.02]), np.array([-1.5, 40.0])
    z_mapped, mean, std = standardize(scale * features + shift)
    z_plain, mean_plain, std_plain = standardize(features)
    assert np.max(np.abs(z_mapped - z_plain)) <= 1e-9
    assert np.max(np.abs(mean - (scale * mean_plain + shift))) <= 1e-9
    assert np.max(np.abs(std - scale * std_plain)) <= 1e-12


def test_standardize_raises_on_overflow_not_on_a_constant_column():
    rng = np.random.default_rng(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning before the error
        with pytest.raises(FloatingPointError, match="standard deviations overflowed"):
            standardize(1e200 * rng.standard_normal((40, 2)))
        # beside a large column that does not overflow, a constant one is still degenerate
        z, _, std = standardize(np.column_stack([np.full(40, 7.1),
                                                 1e150 * rng.standard_normal(40)]))
        # one value repeated is degenerate at any magnitude, even where its
        # squared deviations (1e300) or its sum (1e308) would overflow
        huge_z, huge_mean, huge_std = standardize(np.column_stack([
            np.full(40, 1e300), np.full(40, -1e308), rng.standard_normal(40)]))
    assert std[0] == np.inf and np.all(z[:, 0] == 0.0)
    assert np.isfinite(std[1]) and std[1] > 1e149
    assert np.array_equal(huge_std[:2], [np.inf, np.inf]) and np.all(huge_z[:, :2] == 0.0)
    assert np.array_equal(huge_mean[:2], [1e300, -1e308]) and np.isfinite(huge_std[2])


def test_standardize_rejects_an_empty_matrix():
    with pytest.raises(ValueError):
        standardize(np.empty((0, 2)))

