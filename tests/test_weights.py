import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from helpers import grid_search_objective
from multisource.weights import (
    BoundInputs,
    SimplexWeights,
    WeightProblem,
    excess_risk_bound,
    solve_weights,
)

# frozen by an independent high-precision (50-digit) evaluation
WORKED_BOUND_VALUE = 1.0279987238208763


def test_simplex_weights_validation():
    SimplexWeights(np.array([0.5, 0.5]))
    clamped = SimplexWeights(np.array([1.0, -1e-13]))
    assert clamped.alpha[1] == 0.0
    with pytest.raises(ValueError, match="negative"):
        SimplexWeights(np.array([1.1, -0.1]))
    with pytest.raises(ValueError, match="sums"):
        SimplexWeights(np.array([0.5, 0.4]))


def test_simplex_weights_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        SimplexWeights(np.array([np.nan, np.nan]))


def test_solve_weights_single_source():
    problem = WeightProblem(np.array([0.8]), np.array([10]), 3.0)
    assert np.array_equal(solve_weights(problem).alpha, [1.0])


def test_solve_weights_equal_discrepancies_kkt():
    problem = WeightProblem(np.array([0.2, 0.2]), np.array([100, 300]), 2.5)
    assert np.allclose(solve_weights(problem).alpha, [0.25, 0.75], atol=1e-12)


def test_solve_weights_lambda_zero_concentrates():
    problem = WeightProblem(np.array([0.1, 0.4]), np.array([100, 100]), 0.0)
    assert np.array_equal(solve_weights(problem).alpha, [1.0, 0.0])


def test_solve_weights_lambda_zero_tie_proportional():
    problem = WeightProblem(np.array([0.1, 0.1, 0.4]), np.array([100, 300, 50]), 0.0)
    assert np.allclose(solve_weights(problem).alpha, [0.25, 0.75, 0.0], atol=1e-15)


def test_solve_weights_matches_grid_oracle_worked_example():
    problem = WeightProblem(np.array([0.1, 0.2, 0.3]), np.array([50, 100, 200]), 0.5)
    ours = problem.objective(solve_weights(problem))
    oracle = grid_search_objective(problem, resolution=1e-3)
    assert ours <= oracle + 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_solve_weights_matches_grid_oracle_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    problem = WeightProblem(rng.random(n), rng.integers(10, 501, n), float(rng.random() * 10))
    ours = problem.objective(solve_weights(problem))
    oracle = grid_search_objective(problem, resolution=1e-3)
    assert ours <= oracle + 1e-4


def test_limiting_behavior_large_lambda():
    d = np.array([0.9, 0.05, 0.4])
    m = np.array([30, 200, 70])
    alpha = solve_weights(WeightProblem(d, m, 1e9)).alpha
    assert np.max(np.abs(alpha - m / m.sum())) <= 1e-3


def test_huge_lambda_gives_sample_proportional_weights():
    # lam**2 overflows a float here; the solver must never form it
    d = np.array([0.9, 0.05, 0.4])
    m = np.array([30, 200, 70])
    alpha = solve_weights(WeightProblem(d, m, 1e160)).alpha
    assert np.allclose(alpha, m / m.sum(), rtol=0.0, atol=1e-15)


def test_limiting_behavior_small_lambda():
    d = np.array([0.9, 0.05, 0.4])
    m = np.array([30, 200, 70])
    alpha = solve_weights(WeightProblem(d, m, 0.0)).alpha
    assert alpha[1] >= 1.0 - 1e-9


def test_monotone_path():
    d = np.array([0.3, 0.05, 0.6])
    m = np.array([12, 4, 30])
    for lam in [0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0]:
        alpha = solve_weights(WeightProblem(d, m, lam)).alpha
        assert alpha.min() >= 0.0 and abs(alpha.sum() - 1.0) <= 1e-9
    assert np.max(np.abs(alpha - m / m.sum())) <= 1e-3  # lam = 1000 is deep in the flat regime
    alpha0 = solve_weights(WeightProblem(d, m, 0.0)).alpha
    assert alpha0[1] == 1.0


def test_solver_beats_vertices_and_uniform():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        problem = WeightProblem(rng.random(n), rng.integers(10, 501, n),
                                float(rng.random() * 10))
        best = problem.objective(solve_weights(problem))
        for k in range(n):
            vertex = np.zeros(n)
            vertex[k] = 1.0
            assert best <= problem.objective(vertex) + 1e-12
        assert best <= problem.objective(np.full(n, 1 / n)) + 1e-12


def test_weight_problem_validation():
    with pytest.raises(ValueError):
        WeightProblem(np.array([1.2]), np.array([10]), 1.0)
    with pytest.raises(ValueError):
        WeightProblem(np.array([np.nan]), np.array([10]), 1.0)
    with pytest.raises(ValueError):
        WeightProblem(np.array([0.5]), np.array([0]), 1.0)
    with pytest.raises(ValueError):
        WeightProblem(np.array([0.5]), np.array([10]), -1.0)
    with pytest.raises(ValueError):
        WeightProblem(np.array([0.5, 0.5]), np.array([10]), 1.0)
    for counts in ([2.5, 3.9], [10.0, np.inf], [10.0, np.nan]):
        with pytest.raises(ValueError, match="sample_counts"):
            WeightProblem(np.array([0.1, 0.4]), np.array(counts), 1.0)


def test_weight_problem_rejects_nonfinite_lambda():
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            WeightProblem(np.array([0.1, 0.4]), np.array([10, 10]), lam)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_solve_weights_permutes_with_sources(data):
    n = data.draw(st.integers(2, 6))
    d = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    m = np.array(data.draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n)))
    lam = data.draw(st.floats(0.0, 1e3))
    perm = np.array(data.draw(st.permutations(range(n))))
    alpha = solve_weights(WeightProblem(d, m, lam)).alpha
    permuted = solve_weights(WeightProblem(d[perm], m[perm], lam)).alpha
    assert np.allclose(permuted, alpha[perm], rtol=0.0, atol=1e-12)


def _worked_bound_inputs():
    return BoundInputs(
        alpha=SimplexWeights(np.array([0.5, 0.5])),
        discrepancies=np.zeros(2),
        sample_counts=np.array([100.0, 100.0]),
        rademacher_bounds=np.array([0.1, 0.1]),
        loss_bound=1.0,
        delta=0.05,
    )


def test_excess_risk_bound_worked_example():
    assert excess_risk_bound(_worked_bound_inputs()) == pytest.approx(
        WORKED_BOUND_VALUE, abs=1e-12
    )


def test_excess_risk_bound_vanishes_in_the_limit():
    inputs = BoundInputs(
        alpha=SimplexWeights(np.array([0.5, 0.5])),
        discrepancies=np.zeros(2),
        sample_counts=np.array([1e9, 1e9]),
        rademacher_bounds=np.zeros(2),
        loss_bound=1.0,
        delta=0.05,
    )
    assert excess_risk_bound(inputs) < 1e-3


def test_excess_risk_bound_discrepancy_linearity():
    base = _worked_bound_inputs()
    d = np.array([0.2, 0.4])
    single = BoundInputs(base.alpha, d, base.sample_counts, base.rademacher_bounds,
                         1.0, 0.05)
    double = BoundInputs(base.alpha, 2 * d, base.sample_counts, base.rademacher_bounds,
                         1.0, 0.05)
    added = excess_risk_bound(double) - excess_risk_bound(single)
    assert added == pytest.approx(2 * float(base.alpha.alpha @ d), abs=1e-12)


def test_excess_risk_bound_monotone_in_discrepancies():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        alpha = SimplexWeights(rng.dirichlet(np.ones(n)))
        d = rng.random(n)
        inputs = BoundInputs(alpha, d, rng.integers(10, 1000, n).astype(float),
                             rng.random(n), 1.0, 0.05)
        k = int(rng.integers(0, n))
        bumped_d = d.copy()
        bumped_d[k] += 0.1
        bumped = BoundInputs(alpha, bumped_d, inputs.sample_counts,
                             inputs.rademacher_bounds, 1.0, 0.05)
        if alpha.alpha[k] > 0:
            assert excess_risk_bound(bumped) > excess_risk_bound(inputs)


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(SimplexWeights(np.array([1.0])), np.zeros(2), np.ones(1),
                    np.zeros(1), 1.0, 0.05)
    with pytest.raises(ValueError):
        BoundInputs(SimplexWeights(np.array([1.0])), np.zeros(1), np.ones(1),
                    np.zeros(1), 0.0, 0.05)
    with pytest.raises(ValueError):
        BoundInputs(SimplexWeights(np.array([1.0])), np.zeros(1), np.ones(1),
                    np.zeros(1), 1.0, 1.5)
