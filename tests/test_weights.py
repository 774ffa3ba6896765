import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from helpers import grid_search_objective, weight_objective
from multisource.weights import WeightProblem, excess_risk_bound, solve_weights

# frozen by an independent high-precision (50-digit) evaluation
WORKED_BOUND_VALUE = 1.0279987238208763


def test_solve_weights_returns_a_read_only_float_vector():
    alpha = solve_weights(WeightProblem(np.array([0.1, 0.4]), np.array([100, 300])), 0.5)
    assert type(alpha) is np.ndarray and alpha.dtype == np.float64 and alpha.shape == (2,)
    assert not alpha.flags.writeable
    with pytest.raises(ValueError):
        alpha[0] = 0.0


def test_solve_weights_single_source():
    problem = WeightProblem(np.array([0.8]), np.array([10]))
    assert np.array_equal(solve_weights(problem, 3.0), [1.0])


def test_solve_weights_equal_discrepancies_kkt():
    problem = WeightProblem(np.array([0.2, 0.2]), np.array([100, 300]))
    assert np.allclose(solve_weights(problem, 2.5), [0.25, 0.75], atol=1e-12)


def test_solve_weights_lambda_zero_concentrates():
    problem = WeightProblem(np.array([0.1, 0.4]), np.array([100, 100]))
    assert np.array_equal(solve_weights(problem, 0.0), [1.0, 0.0])


def test_solve_weights_lambda_zero_tie_proportional():
    problem = WeightProblem(np.array([0.1, 0.1, 0.4]), np.array([100, 300, 50]))
    assert np.allclose(solve_weights(problem, 0.0), [0.25, 0.75, 0.0], atol=1e-15)


def test_solve_weights_matches_grid_oracle_worked_example():
    problem = WeightProblem(np.array([0.1, 0.2, 0.3]), np.array([50, 100, 200]))
    ours = weight_objective(problem, 0.5, solve_weights(problem, 0.5))
    oracle = grid_search_objective(problem, 0.5, resolution=1e-3)
    assert ours <= oracle + 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_solve_weights_matches_grid_oracle_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    problem = WeightProblem(rng.random(n), rng.integers(10, 501, n))
    lam = float(rng.random() * 10)
    ours = weight_objective(problem, lam, solve_weights(problem, lam))
    oracle = grid_search_objective(problem, lam, resolution=1e-3)
    assert ours <= oracle + 1e-4


def test_limiting_behavior_large_lambda():
    d = np.array([0.9, 0.05, 0.4])
    m = np.array([30, 200, 70])
    alpha = solve_weights(WeightProblem(d, m), 1e9)
    assert np.max(np.abs(alpha - m / m.sum())) <= 1e-3


def test_huge_lambda_gives_sample_proportional_weights():
    # lam**2 overflows a float here; the solver must never form it
    d = np.array([0.9, 0.05, 0.4])
    m = np.array([30, 200, 70])
    alpha = solve_weights(WeightProblem(d, m), 1e160)
    assert np.allclose(alpha, m / m.sum(), rtol=0.0, atol=1e-15)


def test_limiting_behavior_small_lambda():
    d = np.array([0.9, 0.05, 0.4])
    m = np.array([30, 200, 70])
    alpha = solve_weights(WeightProblem(d, m), 0.0)
    assert alpha[1] >= 1.0 - 1e-9


def test_monotone_path():
    d = np.array([0.3, 0.05, 0.6])
    m = np.array([12, 4, 30])
    for lam in [0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0]:
        alpha = solve_weights(WeightProblem(d, m), lam)
        assert alpha.min() >= 0.0 and abs(alpha.sum() - 1.0) <= 1e-9
    assert np.max(np.abs(alpha - m / m.sum())) <= 1e-3  # lam = 1000 is deep in the flat regime
    alpha0 = solve_weights(WeightProblem(d, m), 0.0)
    assert alpha0[1] == 1.0


def test_solver_beats_vertices_and_uniform():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        problem = WeightProblem(rng.random(n), rng.integers(10, 501, n))
        lam = float(rng.random() * 10)
        best = weight_objective(problem, lam, solve_weights(problem, lam))
        for k in range(n):
            vertex = np.zeros(n)
            vertex[k] = 1.0
            assert best <= weight_objective(problem, lam, vertex) + 1e-12
        assert best <= weight_objective(problem, lam, np.full(n, 1 / n)) + 1e-12


def test_weight_problem_validation():
    with pytest.raises(ValueError):
        WeightProblem(np.array([1.2]), np.array([10]))
    with pytest.raises(ValueError):
        WeightProblem(np.array([np.nan]), np.array([10]))
    with pytest.raises(ValueError):
        WeightProblem(np.array([0.5]), np.array([0]))
    with pytest.raises(ValueError):
        solve_weights(WeightProblem(np.array([0.5]), np.array([10])), -1.0)
    with pytest.raises(ValueError):
        WeightProblem(np.array([0.5, 0.5]), np.array([10]))
    with pytest.raises(ValueError, match="^discrepancies must be a nonempty vector$"):
        WeightProblem([], [])
    for counts in ([2.5, 3.9], [10.0, np.inf], [10.0, np.nan]):
        with pytest.raises(ValueError, match="sample_counts"):
            WeightProblem(np.array([0.1, 0.4]), np.array(counts))


def test_weight_problem_rejects_ints_too_large_for_a_float():
    # JSON reads 10**400 as an exact int; it is out of range, not an OverflowError
    for huge in (10**400, -(10**400)):
        with pytest.raises(ValueError, match=r"sample_counts must be whole numbers below 2\*\*53"):
            WeightProblem([0.1, 0.2], [huge, 5])
        with pytest.raises(ValueError, match=r"discrepancies must lie in \[0, 1\]"):
            WeightProblem([huge, 0.2], [10, 5])


def test_solve_weights_rejects_nonfinite_lambda():
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            solve_weights(WeightProblem(np.array([0.1, 0.4]), np.array([10, 10])), lam)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_solve_weights_permutes_with_sources(data):
    n = data.draw(st.integers(2, 6))
    d = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    m = np.array(data.draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n)))
    lam = data.draw(st.floats(0.0, 1e3))
    perm = np.array(data.draw(st.permutations(range(n))))
    alpha = solve_weights(WeightProblem(d, m), lam)
    permuted = solve_weights(WeightProblem(d[perm], m[perm]), lam)
    assert np.allclose(permuted, alpha[perm], rtol=0.0, atol=1e-12)


def _worked_bound(**changes):
    """excess_risk_bound of the worked example, with some arguments replaced."""
    args = dict(
        alpha=np.array([0.5, 0.5]),
        problem=WeightProblem(np.zeros(2), np.array([100.0, 100.0])),
        rademacher_bounds=np.array([0.1, 0.1]),
        loss_bound=1.0,
        delta=0.05,
    )
    return excess_risk_bound(**dict(args, **changes))


def test_excess_risk_bound_worked_example():
    assert _worked_bound() == pytest.approx(WORKED_BOUND_VALUE, abs=1e-12)


def test_excess_risk_bound_vanishes_in_the_limit():
    value = _worked_bound(problem=WeightProblem(np.zeros(2), np.array([1e9, 1e9])),
                          rademacher_bounds=np.zeros(2))
    assert value < 1e-3


def test_excess_risk_bound_discrepancy_linearity():
    alpha, m = np.array([0.5, 0.5]), np.array([100.0, 100.0])
    d = np.array([0.2, 0.4])
    single = _worked_bound(alpha=alpha, problem=WeightProblem(d, m))
    double = _worked_bound(alpha=alpha, problem=WeightProblem(2 * d, m))
    assert double - single == pytest.approx(2 * float(alpha @ d), abs=1e-12)


def test_excess_risk_bound_monotone_in_discrepancies():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        alpha = rng.dirichlet(np.ones(n))
        d = rng.uniform(0.0, 0.9, n)  # + 0.1 below stays within [0, 1]
        m = rng.integers(10, 1000, n).astype(float)
        r = rng.random(n)
        k = int(rng.integers(0, n))
        bumped_d = d.copy()
        bumped_d[k] += 0.1
        if alpha[k] > 0:
            assert (excess_risk_bound(alpha, WeightProblem(bumped_d, m), r, 1.0, 0.05)
                    > excess_risk_bound(alpha, WeightProblem(d, m), r, 1.0, 0.05))


def test_excess_risk_bound_checks_alpha_on_the_simplex():
    # entries down to -1e-12 are clamped to 0, so the bound is that of [1, 0]
    assert _worked_bound(alpha=np.array([1.0, -1e-13])) == _worked_bound(alpha=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="negative"):
        _worked_bound(alpha=np.array([1.1, -0.1]))
    with pytest.raises(ValueError, match="sums"):
        _worked_bound(alpha=np.array([0.5, 0.4]))


def test_excess_risk_bound_rejects_nonfinite_alpha():
    with pytest.raises(ValueError, match="finite"):
        _worked_bound(alpha=np.array([np.nan, np.nan]))


def test_excess_risk_bound_validation():
    with pytest.raises(ValueError, match="same length"):
        _worked_bound(alpha=np.array([1.0]))
    with pytest.raises(ValueError, match="loss_bound"):
        _worked_bound(loss_bound=0.0)
    with pytest.raises(ValueError, match="delta"):
        _worked_bound(delta=1.5)


@pytest.mark.parametrize("changes", [
    {"problem": (np.zeros(2), [0, 100])},
    {"problem": (np.zeros(2), [-100, 100])},
    {"problem": ([np.nan, 0.0], [100, 100])},
    {"problem": ([1.5, 0.0], [100, 100])},  # a discrepancy above 1
    {"rademacher_bounds": np.array([-5.0, 0.1])},
    {"rademacher_bounds": np.array([np.inf, 0.1])},
    {"loss_bound": math.inf},
    {"loss_bound": math.nan},
], ids=["zero_count", "negative_count", "nan_discrepancy", "discrepancy_above_1",
        "negative_rademacher", "infinite_rademacher", "infinite_loss_bound", "nan_loss_bound"])
def test_excess_risk_bound_rejects_invalid_input(changes):
    with pytest.raises(ValueError):
        if "problem" in changes:
            changes = dict(changes, problem=WeightProblem(*map(np.array, changes["problem"])))
        _worked_bound(**changes)
