"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Every tolerance below is fixed; the synthetic-task shape parameters
(separation, class balance, hyperparameter grids) were chosen once, up
front, and are frozen here.
"""

import math
import time

import numpy as np

from helpers import (
    exact_discrepancy_oracle,
    grid_search_objective,
    random_dataset,
    weight_objective,
)
from multisource.baselines import geometric_median
from multisource.data import Dataset, SourcePool
from multisource.discrepancy import empirical_discrepancy
from multisource.federated import run_case1, run_case2
from multisource.harness import (
    CorruptionSetting,
    ExperimentConfig,
    SyntheticSpec,
    generate_synthetic_pool,
    run_method,
    run_sweep,
    write_results_csv,
    write_summary_csv,
)
from multisource.models import HUBER_C, _design_t, _evaluate, loss_terms, stack_weighted_pool
from multisource.weights import (
    BoundInputs,
    SimplexWeights,
    WeightProblem,
    excess_risk_bound,
    solve_weights,
)

# independently recomputed at 50-digit precision before the implementation
WORKED_BOUND_VALUE = 1.0279987238208763


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:2d} {status}: {name}{suffix}")
    assert passed, f"criterion {number} failed: {name} {suffix}"


def test_c01_solver_matches_grid_oracle():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = -math.inf
    for _ in range(100):
        n = int(rng.integers(1, 4))
        problem = WeightProblem(
            discrepancies=rng.random(n),
            sample_counts=rng.integers(10, 501, n),
            lam=float(rng.random() * 10),
        )
        ours = weight_objective(problem, solve_weights(problem).alpha)
        oracle = grid_search_objective(problem, resolution=1e-3)
        worst = max(worst, ours - oracle)
    elapsed = time.perf_counter() - started
    _report(1, "solver objective <= grid oracle + 1e-4 on 100 problems",
            worst <= 1e-4 and elapsed < 10.0,
            f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_c02_limiting_behavior():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(10):
        n = int(rng.integers(2, 6))
        d = rng.random(n)
        m = rng.integers(10, 501, n)
        big = solve_weights(WeightProblem(d, m, 1e9)).alpha
        ok &= bool(np.max(np.abs(big - m / m.sum())) <= 1e-3)
        small = solve_weights(WeightProblem(d, m, 0.0)).alpha
        ok &= bool(small[d == d.min()].sum() >= 1.0 - 1e-9)
    # the exact closed-form cases
    ok &= np.allclose(
        solve_weights(WeightProblem(np.array([0.2, 0.2]), np.array([100, 300]), 5.0)).alpha,
        [0.25, 0.75], atol=1e-12)
    ok &= bool(np.array_equal(
        solve_weights(WeightProblem(np.array([0.1, 0.4]), np.array([100, 100]), 0.0)).alpha,
        [1.0, 0.0]))
    _report(2, "lam extremes: proportional-to-m and argmin concentration", ok)


def test_c03_discrepancy_identities():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(50):
        ds = random_dataset(rng, int(rng.integers(3, 40)), int(rng.integers(1, 5)))
        est = empirical_discrepancy(ds, ds)
        ok &= est.value == 0.0 and 0.0 <= est.value <= 1.0

    reference = Dataset([[0.0], [1.0]], [-1.0, 1.0])
    source = Dataset([[0.0], [1.0]], [-1.0, -1.0])
    oracle = exact_discrepancy_oracle(source, reference, "thresholds_1d")
    ok &= abs(oracle - 0.5) <= 1e-12

    worst = -math.inf
    for _ in range(50):
        src = random_dataset(rng, int(rng.integers(5, 16)), 2, flip=float(rng.random()))
        ref = random_dataset(rng, int(rng.integers(5, 16)), 2)
        relaxed = empirical_discrepancy(src, ref).value
        exact = exact_discrepancy_oracle(src, ref, "lines_2d")
        ok &= 0.0 <= relaxed <= 1.0
        worst = max(worst, relaxed - exact)
    ok &= worst <= 0.15
    _report(3, "d(S,S)=0 exactly, 1-D oracle=0.5, relaxed within +0.15 of oracle",
            ok, f"worst relaxed-minus-oracle {worst:.3f}")


def test_c04_gradient_correctness():
    rng = np.random.default_rng(104)
    step = 1e-6
    worst = 0.0
    for _ in range(5):
        n_sources = int(rng.integers(2, 5))
        sources = tuple(random_dataset(rng, int(rng.integers(10, 30)), 3)
                        for _ in range(n_sources))
        pool = SourcePool(sources, random_dataset(rng, 10, 3))
        alpha = rng.dirichlet(np.ones(n_sources))
        X, y, s = stack_weighted_pool(pool, alpha)
        D = _design_t(X)
        for _ in range(10):
            theta = np.append(rng.standard_normal(3), rng.standard_normal())
            analytic = _evaluate(theta, D, y, s, "logistic", 1e-2)[1]
            numeric = np.array([(_evaluate(theta + e, D, y, s, "logistic", 1e-2)[0]
                                 - _evaluate(theta - e, D, y, s, "logistic", 1e-2)[0]) / (2 * step)
                                for e in step * np.eye(4)])
            rel = np.abs(analytic - numeric) / np.maximum(1e-6, np.abs(numeric))
            worst = max(worst, float(rel.max()))
    _report(4, "analytic gradient matches central differences (rel <= 1e-5)",
            worst <= 1e-5, f"worst rel err {worst:.2e}")


def test_c05_huber_knot_and_domination():
    margin_at_c = -math.log(math.expm1(HUBER_C))
    ell = float(loss_terms(margin_at_c, "logistic")[0])
    knot_gap = abs((2.0 * math.sqrt(HUBER_C * ell) - HUBER_C) - ell)
    dominated = True
    for margin in np.linspace(-40.0, 40.0, 1000):
        log = float(loss_terms(margin, "logistic")[0])
        hub = log if log <= HUBER_C else 2.0 * math.sqrt(HUBER_C * log) - HUBER_C
        dominated &= hub <= log + 1e-12
    _report(5, "huber knot continuous (<=1e-12) and huber <= logistic on margin grid",
            knot_gap <= 1e-12 and dominated, f"knot gap {knot_gap:.2e}")


def test_c06_geometric_median():
    rng = np.random.default_rng(106)
    ok = True
    worst = 0.0
    for _ in range(50):
        n = 2 * int(rng.integers(1, 13)) + 1  # odd: the 1-D minimizer is unique
        pts = (rng.standard_normal((n, 1)) * float(rng.uniform(0.5, 5.0))).round(3)
        gap = abs(geometric_median(pts)[0] - float(np.median(pts)))
        worst = max(worst, gap)
        ok &= gap <= 1e-6
    for _ in range(20):
        pts = rng.standard_normal((int(rng.integers(3, 15)), 2)) * 3.0
        z = geometric_median(pts)
        obj = float(np.linalg.norm(pts - z, axis=1).sum())
        centroid_obj = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).sum())
        vertex_obj = min(float(np.linalg.norm(pts - p, axis=1).sum()) for p in pts)
        ok &= obj <= min(centroid_obj, vertex_obj) + 1e-12
    _report(6, "Weiszfeld matches 1-D medians (<=1e-6) and beats centroid/vertices",
            ok, f"worst 1-D gap {worst:.2e}")


def _corruption_curves():
    config = ExperimentConfig(
        data=SyntheticSpec(n_sources=20, samples_per_source=100, reference_size=100,
                           test_size=2000, n_features=2, class_separation=3.0,
                           positive_fraction=0.75),
        method=("ours", "all_data", "reference_only", "median_of_probs"),
        lambda_grid=(1e-2, 1.0, 100.0),
        ridge_grid=(1e-2,),
        repeats=20,
        seed=20260808,
        corruption=CorruptionSetting("shuffled_labels", (0, 10, 19), 1.0),
    )
    cells = run_sweep(config)
    table: dict[tuple[str, int], list[float]] = {}
    for cell in cells:
        table.setdefault((cell.result.method, cell.n_corrupted), []).append(
            cell.result.test_error
        )
    mean = {k: float(np.mean(v)) for k, v in table.items()}
    std = {k: float(np.std(v)) for k, v in table.items()}
    return mean, std


def test_c07_corruption_curve_replication():
    started = time.perf_counter()
    mean, std = _corruption_curves()
    elapsed = time.perf_counter() - started

    a = abs(mean[("ours", 0)] - mean[("all_data", 0)]) <= 0.02
    b = (mean[("ours", 10)] <= mean[("all_data", 10)] - 0.03
         and mean[("ours", 10)] <= mean[("median_of_probs", 10)])
    c = mean[("ours", 19)] <= mean[("reference_only", 19)] + 0.02
    path = [(mean[("all_data", n)], std[("all_data", n)]) for n in (0, 10, 19)]
    d = all(path[i + 1][0] >= path[i][0] - (path[i][1] + path[i + 1][1])
            for i in range(2))
    detail = (f"n=0 ours {mean[('ours', 0)]:.3f} vs all {mean[('all_data', 0)]:.3f}; "
              f"n=10 ours {mean[('ours', 10)]:.3f} vs all {mean[('all_data', 10)]:.3f} "
              f"med {mean[('median_of_probs', 10)]:.3f}; "
              f"n=19 ours {mean[('ours', 19)]:.3f} vs ref {mean[('reference_only', 19)]:.3f}; "
              f"{elapsed:.0f}s")
    _report(7, "scaled corruption-curve replication (a)-(d)",
            a and b and c and d and elapsed < 300.0, detail)


def test_c08_lambda_extremes_reproduce_naive_methods():
    spec = SyntheticSpec(n_sources=6, samples_per_source=60, reference_size=60,
                         test_size=1000, n_features=2, class_separation=2.0,
                         positive_fraction=0.6)
    forced_huge, forced_zero, all_data, reference_only = [], [], [], []
    for rep in range(20):
        seed = 1000 + rep
        pool, test = generate_synthetic_pool(spec, seed)
        huge_cfg = ExperimentConfig(data=spec, method=("ours",), lambda_grid=(1e9,),
                                    ridge_grid=(1e-2,), seed=seed)
        zero_cfg = ExperimentConfig(data=spec, method=("ours",), lambda_grid=(0.0,),
                                    ridge_grid=(1e-2,), seed=seed)
        base_cfg = ExperimentConfig(data=spec, method=("all_data",), lambda_grid=(1.0,),
                                    ridge_grid=(1e-2,), seed=seed)
        forced_huge.append(run_method(pool, test, huge_cfg, "ours").test_error)
        forced_zero.append(run_method(pool, test, zero_cfg, "ours").test_error)
        all_data.append(
            run_method(pool, test, base_cfg, "all_data").test_error)
        reference_only.append(
            run_method(pool, test, base_cfg, "reference_only").test_error)
    gap_huge = abs(float(np.mean(forced_huge)) - float(np.mean(all_data)))
    gap_zero = abs(float(np.mean(forced_zero)) - float(np.mean(reference_only)))
    _report(8, "forced lam extremes reproduce all_data / reference_only (0.01)",
            gap_huge <= 0.01 and gap_zero <= 0.01,
            f"gaps {gap_huge:.4f} / {gap_zero:.4f}")


def test_c09_federated_equivalence():
    rng = np.random.default_rng(109)
    ok = True
    worst = 0.0
    for k in range(10):
        n_sources = int(rng.integers(2, 4))
        sources = tuple(random_dataset(rng, int(rng.integers(15, 40)), 2,
                                       flip=float(rng.random() * 0.5))
                        for _ in range(n_sources))
        pool = SourcePool(sources, random_dataset(rng, int(rng.integers(15, 30)), 2))
        central = [empirical_discrepancy(s, pool.reference) for s in pool.sources]

        trace1 = run_case1(pool)
        ok &= all(a.value == b.value and a.solver_risk == b.solver_risk
                  for a, b in zip(trace1.result, central))
        ok &= len(trace1.messages) == 2 * n_sources
        d, m_ref = pool.n_features, pool.reference.n_samples
        ok &= trace1.total_bytes == n_sources * (8 * m_ref * (d + 1)) + n_sources * 8

        rounds = 2500
        trace2 = run_case2(pool, rounds=rounds)
        gaps = [abs(a.value - b.value) for a, b in zip(trace2.result, central)]
        worst = max(worst, max(gaps))
        ok &= max(gaps) <= 1e-6
        ok &= len(trace2.messages) == n_sources * (2 * rounds + 2)
    _report(9, "case-1 bit-identical, case-2 within 1e-6, message counts exact",
            ok, f"worst case-2 gap {worst:.2e}")


def test_c10_experiment_determinism(tmp_path):
    config = ExperimentConfig(
        data=SyntheticSpec(n_sources=4, samples_per_source=30, reference_size=25,
                           test_size=200, n_features=2, class_separation=2.0),
        method=("ours", "all_data", "median_of_probs"),
        lambda_grid=(0.1, 10.0),
        ridge_grid=(1e-2,),
        repeats=2,
        seed=77,
        corruption=CorruptionSetting("label_bias", (0, 2), 0.5),
    )
    paths = []
    for tag in ("first", "second"):
        cells = run_sweep(config)
        results = tmp_path / f"{tag}.csv"
        summary = tmp_path / f"{tag}.summary.csv"
        write_results_csv(cells, results)
        write_summary_csv(cells, summary)
        paths.append((results.read_bytes(), summary.read_bytes()))
    identical = paths[0] == paths[1]
    _report(10, "re-running an experiment config is byte-identical", identical)


def test_c11_bound_evaluator():
    inputs = BoundInputs(
        alpha=SimplexWeights(np.array([0.5, 0.5])),
        discrepancies=np.zeros(2),
        sample_counts=np.array([100.0, 100.0]),
        rademacher_bounds=np.array([0.1, 0.1]),
        loss_bound=1.0,
        delta=0.05,
    )
    value = excess_risk_bound(inputs)
    close = abs(value - 1.0280) <= 1e-3 and abs(value - WORKED_BOUND_VALUE) <= 1e-12

    rng = np.random.default_rng(111)
    monotone = True
    for _ in range(20):
        n = int(rng.integers(1, 5))
        alpha = SimplexWeights(rng.dirichlet(np.ones(n)))
        d = rng.random(n) * 0.5
        base = BoundInputs(alpha, d, rng.integers(10, 1000, n).astype(float),
                           rng.random(n), 1.0, 0.05)
        k = int(rng.integers(0, n))
        bumped = d.copy()
        bumped[k] += 0.2
        higher = BoundInputs(alpha, bumped, base.sample_counts,
                             base.rademacher_bounds, 1.0, 0.05)
        if alpha.alpha[k] > 0:
            monotone &= excess_risk_bound(higher) > excess_risk_bound(base)
    _report(11, "bound evaluates to 1.0280 (+-1e-3) and is monotone in each d_i",
            close and monotone, f"value {value:.10f}")
