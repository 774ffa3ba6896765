"""Robust learning from multiple untrusted data sources.

Estimate per-source discrepancies against a trusted reference sample, solve
a simplex-constrained weighting program, and train a weighted empirical risk
minimizer; plus robust-aggregation baselines, corruption generators, and a
deterministic simulator of the decentralized discrepancy protocols.
"""

from .baselines import (
    MedianOfProbsEnsemble,
    NormalizationStats,
    apply_normalization,
    componentwise_median,
    fit_normalization,
    geometric_median,
    huber_logistic_loss,
    median_of_probabilities,
    train_local_models,
)
from .corruption import CorruptionSpec, corrupt, corrupt_pool
from .data import Dataset, SourcePool, kfold_indices, load_csv, merge, save_csv, split
from .discrepancy import (
    DiscrepancyEstimate,
    empirical_discrepancy,
    exact_discrepancy_oracle,
)
from .federated import Message, ProtocolTrace, replay_result_values, run_case1, run_case2
from .harness import (
    ExperimentConfig,
    RunResult,
    SyntheticSpec,
    generate_synthetic_pool,
    run_baseline,
    run_ours,
    run_sweep,
)
from .models import (
    HUBER_C,
    LinearPredictor,
    TrainConfig,
    logistic_loss,
    train_erm,
    train_weighted_erm,
    zero_one_error,
)
from .weights import (
    BoundInputs,
    SimplexWeights,
    WeightProblem,
    excess_risk_bound,
    linear_rademacher_bound,
    solve_weights,
)

__version__ = "0.1.0"
