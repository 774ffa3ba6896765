"""Robust learning from multiple untrusted data sources.

Estimate per-source discrepancies against a trusted reference sample, solve
a simplex-constrained weighting program, and train a weighted empirical risk
minimizer; plus robust-aggregation baselines, corruption generators, and a
deterministic simulator of the decentralized discrepancy protocols.
"""

from .baselines import MedianOfProbsEnsemble, componentwise_median, geometric_median
from .corruption import CorruptionSpec, corrupt, corrupt_pool
from .data import Dataset, SourcePool, kfold_indices, load_csv, merge
from .discrepancy import DiscrepancyEstimate, empirical_discrepancies, empirical_discrepancy
from .federated import Message, ProtocolTrace, run_case1, run_case2
from .harness import (
    ExperimentConfig,
    RunResult,
    SyntheticSpec,
    generate_synthetic_pool,
    run_sweep,
)
from .models import (
    HUBER_C,
    LinearPredictor,
    train_erm,
    train_weighted_erm,
    zero_one_error,
)
from .weights import WeightProblem, excess_risk_bound, solve_weights

__version__ = "0.1.0"
