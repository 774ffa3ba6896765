import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from helpers import (
    brute_force_threshold_gap,
    exact_discrepancy_oracle,
    lstsq_discrepancy,
    random_dataset,
    spearman,
)
from multisource import discrepancy, federated
from multisource.data import Dataset, SourcePool
from multisource.discrepancy import (
    DiscrepancyEstimate,
    empirical_discrepancies,
    empirical_discrepancy,
)

ONE_D_REFERENCE = Dataset([[0.0], [1.0]], [-1.0, 1.0])
ONE_D_SOURCE = Dataset([[0.0], [1.0]], [-1.0, -1.0])


def test_estimate_validation():
    estimate = DiscrepancyEstimate(0.75)
    assert (estimate.solver_risk, estimate.value) == (0.75, 0.25)
    for risk in (0.0, 0.3, 1 / 3, 0.9999999999999999, 1.0):
        estimate = DiscrepancyEstimate(risk)
        assert estimate.value == 1.0 - estimate.solver_risk
        assert 0.0 <= estimate.value <= 1.0
    assert DiscrepancyEstimate(1.5).solver_risk == 1.0
    assert DiscrepancyEstimate(1.5).value == 0.0
    assert DiscrepancyEstimate(-0.25).solver_risk == 0.0
    assert DiscrepancyEstimate(-0.25).value == 1.0
    with pytest.raises(ValueError, match="NaN"):
        DiscrepancyEstimate(float("nan"))


def test_self_discrepancy_is_exactly_zero():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        d = int(rng.integers(1, 6))
        ds = random_dataset(rng, n, d)
        estimate = empirical_discrepancy(ds, ds)
        assert estimate.value == 0.0
        assert estimate.solver_risk == 1.0


def test_flipped_separable_reaches_one():
    # symmetric instance: the least-squares fit separates it exactly
    reference = Dataset([[-1.0], [-0.9], [0.9], [1.0]], [-1.0, -1.0, 1.0, 1.0])
    source = Dataset(reference.features, -reference.labels)
    estimate = empirical_discrepancy(source, reference)
    assert estimate.value == 1.0
    assert estimate.solver_risk == 0.0


def test_one_dimensional_instance_brute_force_agreement():
    # independent enumeration, then the library oracle, then the stated value
    brute = brute_force_threshold_gap(ONE_D_SOURCE, ONE_D_REFERENCE)
    assert brute == pytest.approx(0.5, abs=1e-15)
    oracle = exact_discrepancy_oracle(ONE_D_SOURCE, ONE_D_REFERENCE, "thresholds_1d")
    assert oracle == pytest.approx(0.5, abs=1e-12)


def test_oracle_identical_datasets():
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, 15, 2)
    assert exact_discrepancy_oracle(ds, ds, "lines_2d") == 0.0
    one_d = random_dataset(rng, 15, 1)
    assert exact_discrepancy_oracle(one_d, one_d, "thresholds_1d") == 0.0


def test_oracle_matches_brute_force_on_random_1d():
    rng = np.random.default_rng(3)
    for _ in range(25):
        src = random_dataset(rng, int(rng.integers(2, 20)), 1, flip=float(rng.random()))
        ref = random_dataset(rng, int(rng.integers(2, 20)), 1)
        lib = exact_discrepancy_oracle(src, ref, "thresholds_1d")
        brute = brute_force_threshold_gap(src, ref)
        assert lib == pytest.approx(brute, abs=1e-12)


def test_oracle_symmetry_is_exact():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = random_dataset(rng, 12, 2)
        b = random_dataset(rng, 9, 2)
        assert exact_discrepancy_oracle(a, b, "lines_2d") == exact_discrepancy_oracle(
            b, a, "lines_2d"
        )


def test_oracle_range():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_dataset(rng, 10, 2, flip=0.5)
        b = random_dataset(rng, 10, 2)
        assert 0.0 <= exact_discrepancy_oracle(a, b, "lines_2d") <= 1.0


def test_relaxed_estimate_bounded_by_full_class_oracle():
    # the relaxed solver is one feasible classifier, so its estimated gap can
    # never exceed the exact supremum over the whole linear class
    rng = np.random.default_rng(6)
    for _ in range(50):
        src = random_dataset(rng, int(rng.integers(5, 16)), 2, flip=float(rng.random()))
        ref = random_dataset(rng, int(rng.integers(5, 16)), 2)
        relaxed = empirical_discrepancy(src, ref).value
        oracle = exact_discrepancy_oracle(src, ref, "lines_2d")
        assert relaxed <= oracle + 1e-12
        assert relaxed <= oracle + 0.15


def test_relaxed_estimate_tracks_oracle():
    rng = np.random.default_rng(7)
    relaxed, oracle = [], []
    for k in range(50):
        flip = k / 50.0
        src = random_dataset(rng, 14, 2, flip=flip)
        ref = random_dataset(rng, 14, 2)
        relaxed.append(empirical_discrepancy(src, ref).value)
        oracle.append(exact_discrepancy_oracle(src, ref, "lines_2d"))
    assert spearman(relaxed, oracle) > 0.0


def test_collinear_points_are_handled():
    # all points on one line: the oracle must still sweep along that line
    src = Dataset([[0.0, 0.0], [1.0, 1.0]], [-1.0, -1.0])
    ref = Dataset([[0.0, 0.0], [1.0, 1.0]], [-1.0, 1.0])
    assert exact_discrepancy_oracle(src, ref, "lines_2d") == pytest.approx(0.5, abs=1e-12)


def test_discrepancy_errors():
    a = Dataset([[1.0]], [1.0])
    b = Dataset([[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError, match="feature"):
        empirical_discrepancy(a, b)
    empty = Dataset(np.empty((0, 1)), np.empty(0))
    with pytest.raises(ValueError, match="the reference is empty"):
        empirical_discrepancy(a, empty)
    with pytest.raises(ValueError, match="the source is empty"):
        empirical_discrepancy(empty, a)
    with pytest.raises(ValueError, match="thresholds_1d"):
        exact_discrepancy_oracle(b, b, "thresholds_1d")
    with pytest.raises(ValueError, match="lines_2d"):
        exact_discrepancy_oracle(a, a, "lines_2d")
    with pytest.raises(ValueError, match="unknown hypothesis"):
        exact_discrepancy_oracle(a, a, "cubes_3d")
    rng = np.random.default_rng(8)
    big = random_dataset(rng, 150, 1)
    with pytest.raises(ValueError, match="limited"):
        exact_discrepancy_oracle(big, big, "thresholds_1d")


def test_an_overflow_names_the_sample():
    plain = Dataset([[1.0], [-1.0]], [1.0, -1.0])
    huge = Dataset([[1e200], [-1e200]], [1.0, -1.0])
    near = Dataset([[1.2e154]], [1.0])  # its moments are finite, twice them are not
    cases = ((huge, plain, "the source's"), (plain, huge, "the reference's"),
             (huge, huge, "the source's"), (near, near, "the summed"))
    for source, reference, whose in cases:
        with pytest.raises(FloatingPointError,
                           match=rf"^{whose} feature moments overflowed; rescale the features$"):
            empirical_discrepancy(source, reference)


def test_a_batch_checks_every_source_before_the_reference():
    plain = Dataset([[1.0], [-1.0]], [1.0, -1.0])
    huge = Dataset([[1e200], [-1e200]], [1.0, -1.0])
    empty = Dataset(np.empty((0, 1)), np.empty(0))
    with pytest.raises(FloatingPointError, match="^the source's feature moments overflowed"):
        empirical_discrepancies([plain, huge], huge)
    with pytest.raises(ValueError, match="^the source is empty$"):
        empirical_discrepancies([plain, empty], empty)
    with pytest.raises(ValueError, match="^feature mismatch: source has 2, reference 1$"):
        empirical_discrepancies([plain, Dataset([[1.0, 2.0]], [1.0])], empty)
    with pytest.raises(ValueError, match="^no sources to score$"):
        empirical_discrepancies([], plain)


def test_a_non_finite_classifier_raises_as_a_predictor_does(monkeypatch):
    plain = Dataset([[1.0], [-1.0]], [1.0, -1.0])
    for theta in ([np.nan, 0.0], [0.0, np.inf]):
        for module in (discrepancy, federated):
            monkeypatch.setattr(module, "solve_relaxation", lambda gram, target: np.array([theta]))
        with pytest.raises(ValueError, match="^predictor parameters must be finite$"):
            empirical_discrepancies([plain], plain)
        with pytest.raises(ValueError, match="^predictor parameters must be finite$"):
            federated.run_case2(SourcePool((plain,), plain), rounds=3)


def test_unequal_sizes_are_weighted_not_resampled():
    # hand-checkable instance: source 1 point, reference 4 points
    src = Dataset([[2.0]], [-1.0])
    ref = Dataset([[-2.0], [-1.0], [1.0], [2.0]], [-1.0, -1.0, 1.0, 1.0])
    oracle = exact_discrepancy_oracle(src, ref, "thresholds_1d")
    # threshold at 0, positive side +1: reference risk 0, source risk 1
    assert oracle == pytest.approx(1.0, abs=1e-12)
    estimate = empirical_discrepancy(src, ref)
    assert 0.0 <= estimate.value <= 1.0


# Data comes from a drawn seed and shape rather than raw float arrays, so that
# no point sits exactly on a decision boundary.
instances = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(2, 60),  # source size
    st.integers(2, 60),  # reference size
    st.integers(1, 6),  # features
    st.floats(0.0, 0.5),  # source label-flip rate
)


def _instance(seed, m_src, m_ref, d, flip):
    rng = np.random.default_rng(seed)
    return rng, random_dataset(rng, m_src, d, flip=flip), random_dataset(rng, m_ref, d)


@given(instances, st.floats(1.0, 1e4))
@settings(max_examples=100, deadline=None)
def test_discrepancy_invariant_to_feature_scaling(instance, c):
    # c < 1 is left out: there the fixed relaxation ridge stops being negligible
    _, src, ref = _instance(*instance)
    scaled = empirical_discrepancy(Dataset(c * src.features, src.labels),
                                   Dataset(c * ref.features, ref.labels))
    assert scaled.value == empirical_discrepancy(src, ref).value


@given(instances, st.floats(-100.0, 100.0))
@settings(max_examples=100, deadline=None)
def test_discrepancy_invariant_to_shared_translation(instance, magnitude):
    rng, src, ref = _instance(*instance)
    shift = magnitude * rng.standard_normal(src.n_features)
    moved = empirical_discrepancy(Dataset(src.features + shift, src.labels),
                                  Dataset(ref.features + shift, ref.labels))
    assert moved.value == empirical_discrepancy(src, ref).value


@given(instances)
@settings(max_examples=100, deadline=None)
def test_discrepancy_matches_lstsq_reference(instance):
    _, src, ref = _instance(*instance)
    assert empirical_discrepancy(src, ref).value == lstsq_discrepancy(src, ref)


def _batch(seed, sizes, m_ref, d):
    rng = np.random.default_rng(seed)
    sources = [random_dataset(rng, n, d, flip=float(rng.random()) / 2) for n in sizes]
    return rng, sources, random_dataset(rng, m_ref, d)


batches = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.lists(st.integers(2, 60), min_size=1, max_size=6),  # source sizes
    st.integers(2, 60),  # reference size
    st.integers(1, 6),  # features
)


@given(batches)
@settings(max_examples=100, deadline=None)
def test_a_batch_equals_one_call_per_source_bit_for_bit(batch):
    _, sources, reference = _batch(*batch)
    risks = [e.solver_risk.hex() for e in empirical_discrepancies(sources, reference)]
    assert risks == [empirical_discrepancy(s, reference).solver_risk.hex() for s in sources]


@given(batches)
@settings(max_examples=50, deadline=None)
def test_reordering_the_sources_permutes_the_estimates(batch):
    rng, sources, reference = _batch(*batch)
    order = rng.permutation(len(sources))
    estimates = empirical_discrepancies(sources, reference)
    reordered = empirical_discrepancies([sources[i] for i in order], reference)
    assert [e.solver_risk.hex() for e in reordered] == [estimates[i].solver_risk.hex()
                                                        for i in order]
