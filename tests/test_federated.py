import json

import numpy as np
import pytest

from helpers import lstsq_relaxation, random_dataset
from multisource.data import SourcePool
from multisource.discrepancy import empirical_discrepancy
from multisource.federated import (
    BYTES_PER_REAL,
    Message,
    replay_result_values,
    run_case1,
    run_case2,
)


def _pool(seed=0, n_sources=3, n=30, m_ref=20, d=2):
    rng = np.random.default_rng(seed)
    sources = tuple(random_dataset(rng, n, d, flip=float(rng.random() * 0.4))
                    for _ in range(n_sources))
    return SourcePool(sources, random_dataset(rng, m_ref, d))


def test_case1_matches_centralized_exactly():
    pool = _pool()
    trace = run_case1(pool)
    for est, src in zip(trace.result, pool.sources):
        central = empirical_discrepancy(src, pool.reference)
        assert est.value == central.value
        assert est.solver_risk == central.solver_risk


def test_case1_message_and_byte_accounting():
    pool = _pool(n_sources=4, n=25, m_ref=17, d=3)
    trace = run_case1(pool)
    n, d, m_ref = 4, 3, 17
    assert len(trace.messages) == 2 * n
    broadcasts = [m for m in trace.messages if m.kind == "reference_broadcast"]
    results = [m for m in trace.messages if m.kind == "discrepancy_result"]
    assert len(broadcasts) == n and len(results) == n
    assert all(m.payload_size == BYTES_PER_REAL * m_ref * (d + 1) for m in broadcasts)
    assert all(m.payload_size == BYTES_PER_REAL for m in results)
    assert trace.total_bytes == n * BYTES_PER_REAL * m_ref * (d + 1) + n * BYTES_PER_REAL


def test_case1_replay_reducer():
    pool = _pool(seed=1)
    trace = run_case1(pool)
    replayed = replay_result_values(trace.messages)
    for i, est in enumerate(trace.result):
        assert replayed[f"source_{i}"] == est.value


def test_case2_full_batch_matches_centralized():
    pool = _pool(seed=2)
    trace = run_case2(pool, rounds=2000, batch_size=10**9, step_size=1.0, seed=5)
    for est, src in zip(trace.result, pool.sources):
        central = empirical_discrepancy(src, pool.reference)
        assert abs(est.value - central.value) <= 1e-6


def test_case2_message_counts_and_privacy():
    pool = _pool(seed=3, n_sources=2)
    rounds = 17
    trace = run_case2(pool, rounds=rounds, batch_size=10**9, step_size=1.0, seed=5)
    assert len(trace.messages) == 2 * (2 * rounds + 2)
    kinds = {m.kind for m in trace.messages}
    assert "reference_broadcast" not in kinds
    queries = [m for m in trace.messages if m.kind == "model_query"]
    assert len(queries) == 2 * (rounds + 1)
    d = pool.n_features
    per_round = [m for m in queries if m.round <= rounds]
    assert all(m.payload_size == BYTES_PER_REAL * (d + 1) for m in per_round)


def test_case2_bytes_monotone_in_rounds():
    pool = _pool(seed=4, n_sources=2, n=15, m_ref=10)
    sizes = [run_case2(pool, rounds=r, batch_size=10**9, step_size=1.0, seed=1).total_bytes
             for r in (1, 5, 20, 50)]
    assert sizes == sorted(sizes)


def test_case2_trace_deterministic():
    pool = _pool(seed=5, n_sources=2, n=15, m_ref=10)
    a = run_case2(pool, rounds=40, batch_size=4, step_size=0.05, seed=9)
    b = run_case2(pool, rounds=40, batch_size=4, step_size=0.05, seed=9)
    assert a.messages == b.messages
    for ea, eb in zip(a.result, b.result):
        assert ea.value == eb.value


def test_case2_replay_reducer():
    pool = _pool(seed=6, n_sources=2, n=15, m_ref=10)
    trace = run_case2(pool, rounds=30, batch_size=10**9, step_size=1.0, seed=2)
    replayed = replay_result_values(trace.messages)
    for i, est in enumerate(trace.result):
        assert replayed[f"source_{i}"] == est.value


def test_case2_minibatch_runs():
    pool = _pool(seed=7, n_sources=2, n=15, m_ref=10)
    trace = run_case2(pool, rounds=10, batch_size=3, step_size=0.01, seed=0)
    assert len(trace.result) == 2


def test_case2_mixed_pool_runs():
    # one source above batch_size (fixed minibatch steps), one below it (backtracking)
    rng = np.random.default_rng(11)
    pool = SourcePool((random_dataset(rng, 40, 2, flip=0.2), random_dataset(rng, 12, 2)),
                      random_dataset(rng, 20, 2))
    rounds = 400
    trace = run_case2(pool, rounds=rounds, batch_size=20, step_size=0.01, seed=3)
    central = empirical_discrepancy(pool.sources[1], pool.reference)
    assert abs(trace.result[1].value - central.value) <= 1e-6
    for node in ("source_0", "source_1"):
        sent = [m for m in trace.messages if node in (m.sender, m.receiver)]
        assert len(sent) == 2 * rounds + 2


def test_case2_reaches_the_relaxation_minimizer():
    # the c09 pools: every final candidate is the closed-form minimizer
    rng = np.random.default_rng(109)
    for k in range(10):
        n_sources = int(rng.integers(2, 4))
        sources = tuple(random_dataset(rng, int(rng.integers(15, 40)), 2,
                                       flip=float(rng.random() * 0.5))
                        for _ in range(n_sources))
        pool = SourcePool(sources, random_dataset(rng, int(rng.integers(15, 30)), 2))
        trace = run_case2(pool, rounds=2500, batch_size=10**9, step_size=1.0, seed=k)
        finals = [m for m in trace.messages if m.kind == "model_query" and m.round == 2501]
        for source, message in zip(pool.sources, finals):
            exact = lstsq_relaxation(source, pool.reference)
            theta = np.array(message.payload[:-1])
            assert np.max(np.abs(theta - exact)) <= 1e-9 * np.max(np.abs(exact))


def test_case2_argument_validation():
    pool = _pool(seed=8, n_sources=1, n=10, m_ref=10)
    with pytest.raises(ValueError):
        run_case2(pool, rounds=0, batch_size=5, step_size=0.1, seed=0)
    with pytest.raises(ValueError):
        run_case2(pool, rounds=5, batch_size=0, step_size=0.1, seed=0)
    with pytest.raises(ValueError):
        run_case2(pool, rounds=5, batch_size=5, step_size=-0.1, seed=0)


def test_message_validation():
    with pytest.raises(ValueError):
        Message("a", "b", "model_query", -1, 0)
    with pytest.raises(ValueError):
        Message("a", "b", "model_query", 8, -1)


def test_jsonl_export_fields(tmp_path):
    pool = _pool(seed=9, n_sources=2, n=10, m_ref=8)
    trace = run_case1(pool)
    out = tmp_path / "trace.jsonl"
    trace.export_jsonl(out)
    lines = out.read_text().strip().split("\n")
    assert len(lines) == len(trace.messages)
    first = json.loads(lines[0])
    assert set(first) == {"from", "to", "kind", "payload_size", "round", "payload"}
    assert first["kind"] == "reference_broadcast"
