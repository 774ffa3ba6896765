import contextlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from helpers import case2_oracle, config_to_json, lstsq_relaxation, random_dataset
from multisource import federated
from multisource.cli import main
from multisource.data import Dataset, SourcePool
from multisource.discrepancy import empirical_discrepancy
from multisource.federated import (
    BYTES_PER_REAL,
    Message,
    run_case1,
    run_case2,
)
from multisource.harness import ExperimentConfig, SyntheticSpec, build_pool


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


def test_case2_full_batch_matches_centralized():
    pool = _pool(seed=2)
    trace = run_case2(pool, rounds=2000)
    for est, src in zip(trace.result, pool.sources):
        central = empirical_discrepancy(src, pool.reference)
        assert abs(est.value - central.value) <= 1e-6


def test_case2_message_counts_and_privacy():
    pool = _pool(seed=3, n_sources=2)
    rounds = 17
    trace = run_case2(pool, rounds=rounds)
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
    sizes = [run_case2(pool, rounds=r).total_bytes
             for r in (1, 5, 20, 50)]
    assert sizes == sorted(sizes)


def test_case2_trace_deterministic():
    pool = _pool(seed=5, n_sources=2, n=15, m_ref=10)
    a = run_case2(pool, rounds=40)
    b = run_case2(pool, rounds=40)
    assert a.messages == b.messages
    for ea, eb in zip(a.result, b.result):
        assert ea.value == eb.value


def test_case2_reaches_the_relaxation_minimizer():
    # the c09 pools: every final candidate is the closed-form minimizer
    rng = np.random.default_rng(109)
    for _ in range(10):
        n_sources = int(rng.integers(2, 4))
        sources = tuple(random_dataset(rng, int(rng.integers(15, 40)), 2,
                                       flip=float(rng.random() * 0.5))
                        for _ in range(n_sources))
        pool = SourcePool(sources, random_dataset(rng, int(rng.integers(15, 30)), 2))
        trace = run_case2(pool, rounds=2500)
        finals = [m for m in trace.messages if m.kind == "model_query" and m.round == 2501]
        for source, message in zip(pool.sources, finals):
            exact = lstsq_relaxation(source, pool.reference)
            theta = np.array(message.payload[:-1])
            assert np.max(np.abs(theta - exact)) <= 1e-9 * np.max(np.abs(exact))


def test_case2_argument_validation():
    pool = _pool(seed=8, n_sources=1, n=10, m_ref=10)
    with pytest.raises(ValueError):
        run_case2(pool, rounds=0)


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

    # every case-2 line parses back to its message, and payloads are plain floats
    trace = run_case2(pool, rounds=30)
    text = trace.export_jsonl()
    assert run_case2(pool, rounds=30).export_jsonl() == text
    lines = text.split("\n")
    assert len(lines) == len(trace.messages)
    for line, message in zip(lines, trace.messages):
        assert json.loads(line)["payload"] == list(message.payload)
        assert all(type(v) is float for v in message.payload)


def _jsonl_lines(messages, rename=None):
    """One JSON line per message, with node ids renamed by the dict `rename`."""
    rename = rename or {}
    return [json.dumps(replace(m, sender=rename.get(m.sender, m.sender),
                               receiver=rename.get(m.receiver, m.receiver)).to_json_dict())
            for m in messages]


def test_case2_sources_never_interact():
    # each source's block is, bit for bit, the trace of a pool holding it alone
    rng = np.random.default_rng(1011)
    for _ in range(8):
        n_sources, d = int(rng.integers(2, 8)), int(rng.integers(1, 12))
        rounds = int(rng.integers(1, 401))
        sources = tuple(random_dataset(rng, int(rng.integers(3, 60)), d,
                                       flip=float(rng.random() * 0.5))
                        for _ in range(n_sources))
        reference = random_dataset(rng, int(rng.integers(3, 40)), d)
        trace = run_case2(SourcePool(sources, reference), rounds)
        block = 2 * rounds + 2
        assert len(trace.messages) == n_sources * block
        lines = _jsonl_lines(trace.messages)
        blocks = [lines[i * block:(i + 1) * block] for i in range(n_sources)]
        for i, source in enumerate(sources):
            solo = run_case2(SourcePool((source,), reference), rounds)
            assert blocks[i] == _jsonl_lines(solo.messages, {"source_0": f"source_{i}"})
            assert trace.result[i] == solo.result[0]
        reverse = run_case2(SourcePool(sources[::-1], reference), rounds)
        reversed_lines = _jsonl_lines(reverse.messages, {
            f"source_{i}": f"source_{n_sources - 1 - i}" for i in range(n_sources)})
        assert [reversed_lines[i * block:(i + 1) * block] for i in range(n_sources)] == blocks[::-1]
        assert reverse.result == trace.result[::-1]


@settings(max_examples=40, deadline=None)
@given(n_sources=st.integers(1, 6), d=st.integers(1, 11), rounds=st.integers(1, 300),
       log_scales=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_case2_matches_a_plain_per_source_loop_bit_for_bit(n_sources, d, rounds, log_scales,
                                                          seed):
    rng = np.random.default_rng(seed)
    source_scale, reference_scale = 10.0 ** np.array(log_scales)

    def scaled(n, scale, flip=0.0):
        data = random_dataset(rng, n, d, flip)
        return Dataset(data.features * scale, data.labels)

    sources = tuple(scaled(int(rng.integers(3, 60)), source_scale, float(rng.random() * 0.5))
                    for _ in range(n_sources))
    reference = scaled(int(rng.integers(3, 40)), reference_scale)
    messages = run_case2(SourcePool(sources, reference), rounds).messages
    block = 2 * rounds + 2
    for i, source in enumerate(sources):
        queries, replies, theta = case2_oracle(source, reference, rounds)
        own = messages[i * block:(i + 1) * block]
        assert np.array([m.payload for m in own[0:-2:2]]).tobytes() == queries.tobytes()
        assert np.array([m.payload for m in own[1:-2:2]]).tobytes() == replies.tobytes()
        assert np.array(own[-2].payload[:-1]).tobytes() == theta.tobytes()


def test_case2_non_finite_reply_raises():
    # source_1's Gram matrix overflows, so its first reply is NaN
    pool = _pool(seed=10, n_sources=3, n=12, m_ref=10)
    huge = Dataset(pool.sources[1].features * 1e200, pool.sources[1].labels)
    with pytest.raises(FloatingPointError, match=r"^non-finite gradient from source_1$"):
        run_case2(SourcePool((pool.sources[0], huge, huge), pool.reference), rounds=5)
    # only the last source overflows, from round 2 on (its first reply, at
    # theta = 0, is finite): the name is its index, not a round's
    late = Dataset(pool.sources[1].features * 1e140, pool.sources[1].labels)
    with pytest.raises(FloatingPointError, match=r"^non-finite gradient from source_2$"):
        run_case2(SourcePool(pool.sources[:2] + (late,), pool.reference), rounds=5)


def test_case2_overflowed_reference_is_named_not_a_source():
    pool = _pool(seed=10, n_sources=2, n=20, m_ref=20)
    huge = Dataset(pool.reference.features * 1e200, pool.reference.labels)
    with pytest.raises(FloatingPointError,
                       match=r"^reference moments overflowed; rescale the features$"):
        run_case2(SourcePool(pool.sources, huge), rounds=5)


def _synthetic_config(path, n_sources, samples, reference_size, d, seed):
    config = ExperimentConfig(
        data=SyntheticSpec(n_sources=n_sources, samples_per_source=samples,
                           reference_size=reference_size, test_size=10, n_features=d,
                           class_separation=2.0),
        method=("ours",), seed=seed)
    path.write_text(config_to_json(config))
    return config


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@settings(max_examples=30, deadline=None)
@given(n_sources=st.integers(1, 7), d=st.integers(1, 11), rounds=st.integers(1, 300),
       samples=st.integers(2, 60), reference_size=st.integers(2, 40),
       seed=st.integers(0, 2**32 - 1), case=st.sampled_from((1, 2)))
def test_stored_counts_match_the_built_trace(n_sources, d, rounds, samples, reference_size,
                                             seed, case):
    with tempfile.TemporaryDirectory() as tmp:
        path, trace_path = Path(tmp) / "config.json", Path(tmp) / "trace.jsonl"
        config = _synthetic_config(path, n_sources, samples, reference_size, d, seed)
        pool, _ = build_pool(config, config.seed)
        trace = run_case1(pool) if case == 1 else run_case2(pool, rounds)
        assert trace.n_messages == len(trace.messages)
        assert trace.total_bytes == sum(m.payload_size for m in trace.messages)
        argv = ["simulate-federated", "--case", str(case), "--config", str(path),
                "--rounds", str(rounds)]
        plain = _cli_stdout(argv)
        assert _cli_stdout(argv + ["--trace", str(trace_path)]) == plain
        assert trace_path.read_text() == trace.export_jsonl() + "\n"
        assert json.loads(plain)["messages"] == trace.n_messages


def test_case2_builds_no_message_until_read(monkeypatch, tmp_path):
    built = []

    class CountingMessage(Message):
        def __post_init__(self):
            built.append(self)
            Message.__post_init__(self)

    monkeypatch.setattr(federated, "Message", CountingMessage)
    n_sources, rounds = 3, 12
    trace = run_case2(_pool(seed=6, n_sources=n_sources), rounds)
    path = tmp_path / "config.json"
    _synthetic_config(path, n_sources, 20, 15, 2, seed=6)
    _cli_stdout(["simulate-federated", "--case", "2", "--config", str(path),
                 "--rounds", str(rounds)])
    assert len(built) == 0
    assert len(trace.messages) == 2 * n_sources * (rounds + 1) == len(built)
    assert trace.messages == tuple(built)  # read once, built once
