import contextlib
import io
import json
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from helpers import bench_seed, case2_oracle, config_to_json, lstsq_relaxation, random_dataset
from multisource import discrepancy, federated, models
from multisource.cli import main
from multisource.data import Dataset, SourcePool
from multisource.discrepancy import empirical_discrepancies, empirical_discrepancy
from multisource.federated import BYTES_PER_REAL, Message, run_case1, run_case2
from multisource.harness import (
    ExperimentConfig,
    SyntheticSpec,
    build_pool,
    generate_synthetic_pool,
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


def test_case1_builds_each_samples_moments_once(monkeypatch):
    built, moments = [], discrepancy.moments
    monkeypatch.setattr(discrepancy, "moments", lambda data: built.append(data) or moments(data))
    pool = _pool(n_sources=5)
    run_case1(pool)
    assert len(built) == pool.n_sources + 1
    assert sum(data is pool.reference for data in built) == 1


def test_no_predictor_is_built_to_score_a_candidate(monkeypatch):
    built, post_init = [], models.LinearPredictor.__post_init__
    monkeypatch.setattr(models.LinearPredictor, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    pool = _pool(n_sources=4)
    empirical_discrepancies(pool.sources, pool.reference)
    run_case1(pool)
    run_case2(pool, rounds=10)
    assert built == []
    models.LinearPredictor(np.zeros(2), 0.0)  # the count sees a predictor built
    assert len(built) == 1


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
             for r in (4, 5, 20, 50)]  # from d + 2 = 4 up
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
    pool = _pool(seed=8, n_sources=1, n=10, m_ref=10)  # d = 2
    for rounds in (0, 3):
        with pytest.raises(ValueError, match=r"^rounds must be >= d \+ 2 = 4$"):
            run_case2(pool, rounds=rounds)
    assert run_case2(pool, rounds=4).n_messages == 2 * 4 + 2


def test_case2_huge_budget_stores_nothing_per_round():
    # the budget only counts: no array or message grows with it until
    # `messages` is read, and the estimates are those of the smallest budget
    pool = _pool(seed=7, n_sources=3)
    rounds, d = 10**12, pool.n_features
    tracemalloc.start()
    try:
        trace = run_case2(pool, rounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert trace.n_messages == 3 * (2 * rounds + 2)
    assert trace.total_bytes == 3 * BYTES_PER_REAL * (2 * rounds * (d + 1) + (d + 2) + 1)
    assert trace.rounds == rounds + 1
    assert trace.result == run_case2(pool, d + 2).result


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
    again = tmp_path / "again.jsonl"
    trace.export_jsonl(out)
    run_case2(pool, rounds=30).export_jsonl(again)
    assert out.read_bytes() == again.read_bytes()
    lines = out.read_text().split("\n")
    assert lines.pop() == ""  # every line ends in a newline
    assert len(lines) == len(trace.messages)
    for line, message in zip(lines, trace.messages):
        assert json.loads(line)["payload"] == list(message.payload)
        assert all(type(v) is float for v in message.payload)


def test_jsonl_export_streams_in_memory_independent_of_rounds(tmp_path):
    # the export writes each message as it is built: its peak memory at 20,000
    # rounds is that at 2,000 plus a small constant, and `messages` stays unbuilt
    pool = _pool(seed=4, n_sources=1)
    peaks = []
    for rounds in (2_000, 20_000):
        trace = run_case2(pool, rounds)
        path = tmp_path / f"{rounds}.jsonl"
        tracemalloc.start()
        try:
            trace.export_jsonl(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert "messages" not in vars(trace)
        assert path.read_text().count("\n") == trace.n_messages
    assert peaks[1] <= peaks[0] + 16 * 1024


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
        rounds = int(rng.integers(d + 2, 401))
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
@given(n_sources=st.integers(1, 6), d=st.integers(1, 11), extra_rounds=st.integers(0, 300),
       log_scales=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_case2_matches_a_plain_per_source_loop_bit_for_bit(n_sources, d, extra_rounds,
                                                          log_scales, seed):
    rng = np.random.default_rng(seed)
    rounds = d + 2 + extra_rounds
    source_scale, reference_scale = 10.0 ** np.array(log_scales)

    def scaled(n, scale, flip=0.0):
        data = random_dataset(rng, n, d, flip)
        return Dataset(data.features * scale, data.labels)

    sources = tuple(scaled(int(rng.integers(3, 60)), source_scale, float(rng.random() * 0.5))
                    for _ in range(n_sources))
    reference = scaled(int(rng.integers(3, 40)), reference_scale)
    _assert_matches_the_oracle(SourcePool(sources, reference), rounds)


def _assert_matches_the_oracle(pool, rounds):
    """Every source's queries, replies, final query (candidate and reference
    risk) and final reply equal, bit for bit, those of `case2_oracle`, a
    plain loop over one source's rounds."""
    messages = run_case2(pool, rounds).messages
    block = 2 * rounds + 2
    for i, source in enumerate(pool.sources):
        queries, replies, final_query, final_reply = case2_oracle(source, pool.reference, rounds)
        own = messages[i * block:(i + 1) * block]
        assert np.array([m.payload for m in own[0:-2:2]]).tobytes() == queries.tobytes()
        assert np.array([m.payload for m in own[1:-2:2]]).tobytes() == replies.tobytes()
        assert np.array(own[-2].payload).tobytes() == final_query.tobytes()
        assert np.array(own[-1].payload).tobytes() == np.array([final_reply]).tobytes()


def _bench_pool(j):
    """The benchmark's federated pool, variant j at base seed 1."""
    spec = SyntheticSpec(n_sources=10, samples_per_source=500, reference_size=200,
                         test_size=10, n_features=10, class_separation=3.0,
                         positive_fraction=0.75)
    return generate_synthetic_pool(spec, bench_seed(1, j))[0]


def test_case2_bench_pools_match_the_oracle_bit_for_bit():
    for j in range(4):
        _assert_matches_the_oracle(_bench_pool(j), 1000)


def test_case2_budgets_around_the_probes():
    # the smallest budget sends the probes only; one more round queries the
    # solution once, and the final candidate is the same at every budget
    for pool in (_bench_pool(0), *(_pool(seed=seed, n_sources=3) for seed in range(3))):
        d = pool.n_features
        for rounds in (d + 2, d + 3, d + 4, 100):
            _assert_matches_the_oracle(pool, rounds)


def _shifted_reproducer():
    """Two sources of 100 rows and a 60-row reference, d = 2, labels sign(x_0)
    with 10% and 40% of source labels flipped, every feature shifted by +10."""
    rng = np.random.default_rng(0)
    samples = []
    for n, flip in ((100, 0.1), (100, 0.4), (60, 0.0)):
        features = rng.standard_normal((n, 2))
        labels = np.where(features[:, 0] >= 0, 1.0, -1.0)
        labels = np.where(rng.random(n) < flip, -labels, labels)
        samples.append(Dataset(features + 10.0, labels))
    return SourcePool(tuple(samples[:2]), samples[2])


def _affine_pool(rng, d, scale, offset):
    """A pool of 1-4 sources whose features are `random_dataset`'s times
    `scale` plus `offset` (scalars or one per column)."""

    def draw(n, flip=0.0):
        data = random_dataset(rng, n, d, flip)
        return Dataset(data.features * scale + offset, data.labels)

    sources = tuple(draw(int(rng.integers(3, 80)), float(rng.random() * 0.5))
                    for _ in range(int(rng.integers(1, 5))))
    return SourcePool(sources, draw(int(rng.integers(3, 60))))


def test_case2_estimates_equal_central():
    # The learner recovers column j of G_i as reply j + 2 minus the first
    # reply, a float subtraction, so its system, and theta, can differ from
    # `empirical_discrepancy`'s in the last bits. The estimate counts the
    # samples that theta's sign classifier misses, and bits that low move no
    # sample across the boundary here; the 2^-52 is the final exchange adding
    # two means where central divides summed counts.
    pools = [_shifted_reproducer(), *(_bench_pool(j) for j in range(4))]
    rng = np.random.default_rng(2301)
    for _ in range(40):  # per-column scales and offsets of 10^U(-2, 2)
        d = int(rng.integers(1, 9))
        pools.append(_affine_pool(rng, d, 10.0 ** rng.uniform(-2, 2, d),
                                  rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(-2, 2, d)))
    for shift in (1e2, 1e3, 1e4, 1e5, 1e6):  # every feature shifted alike
        pools += [_affine_pool(rng, int(rng.integers(1, 9)), 1.0, shift) for _ in range(8)]
    for pool in pools:
        trace = run_case2(pool, pool.n_features + 2)
        for estimate, source in zip(trace.result, pool.sources):
            central = empirical_discrepancy(source, pool.reference)
            assert abs(estimate.value - central.value) <= 2**-52
    assert [e.value for e in run_case2(pools[0], 1000).result] == pytest.approx(
        [31 / 300, 0.34], abs=2**-52)


def test_case2_non_finite_reply_raises(monkeypatch):
    # source_1's Gram matrix overflows, so its first reply, at theta = 0, is
    # NaN; the name is its source's index, not a round's
    pool = _pool(seed=10, n_sources=3, n=12, m_ref=10)
    huge = Dataset(pool.sources[1].features * 1e200, pool.sources[1].labels)
    with_huge = SourcePool((pool.sources[0], huge, huge), pool.reference)
    for rounds in (4, 5, 1000):
        with pytest.raises(FloatingPointError, match=r"^non-finite gradient from source_1$"):
            run_case2(with_huge, rounds)
    # once the probes are finite, no pool found makes the reply at the
    # solution overflow, so the solution is replaced by one at which sources 2
    # and 0 overflow: their first bad reply is in round d + 3, which names the
    # lower index; an earlier round's is named first
    solve = federated.solve_relaxation

    def overshoot(gram, target):
        theta = solve(gram, target)
        theta[[2, 0]] = 1e308
        return theta

    monkeypatch.setattr(federated, "solve_relaxation", overshoot)
    run_case2(pool, 4)  # at d + 2 rounds the solution is never queried
    for rounds in (5, 1000):
        with pytest.raises(FloatingPointError, match=r"^non-finite gradient from source_0$"):
            run_case2(pool, rounds)
        with pytest.raises(FloatingPointError, match=r"^non-finite gradient from source_1$"):
            run_case2(with_huge, rounds)


@pytest.mark.parametrize("rounds", [4, 5, 1000])
def test_case2_non_finite_reply_stops_before_the_solve(monkeypatch, rounds):
    # a bad probe reply raises before the learner solves anything, at any budget
    solves = []
    solve = federated.solve_relaxation
    monkeypatch.setattr(federated, "solve_relaxation",
                        lambda *args: solves.append(args) or solve(*args))
    pool = _pool(seed=10, n_sources=3, n=12, m_ref=10)
    huge = Dataset(pool.sources[2].features * 1e200, pool.sources[2].labels)
    with pytest.raises(FloatingPointError, match=r"^non-finite gradient from source_2$"):
        run_case2(SourcePool(pool.sources[:2] + (huge,), pool.reference), rounds)
    assert solves == []
    run_case2(pool, rounds)
    assert len(solves) == 1  # one batched solve for every source


def test_case2_singular_system_raises_as_central_does():
    # a feature constant at 1e5 swamps the ridge on its weight: the system
    # is singular to working precision, for the learner as for central
    rng = np.random.default_rng(0)
    samples = [Dataset(np.full((n, 1), 1e5), np.where(rng.random(n) < 0.5, 1.0, -1.0))
               for n in (16, 32, 16)]
    pool = SourcePool(tuple(samples[:2]), samples[2])
    singular = r"^the relaxation's system is singular to working precision; center or rescale"
    for run in (lambda: run_case1(pool), lambda: run_case2(pool, 1000)):
        with pytest.raises(FloatingPointError, match=singular):
            run()


def test_case2_overflowed_reference_is_named_not_a_source():
    pool = _pool(seed=10, n_sources=2, n=20, m_ref=20)
    huge = Dataset(pool.reference.features * 1e200, pool.reference.labels)
    # the centralized estimator's message, from the same `finite_moments` check
    with pytest.raises(FloatingPointError,
                       match=r"^the reference's feature moments overflowed; "
                             r"rescale the features$"):
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
@given(n_sources=st.integers(1, 7), d=st.integers(1, 11), extra_rounds=st.integers(0, 300),
       samples=st.integers(2, 60), reference_size=st.integers(2, 40),
       seed=st.integers(0, 2**32 - 1), case=st.sampled_from((1, 2)))
def test_stored_counts_match_the_built_trace(n_sources, d, extra_rounds, samples,
                                             reference_size, seed, case):
    rounds = d + 2 + extra_rounds
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
        assert trace_path.read_text() == "\n".join(
            json.dumps(m.to_json_dict()) for m in trace.messages) + "\n"
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


def test_case1_builds_no_message_until_read(monkeypatch, tmp_path):
    built = []

    class CountingMessage(Message):
        def __post_init__(self):
            built.append(self)
            Message.__post_init__(self)

    monkeypatch.setattr(federated, "Message", CountingMessage)
    n_sources = 3
    trace = run_case1(_pool(seed=6, n_sources=n_sources))
    path = tmp_path / "config.json"
    _synthetic_config(path, n_sources, 20, 15, 2, seed=6)
    _cli_stdout(["simulate-federated", "--case", "1", "--config", str(path)])
    assert len(built) == 0
    assert len(trace.messages) == 2 * n_sources == len(built)
    assert trace.messages == tuple(built)  # read once, built once
    # the counts stored in closed form are those of the built trace
    assert trace.n_messages == len(trace.messages)
    assert trace.total_bytes == sum(m.payload_size for m in trace.messages)
    assert [m.payload for m in trace.messages[n_sources:]] == [(e.value,) for e in trace.result]
