"""Deterministic message-passing simulation of decentralized discrepancy
estimation.

Two protocols are simulated with explicit message and byte accounting
(8 bytes per real number, no headers):

  Case 1  the learner broadcasts the reference dataset to every source
          node; each node estimates its discrepancy locally and returns a
          single number. The results are produced by the very same code
          path as the centralized estimator, so they match it exactly.

  Case 2  the reference dataset may not leave the learner. The merged
          flipped-label squared objective splits into a reference-only
          term (kept at the learner) and a source-only term, so the
          learner runs gradient descent by querying the source for the
          gradient of its term at each candidate. With full batches the
          learner can even run Armijo backtracking without ever seeing a
          source objective value: for a quadratic, F(b) - F(a) =
          (g(a) + g(b)) . (b - a) / 2, which only needs the gradients the
          protocol already exchanges. Each trial consumes one query round.
          After the round budget, one extra exchange evaluates the final
          candidate: the learner sends it together with its local
          reference-risk scalar, and the source answers with the finished
          discrepancy estimate. That final reply is the only message a
          trace replay needs to reproduce the result vector.

The simulator is a single-threaded event loop; "parallel" execution is
modeled as round structure so traces are bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .data import Dataset, SourcePool
from .discrepancy import RELAX_RIDGE, DiscrepancyEstimate, empirical_discrepancy
from .models import ARMIJO_C, MAX_STEP, STEP_GROWTH, STEP_SHRINK, weighted_objective_grad

__all__ = [
    "BYTES_PER_REAL",
    "Message",
    "Node",
    "ProtocolTrace",
    "run_case1",
    "run_case2",
    "replay_result_values",
]

BYTES_PER_REAL = 8

KIND_REFERENCE_BROADCAST = "reference_broadcast"
KIND_DISCREPANCY_RESULT = "discrepancy_result"
KIND_MODEL_QUERY = "model_query"
KIND_GRADIENT_REPLY = "gradient_reply"


@dataclass(frozen=True)
class Node:
    """A protocol participant."""

    node_id: str


@dataclass(frozen=True)
class Message:
    sender: str
    receiver: str
    kind: str
    payload_size: int
    round: int
    payload: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.payload_size < 0:
            raise ValueError("payload_size must be nonnegative")
        if self.round < 0:
            raise ValueError("round must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "from": self.sender,
            "to": self.receiver,
            "kind": self.kind,
            "payload_size": self.payload_size,
            "round": self.round,
            "payload": None if self.payload is None else list(self.payload),
        }


@dataclass(frozen=True, eq=False)
class ProtocolTrace:
    messages: tuple[Message, ...]
    total_bytes: int
    rounds: int
    result: tuple[DiscrepancyEstimate, ...]
    nodes: tuple[Node, ...] = ()

    def __post_init__(self) -> None:
        actual = sum(m.payload_size for m in self.messages)
        if actual != self.total_bytes:
            raise ValueError(f"total_bytes={self.total_bytes} but messages sum to {actual}")

    def export_jsonl(self, path: str | Path | None = None) -> str:
        text = "\n".join(json.dumps(m.to_json_dict()) for m in self.messages)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text


def replay_result_values(messages: Iterable[Message]) -> dict[str, float]:
    """Pure reducer: final reported discrepancy value per sending node."""
    out: dict[str, float] = {}
    for message in messages:
        if message.kind == KIND_DISCREPANCY_RESULT:
            out[message.sender] = message.payload[0]
    return out


def _source_node_id(index: int) -> str:
    return f"source_{index}"


def run_case1(pool: SourcePool) -> ProtocolTrace:
    """Reference broadcast, then local estimation at every source node."""
    d = pool.n_features
    m_ref = pool.reference.n_samples
    broadcast_bytes = BYTES_PER_REAL * m_ref * (d + 1)

    messages: list[Message] = []
    for i in range(pool.n_sources):
        messages.append(
            Message("learner", _source_node_id(i), KIND_REFERENCE_BROADCAST,
                    broadcast_bytes, round=0)
        )
    results = []
    for i, source in enumerate(pool.sources):
        estimate = empirical_discrepancy(source, pool.reference)
        results.append(estimate)
        messages.append(
            Message(_source_node_id(i), "learner", KIND_DISCREPANCY_RESULT,
                    BYTES_PER_REAL, round=1, payload=(estimate.value,))
        )
    nodes = (Node("learner"),) + tuple(Node(_source_node_id(i)) for i in range(pool.n_sources))
    return ProtocolTrace(
        messages=tuple(messages),
        total_bytes=sum(m.payload_size for m in messages),
        rounds=2,
        result=tuple(results),
        nodes=nodes,
    )


class _SourceOracle:
    """Source-side term of the split objective: (1/m) sum (w.x + b - ybar)^2."""

    def __init__(self, source: Dataset, batch_size: int, rng: np.random.Generator):
        self.features = source.features
        self.flipped = -source.labels
        self.m = source.n_samples
        self.batch_size = min(batch_size, self.m)
        self.full_batch = self.batch_size >= self.m
        self.rng = rng

    def gradient(self, w: np.ndarray, b: float) -> np.ndarray:
        if self.full_batch:
            rows = slice(None)
            count = self.m
        else:
            rows = self.rng.choice(self.m, size=self.batch_size, replace=False)
            count = self.batch_size
        sw = np.full(count, 1.0 / count)
        _, gw, gb = weighted_objective_grad(
            w, b, self.features[rows], self.flipped[rows], sw, "squared", 0.0
        )
        return np.append(gw, gb)

    def finish(self, w: np.ndarray, b: float, reference_risk: float) -> float:
        """Total weighted 0/1 risk (clamped to [0, 1]) of the final candidate:
        local flipped-label risk plus the learner's reference risk."""
        predicted = np.where(self.features @ w + b >= 0.0, 1.0, -1.0)
        local_risk = float(np.sum(predicted != self.flipped)) / self.m
        return min(max(local_risk + reference_risk, 0.0), 1.0)


def run_case2(
    pool: SourcePool,
    rounds: int,
    batch_size: int,
    step_size: float,
    seed: int,
    step_rule: str = "backtracking",
) -> ProtocolTrace:
    """Gradient-query protocol; the reference dataset never leaves the learner.

    Exactly `rounds` query/reply pairs are exchanged per source (trials of
    the backtracking search each consume one), followed by one final
    exchange that evaluates the last accepted candidate. Message count per
    source is therefore 2 * rounds + 2. Minibatch mode requires the fixed
    step rule, since the quadratic Armijo identity only holds when both
    gradients cover the full source term.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if step_size <= 0:
        raise ValueError("step_size must be positive")
    if step_rule not in ("backtracking", "fixed"):
        raise ValueError(f"unknown step_rule {step_rule!r}")
    if step_rule == "backtracking" and any(
        batch_size < s.n_samples for s in pool.sources
    ):
        raise ValueError("backtracking needs batch_size >= every source size; "
                         "use step_rule='fixed' for minibatch queries")

    d = pool.n_features
    reference = pool.reference
    ref_weights = np.full(reference.n_samples, 1.0 / reference.n_samples)
    query_bytes = BYTES_PER_REAL * (d + 1)
    final_query_bytes = BYTES_PER_REAL * (d + 2)

    def reference_term(theta: np.ndarray) -> tuple[float, np.ndarray]:
        value, gw, gb = weighted_objective_grad(
            theta[:-1], theta[-1], reference.features, reference.labels,
            ref_weights, "squared", RELAX_RIDGE,
        )
        return value, np.append(gw, gb)

    messages: list[Message] = []
    results: list[DiscrepancyEstimate] = []

    for i, source in enumerate(pool.sources):
        node = _source_node_id(i)
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed) & (2**64 - 1), i]).generate_state(1)[0]
        )
        oracle = _SourceOracle(source, batch_size, rng)

        theta = np.zeros(d + 1)
        ref_value, ref_grad = reference_term(theta)
        grad_total: np.ndarray | None = None
        step = step_size
        pending: np.ndarray | None = None  # trial awaiting its Armijo verdict

        for r in range(1, rounds + 1):
            query = theta if pending is None else pending
            messages.append(
                Message("learner", node, KIND_MODEL_QUERY, query_bytes,
                        round=r, payload=tuple(query))
            )
            src_grad = oracle.gradient(query[:-1], query[-1])
            if not np.isfinite(src_grad).all():
                raise FloatingPointError(f"non-finite gradient from {node}")
            messages.append(
                Message(node, "learner", KIND_GRADIENT_REPLY, query_bytes,
                        round=r, payload=tuple(src_grad))
            )

            if step_rule == "fixed":
                ref_value_q, ref_grad_q = reference_term(query)
                theta = query - step * (src_grad + ref_grad_q)
                continue

            if pending is None:
                # first look at the current iterate: just record its gradient
                grad_total = src_grad + ref_grad
                grad_anchor_src = src_grad
                step = min(step * STEP_GROWTH, MAX_STEP)
            else:
                new_ref_value, new_ref_grad = reference_term(pending)
                delta = pending - theta
                change = (new_ref_value - ref_value) + 0.5 * float(
                    (grad_anchor_src + src_grad) @ delta
                )
                gnorm2 = float(grad_total @ grad_total)
                if change <= -ARMIJO_C * step * gnorm2:
                    theta = pending
                    ref_value, ref_grad = new_ref_value, new_ref_grad
                    grad_total = src_grad + new_ref_grad
                    grad_anchor_src = src_grad
                    step = min(step * STEP_GROWTH, MAX_STEP)
                else:
                    step *= STEP_SHRINK
            pending = theta - step * grad_total

        # final exchange: candidate plus the learner's reference-risk scalar
        final_round = rounds + 1
        w, b = theta[:-1], theta[-1]
        predicted = np.where(reference.features @ w + b >= 0.0, 1.0, -1.0)
        ref_risk = float(np.sum(predicted != reference.labels)) / reference.n_samples
        messages.append(
            Message("learner", node, KIND_MODEL_QUERY, final_query_bytes,
                    round=final_round, payload=tuple(theta) + (ref_risk,))
        )
        risk = oracle.finish(w, b, ref_risk)
        estimate = DiscrepancyEstimate.from_risk(risk, source_id=source.source_id)
        messages.append(
            Message(node, "learner", KIND_DISCREPANCY_RESULT, BYTES_PER_REAL,
                    round=final_round, payload=(estimate.value,))
        )
        results.append(estimate)

    nodes = (Node("learner"),) + tuple(Node(_source_node_id(i)) for i in range(pool.n_sources))
    return ProtocolTrace(
        messages=tuple(messages),
        total_bytes=sum(m.payload_size for m in messages),
        rounds=rounds + 1,
        result=tuple(results),
        nodes=nodes,
    )
