"""Deterministic message-passing simulation of decentralized discrepancy
estimation.

Two protocols are simulated with explicit message and byte accounting
(8 bytes per real number, no headers):

  Case 1  the learner broadcasts the reference dataset to every source
          node; each node estimates its discrepancy locally and returns a
          single number. The results are produced by the very same code
          path as the centralized estimator, so they match it exactly.

  Case 2  the reference dataset may not leave the learner. The
          flipped-label least-squares relaxation splits into a
          reference-only term (kept at the learner) and a source-only
          term, both quadratics in the per-sample moments that
          `empirical_discrepancy` solves with, so the learner runs
          gradient descent by querying the source for the gradient of
          its term at each candidate. It needs no objective value from
          either term: for a quadratic, F(b) - F(a) =
          (g(a) + g(b)) . (b - a) / 2, applied to the total gradient,
          decides Armijo backtracking from the gradients alone, each
          trial consuming one query round. Every query covers the whole
          source, since the identity needs full-batch gradients.
          After the round budget, one extra exchange evaluates the final
          candidate: the learner sends it together with its local
          reference-risk scalar, and the source answers with the finished
          discrepancy estimate.

In case 2 all sources advance in lockstep, one batched product per round,
and the messages are materialised afterwards in source-major order. No
source's numbers touch another's, so each source's messages equal, bit for
bit, those of a run on that source alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import SourcePool
from .discrepancy import DiscrepancyEstimate, empirical_discrepancy, moments, ridged_system
from .models import ARMIJO_C, STEP_SHRINK, LinearPredictor

__all__ = [
    "BYTES_PER_REAL",
    "Message",
    "ProtocolTrace",
    "run_case1",
    "run_case2",
]

BYTES_PER_REAL = 8

# the learner's trial step doubles after each accepted query, up to a cap
STEP_GROWTH = 2.0
MAX_STEP = 1e12

KIND_REFERENCE_BROADCAST = "reference_broadcast"
KIND_DISCREPANCY_RESULT = "discrepancy_result"
KIND_MODEL_QUERY = "model_query"
KIND_GRADIENT_REPLY = "gradient_reply"


@dataclass(frozen=True, slots=True)
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
    rounds: int
    result: tuple[DiscrepancyEstimate, ...]

    @property
    def total_bytes(self) -> int:
        return sum(m.payload_size for m in self.messages)

    def export_jsonl(self, path: str | Path | None = None) -> str:
        text = "\n".join(json.dumps(m.to_json_dict()) for m in self.messages)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text


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
    return ProtocolTrace(messages=tuple(messages), rounds=2, result=tuple(results))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite reply raises instead
def run_case2(pool: SourcePool, rounds: int) -> ProtocolTrace:
    """Gradient-query protocol; the reference dataset never leaves the learner.

    Exactly `rounds` query/reply pairs are exchanged per source (trials of
    the backtracking search each consume one), followed by one final
    exchange that evaluates the last accepted candidate. Message count per
    source is therefore 2 * rounds + 2. Each source is searched by Armijo
    backtracking whose first trial step is 1.0, as in the trainer. A
    non-finite reply raises `FloatingPointError` naming the lowest-index
    source of the earliest round that has one, with no numpy warning first.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")

    d = pool.n_features
    reference = pool.reference
    query_bytes = BYTES_PER_REAL * (d + 1)
    final_query_bytes = BYTES_PER_REAL * (d + 2)
    # learner-side term mean_ref (w.x + b - y)^2 plus the relaxation's ridge
    # on w: the reference half of the system `empirical_discrepancy` solves
    gram_ref, moment_ref = moments(reference)
    system_ref = ridged_system(gram_ref)
    # source-side terms mean_src (w.x + b + y)^2, labels flipped: source i's
    # gradient is 2 (G_i theta + h_i) from its whole sample's moments (G_i, h_i)
    gram_src, moment_src = (np.stack(a) for a in zip(*map(moments, pool.sources)))

    theta = np.zeros((pool.n_sources, d + 1))  # row i is source i's; rows never mix
    grad: np.ndarray | None = None  # total gradients at the accepted thetas
    step = np.ones(pool.n_sources)
    queries, replies = [], []  # per round, each source's payload as a tuple of floats

    for _ in range(rounds):
        query = theta if grad is None else theta - step[:, None] * grad
        src_grad = 2.0 * (np.matmul(gram_src, query[:, :, None])[:, :, 0] + moment_src)
        finite = np.isfinite(src_grad).all(axis=1)
        if not finite.all():
            raise FloatingPointError(f"non-finite gradient from {_source_node_id(finite.argmin())}")
        queries.append(list(map(tuple, query.tolist())))
        replies.append(list(map(tuple, src_grad.tolist())))
        query_grad = src_grad + 2.0 * (
            np.matmul(system_ref, query[:, :, None])[:, :, 0] - moment_ref)

        if grad is None:  # the first query, theta = 0, is always accepted
            theta, grad = query, query_grad
            step = np.minimum(step * STEP_GROWTH, MAX_STEP)
            continue
        # row dot products as (N, 1, k) @ (N, k, 1): each row's bits match a 1-D dot
        decrease = 0.5 * np.matmul((grad + query_grad)[:, None, :],
                                   (query - theta)[:, :, None])[:, 0, 0]
        accept = decrease <= -ARMIJO_C * step * np.matmul(
            grad[:, None, :], grad[:, :, None])[:, 0, 0]
        theta = np.where(accept[:, None], query, theta)
        grad = np.where(accept[:, None], query_grad, grad)
        step = np.where(accept, np.minimum(step * STEP_GROWTH, MAX_STEP), step * STEP_SHRINK)

    messages: list[Message] = []
    results: list[DiscrepancyEstimate] = []
    final_round = rounds + 1
    for i, (source, candidate) in enumerate(zip(pool.sources, theta)):
        node = _source_node_id(i)
        for r, (query_rows, reply_rows) in enumerate(zip(queries, replies), start=1):
            messages.append(Message("learner", node, KIND_MODEL_QUERY, query_bytes,
                                    round=r, payload=query_rows[i]))
            messages.append(Message(node, "learner", KIND_GRADIENT_REPLY, query_bytes,
                                    round=r, payload=reply_rows[i]))
        # final exchange: candidate plus the learner's reference-risk scalar
        predictor = LinearPredictor(candidate[:-1], candidate[-1])
        ref_risk = float(np.mean(predictor.predict_labels(reference.features) != reference.labels))
        messages.append(Message("learner", node, KIND_MODEL_QUERY, final_query_bytes,
                                round=final_round, payload=(*candidate.tolist(), ref_risk)))
        # source side: the local flipped-label risk plus the learner's scalar
        local_risk = float(np.mean(predictor.predict_labels(source.features) != -source.labels))
        estimate = DiscrepancyEstimate(local_risk + ref_risk)
        messages.append(Message(node, "learner", KIND_DISCREPANCY_RESULT, BYTES_PER_REAL,
                                round=final_round, payload=(estimate.value,)))
        results.append(estimate)

    return ProtocolTrace(messages=tuple(messages), rounds=final_round, result=tuple(results))
