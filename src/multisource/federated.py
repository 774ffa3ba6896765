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

The simulator is a single-threaded event loop; "parallel" execution is
modeled as round structure so traces are bit-reproducible.
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


def run_case2(pool: SourcePool, rounds: int) -> ProtocolTrace:
    """Gradient-query protocol; the reference dataset never leaves the learner.

    Exactly `rounds` query/reply pairs are exchanged per source (trials of
    the backtracking search each consume one), followed by one final
    exchange that evaluates the last accepted candidate. Message count per
    source is therefore 2 * rounds + 2. Each source is searched by Armijo
    backtracking whose first trial step is 1.0, as in the trainer.
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

    messages: list[Message] = []
    results: list[DiscrepancyEstimate] = []

    for i, source in enumerate(pool.sources):
        node = _source_node_id(i)
        # source-side term mean_src (w.x + b + y)^2, labels flipped: its
        # gradient is 2 (G theta + h) from the whole source's moments (G, h)
        gram_src, moment_src = moments(source)

        theta = np.zeros(d + 1)
        grad: np.ndarray | None = None  # total gradient at the accepted theta
        step = 1.0

        for r in range(1, rounds + 1):
            query = theta if grad is None else theta - step * grad
            messages.append(
                Message("learner", node, KIND_MODEL_QUERY, query_bytes,
                        round=r, payload=tuple(query))
            )
            src_grad = 2.0 * (gram_src @ query + moment_src)
            if not np.isfinite(src_grad).all():
                raise FloatingPointError(f"non-finite gradient from {node}")
            messages.append(
                Message(node, "learner", KIND_GRADIENT_REPLY, query_bytes,
                        round=r, payload=tuple(src_grad))
            )
            query_grad = src_grad + 2.0 * (system_ref @ query - moment_ref)

            if grad is None or 0.5 * float((grad + query_grad) @ (query - theta)) <= (
                -ARMIJO_C * step * float(grad @ grad)
            ):
                theta, grad = query, query_grad
                step = min(step * STEP_GROWTH, MAX_STEP)
            else:
                step *= STEP_SHRINK

        # final exchange: candidate plus the learner's reference-risk scalar
        final_round = rounds + 1
        predictor = LinearPredictor(theta[:-1], theta[-1])
        ref_risk = float(np.mean(predictor.predict_labels(reference.features) != reference.labels))
        messages.append(
            Message("learner", node, KIND_MODEL_QUERY, final_query_bytes,
                    round=final_round, payload=tuple(theta) + (ref_risk,))
        )
        # source side: the local flipped-label risk plus the learner's scalar
        local_risk = float(np.mean(predictor.predict_labels(source.features) != -source.labels))
        estimate = DiscrepancyEstimate(local_risk + ref_risk)
        messages.append(
            Message(node, "learner", KIND_DISCREPANCY_RESULT, BYTES_PER_REAL,
                    round=final_round, payload=(estimate.value,))
        )
        results.append(estimate)

    return ProtocolTrace(messages=tuple(messages), rounds=rounds + 1, result=tuple(results))
