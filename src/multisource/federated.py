"""Deterministic message-passing simulation of decentralized discrepancy
estimation.

Two protocols are simulated with explicit message and byte accounting
(8 bytes per real number, no headers):

  Case 1  the learner broadcasts the reference dataset to every source
          node; each node estimates its discrepancy locally and returns a
          single number. The results come from one `empirical_discrepancies`
          call, the centralized estimator's own code, so they match it exactly.

  Case 2  the reference dataset may not leave the learner. The
          flipped-label least-squares relaxation splits into a
          reference-only term (kept at the learner) and a source-only
          term, both quadratics in the per-sample moments that
          `empirical_discrepancy` solves with. A source answers a query
          theta with the gradient of its term, 2 (G theta + h), which is
          affine in theta, so the learner probes theta = 0, then
          e_0..e_d: the first reply is 2h, and reply j + 2 minus the first
          is column j of 2G. It adds its reference moments, solves the
          relaxation once, and queries the solution for the rest of the
          round budget. One extra exchange then evaluates it: the learner
          sends it with its local reference-risk scalar, and the source
          answers with the finished discrepancy estimate.

In case 2 all sources are probed and solved in lockstep, and each source's
messages equal, bit for bit, a solo run's. Both cases count misses from theta
by `candidate_misses` and build their messages only when read or exported
(the export streams them), so no storage grows with the budget.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .data import SourcePool
from .discrepancy import (
    DiscrepancyEstimate,
    candidate_misses,
    empirical_discrepancies,
    finite_moments,
    moments,
    solve_relaxation,
)

__all__ = [
    "BYTES_PER_REAL",
    "Message",
    "ProtocolTrace",
    "run_case1",
    "run_case2",
]

BYTES_PER_REAL = 8

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
    """A run's estimates, message count and byte total; `messages` is built on first read."""

    n_messages: int
    total_bytes: int
    rounds: int
    result: tuple[DiscrepancyEstimate, ...]
    build_messages: Callable[[], Iterable[Message]] = field(repr=False)

    @cached_property
    def messages(self) -> tuple[Message, ...]:
        return tuple(self.build_messages())

    def export_jsonl(self, path: str | Path) -> None:
        """Write one JSON line per message to `path`, streamed as built: neither
        `messages` nor the text is held, so memory does not grow with the trace."""
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(json.dumps(m.to_json_dict()) + "\n" for m in self.build_messages())


def _source_node_id(index: int) -> str:
    return f"source_{index}"


def run_case1(pool: SourcePool) -> ProtocolTrace:
    """Reference broadcast, then local estimation at every source node; messages built on read."""
    n = pool.n_sources
    broadcast_bytes = BYTES_PER_REAL * pool.reference.n_samples * (pool.n_features + 1)
    results = empirical_discrepancies(pool.sources, pool.reference)
    return ProtocolTrace(
        n_messages=2 * n, total_bytes=n * (broadcast_bytes + BYTES_PER_REAL), rounds=2,
        result=results, build_messages=lambda: chain(
            (Message("learner", _source_node_id(i), KIND_REFERENCE_BROADCAST, broadcast_bytes,
                     round=0) for i in range(n)),
            (Message(_source_node_id(i), "learner", KIND_DISCREPANCY_RESULT, BYTES_PER_REAL,
                     round=1, payload=(estimate.value,)) for i, estimate in enumerate(results))))


def _check_replies(replies: np.ndarray) -> None:
    """Raise `FloatingPointError` if a reply in `replies` (source, round, d+1) is
    not finite, naming the lowest-index source of the earliest such round."""
    finite = np.isfinite(replies).all(axis=2).T  # (round, source)
    if not finite.all():
        raise FloatingPointError(f"non-finite gradient from "
                                 f"{_source_node_id(finite.argmin() % finite.shape[1])}")


@np.errstate(over="ignore", invalid="ignore")  # a non-finite reply raises instead
def run_case2(pool: SourcePool, rounds: int) -> ProtocolTrace:
    """Probe-then-solve protocol; the reference dataset never leaves the learner.

    Exactly `rounds` >= d + 2 query/reply pairs are exchanged per source, then
    one final exchange, so 2 * rounds + 2 messages per source; they are built
    when the trace's `messages` is first read, or one at a time by
    `export_jsonl`. A non-finite reply raises `FloatingPointError` naming the
    lowest-index source of the earliest round that has one, and overflowed
    reference moments raise it before round 1, in both cases with no numpy
    warning. An overflowed or singular summed system raises it as in
    `solve_relaxation`.
    """
    d = pool.n_features
    if rounds < d + 2:
        raise ValueError(f"rounds must be >= d + 2 = {d + 2}")

    reference = pool.reference
    query_bytes = BYTES_PER_REAL * (d + 1)
    final_query_bytes = BYTES_PER_REAL * (d + 2)
    # learner-side term mean_ref (w.x + b - y)^2, from the reference's moments
    gram_ref, moment_ref = finite_moments((reference,), "the reference's")
    # source-side terms mean_src (w.x + b + y)^2, labels flipped: source i's reply
    # is 2 (G_i q + h_i) from its whole sample's moments, computed as (2G_i) q + 2h_i
    gram_src, moment_src = (2.0 * np.stack(a) for a in zip(*map(moments, pool.sources)))

    # rounds 1..d+2 query theta = 0, then e_0..e_d (each product is exact: at
    # most one term is nonzero); replies[i, r] is source i's reply in round r + 1
    probes = np.eye(d + 2, d + 1, k=-1)
    replies = probes @ gram_src.mT + moment_src[:, None]
    _check_replies(replies)
    # the learner recovers h_i and G_i's column j as halves of replies[i, 0] and of
    # replies[i, j + 1] - replies[i, 0], and solves what `empirical_discrepancy` does
    gram = (replies[:, 1:] - replies[:, :1]).mT / 2.0
    theta = solve_relaxation(gram + gram_ref, moment_ref - replies[:, 0] / 2.0)
    # every later round queries theta, and source i replies with its gradient there
    theta_replies = np.matmul(gram_src, theta[:, :, None])[:, :, 0] + moment_src
    if rounds > d + 2:
        _check_replies(theta_replies[:, None])

    # final exchange: the learner sends the candidate plus its reference-risk
    # scalar, and the source answers with its local flipped-label risk added
    # (with labels of +-1, every source row its sign classifier does not miss)
    counts = candidate_misses(theta, pool.sources, reference)
    ref_risks = [ref_misses / reference.n_samples for _, ref_misses in counts]
    results = [DiscrepancyEstimate((s.n_samples - src_misses) / s.n_samples + r)
               for s, (src_misses, _), r in zip(pool.sources, counts, ref_risks)]

    final_round = rounds + 1

    def build_messages() -> Iterable[Message]:
        for i, (ref_risk, estimate) in enumerate(zip(ref_risks, results)):
            node = _source_node_id(i)
            pairs = chain(zip(probes.tolist(), replies[i].tolist()),
                          repeat((theta[i].tolist(), theta_replies[i].tolist()), rounds - d - 2))
            for r, (query, reply) in enumerate(pairs, start=1):
                yield Message("learner", node, KIND_MODEL_QUERY, query_bytes, r, tuple(query))
                yield Message(node, "learner", KIND_GRADIENT_REPLY, query_bytes, r, tuple(reply))
            yield Message("learner", node, KIND_MODEL_QUERY, final_query_bytes, final_round,
                          (*theta[i].tolist(), ref_risk))
            yield Message(node, "learner", KIND_DISCREPANCY_RESULT, BYTES_PER_REAL, final_round,
                          (estimate.value,))

    n = pool.n_sources
    return ProtocolTrace(
        n_messages=n * (2 * rounds + 2),
        total_bytes=n * (2 * rounds * query_bytes + final_query_bytes + BYTES_PER_REAL),
        rounds=final_round, result=tuple(results), build_messages=build_messages)
