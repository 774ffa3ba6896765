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

In case 2 all sources advance in lockstep (two batched products a round,
replies checked for finite values every SETTLE_CHECK rounds and after the
last), and the trace builds its messages, source-major, only when they are
read. No source's numbers touch another's: each source's messages equal,
bit for bit, a solo run's.
Every SETTLE_CHECK rounds, case 2 tests whether each source's search has
settled, and once all have, it stops computing rounds: the later rounds
repeat earlier ones bit for bit, so the trace copies them. A source is
frozen when its last query equalled its candidate bit for bit and was
rejected (with its step still halving exactly until the last round), since
no smaller step can then move the candidate. A source is cycling when its
candidate and step equal, bit for bit, those after a round at most
SETTLE_CHECK rounds back (round 1 or later), since past round 1 the
gradient is a function of the candidate. Message counts, bytes and the
trace are the same as when every round is computed.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property
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
# case 2 tests every this many rounds whether each source's search has settled
SETTLE_CHECK = 32

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

    def export_jsonl(self, path: str | Path | None = None) -> str:
        text = "\n".join(json.dumps(m.to_json_dict()) for m in self.messages)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text


def _source_node_id(index: int) -> str:
    return f"source_{index}"


def run_case1(pool: SourcePool) -> ProtocolTrace:
    """Reference broadcast, then local estimation at every source node."""
    broadcast_bytes = BYTES_PER_REAL * pool.reference.n_samples * (pool.n_features + 1)
    results = tuple(empirical_discrepancy(source, pool.reference) for source in pool.sources)
    messages = [Message("learner", _source_node_id(i), KIND_REFERENCE_BROADCAST,
                        broadcast_bytes, round=0) for i in range(pool.n_sources)]
    messages += [Message(_source_node_id(i), "learner", KIND_DISCREPANCY_RESULT,
                         BYTES_PER_REAL, round=1, payload=(estimate.value,))
                 for i, estimate in enumerate(results)]
    return ProtocolTrace(n_messages=len(messages),
                         total_bytes=sum(m.payload_size for m in messages),
                         rounds=2, result=results, build_messages=lambda: messages)


def _settle(queries, accepts, steps, theta, done):
    """(period, final candidates) of a case-2 run whose every source has
    settled by round `done`, or None; past round `done`, source i repeats
    its last period[i] rounds (see the module docstring)."""
    rounds, n = accepts.shape
    bits = theta.view(np.int64)  # bit for bit: -0.0 is not +0.0
    frozen = (~accepts[done - 1] & (queries[done - 1].view(np.int64) == bits).all(axis=1)
              & (steps[done - 1] >= np.ldexp(np.finfo(float).tiny, rounds - done)))
    # the candidates after rounds first..done - 1: each is the query of the
    # last accepted round so far. One accepted more than 2 SETTLE_CHECK
    # rounds back is not looked up (-1, never matched): that can only miss a
    # cycle, and one that accepts in every period is found by the third check
    # after it starts
    first, lo = max(done - SETTLE_CHECK, 1), max(done - 2 * SETTLE_CHECK - 1, 0)
    rows = np.arange(lo, done - 1)[:, None]
    last = np.maximum.accumulate(np.where(accepts[lo:done - 1], rows, -1))[first - 1 - lo:]
    sources = np.arange(n)
    thetas = queries[last, sources]
    cycling = ((last >= 0) & (thetas.view(np.int64) == bits).all(axis=2)
               & (steps[first - 1:done - 1] == steps[done - 1]))
    if not (frozen | cycling.any(axis=0)).all():
        return None
    period = np.where(frozen, 1, cycling[::-1].argmax(axis=0) + 1)  # the shortest cycle
    final = thetas[done - first - period + (rounds - done) % period, sources]
    return period, np.where(frozen[:, None], theta, final)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite reply raises instead
def run_case2(pool: SourcePool, rounds: int) -> ProtocolTrace:
    """Gradient-query protocol; the reference dataset never leaves the learner.

    Exactly `rounds` query/reply pairs are exchanged per source (trials of
    the backtracking search each consume one), followed by one final
    exchange that evaluates the last accepted candidate. Message count per
    source is therefore 2 * rounds + 2; they are built when the trace's
    `messages` is first read. Each source is searched by Armijo
    backtracking whose first trial step is 1.0, as in the trainer. Once
    every source's search has settled (see the module docstring), no more
    rounds are computed, and each source's trace repeats its settled ones.
    A non-finite reply raises `FloatingPointError` naming the lowest-index
    source of the earliest round that has one, at the first checkpoint
    after that round (or after the last round), and overflowed reference
    moments raise it before round 1, in both cases with no numpy warning.
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
    # each gradient's factor 2 is folded in once: (2G) q + 2h has the bits of 2 (G q + h)
    system_ref, moment_ref = 2.0 * ridged_system(gram_ref), 2.0 * moment_ref
    if not (np.isfinite(system_ref).all() and np.isfinite(moment_ref).all()):
        raise FloatingPointError("reference moments overflowed; rescale the features")
    # source-side terms mean_src (w.x + b + y)^2, labels flipped: source i's
    # gradient is 2 (G_i theta + h_i) from its whole sample's moments (G_i, h_i)
    gram_src, moment_src = (2.0 * np.stack(a) for a in zip(*map(moments, pool.sources)))

    n = pool.n_sources
    queries = np.empty((rounds, n, d + 1))  # queries[r, i] is round r + 1's query to source i
    replies = np.empty((rounds, n, d + 1))
    accepts = np.empty((rounds, n), dtype=bool)
    steps = np.empty((rounds, n))  # steps[r] is the trial step after round r + 1
    # row i is source i's. With grad = 0 the first query is theta = 0, and its
    # Armijo test, 0 <= -0, accepts it, as every first query is accepted
    theta, grad, query_grad, total, move = np.zeros((5, n, d + 1))
    step = np.ones(n)
    # past round `done`, source i's trace repeats its last period[i] rounds
    period = np.ones(n, dtype=int)
    # views: each round writes its rows in place
    for done, (query, reply, accept, next_step) in enumerate(
            zip(queries, replies, accepts, steps), start=1):
        np.multiply(step[:, None], grad, out=move)
        np.subtract(theta, move, out=query)
        np.matmul(gram_src, query[:, :, None], out=reply[:, :, None])
        np.add(reply, moment_src, out=reply)
        np.matmul(system_ref, query[:, :, None], out=query_grad[:, :, None])
        np.subtract(query_grad, moment_ref, out=query_grad)
        np.add(reply, query_grad, out=query_grad)
        # Armijo on F(q) - F(theta) = (g + g_q).(q - theta) / 2 with the 1/2
        # moved to the right; each row's vecdot has the bits of a 1-D dot
        np.add(grad, query_grad, out=total)
        np.subtract(query, theta, out=move)
        np.less_equal(np.vecdot(total, move), -2.0 * ARMIJO_C * step * np.vecdot(grad, grad),
                      out=accept)
        np.copyto(theta, query, where=accept[:, None])
        np.copyto(grad, query_grad, where=accept[:, None])
        np.multiply(step, np.where(accept, STEP_GROWTH, STEP_SHRINK), out=next_step)
        step = np.minimum(next_step, MAX_STEP, out=next_step)
        if done % SETTLE_CHECK == 0 or done == rounds:
            # the loop ignores overflow: the rounds since the last check are checked
            # here, and rows never mix, so the earliest bad round's first source is named
            finite = np.isfinite(replies[(done - 1) // SETTLE_CHECK * SETTLE_CHECK:done]).all(2)
            if not finite.all():
                raise FloatingPointError(f"non-finite gradient from "
                                         f"{_source_node_id(finite.argmin() % n)}")
            if done < rounds:
                settled = _settle(queries, accepts, steps, theta, done)
                if settled is not None:
                    period, theta = settled
                    break

    # final exchange: the learner sends the candidate plus its reference-risk
    # scalar, and the source answers with its local flipped-label risk added
    final_queries, results = [], []
    for source, candidate in zip(pool.sources, theta):
        predictor = LinearPredictor(candidate[:-1], candidate[-1])
        ref_risk = float(np.mean(predictor.predict_labels(reference.features) != reference.labels))
        local_risk = float(np.mean(predictor.predict_labels(source.features) != -source.labels))
        final_queries.append((*candidate.tolist(), ref_risk))
        results.append(DiscrepancyEstimate(local_risk + ref_risk))

    final_round = rounds + 1

    def build_messages() -> Iterable[Message]:
        for i, (final_query, estimate) in enumerate(zip(final_queries, results)):
            node = _source_node_id(i)
            pairs = list(zip(queries[:done, i].tolist(), replies[:done, i].tolist()))
            cycle = pairs[done - period[i]:]  # repeated past round `done`
            pairs += (cycle * ((rounds - done) // len(cycle) + 1))[:rounds - done]
            for r, (query, reply) in enumerate(pairs, start=1):
                yield Message("learner", node, KIND_MODEL_QUERY, query_bytes, r, tuple(query))
                yield Message(node, "learner", KIND_GRADIENT_REPLY, query_bytes, r, tuple(reply))
            yield Message("learner", node, KIND_MODEL_QUERY, final_query_bytes, final_round,
                          final_query)
            yield Message(node, "learner", KIND_DISCREPANCY_RESULT, BYTES_PER_REAL, final_round,
                          (estimate.value,))

    return ProtocolTrace(
        n_messages=n * (2 * rounds + 2),
        total_bytes=n * (2 * rounds * query_bytes + final_query_bytes + BYTES_PER_REAL),
        rounds=final_round, result=tuple(results), build_messages=build_messages)
