"""Online (sequential) vote collection with a confidence stopping rule.

The paper selects a jury *before* any votes arrive.  Its related work
(CDAS [25], Section 8) points at the complementary online regime: ask
workers one at a time and *stop early* once the Bayesian posterior is
confident enough, saving budget on easy tasks.  This module implements
that regime on top of the library's BV machinery:

* :class:`OnlineDecisionSession` — feed votes one by one; after each
  vote the session updates the BV posterior, the realized cost and the
  stopping condition.
* :func:`run_online` — drive a session from a quality-ordered worker
  queue against a vote supplier (e.g. a simulated campaign's arrival
  order), with both a confidence target and a budget cap.

The stopping rule is exact, not heuristic: BV's posterior *is* the
probability that the current verdict is correct under the model, so
"stop when confidence >= tau" directly controls expected accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core.task import UNINFORMATIVE_PRIOR, validate_prior
from .core.worker import Worker
from .voting.bayesian import posterior_zero


@dataclass(frozen=True)
class OnlineOutcome:
    """Result of one online decision.

    Attributes
    ----------
    answer:
        The verdict (0/1) at stopping time.
    confidence:
        BV posterior probability of the verdict.
    votes_used:
        How many votes were consumed.
    cost:
        Total cost of the consulted workers.
    stopped_early:
        True when the confidence target fired before the queue (or the
        budget) ran out.
    history:
        Confidence trajectory after each vote, for diagnostics.
    """

    answer: int
    confidence: float
    votes_used: int
    cost: float
    stopped_early: bool
    history: tuple[float, ...]


class OnlineDecisionSession:
    """Incremental Bayesian aggregation for one decision task.

    Feed ``(worker, vote)`` pairs through :meth:`add_vote`; the session
    maintains the exact posterior (BV rerun on the full vote vector),
    computed once per vote and cached for every read until the next.
    """

    def __init__(
        self,
        alpha: float = UNINFORMATIVE_PRIOR,
        confidence_target: float = 0.95,
        budget: float = np.inf,
    ) -> None:
        if not 0.5 <= confidence_target <= 1.0:
            raise ValueError("confidence_target must lie in [0.5, 1]")
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.alpha = validate_prior(alpha)
        self.confidence_target = confidence_target
        self.budget = budget
        self._qualities: list[float] = []
        self._votes: list[int] = []
        self._cost = 0.0
        self._history: list[float] = []
        # posterior_zero of the votes so far; add_vote clears it.
        self._posterior: float | None = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def cost(self) -> float:
        return self._cost

    @property
    def votes_used(self) -> int:
        return len(self._votes)

    @property
    def posterior_zero(self) -> float:
        """Current ``Pr(t = 0 | votes so far)``."""
        if not self._votes:
            return self.alpha
        if self._posterior is None:
            self._posterior = posterior_zero(
                self._votes, self._qualities, self.alpha
            )
        return self._posterior

    @property
    def answer(self) -> int:
        """The current BV verdict (ties to 0, Theorem 1)."""
        return 0 if self.posterior_zero >= 0.5 else 1

    @property
    def confidence(self) -> float:
        """Posterior probability of the current verdict."""
        p0 = self.posterior_zero
        return max(p0, 1.0 - p0)

    @property
    def should_stop(self) -> bool:
        """True when the confidence target has been met."""
        return self.confidence >= self.confidence_target

    def can_afford(self, worker: Worker) -> bool:
        return self._cost + worker.cost <= self.budget + 1e-12

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_vote(self, worker: Worker, vote: int) -> float:
        """Record a vote and return the new confidence.

        Raises ``ValueError`` on an unaffordable worker or an invalid
        vote — callers should check :attr:`can_afford` first.
        """
        if vote not in (0, 1):
            raise ValueError(f"vote must be 0 or 1, got {vote!r}")
        if not self.can_afford(worker):
            raise ValueError(
                f"worker {worker.worker_id!r} (cost {worker.cost:g}) "
                f"exceeds remaining budget {self.budget - self._cost:g}"
            )
        self._qualities.append(worker.quality)
        self._votes.append(int(vote))
        self._posterior = None
        self._cost += worker.cost
        confidence = self.confidence
        self._history.append(confidence)
        return confidence

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything needed to resume the session mid-decision."""
        budget = self.budget
        return {
            "alpha": self.alpha,
            "confidence_target": self.confidence_target,
            "budget": None if np.isinf(budget) else budget,
            "qualities": list(self._qualities),
            "votes": list(self._votes),
            "cost": self._cost,
            "history": list(self._history),
        }

    @classmethod
    def from_state(cls, state) -> "OnlineDecisionSession":
        budget = state["budget"]
        session = cls(
            alpha=float(state["alpha"]),
            confidence_target=float(state["confidence_target"]),
            budget=np.inf if budget is None else float(budget),
        )
        session._qualities = [float(q) for q in state["qualities"]]
        session._votes = [int(v) for v in state["votes"]]
        session._cost = float(state["cost"])
        session._history = [float(c) for c in state["history"]]
        return session

    def outcome(self, stopped_early: bool = False) -> OnlineOutcome:
        """Freeze the session into an :class:`OnlineOutcome`."""
        return OnlineOutcome(
            answer=self.answer,
            confidence=self.confidence,
            votes_used=self.votes_used,
            cost=self._cost,
            stopped_early=stopped_early,
            history=tuple(self._history),
        )


VoteSupplier = Callable[[Worker], int]


def run_online(
    workers: Iterable[Worker],
    get_vote: VoteSupplier,
    alpha: float = UNINFORMATIVE_PRIOR,
    confidence_target: float = 0.95,
    budget: float = np.inf,
) -> OnlineOutcome:
    """Consult workers in order until confident, broke, or exhausted.

    Parameters
    ----------
    workers:
        The consultation order.  Sorting by descending quality is the
        natural policy (Lemma 2: better workers move the posterior
        further per dollar); any order works.
    get_vote:
        Callback producing the worker's vote (a live platform call, or
        a lookup into recorded data).
    alpha / confidence_target / budget:
        Session parameters; see :class:`OnlineDecisionSession`.
    """
    session = OnlineDecisionSession(alpha, confidence_target, budget)
    for worker in workers:
        if session.should_stop:
            return session.outcome(stopped_early=True)
        if not session.can_afford(worker):
            continue  # maybe a cheaper later worker still fits
        session.add_vote(worker, get_vote(worker))
    return session.outcome(stopped_early=session.should_stop)
