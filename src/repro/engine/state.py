"""Shared worker state for the campaign engine.

The paper assumes a static pool whose qualities are "known in advance".
A serving system cannot: workers are shared across thousands of
concurrent tasks, each worker can only sit on so many juries at once,
and the provider's quality estimates should *drift toward observed
accuracy* as votes stream in.  :class:`WorkerRegistry` is the single
source of truth for all of that:

* per-worker **capacity** (max concurrent jury seats) and live load;
* per-worker **spend** (what the campaign has paid them) and vote
  history, accumulated into an :class:`~repro.estimation.AnswerMatrix`;
* **quality re-estimation** through :func:`repro.estimation.one_coin_em`:
  periodically re-fit qualities from the streamed votes and blend them
  into the registry's working estimates.

The registry deliberately separates *true* quality (the simulator's
vote-generating parameter, unknown in production) from *estimated*
quality (what selection and aggregation use).  Production callers set
both to their best prior estimate; simulations can start the estimates
wrong and watch re-estimation pull them toward truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..core.exceptions import ReproError
from ..core.worker import Worker, WorkerPool
from ..estimation import AnswerMatrix, one_coin_em
from ..quality.bucket import log_odds

#: Estimated qualities are clamped inside (0, 1) so Bayesian updates
#: never saturate and EM never locks in.
_QUALITY_CLAMP = 0.02

#: How far one re-estimation pass moves each estimate toward its EM fit.
REESTIMATE_RATE = 0.3


class CapacityError(ReproError, RuntimeError):
    """A worker was assigned beyond their concurrent-task capacity."""


def informativeness_key(worker: Worker) -> tuple[float, str]:
    """Sort key ranking workers most-informative-first (the Lemma-2
    ordering on ``max(q, 1-q)``), with the id as deterministic
    tiebreak.  Shared by the scheduler's substitute ranking and the
    engine's vote ordering so the two can never drift apart."""
    return (-max(worker.quality, 1.0 - worker.quality), worker.worker_id)


def informativeness(worker: Worker) -> float:
    """Finite log-odds informativeness ``phi(max(q, 1-q))``.

    Perfect workers have infinite log-odds; they are clipped to a huge
    finite priority so rankings and mass sums stay well-defined.  Used
    by the scheduler's candidate ranking and the budget allocator's
    shard quality mass — one definition keeps routing, granting, and
    seating aligned."""
    phi = log_odds(max(worker.quality, 1.0 - worker.quality))
    if math.isinf(phi):
        return 1e6
    return float(phi)


def quality_mass(states: Iterable["WorkerState"], available_only: bool = True) -> float:
    """Total informativeness carried by a set of worker states.

    The budget allocator splits each round's entitlement across shards
    proportional to this mass.  With ``available_only`` (the default) only
    workers holding at least one free jury seat count — saturated
    workers contribute no schedulable quality this round."""
    return float(
        sum(
            informativeness(s.worker)
            for s in states
            if not available_only or s.free_capacity > 0
        )
    )


@dataclass
class WorkerState:
    """Mutable serving state for one worker."""

    worker: Worker  # quality field = current *estimated* quality
    true_quality: float  # simulator's vote-generating quality
    capacity: int
    active_tasks: set[str] = field(default_factory=set)
    votes_cast: int = 0
    agreements: float = 0.0  # votes agreeing with the resolved verdict
    resolved_votes: int = 0
    spend: float = 0.0
    peak_load: int = 0

    @property
    def load(self) -> int:
        """Number of juries this worker currently sits on."""
        return len(self.active_tasks)

    @property
    def free_capacity(self) -> int:
        return self.capacity - self.load

    @property
    def observed_accuracy(self) -> float | None:
        """Fraction of resolved votes agreeing with the verdict."""
        if self.resolved_votes == 0:
            return None
        return self.agreements / self.resolved_votes


class WorkerRegistry:
    """The engine's persistent worker store.

    Parameters
    ----------
    pool:
        The candidate workers.  Their ``quality`` fields are taken as
        the *true* (vote-generating) qualities.
    capacity:
        Max concurrent jury seats per worker — either one int for all
        workers or a ``worker_id -> capacity`` mapping.
    initial_quality:
        Starting *estimated* quality: ``None`` (trust the pool), a
        single float applied to everyone (a cold-start prior), or a
        per-worker mapping.
    """

    def __init__(
        self,
        pool: WorkerPool,
        capacity: int | Mapping[str, int] = 4,
        initial_quality: float | Mapping[str, float] | None = None,
    ) -> None:
        if len(pool) == 0:
            raise ValueError("registry requires a non-empty pool")
        self._states: dict[str, WorkerState] = {}
        for worker in pool:
            cap = capacity if isinstance(capacity, int) else int(capacity[worker.worker_id])
            if cap < 1:
                raise ValueError(
                    f"worker {worker.worker_id!r}: capacity must be >= 1, got {cap}"
                )
            if initial_quality is None:
                estimate = worker.quality
            elif isinstance(initial_quality, Mapping):
                estimate = float(initial_quality.get(worker.worker_id, worker.quality))
            else:
                estimate = float(initial_quality)
            self._states[worker.worker_id] = WorkerState(
                worker=worker.with_quality(estimate),
                true_quality=worker.quality,
                capacity=cap,
            )
        self.answers = AnswerMatrix(num_labels=2)
        self.reestimations = 0
        self._lease = None

    def attach_lease_coordinator(self, coordinator) -> None:
        """Route every seat through a shared
        :class:`~repro.engine.leases.LeaseCoordinator`: ``assign``
        acquires the cross-process lease before seating locally (a
        denial — another engine holds the worker's last shared seat —
        surfaces as :class:`CapacityError`, which the scheduler treats
        like local saturation), and ``release`` drops it.  Detach with
        ``None``."""
        self._lease = coordinator

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._states

    def state(self, worker_id: str) -> WorkerState:
        return self._states[worker_id]

    def worker(self, worker_id: str) -> Worker:
        """The worker with their *current estimated* quality."""
        return self._states[worker_id].worker

    def true_quality(self, worker_id: str) -> float:
        return self._states[worker_id].true_quality

    @property
    def worker_ids(self) -> tuple[str, ...]:
        return tuple(self._states)

    @property
    def states(self) -> tuple[WorkerState, ...]:
        return tuple(self._states.values())

    @property
    def total_spend(self) -> float:
        return float(sum(s.spend for s in self._states.values()))

    @property
    def peak_load(self) -> int:
        """Highest concurrent load any worker ever reached."""
        return max(s.peak_load for s in self._states.values())

    @property
    def active_seats(self) -> int:
        """Jury seats currently occupied across all workers."""
        return sum(s.load for s in self._states.values())

    @property
    def total_capacity(self) -> int:
        """Jury seats that exist across all workers."""
        return sum(s.capacity for s in self._states.values())

    def available_pool(self, exclude: Iterable[str] = ()) -> WorkerPool:
        """Workers with at least one free jury seat, as a pool carrying
        current estimated qualities (insertion order preserved)."""
        excluded = set(exclude)
        return WorkerPool(
            s.worker
            for s in self._states.values()
            if s.free_capacity > 0 and s.worker.worker_id not in excluded
        )

    def free_capacity(self, worker_id: str) -> int:
        return self._states[worker_id].free_capacity

    # ------------------------------------------------------------------
    # Assignment lifecycle
    # ------------------------------------------------------------------
    def assign(self, worker_id: str, task_id: str) -> None:
        """Seat a worker on a task's jury; raises :class:`CapacityError`
        when they are already at capacity."""
        state = self._states[worker_id]
        if task_id in state.active_tasks:
            raise ValueError(
                f"worker {worker_id!r} already assigned to task {task_id!r}"
            )
        if state.free_capacity <= 0:
            raise CapacityError(
                f"worker {worker_id!r} is at capacity "
                f"({state.load}/{state.capacity})"
            )
        if self._lease is not None and not self._lease.acquire(
            worker_id, task_id, capacity=state.capacity
        ):
            raise CapacityError(
                f"worker {worker_id!r} is at shared capacity "
                f"(another engine holds the remaining seats)"
            )
        state.active_tasks.add(task_id)
        state.peak_load = max(state.peak_load, state.load)

    def release(self, worker_id: str, task_id: str) -> None:
        """Free the worker's seat on a task (idempotent)."""
        self._states[worker_id].active_tasks.discard(task_id)
        if self._lease is not None:
            self._lease.release(worker_id, task_id)

    def record_vote(self, worker_id: str, task_id: str, vote: int) -> None:
        """Record a landed vote: pay the worker, log the answer."""
        state = self._states[worker_id]
        state.votes_cast += 1
        state.spend += state.worker.cost
        self.answers.record(worker_id, task_id, int(vote))

    def resolve(self, task_id: str, verdict: int) -> None:
        """Credit agreement stats for every worker who voted on the task."""
        for worker_id, vote in self.answers.answers_for(task_id).items():
            state = self._states[worker_id]
            state.resolved_votes += 1
            if vote == verdict:
                state.agreements += 1.0

    # ------------------------------------------------------------------
    # Quality re-estimation
    # ------------------------------------------------------------------
    def reestimate(
        self,
        learning_rate: float = REESTIMATE_RATE,
        min_votes: int = 3,
    ) -> dict[str, float]:
        """Re-fit worker qualities from the streamed votes and blend.

        Runs :func:`one_coin_em` over the accumulated answer matrix,
        then moves each worker's estimate

            q  <-  (1 - learning_rate) * q + learning_rate * q_hat

        clamped inside ``[0.02, 0.98]``.  Workers with fewer than
        ``min_votes`` recorded votes keep their current estimate (EM on
        two answers is noise, not signal).

        Returns the updated ``worker_id -> quality`` estimates for all
        workers whose estimate changed.
        """
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if self.answers.num_answers == 0:
            return {}
        fitted = one_coin_em(self.answers).qualities
        counts = self.answers.participation_counts()
        updated: dict[str, float] = {}
        for worker_id, q_hat in fitted.items():
            if counts.get(worker_id, 0) < min_votes:
                continue
            state = self._states[worker_id]
            old = state.worker.quality
            blended = (1.0 - learning_rate) * old + learning_rate * float(q_hat)
            blended = float(
                np.clip(blended, _QUALITY_CLAMP, 1.0 - _QUALITY_CLAMP)
            )
            if blended != old:
                state.worker = state.worker.with_quality(blended)
                updated[worker_id] = blended
        self.reestimations += 1
        return updated

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def worker_rows(self) -> list[dict]:
        """Per-worker state as plain rows, in registry (= pool) order.

        Registry order drives every deterministic downstream ranking
        (candidate pools, shard partitioning), so rows carry an explicit
        ``position`` and restore re-inserts in that order.
        """
        return [
            {
                "position": i,
                "worker_id": state.worker.worker_id,
                "est_quality": state.worker.quality,
                "true_quality": state.true_quality,
                "cost": state.worker.cost,
                "capacity": state.capacity,
                "active_tasks": sorted(state.active_tasks),
                "votes_cast": state.votes_cast,
                "agreements": state.agreements,
                "resolved_votes": state.resolved_votes,
                "spend": state.spend,
                "peak_load": state.peak_load,
            }
            for i, state in enumerate(self._states.values())
        ]

    @classmethod
    def from_rows(
        cls, worker_rows, answers: AnswerMatrix, reestimations: int
    ) -> "WorkerRegistry":
        """Rebuild a registry from :meth:`worker_rows` output and the
        restored answer matrix."""
        registry = cls.__new__(cls)
        registry._states = {}
        registry._lease = None
        for row in sorted(worker_rows, key=lambda r: r["position"]):
            worker = Worker(
                row["worker_id"],
                float(row["est_quality"]),
                float(row["cost"]),
            )
            registry._states[worker.worker_id] = WorkerState(
                worker=worker,
                true_quality=float(row["true_quality"]),
                capacity=int(row["capacity"]),
                active_tasks=set(row["active_tasks"]),
                votes_cast=int(row["votes_cast"]),
                agreements=float(row["agreements"]),
                resolved_votes=int(row["resolved_votes"]),
                spend=float(row["spend"]),
                peak_load=int(row["peak_load"]),
            )
        registry.answers = answers
        registry.reestimations = int(reestimations)
        return registry

    def estimation_error(self) -> float:
        """Mean absolute gap between estimated and true qualities — the
        quantity re-estimation should shrink in simulations."""
        gaps = [
            abs(s.worker.quality - s.true_quality)
            for s in self._states.values()
        ]
        return float(np.mean(gaps))
