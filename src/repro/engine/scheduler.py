"""Capacity-aware batch scheduling of campaign tasks.

The scheduler turns "a batch of tasks just arrived" into concrete jury
assignments for one shard, under two constraints the one-shot library
never had to enforce:

* **the batch's grant** — the budget the campaign's
  :class:`~repro.engine.sharding.BudgetAllocator` (which paces the
  campaign budget) granted this shard for the round; the scheduler
  reserves at most that much;
* **worker capacity** — a worker sits on at most ``capacity``
  concurrent juries, so one high-quality worker cannot be placed on
  10,000 tasks at once.

Mechanics per batch:

1. rank the registry's *available* workers by marginal information per
   dollar (``phi(q) / cost``, the Lemma-2 ordering) and keep the top
   ``frontier_pool_size`` as the batch's candidate pool;
2. build that pool's exact cost-JQ frontier through the shard's
   :class:`~repro.engine.cache.JQCache` (batch after batch re-evaluates
   the same juries — this is where the cache earns its keep);
3. split the batch's grant across tasks with the existing
   concave-envelope greedy (:func:`repro.portfolio.allocate_budget`);
4. materialize each funded allocation into an actual jury, substituting
   same-or-cheaper available workers for any member who saturated while
   earlier tasks in the batch were being seated.  Tasks that cannot be
   seated at all are *deferred* back to the engine for the next batch.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..core.jury import Jury
from ..core.worker import WorkerPool
from ..frontier import Frontier, FrontierPoint, exact_frontier
from ..portfolio import allocate_budget
from .cache import CachedJQObjective, JQCache
from .events import EngineTask
from .state import (
    CapacityError,
    WorkerRegistry,
    informativeness,
    informativeness_key,
)
from .telemetry import NULL_TELEMETRY


#: Upper bound on ``frontier_pool_size``.  The streamed lattice sweep
#: (:func:`repro.quality.stream.streamed_frontier_jq`) keeps frontier
#: builds memory-bounded past ``ALL_SUBSETS_MAX``, so the cap is set by
#: per-batch runtime (``2^k - 1`` juries are still scored on a memo
#: miss), not by the dense kernel's memory wall that used to pin it
#: at 12.
MAX_FRONTIER_POOL = 20

#: Exact frontiers over a 10-worker pool can carry hundreds of points;
#: allocation uses a thinned frontier of at most this many points.  The
#: budget split builds one envelope per batch (every task shares the
#: frontier), so the cap no longer bounds its cost; it sets the step
#: resolution of every grant, and changing it moves every fingerprint.
MAX_ALLOCATION_POINTS = 24

#: Distinct candidate-pool configurations the frontier memo holds; at
#: the bound the least-recently-used configuration is evicted (the
#: JQCache LRU discipline) — a drift backstop, not a tuned working-set
#: size.
MAX_FRONTIER_MEMO = 256


def _thin_frontier(frontier: Frontier) -> Frontier:
    """Subsample a frontier for allocation without losing its range.

    Keeps the cheapest and best points and an even spread in between.
    The retained points are the original :class:`FrontierPoint` objects
    (their ``worker_ids`` drive seating), so thinning only coarsens the
    budget split's step resolution, never the juries themselves.
    """
    points = frontier.points
    if len(points) <= MAX_ALLOCATION_POINTS:
        return frontier
    idx = np.unique(
        np.linspace(0, len(points) - 1, MAX_ALLOCATION_POINTS).astype(int)
    )
    return Frontier(tuple(points[i] for i in idx), exact=False)


class SubstituteIndex:
    """Per-batch substitution candidates, one filtered list per cost cap.

    A substitute query asks for the most informative available worker
    who costs no more than the seat being filled.  The index ranks the
    workers most-informative-first once per batch and, the first time a
    cap appears, filters that ranking down to the workers affordable
    under it and free at that moment.  Later queries with the same cap
    scan its list from the front, so workers too dear for a seat are
    never looked at again.  A batch has few distinct caps: they are the
    costs of the planned members, at most ``frontier_pool_size`` of them.

    Within a single batch, seats are only ever *taken* (releases happen
    between batches), so a worker observed saturated stays saturated and
    is deleted from the list for good; an empty list means nobody
    affordable is left.  Workers in ``exclude`` (already on this jury,
    or denied by a lease coordinator) are skipped for that query only.

    The lists keep the ranking's order (``informativeness_key`` is
    unique per worker), so the index returns *exactly* the worker the
    linear scan would — :func:`linear_best_substitute` is the reference
    oracle the equivalence tests compare against.
    """

    def __init__(self, states: Iterable) -> None:
        self._ranked = sorted(
            states, key=lambda s: informativeness_key(s.worker)
        )
        self._by_cap: dict[float, list] = {}

    def best(self, max_cost: float, exclude: set[str]) -> str | None:
        """Most informative available worker at or under ``max_cost``
        and outside ``exclude`` (``None`` when nobody qualifies)."""
        candidates = self._by_cap.get(max_cost)
        if candidates is None:
            limit = max_cost + 1e-12
            candidates = self._by_cap[max_cost] = [
                s
                for s in self._ranked
                if s.worker.cost <= limit and s.free_capacity > 0
            ]
        i = 0
        while i < len(candidates):
            state = candidates[i]
            if state.free_capacity <= 0:
                del candidates[i]  # saturated for the rest of this batch
                continue
            worker_id = state.worker.worker_id
            if worker_id not in exclude:
                return worker_id
            i += 1
        return None


def linear_best_substitute(
    ranked_states: Sequence, max_cost: float, exclude: set[str]
) -> str | None:
    """Reference substitute search: first available worker at or under
    ``max_cost`` in a most-informative-first pre-sorted sequence.  This
    is the original O(pool)-per-seat scan, kept as the oracle that
    :class:`SubstituteIndex` must agree with (equivalence is asserted by
    the scheduler tests)."""
    for state in ranked_states:
        worker = state.worker
        if (
            worker.worker_id not in exclude
            and state.free_capacity > 0
            and worker.cost <= max_cost + 1e-12
        ):
            return worker.worker_id
    return None


@dataclass(frozen=True)
class Assignment:
    """The scheduler's decision for one admitted task."""

    task: EngineTask
    jury: Jury  # empty jury = unfunded, answer the prior
    predicted_jq: float
    reserved_cost: float

    @property
    def funded(self) -> bool:
        return self.jury.size > 0


@dataclass
class SchedulerStats:
    """Running counters for observability."""

    batches: int = 0
    admitted: int = 0
    unfunded: int = 0
    deferred: int = 0
    substitutions: int = 0
    dropped_seats: int = 0  # planned jurors lost to capacity with no substitute


class CampaignScheduler:
    """Seats one shard's task batches inside a budget grant and worker
    capacity.

    Parameters
    ----------
    registry:
        The worker state the scheduler may seat from (a shard's
        :class:`~repro.engine.sharding.ShardRegistryView`, or a whole
        :class:`~repro.engine.state.WorkerRegistry`).
    cache:
        The shard's JQ cache; all frontier evaluations go through it.
    frontier_pool_size:
        Size of the per-batch candidate pool (default 10; hard-capped
        at :data:`MAX_FRONTIER_POOL`).  Exact frontiers still score
        ``2^k - 1`` juries, but past ``ALL_SUBSETS_MAX`` the build
        streams the lattice level by level
        (:func:`repro.quality.stream.streamed_frontier_jq`), so the cap
        is runtime, not memory.
    telemetry:
        Observability hub (:data:`~repro.engine.telemetry.NULL_TELEMETRY`
        by default).  The scheduler reports admit/frontier-build spans
        and memo hit/build counters, each with ``telemetry_labels``.
    telemetry_labels:
        Labels of those reports: ``{"shard": k}`` when the campaign has
        more than one shard, so per-shard latency is separable in
        exports; none otherwise.
    """

    def __init__(
        self,
        registry: WorkerRegistry,
        cache: JQCache,
        frontier_pool_size: int = 10,
        telemetry=NULL_TELEMETRY,
        telemetry_labels: Mapping[str, object] | None = None,
    ) -> None:
        if not 1 <= frontier_pool_size <= MAX_FRONTIER_POOL:
            raise ValueError(
                f"frontier_pool_size must lie in [1, {MAX_FRONTIER_POOL}]"
            )
        self.registry = registry
        self.cache = cache
        self.frontier_pool_size = frontier_pool_size
        self.objective = CachedJQObjective(cache)
        self._reserved = 0.0
        # Frontier memo: steady-state serving cycles through a handful
        # of available-pool configurations, so the (expensive, 2^k-jury)
        # exact frontier is keyed on the candidate set and reused.
        # Qualities in the key are snapped to the cache's grid so
        # re-estimation drift within half a grid step keeps hitting,
        # and the memo is LRU-bounded (dict order is recency, like
        # JQCache) so drift cannot accumulate stale frontiers forever
        # while the hot working set stays memoized.
        self._frontier_memo: dict[tuple, Frontier] = {}
        self.stats = SchedulerStats()
        self.telemetry = telemetry
        self._telemetry_labels = dict(telemetry_labels or {})

    @property
    def reserved(self) -> float:
        """Gross spend this scheduler reserved so far (early-stop
        refunds go back to the allocator, not here)."""
        return self._reserved

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(
        self,
        tasks: Sequence[EngineTask],
        batch_budget: float,
    ) -> tuple[list[Assignment], list[EngineTask]]:
        """Assign juries to a batch of arriving tasks, reserving at most
        ``batch_budget`` (the allocator's grant for the batch).

        Returns ``(assignments, deferred)``: assignments carry either a
        seated jury or an empty one (unfunded — the engine answers the
        prior); deferred tasks found no seatable jury (capacity
        exhausted) and should be retried once workers free up.
        """
        if not tasks:
            return [], []
        with self.telemetry.span("admit", **self._telemetry_labels):
            return self._admit_batch(tasks, max(float(batch_budget), 0.0))

    def _admit_batch(
        self,
        tasks: Sequence[EngineTask],
        batch_budget: float,
    ) -> tuple[list[Assignment], list[EngineTask]]:
        self.stats.batches += 1

        candidates = self._candidate_pool()
        if len(candidates) == 0:
            # No seats anywhere: defer everything rather than answer
            # priors for tasks that could be served next batch.
            self.stats.deferred += len(tasks)
            self.telemetry.inc(
                "scheduler.deferred", len(tasks), **self._telemetry_labels
            )
            return [], list(tasks)

        grid = self.cache.quantization
        memo_key = tuple(
            (
                w.worker_id,
                round(w.quality * grid) / grid if grid else w.quality,
                w.cost,
            )
            for w in candidates
        )
        frontier = self._frontier_memo.get(memo_key)
        if frontier is None:
            self.telemetry.inc(
                "scheduler.frontier_builds", **self._telemetry_labels
            )
            while len(self._frontier_memo) >= MAX_FRONTIER_MEMO:
                # Evict the least-recently-used configuration only —
                # dropping the whole memo made every live pool pay a
                # rebuild after one overflow.
                del self._frontier_memo[next(iter(self._frontier_memo))]
            with self.telemetry.span(
                "frontier_build", **self._telemetry_labels
            ):
                # Memo misses build through the all-subsets lattice
                # kernel: one shared sweep instead of ~2^k scalar JQ
                # calls.  The scalar path in repro.frontier is the test
                # oracle it is pinned byte-identical against.
                frontier = _thin_frontier(
                    exact_frontier(
                        candidates, self.objective, implementation="batch"
                    )
                )
            self._frontier_memo[memo_key] = frontier
        else:
            self.telemetry.inc(
                "scheduler.frontier_memo_hits", **self._telemetry_labels
            )
            # Refresh recency: dict order is the LRU order.
            del self._frontier_memo[memo_key]
            self._frontier_memo[memo_key] = frontier

        alpha = self.cache.alpha
        baseline = max(alpha, 1.0 - alpha)
        plan = allocate_budget(
            {task.task_id: frontier for task in tasks},
            batch_budget,
            baseline_jq=baseline,
        )
        by_id = {task.task_id: task for task in tasks}

        # Substitution candidates, indexed once per batch (capacity is
        # re-checked lazily while seating).
        substitutes = self._make_substitute_index()

        assignments: list[Assignment] = []
        deferred: list[EngineTask] = []
        for allocation in plan.allocations:
            task = by_id[allocation.task_id]
            if allocation.point is None:
                assignments.append(
                    Assignment(task, Jury(()), baseline, 0.0)
                )
                self.stats.unfunded += 1
                continue
            jury = self._seat_jury(
                task,
                allocation.point.worker_ids,
                allocation.point.cost,
                substitutes,
            )
            if jury is None:
                deferred.append(task)
                self.stats.deferred += 1
                continue
            cost = jury.cost
            self._reserved += cost
            assignments.append(
                Assignment(task, jury, self.objective(jury), cost)
            )
            self.stats.admitted += 1
        funded = sum(1 for a in assignments if a.funded)
        labels = self._telemetry_labels
        if funded:
            self.telemetry.inc("scheduler.admitted", funded, **labels)
        if len(assignments) > funded:
            self.telemetry.inc(
                "scheduler.unfunded", len(assignments) - funded, **labels
            )
        if deferred:
            self.telemetry.inc("scheduler.deferred", len(deferred), **labels)
        return assignments, deferred

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _candidate_pool(self) -> WorkerPool:
        """Top available workers by log-odds per dollar."""
        available = self.registry.available_pool()

        def score(worker) -> float:
            return informativeness(worker) / max(worker.cost, 1e-9)

        ranked = sorted(
            available, key=lambda w: (-score(w), w.worker_id)
        )
        return WorkerPool(ranked[: self.frontier_pool_size])

    def _make_substitute_index(self):
        """Per-batch substitution index.  Test seam:
        ``TestSubstituteIndex::test_identical_seatings_on_seeded_campaigns``
        swaps in the linear reference scan here and compares the two
        campaigns' fingerprints."""
        return SubstituteIndex(self.registry.states)

    def _seat_jury(
        self,
        task: EngineTask,
        planned_ids: Sequence[str],
        planned_cost: float,
        substitutes: SubstituteIndex,
    ) -> Jury | None:
        """Seat the planned jury, substituting saturated members.

        Substitutes must cost no more than the member they replace, so
        the seated jury never exceeds the allocation's planned cost —
        which is what keeps the batch within its budget share.  Returns
        ``None`` (and releases any partial seating) when not a single
        seat could be filled.
        """
        seated: list[str] = []
        taken: set[str] = set()
        # Workers whose *shared* seats ran out (a lease coordinator
        # denied the assign — another engine process got there first).
        # Locally they still show free capacity, so they must be
        # excluded explicitly or the substitute index would keep
        # offering them.  Single-process campaigns never populate this
        # set: free_capacity was just checked and shard members are
        # disjoint, so assign cannot raise — decisions (and
        # fingerprints) are untouched.
        failed: set[str] = set()
        for worker_id in planned_ids:
            if (
                worker_id not in taken
                and worker_id not in failed
                and self.registry.free_capacity(worker_id) > 0
            ):
                try:
                    self.registry.assign(worker_id, task.task_id)
                    seated.append(worker_id)
                    taken.add(worker_id)
                    continue
                except CapacityError:
                    failed.add(worker_id)
            # Saturated — or already seated on this jury as an earlier
            # member's substitute; either way this seat needs a fresh
            # (no-dearer) worker.
            max_cost = self.registry.worker(worker_id).cost
            while True:
                substitute = substitutes.best(
                    max_cost=max_cost, exclude=taken | failed
                )
                if substitute is None:
                    self.stats.dropped_seats += 1
                    break
                try:
                    self.registry.assign(substitute, task.task_id)
                except CapacityError:
                    failed.add(substitute)
                    continue
                seated.append(substitute)
                taken.add(substitute)
                self.stats.substitutions += 1
                break
        if not seated:
            return None
        jury = Jury(self.registry.worker(w) for w in seated)
        # Defensive: substitution-by-cheaper guarantees this bound.
        assert jury.cost <= planned_cost + 1e-9
        return jury

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Reservations, counters, and the frontier memo.

        The memo must survive a checkpoint: a resumed campaign that
        re-enumerated frontiers would issue extra JQ lookups, drifting
        the cache counters (which the metrics fingerprint covers) away
        from the uninterrupted run.
        """
        return {
            "reserved": self._reserved,
            "stats": dataclasses.asdict(self.stats),
            "frontier_memo": [
                [
                    [list(part) for part in key],
                    {
                        "exact": frontier.exact,
                        "points": [
                            [p.cost, p.jq, list(p.worker_ids)]
                            for p in frontier.points
                        ],
                    },
                ]
                for key, frontier in self._frontier_memo.items()
            ],
        }

    def load_state(self, state: Mapping) -> None:
        self._reserved = float(state["reserved"])
        self.stats = SchedulerStats(
            **{k: int(v) for k, v in state["stats"].items()}
        )
        self._frontier_memo = {
            tuple(
                (str(wid), float(q), float(c)) for wid, q, c in key
            ): Frontier(
                tuple(
                    FrontierPoint(float(cost), float(jq), tuple(ids))
                    for cost, jq, ids in frontier["points"]
                ),
                exact=bool(frontier["exact"]),
            )
            for key, frontier in state["frontier_memo"]
        }
