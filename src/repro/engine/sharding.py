"""Sharded worker pools under a top-level budget allocator.

The exact cost-JQ frontier enumerates ``2^k`` juries, which caps any
one scheduler's candidate pool at ~12 workers — a hard ceiling the
single-scheduler engine inherits no matter how many workers register.
This module lifts that ceiling *structurally* instead of numerically:

* the global :class:`~repro.engine.state.WorkerRegistry` is partitioned
  into K **shards** (a stratified most-informative-first deal, so every
  shard starts with a comparable quality profile);
* each shard gets its own :class:`~repro.engine.scheduler.CampaignScheduler`
  and :class:`~repro.engine.cache.JQCache`, so every frontier is built
  over at most one shard's members and stays inside the exact cap;
* a top-level :class:`BudgetAllocator` paces the campaign budget
  globally and splits each scheduling round's entitlement across shards
  **proportional to shard quality mass**, re-absorbing unspent grants
  and early-stop refunds into the shared pot each round;
* a routing policy (``hash``, ``least-loaded``, ``quality-balanced``)
  assigns arriving tasks to shards, and **rebalancing** migrates idle
  workers from underloaded to overloaded shards when load skews.

The DB-nets line of work (Montali & Rivkin) treats state transitions of
a data-aware process as explicit, checkable invariants; the sharded
engine is built to the same discipline — every grant, reservation,
re-absorption, and refund flows through one allocator ledger whose
conservation laws are asserted by ``tests/engine/test_invariants.py``.

Worker *state* stays global: seats, spend, vote history, and EM quality
re-estimation still live in the one registry, so sharding changes who
*schedules* a worker, never what is known about them.

The engine serves through a :class:`ShardedScheduler` whenever
``CampaignConfig(num_shards=K)`` has ``K > 1``::

    campaign = Campaign.open(pool, CampaignConfig(budget=50, num_shards=4))

A one-shard :class:`ShardedScheduler` reproduces the single
:class:`~repro.engine.scheduler.CampaignScheduler` byte-for-byte (same
seed => same :meth:`~repro.engine.metrics.EngineMetrics.fingerprint`),
which the regression suite pins.
"""

from __future__ import annotations

import threading
import zlib
from concurrent.futures import ThreadPoolExecutor, wait as _futures_wait
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..core.jury import Jury
from ..core.worker import WorkerPool
from .cache import CacheStats, JQCache
from .config import CampaignConfig
from .events import EngineTask
from .metrics import AllocatorSnapshot, ShardSnapshot
from .procpool import ProcPoolError, ShardProcessPool, ShardWorkState
from .scheduler import (
    Assignment,
    CampaignScheduler,
    SchedulerStats,
    pro_rata_round_budget,
)
from .state import (
    WorkerRegistry,
    WorkerState,
    informativeness_key,
    quality_mass,
)
from .telemetry import NULL_TELEMETRY

#: Rebalancing never strips a shard below this many members — a shard
#: with one worker left cannot meaningfully seat juries, let alone
#: donate.
MIN_SHARD_MEMBERS = 2


class ShardRegistryView:
    """A shard's window onto the global :class:`WorkerRegistry`.

    Presents the registry surface the scheduler consumes —
    ``available_pool`` / ``states`` / ``worker`` / ``free_capacity`` /
    ``assign`` — restricted to the shard's member ids, so an unmodified
    :class:`CampaignScheduler` plugged into a view can only ever see or
    seat its own shard's workers.  Iteration follows the *global*
    registry order (filtered by membership), keeping every downstream
    ranking deterministic and making the one-shard view behave
    identically to the bare registry.

    Membership is mutable: rebalancing moves an idle worker between
    shards by removing the id here and adding it to the other view.
    The underlying worker state (seats, spend, votes) never moves — it
    lives in the global registry.
    """

    def __init__(self, registry: WorkerRegistry, member_ids: Iterable[str]) -> None:
        self._registry = registry
        self._members = set(member_ids)
        for worker_id in self._members:
            if worker_id not in registry:
                raise KeyError(f"unknown worker {worker_id!r}")
        # Member states change only on migration; states themselves are
        # mutated in place by the registry, so the filtered tuple stays
        # valid between membership changes.
        self._states_cache: tuple[WorkerState, ...] | None = None

    # -- membership ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._members

    @property
    def member_ids(self) -> tuple[str, ...]:
        """Member ids in global registry order."""
        return tuple(
            w for w in self._registry.worker_ids if w in self._members
        )

    def add_member(self, worker_id: str) -> None:
        if worker_id not in self._registry:
            raise KeyError(f"unknown worker {worker_id!r}")
        self._members.add(worker_id)
        self._states_cache = None

    def remove_member(self, worker_id: str) -> None:
        self._members.remove(worker_id)
        self._states_cache = None

    # -- the registry surface the scheduler consumes -------------------
    @property
    def states(self) -> tuple[WorkerState, ...]:
        if self._states_cache is None:
            self._states_cache = tuple(
                s
                for s in self._registry.states
                if s.worker.worker_id in self._members
            )
        return self._states_cache

    def available_pool(self, exclude: Iterable[str] = ()) -> WorkerPool:
        excluded = set(exclude)
        return WorkerPool(
            s.worker
            for s in self.states
            if s.free_capacity > 0 and s.worker.worker_id not in excluded
        )

    def worker(self, worker_id: str):
        return self._registry.worker(worker_id)

    def free_capacity(self, worker_id: str) -> int:
        if worker_id not in self._members:
            return 0  # not ours to seat
        return self._registry.free_capacity(worker_id)

    def assign(self, worker_id: str, task_id: str) -> None:
        if worker_id not in self._members:
            raise KeyError(
                f"worker {worker_id!r} is not a member of this shard"
            )
        self._registry.assign(worker_id, task_id)

    # -- shard-level aggregates ----------------------------------------
    @property
    def active_seats(self) -> int:
        return sum(s.load for s in self.states)

    @property
    def total_capacity(self) -> int:
        return sum(s.capacity for s in self.states)

    @property
    def load_ratio(self) -> float:
        """Occupied fraction of the shard's jury seats."""
        capacity = self.total_capacity
        if capacity == 0:
            return 1.0  # an empty shard is "full": route nothing here
        return self.active_seats / capacity

    def quality_mass(self, available_only: bool = True) -> float:
        return quality_mass(self.states, available_only=available_only)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardRegistryView({len(self)} members, "
            f"{self.active_seats}/{self.total_capacity} seats)"
        )


class BudgetAllocator:
    """Top-level budget ledger for a sharded campaign.

    Reproduces the single scheduler's pro-rata pacing at campaign scope
    — cumulative *entitlement* grows with each distinct task admitted,
    a round may grant at most the entitlement not yet (net) reserved —
    then splits each round's budget across shards proportional to their
    available quality mass.  Shards reserve out of their grant; whatever
    a grant leaves unreserved is **re-absorbed** immediately (it was
    never debited), and early-stop refunds flow back here rather than
    to any one shard, so the whole campaign — not the lucky shard —
    re-spends them.

    Conservation laws (asserted by the invariant harness):

    * ``granted == reserved_from_grants + reabsorbed`` per round and
      cumulatively;
    * ``reserved - refunded <= budget`` at every instant;
    * ``entitled <= budget`` always.

    Every ledger mutation (``open_round`` / ``split`` / ``settle`` /
    ``refund``) is atomic under one mutex, so shard admits running on a
    thread pool — or an early-stop refund racing a settling round —
    can never interleave half-applied ledger updates.
    """

    def __init__(self, budget: float, expected_tasks: int) -> None:
        if budget < 0:
            raise ValueError("budget must be non-negative")
        if expected_tasks < 1:
            raise ValueError("expected_tasks must be >= 1")
        self.budget = float(budget)
        self.expected_tasks = expected_tasks
        self._mutex = threading.Lock()
        self._entitled = 0.0
        self._entitled_tasks: set[str] = set()
        self._reserved = 0.0
        self._refunded = 0.0
        self._granted = 0.0
        self._reabsorbed = 0.0
        self._rounds = 0

    # -- introspection -------------------------------------------------
    @property
    def entitled(self) -> float:
        return self._entitled

    @property
    def reserved(self) -> float:
        """Gross spend reserved so far (before refunds)."""
        return self._reserved

    @property
    def refunded(self) -> float:
        return self._refunded

    @property
    def granted(self) -> float:
        return self._granted

    @property
    def reabsorbed(self) -> float:
        return self._reabsorbed

    @property
    def rounds(self) -> int:
        return self._rounds

    @property
    def remaining_budget(self) -> float:
        return self.budget - self._reserved + self._refunded

    # -- the per-round protocol ----------------------------------------
    def open_round(self, task_ids: Iterable[str]) -> float:
        """Start a scheduling round; returns the round's budget.

        Entitlement grows once per *distinct* task id — deferred tasks
        retried across rounds must not mint fresh shares.  The pacing
        arithmetic is :func:`~repro.engine.scheduler.pro_rata_round_budget`
        — the same function the single scheduler paces itself with,
        applied campaign-wide, which is what makes the pinned
        single-shard byte-identity structural.
        """
        with self._mutex:
            self._rounds += 1
            new_ids = set(task_ids) - self._entitled_tasks
            self._entitled_tasks |= new_ids
            self._entitled, round_budget = pro_rata_round_budget(
                self.budget,
                self.expected_tasks,
                self._entitled,
                len(new_ids),
                self._reserved,
                self._refunded,
            )
            return round_budget

    def split(
        self, round_budget: float, masses: Mapping[int, float]
    ) -> dict[int, float]:
        """Split a round's budget across shards proportional to mass.

        ``masses`` maps shard id -> available quality mass; only shards
        present get a grant.  All-zero masses (every listed shard fully
        saturated) fall back to an equal split — the tasks were already
        routed there, so starving them entirely would just defer the
        whole round.
        """
        if not masses:
            return {}
        round_budget = max(float(round_budget), 0.0)
        if len(masses) == 1:
            # Sole recipient takes the round exactly — no proportional
            # arithmetic, so a one-shard campaign's grants match the
            # single scheduler's pacing bit-for-bit.
            grants = {next(iter(masses)): round_budget}
            with self._mutex:
                self._granted += round_budget
            return grants
        total = float(sum(masses.values()))
        if total <= 0.0:
            grants = {k: round_budget / len(masses) for k in masses}
        else:
            grants = {
                k: round_budget * mass / total for k, mass in masses.items()
            }
        with self._mutex:
            self._granted += sum(grants.values())
        return grants

    def settle(self, granted: float, reserved: float) -> None:
        """Record one shard's round outcome: commit what it reserved,
        re-absorb the rest of its grant."""
        if reserved > granted + 1e-9:
            raise ValueError(
                f"shard reserved {reserved} beyond its grant {granted}"
            )
        with self._mutex:
            self._reserved += max(float(reserved), 0.0)
            self._reabsorbed += max(float(granted) - float(reserved), 0.0)

    def refund(self, amount: float) -> None:
        """Return unspent reservation (early-stopped task) to the pot."""
        if amount < -1e-9:
            raise ValueError(f"refund must be non-negative, got {amount}")
        with self._mutex:
            self._refunded += max(float(amount), 0.0)

    # -- persistence ---------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "entitled": self._entitled,
            "entitled_tasks": sorted(self._entitled_tasks),
            "reserved": self._reserved,
            "refunded": self._refunded,
            "granted": self._granted,
            "reabsorbed": self._reabsorbed,
            "rounds": self._rounds,
        }

    def load_state(self, state: Mapping) -> None:
        with self._mutex:
            self._entitled = float(state["entitled"])
            self._entitled_tasks = set(state["entitled_tasks"])
            self._reserved = float(state["reserved"])
            self._refunded = float(state["refunded"])
            self._granted = float(state["granted"])
            self._reabsorbed = float(state["reabsorbed"])
            self._rounds = int(state["rounds"])

    def snapshot(self) -> AllocatorSnapshot:
        return AllocatorSnapshot(
            budget=self.budget,
            entitled=self._entitled,
            granted=self._granted,
            reserved=self._reserved,
            refunded=self._refunded,
            reabsorbed=self._reabsorbed,
            rounds=self._rounds,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BudgetAllocator(budget={self.budget:g}, "
            f"reserved={self._reserved:.3g}, refunded={self._refunded:.3g})"
        )


@dataclass
class Shard:
    """One shard: a registry view, its scheduler, and its JQ cache."""

    shard_id: int
    view: ShardRegistryView
    cache: JQCache
    scheduler: CampaignScheduler
    migrations_in: int = 0
    migrations_out: int = 0
    granted: float = 0.0  # cumulative allocator grants to this shard

    def snapshot(self) -> ShardSnapshot:
        stats = self.scheduler.stats
        return ShardSnapshot(
            shard_id=self.shard_id,
            workers=len(self.view),
            admitted=stats.admitted,
            unfunded=stats.unfunded,
            deferred=stats.deferred,
            substitutions=stats.substitutions,
            reserved=self.scheduler.reserved,
            migrations_in=self.migrations_in,
            migrations_out=self.migrations_out,
            cache=self.cache.stats,
            seats=self.view.active_seats,
            capacity=self.view.total_capacity,
            granted=self.granted,
        )


def partition_members(
    registry: WorkerRegistry, num_shards: int
) -> list[list[str]]:
    """Stratified partition: rank workers most-informative-first and
    deal them round-robin, so every shard opens with a comparable
    quality profile (no shard is born a frontier desert)."""
    if not 1 <= num_shards <= len(registry):
        raise ValueError(
            f"num_shards must lie in [1, {len(registry)}] "
            f"(pool size), got {num_shards}"
        )
    ranked = sorted(
        registry.states, key=lambda s: informativeness_key(s.worker)
    )
    members: list[list[str]] = [[] for _ in range(num_shards)]
    for i, state in enumerate(ranked):
        members[i % num_shards].append(state.worker.worker_id)
    return members


class ShardedScheduler:
    """Routes task batches to shards under one budget allocator.

    Presents the same ``admit`` / ``refund`` / ``stats`` surface as
    :class:`CampaignScheduler`, so the engine event loop drives either
    interchangeably.  Per round it (1) opens the allocator's round,
    (2) routes each task to a shard, (3) grants each participating
    shard its quality-mass share of the round budget, (4) lets each
    shard's scheduler admit its sub-batch inside its grant, settling
    reservations and re-absorbing the unspent remainder, and (5)
    rebalances idle workers if shard load has skewed.

    With ``config.parallel_shards > 0`` step (4) dispatches the
    per-shard admits to a :class:`~concurrent.futures.ThreadPoolExecutor`
    instead of looping over them.  Admits are independent by
    construction — each shard's scheduler reads and seats only its own
    members, grants are computed before dispatch, and the registry's
    ``assign``/``release`` and the allocator's ledger are the only
    shared write surfaces (both lock-guarded) — and results are merged
    and settled in shard-id order, so the parallel path's decisions are
    byte-identical to the sequential path's (fingerprint-pinned).  The
    shard frontier builds run numpy kernels that release the GIL, which
    is where the wall-clock actually drops.

    With ``config.dispatch == "processes"`` step (4) instead ships each
    shard's round to a persistent
    :class:`~repro.engine.procpool.ShardProcessPool` worker *process*
    holding the shard's live scheduler and cache (see
    :mod:`repro.engine.procpool.worker` for the authority split), which
    parallelizes the pure-Python envelope walk itself — the part the
    GIL serializes under threads.  Between rounds the parent's per-shard
    replicas are stale; every read surface (``stats``, ``state_dict``,
    snapshots, cache merges) pulls worker state first, while telemetry
    *gauges* deliberately read the possibly-stale replicas (collectors
    may fire off the loop thread and must not touch the pipes).
    """

    def __init__(
        self,
        registry: WorkerRegistry,
        config: CampaignConfig,
        expected_tasks: int,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.registry = registry
        self.config = config
        self.telemetry = telemetry
        self.allocator = BudgetAllocator(config.budget, expected_tasks)
        self._pool: ShardProcessPool | None = None
        # Worker-side scheduler/cache state is authoritative between
        # dispatch rounds; this flag marks the parent-side replicas
        # stale until the next pull_worker_state().
        self._dispatched_since_pull = False
        if config.dispatch == "processes" and config.num_shards > 1:
            self._pool = ShardProcessPool(
                config.num_shards,
                {
                    "budget": config.budget,
                    "expected_tasks": expected_tasks,
                    "frontier_pool_size": config.frontier_pool_size,
                    "alpha": config.alpha,
                    "num_buckets": config.num_buckets,
                    "quantization": config.quantization,
                    "cache_max_entries": config.cache_max_entries,
                },
                telemetry=telemetry,
            )
        self._executor: ThreadPoolExecutor | None = None
        # The process pool supersedes the thread pool: both parallelize
        # step (4), and rounds must go through exactly one of them.
        if (
            config.parallel_shards > 0
            and config.num_shards > 1
            and self._pool is None
        ):
            self._executor = ThreadPoolExecutor(
                max_workers=min(config.parallel_shards, config.num_shards),
                thread_name_prefix="repro-shard",
            )
        self.shards: list[Shard] = []
        for shard_id, member_ids in enumerate(
            partition_members(registry, config.num_shards)
        ):
            view = ShardRegistryView(registry, member_ids)
            cache = JQCache(
                alpha=config.alpha,
                num_buckets=config.num_buckets,
                quantization=config.quantization,
                max_entries=config.cache_max_entries,
            )
            scheduler = CampaignScheduler(
                view,
                cache,
                budget=config.budget,
                expected_tasks=expected_tasks,
                frontier_pool_size=config.frontier_pool_size,
                telemetry=telemetry,
                shard_id=shard_id,
            )
            self.shards.append(Shard(shard_id, view, cache, scheduler))
        self.migrations = 0
        telemetry.add_collector(self._telemetry_gauges)

    def _telemetry_gauges(self):
        """Per-shard pull gauges (collector: read at export time only)."""
        for shard in self.shards:
            labels = {"shard": shard.shard_id}
            yield from shard.cache.stats.telemetry_gauges(**labels)
            yield "shard.workers", labels, float(len(shard.view))
            yield "shard.active_seats", labels, float(shard.view.active_seats)
            yield "shard.capacity", labels, float(shard.view.total_capacity)
            yield "shard.granted", labels, shard.granted
            yield "shard.reserved", labels, shard.scheduler.reserved

    # ------------------------------------------------------------------
    # The CampaignScheduler surface
    # ------------------------------------------------------------------
    def admit(
        self, tasks: Sequence[EngineTask]
    ) -> tuple[list[Assignment], list[EngineTask]]:
        if not tasks:
            return [], []
        round_budget = self.allocator.open_round(t.task_id for t in tasks)
        routed = self.route(tasks)
        masses = {
            shard_id: self.shards[shard_id].view.quality_mass()
            for shard_id in routed
        }
        grants = self.allocator.split(round_budget, masses)
        order = sorted(routed)
        if self._pool is not None:
            assignments, deferred = self._admit_via_pool(
                order, routed, grants
            )
            self.rebalance()
            return assignments, deferred
        # Every grant opened this round must be settled exactly once —
        # on success against the shard's actual reservations, on error
        # against whatever the shard reserved before raising (a partial
        # admit may have seated juries already).  Otherwise the round's
        # budget is never reabsorbed and the conservation ledger
        # (granted == reserved + reabsorbed) is permanently short.
        reserved_before = {
            shard_id: self.shards[shard_id].scheduler.reserved
            for shard_id in order
        }
        settled: set[int] = set()
        try:
            if self._executor is not None and len(order) > 1:
                # Concurrent dispatch: every input (sub-batch, grant) is
                # fixed before the first future is submitted, each shard
                # scheduler touches only its own members, and the merge
                # below consumes results in shard-id order — so the
                # round's outcome is independent of thread interleaving.
                futures = [
                    self._executor.submit(
                        self.shards[shard_id].scheduler.admit,
                        routed[shard_id],
                        grants[shard_id],
                    )
                    for shard_id in order
                ]
                try:
                    results = [future.result() for future in futures]
                except BaseException:
                    # One shard failed: stop siblings that have not
                    # started, and wait out the ones already running so
                    # their reservations are final before the ledger is
                    # repaired below.
                    for future in futures:
                        future.cancel()
                    _futures_wait(futures)
                    raise
            else:
                results = [
                    self.shards[shard_id].scheduler.admit(
                        routed[shard_id], batch_budget=grants[shard_id]
                    )
                    for shard_id in order
                ]
            assignments: list[Assignment] = []
            deferred: list[EngineTask] = []
            with self.telemetry.span("dispatch_merge"):
                for shard_id, (admitted, shard_deferred) in zip(
                    order, results
                ):
                    reserved = sum(a.reserved_cost for a in admitted)
                    self.allocator.settle(grants[shard_id], reserved)
                    self.shards[shard_id].granted += grants[shard_id]
                    settled.add(shard_id)
                    assignments.extend(admitted)
                    deferred.extend(shard_deferred)
        except BaseException:
            for shard_id in order:
                if shard_id in settled:
                    continue
                grant = grants[shard_id]
                delta = (
                    self.shards[shard_id].scheduler.reserved
                    - reserved_before[shard_id]
                )
                # Clamp into [0, grant]: the shard cannot legitimately
                # reserve beyond its grant, but the error path must
                # repair the ledger, not assert about a broken shard.
                self.allocator.settle(grant, min(max(delta, 0.0), grant))
                self.shards[shard_id].granted += grant
                self.telemetry.event(
                    "admit-error-settle",
                    shard=shard_id,
                    grant=grant,
                    reserved=delta,
                )
            raise
        self.rebalance()
        return assignments, deferred

    def _admit_via_pool(
        self,
        order: list[int],
        routed: Mapping[int, list[EngineTask]],
        grants: Mapping[int, float],
    ) -> tuple[list[Assignment], list[EngineTask]]:
        """Dispatch one round to the shard worker processes.

        Each participating shard's membership rows (global registry
        order), routed sub-batch, and grant ship down the pipe as one
        :class:`ShardWorkState`; decisions come back as plain ids and
        are replayed through the real registry views in shard-id order
        — so the round's outcome is byte-identical to inline dispatch
        while the frontier walks run on separate interpreters.

        Every grant opened this round is settled exactly once on every
        path: per shard on success, and from the worker-reported
        reservation deltas (``ProcPoolError.partial_reserved`` for
        failed shards) when a worker errors or dies — the cross-process
        extension of the conservation law ``granted == reserved +
        reabsorbed``.  A failed round poisons the pool (worker state
        may be half-mutated); recover by resuming from the last
        checkpoint.
        """
        assert self._pool is not None
        work_states = []
        for shard_id in order:
            view = self.shards[shard_id].view
            work_states.append(
                ShardWorkState(
                    shard_id=shard_id,
                    member_rows=[
                        (
                            s.worker.worker_id,
                            s.worker.quality,
                            s.worker.cost,
                            s.capacity,
                            sorted(s.active_tasks),
                        )
                        for s in view.states
                    ],
                    task_states=[t.state_dict() for t in routed[shard_id]],
                    grant=grants[shard_id],
                )
            )
        self._dispatched_since_pull = True
        with self.telemetry.span("procpool_round", shards=len(order)):
            try:
                results = self._pool.admit_round(work_states)
            except ProcPoolError as exc:
                ok = {
                    r.shard_id: r for r in getattr(exc, "results", [])
                }
                partial = getattr(exc, "partial_reserved", {})
                for shard_id in order:
                    delta = (
                        ok[shard_id].reserved
                        if shard_id in ok
                        else partial.get(shard_id, 0.0)
                    )
                    self._settle_failed(shard_id, grants[shard_id], delta)
                self._pool.close()
                raise
            settled: set[int] = set()
            assignments: list[Assignment] = []
            deferred: list[EngineTask] = []
            try:
                for shard_id, result in zip(order, results):
                    task_by_id = {
                        t.task_id: t for t in routed[shard_id]
                    }
                    view = self.shards[shard_id].view
                    for (
                        task_id,
                        seated_ids,
                        predicted_jq,
                        reserved_cost,
                    ) in result.assignments:
                        for worker_id in seated_ids:
                            view.assign(worker_id, task_id)
                        assignments.append(
                            Assignment(
                                task_by_id[task_id],
                                Jury(
                                    self.registry.worker(w)
                                    for w in seated_ids
                                ),
                                predicted_jq,
                                reserved_cost,
                            )
                        )
                    deferred.extend(
                        task_by_id[t] for t in result.deferred
                    )
                    self.allocator.settle(grants[shard_id], result.reserved)
                    self.shards[shard_id].granted += grants[shard_id]
                    settled.add(shard_id)
                    self.telemetry.inc(
                        "scheduler.procpool_rounds",
                        shard=shard_id,
                        pid=self._pool.pids[shard_id],
                    )
            except BaseException:
                # Replay failure (e.g. a lease coordinator denied a
                # seat another engine raced us to): the ledger must
                # still balance, from the workers' reported deltas.
                for shard_id, result in zip(order, results):
                    if shard_id not in settled:
                        self._settle_failed(
                            shard_id, grants[shard_id], result.reserved
                        )
                self._pool.close()
                raise
        return assignments, deferred

    def _settle_failed(
        self, shard_id: int, grant: float, delta: float
    ) -> None:
        """Settle one failed shard's grant against a reported (possibly
        untrusted) reservation delta, clamped into [0, grant]."""
        self.allocator.settle(grant, min(max(delta, 0.0), grant))
        self.shards[shard_id].granted += grant
        self.telemetry.event(
            "admit-error-settle",
            shard=shard_id,
            grant=grant,
            reserved=delta,
        )

    # ------------------------------------------------------------------
    # Parent/worker state synchronisation (process dispatch only)
    # ------------------------------------------------------------------
    def pull_worker_state(self) -> None:
        """Sync the parent-side shard schedulers and caches from the
        worker processes (lazy: a no-op unless a round was dispatched
        since the last pull).  Called before any read of per-shard state
        — checkpoints, stats, snapshots — so observers see the
        authoritative worker-side ledgers and cache counters."""
        if (
            self._pool is None
            or not self._dispatched_since_pull
            or self._pool.broken
        ):
            return
        states = self._pool.pull(range(len(self.shards)))
        for shard in self.shards:
            scheduler_state, cache_state = states[shard.shard_id]
            shard.scheduler.load_state(scheduler_state)
            shard.cache.load_state(cache_state)
        self._dispatched_since_pull = False

    def push_worker_state(self) -> None:
        """Load the parent-side shard scheduler/cache state into the
        worker processes (checkpoint restore, cache import)."""
        if self._pool is None or self._pool.broken:
            return
        for shard in self.shards:
            self._pool.push(
                shard.shard_id,
                shard.scheduler.state_dict(),
                shard.cache.state_dict(),
            )
        self._dispatched_since_pull = False

    def refund(self, amount: float) -> None:
        self.allocator.refund(amount)

    def close(self) -> None:
        """Release the dispatch pool (idempotent; no-op when
        sequential).  Called when the campaign finishes or closes; the
        final pull keeps post-finish checkpoints byte-faithful."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._pool is not None:
            try:
                self.pull_worker_state()
            finally:
                self._pool.close()

    @property
    def stats(self) -> SchedulerStats:
        self.pull_worker_state()
        merged = SchedulerStats()
        for shard in self.shards:
            stats = shard.scheduler.stats
            merged.batches += stats.batches
            merged.admitted += stats.admitted
            merged.unfunded += stats.unfunded
            merged.deferred += stats.deferred
            merged.substitutions += stats.substitutions
            merged.dropped_seats += stats.dropped_seats
        return merged

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(
        self, tasks: Sequence[EngineTask]
    ) -> dict[int, list[EngineTask]]:
        """Assign each task to a shard; returns shard id -> sub-batch
        (task order preserved within each shard)."""
        routed: dict[int, list[EngineTask]] = {}
        if self.config.routing_policy == "hash":
            for task in tasks:
                shard_id = (
                    zlib.crc32(task.task_id.encode("utf-8"))
                    % len(self.shards)
                )
                routed.setdefault(shard_id, []).append(task)
            return routed

        # Load-aware policies spread *this* round too: a task routed
        # now will occupy seats before the next task is placed, so the
        # running per-shard count joins the live seat load.  Seats and
        # quality mass cannot change while routing (nothing is seated
        # yet), so the live aggregates are computed once per round.
        pending = [0] * len(self.shards)
        seats = [shard.view.active_seats for shard in self.shards]
        if self.config.routing_policy == "least-loaded":
            capacity = [
                max(shard.view.total_capacity, 1) for shard in self.shards
            ]

            def score(shard: Shard) -> tuple:
                k = shard.shard_id
                return ((seats[k] + pending[k]) / capacity[k], k)

        else:  # quality-balanced
            mass = [shard.view.quality_mass() for shard in self.shards]

            def score(shard: Shard) -> tuple:
                k = shard.shard_id
                # Highest mass per in-flight unit wins; negate for min().
                return (-mass[k] / (1.0 + seats[k] + pending[k]), k)

        for task in tasks:
            best = min(self.shards, key=score)
            pending[best.shard_id] += 1
            routed.setdefault(best.shard_id, []).append(task)
        return routed

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def rebalance(self) -> int:
        """Migrate idle workers from the least- to the most-utilised
        shard when seat-load skew exceeds the configured threshold.
        Returns the number of workers moved."""
        if len(self.shards) < 2 or self.config.rebalance_max_moves == 0:
            return 0
        by_ratio = sorted(
            self.shards, key=lambda s: (s.view.load_ratio, s.shard_id)
        )
        donor, needy = by_ratio[0], by_ratio[-1]
        skew = needy.view.load_ratio - donor.view.load_ratio
        if skew <= self.config.rebalance_threshold:
            return 0
        idle = sorted(
            (s for s in donor.view.states if s.load == 0),
            key=lambda s: informativeness_key(s.worker),
        )
        moved = 0
        for state in idle:
            if moved >= self.config.rebalance_max_moves:
                break
            if len(donor.view) <= MIN_SHARD_MEMBERS:
                break
            worker_id = state.worker.worker_id
            donor.view.remove_member(worker_id)
            needy.view.add_member(worker_id)
            donor.migrations_out += 1
            needy.migrations_in += 1
            moved += 1
        self.migrations += moved
        if moved:
            self.telemetry.inc("scheduler.rebalanced_workers", moved)
            self.telemetry.event(
                "rebalance",
                moved=moved,
                donor=donor.shard_id,
                needy=needy.shard_id,
            )
        return moved

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Allocator ledger, per-shard membership, migrations, and each
        shard scheduler's own state (the caches travel separately)."""
        self.pull_worker_state()
        return {
            "allocator": self.allocator.state_dict(),
            "migrations": self.migrations,
            "shards": [
                {
                    "shard_id": shard.shard_id,
                    "member_ids": list(shard.view.member_ids),
                    "migrations_in": shard.migrations_in,
                    "migrations_out": shard.migrations_out,
                    "granted": shard.granted,
                    "scheduler": shard.scheduler.state_dict(),
                }
                for shard in self.shards
            ],
        }

    def load_state(self, state: Mapping) -> None:
        """Restore onto a freshly constructed sharded scheduler (same
        registry, config, and shard count)."""
        self.allocator.load_state(state["allocator"])
        self.migrations = int(state["migrations"])
        if len(state["shards"]) != len(self.shards):
            raise ValueError(
                f"checkpoint has {len(state['shards'])} shards; "
                f"this scheduler was built with {len(self.shards)}"
            )
        for shard, shard_state in zip(self.shards, state["shards"]):
            shard.view._members = set(shard_state["member_ids"])
            shard.view._states_cache = None
            shard.migrations_in = int(shard_state["migrations_in"])
            shard.migrations_out = int(shard_state["migrations_out"])
            shard.granted = float(shard_state.get("granted", 0.0))
            shard.scheduler.load_state(shard_state["scheduler"])
        self.push_worker_state()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def shard_snapshots(self) -> tuple[ShardSnapshot, ...]:
        self.pull_worker_state()
        return tuple(shard.snapshot() for shard in self.shards)

    def merged_cache_stats(self) -> CacheStats:
        self.pull_worker_state()
        merged = CacheStats(0, 0, 0, 0)
        for shard in self.shards:
            merged = merged.merge(shard.cache.stats)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedScheduler({len(self.shards)} shards, "
            f"policy={self.config.routing_policy!r}, "
            f"migrations={self.migrations})"
        )
