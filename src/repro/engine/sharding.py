"""Sharded worker pools under a top-level budget allocator.

Every campaign serves through this module: the engine builds one
:class:`ShardedScheduler` of ``CampaignConfig.num_shards`` shards (one
by default).  The exact cost-JQ frontier enumerates ``2^k`` juries,
which caps any one scheduler's candidate pool at ~12 workers no matter
how many workers register; more than one shard lifts that ceiling
*structurally* instead of numerically:

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
* a stable hash of each task id routes arriving tasks to shards, and
  **rebalancing** migrates idle workers from underloaded to overloaded
  shards when load skews.

The DB-nets line of work (Montali & Rivkin) treats state transitions of
a data-aware process as explicit, checkable invariants; the sharded
engine is built to the same discipline — every grant, reservation,
re-absorption, and refund flows through one allocator ledger whose
conservation laws are asserted by ``tests/engine/test_invariants.py``.

Worker *state* stays global: seats, spend, vote history, and EM quality
re-estimation still live in the one registry, so sharding changes who
*schedules* a worker, never what is known about them.

Shard count is configuration::

    campaign = Campaign.open(pool, CampaignConfig(budget=50, num_shards=4))

With one shard the allocator grants each round's whole budget to shard
0, which seats it over the whole registry.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..core.worker import WorkerPool
from .cache import CacheStats, JQCache
from .config import CampaignConfig
from .events import EngineTask
from .metrics import AllocatorSnapshot, ShardSnapshot
from .scheduler import Assignment, CampaignScheduler, SchedulerStats
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

#: Rebalancing migrates idle workers from the least- to the most-utilised
#: shard once their seat-ratio gap exceeds ``REBALANCE_THRESHOLD``, at
#: most ``REBALANCE_MAX_MOVES`` workers per scheduling round.
REBALANCE_THRESHOLD = 0.25
REBALANCE_MAX_MOVES = 2


def pro_rata_round_budget(
    budget: float,
    expected_tasks: int,
    entitled: float,
    new_tasks: int,
    reserved: float,
    refunded: float,
) -> tuple[float, float]:
    """The engine's one budget-pacing rule.

    Each *new* task grows the cumulative entitlement by its pro-rata
    share ``budget / expected_tasks`` (capped at the budget); a round
    may spend up to the entitlement not yet (net) reserved, and never
    more than what remains of the budget.  Returns ``(new_entitled,
    round_budget)``.  Early arrivals therefore cannot starve the rest
    of the campaign, while unspent shares and early-stop refunds carry
    over to later rounds instead of being forfeited.
    """
    share = budget * new_tasks / expected_tasks
    entitled = min(entitled + share, budget)
    net_reserved = reserved - refunded
    remaining = budget - reserved + refunded
    return entitled, min(remaining, max(entitled - net_reserved, 0.0))


class ShardRegistryView:
    """A shard's window onto the global :class:`WorkerRegistry`.

    Presents the registry surface the scheduler consumes —
    ``available_pool`` / ``states`` / ``worker`` / ``free_capacity`` /
    ``assign`` — restricted to the shard's member ids, so a
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
        self.set_members(member_ids)

    # -- membership ----------------------------------------------------
    def set_members(self, member_ids: Iterable[str]) -> None:
        """Replace the membership.  The view holds the members' states
        in global registry order; the registry mutates states in place,
        so they stay current between membership changes."""
        members = set(member_ids)
        for worker_id in members:
            if worker_id not in self._registry:
                raise KeyError(f"unknown worker {worker_id!r}")
        self._states = {
            s.worker.worker_id: s
            for s in self._registry.states
            if s.worker.worker_id in members
        }
        self._state_tuple = tuple(self._states.values())

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._states

    @property
    def member_ids(self) -> tuple[str, ...]:
        """Member ids in global registry order."""
        return tuple(self._states)

    def add_member(self, worker_id: str) -> None:
        self.set_members([*self._states, worker_id])

    def remove_member(self, worker_id: str) -> None:
        del self._states[worker_id]
        self._state_tuple = tuple(self._states.values())

    # -- the registry surface the scheduler consumes -------------------
    @property
    def states(self) -> tuple[WorkerState, ...]:
        return self._state_tuple

    def available_pool(self, exclude: Iterable[str] = ()) -> WorkerPool:
        excluded = set(exclude)
        return WorkerPool(
            s.worker
            for s in self._state_tuple
            if s.free_capacity > 0 and s.worker.worker_id not in excluded
        )

    def worker(self, worker_id: str):
        """A member, with their current estimated quality."""
        return self._states[worker_id].worker

    def free_capacity(self, worker_id: str) -> int:
        state = self._states.get(worker_id)
        if state is None:
            return 0  # not ours to seat
        return state.free_capacity

    def assign(self, worker_id: str, task_id: str) -> None:
        if worker_id not in self._states:
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


class BudgetAllocator:
    """The campaign's one budget ledger.

    Paces the budget pro rata at campaign scope — cumulative
    *entitlement* grows with each distinct task admitted, a round may
    grant at most the entitlement not yet (net) reserved — then splits
    each round's budget across shards proportional to their available
    quality mass.  Shards reserve out of their grant; whatever
    a grant leaves unreserved is **re-absorbed** immediately (it was
    never debited), and early-stop refunds flow back here rather than
    to any one shard, so the whole campaign — not the lucky shard —
    re-spends them.

    Conservation laws (asserted by the invariant harness):

    * ``granted == reserved_from_grants + reabsorbed`` per round and
      cumulatively;
    * ``reserved - refunded <= budget`` at every instant;
    * ``entitled <= budget`` always.
    """

    def __init__(self, budget: float, expected_tasks: int) -> None:
        if budget < 0:
            raise ValueError("budget must be non-negative")
        if expected_tasks < 1:
            raise ValueError("expected_tasks must be >= 1")
        self.budget = float(budget)
        self.expected_tasks = expected_tasks
        self._entitled = 0.0
        # An insertion-ordered set: checkpoints store it as it grew,
        # without sorting.
        self._entitled_tasks: dict[str, None] = {}
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
        arithmetic is :func:`pro_rata_round_budget`.
        """
        self._rounds += 1
        entitled_tasks = self._entitled_tasks
        new = 0
        for task_id in task_ids:
            if task_id not in entitled_tasks:
                entitled_tasks[task_id] = None
                new += 1
        self._entitled, round_budget = pro_rata_round_budget(
            self.budget,
            self.expected_tasks,
            self._entitled,
            new,
            self._reserved,
            self._refunded,
        )
        return round_budget

    def split(
        self, round_budget: float, masses: Mapping[int, float]
    ) -> dict[int, float]:
        """Split a round's budget across shards proportional to mass.

        ``masses`` maps shard id -> available quality mass; only shards
        present get a grant.  A sole recipient takes the whole round and
        its mass is never read (it may be ``None``).  All-zero masses
        (every listed shard fully saturated) fall back to an equal split
        — the tasks were already routed there, so starving them entirely
        would just defer the whole round.
        """
        if not masses:
            return {}
        round_budget = max(float(round_budget), 0.0)
        if len(masses) == 1:
            # Sole recipient takes the round exactly — no proportional
            # arithmetic to round the grant.
            self._granted += round_budget
            return {next(iter(masses)): round_budget}
        total = float(sum(masses.values()))
        if total <= 0.0:
            grants = {k: round_budget / len(masses) for k in masses}
        else:
            grants = {
                k: round_budget * mass / total for k, mass in masses.items()
            }
        self._granted += sum(grants.values())
        return grants

    def settle(self, granted: float, reserved: float) -> None:
        """Record one shard's round outcome: commit what it reserved,
        re-absorb the rest of its grant."""
        if reserved > granted + 1e-9:
            raise ValueError(
                f"shard reserved {reserved} beyond its grant {granted}"
            )
        self._reserved += max(float(reserved), 0.0)
        self._reabsorbed += max(float(granted) - float(reserved), 0.0)

    def refund(self, amount: float) -> None:
        """Return unspent reservation (early-stopped task) to the pot."""
        if amount < -1e-9:
            raise ValueError(f"refund must be non-negative, got {amount}")
        self._refunded += max(float(amount), 0.0)

    # -- persistence ---------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "entitled": self._entitled,
            "entitled_tasks": list(self._entitled_tasks),
            "reserved": self._reserved,
            "refunded": self._refunded,
            "granted": self._granted,
            "reabsorbed": self._reabsorbed,
            "rounds": self._rounds,
        }

    def load_state(self, state: Mapping) -> None:
        self._entitled = float(state["entitled"])
        self._entitled_tasks = dict.fromkeys(state["entitled_tasks"])
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


@dataclass
class Shard:
    """One shard: a registry view, its scheduler, and its JQ cache."""

    shard_id: int
    view: ShardRegistryView
    cache: JQCache
    scheduler: CampaignScheduler
    #: Telemetry labels of the shard's series (empty at one shard).
    labels: dict
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

    The engine's scheduler, at every shard count.  Per round it
    (1) opens the allocator's round, (2) routes each task to a shard,
    (3) grants each participating shard its quality-mass share of the
    round budget, (4) lets each shard's scheduler admit its sub-batch
    inside its grant, settling reservations and re-absorbing the
    unspent remainder, and (5) rebalances idle workers if shard load
    has skewed.
    """

    def __init__(
        self,
        registry: WorkerRegistry,
        config: CampaignConfig,
        expected_tasks: int,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.registry = registry
        self.telemetry = telemetry
        self.allocator = BudgetAllocator(config.budget, expected_tasks)
        self.shards: list[Shard] = []
        for shard_id, member_ids in enumerate(
            partition_members(registry, config.num_shards)
        ):
            # A one-shard campaign's series carry no shard label.
            labels = {"shard": shard_id} if config.num_shards > 1 else {}
            view = ShardRegistryView(registry, member_ids)
            cache = JQCache(
                alpha=config.alpha, num_buckets=config.num_buckets
            )
            scheduler = CampaignScheduler(
                view,
                cache,
                frontier_pool_size=config.frontier_pool_size,
                telemetry=telemetry,
                telemetry_labels=labels,
            )
            self.shards.append(
                Shard(shard_id, view, cache, scheduler, labels)
            )
        self.migrations = 0
        telemetry.add_collector(self._telemetry_gauges)
        telemetry.add_collector(self._telemetry_counters, kind="counter")

    def _telemetry_gauges(self):
        """Per-shard pull gauges (collector: read at export time only)."""
        for shard in self.shards:
            labels = shard.labels
            yield from shard.cache.stats.telemetry_gauges(**labels)
            yield "shard.workers", labels, float(len(shard.view))
            yield "shard.active_seats", labels, float(shard.view.active_seats)
            yield "shard.capacity", labels, float(shard.view.total_capacity)
            yield "shard.granted", labels, shard.granted
            yield "shard.reserved", labels, shard.scheduler.reserved

    def _telemetry_counters(self):
        """Each shard's :class:`SchedulerStats` admission tallies as
        telemetry counters (collector: read at export time only)."""
        for shard in self.shards:
            stats = shard.scheduler.stats
            yield "scheduler.admitted", shard.labels, stats.admitted
            yield "scheduler.unfunded", shard.labels, stats.unfunded
            yield "scheduler.deferred", shard.labels, stats.deferred

    # ------------------------------------------------------------------
    # The engine's scheduler surface
    # ------------------------------------------------------------------
    def admit(
        self, tasks: Sequence[EngineTask]
    ) -> tuple[list[Assignment], list[EngineTask]]:
        if not tasks:
            return [], []
        round_budget = self.allocator.open_round(t.task_id for t in tasks)
        routed = self.route(tasks)
        if len(routed) == 1:
            # A sole recipient's mass is never read by split.
            masses = dict.fromkeys(routed)
        else:
            masses = {
                shard_id: self.shards[shard_id].view.quality_mass()
                for shard_id in routed
            }
        grants = self.allocator.split(round_budget, masses)
        order = sorted(routed)
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

    @property
    def stats(self) -> SchedulerStats:
        """Counters summed over the shards."""
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
        """Assign each task to a shard by a stable hash of its id (sticky
        and stateless); returns shard id -> sub-batch (task order
        preserved within each shard)."""
        count = len(self.shards)
        routed: dict[int, list[EngineTask]] = {}
        for task in tasks:
            shard_id = zlib.crc32(task.task_id.encode("utf-8")) % count
            routed.setdefault(shard_id, []).append(task)
        return routed

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def rebalance(self) -> int:
        """Migrate idle workers from the least- to the most-utilised
        shard when seat-load skew exceeds :data:`REBALANCE_THRESHOLD`.
        Returns the number of workers moved."""
        if len(self.shards) < 2:
            return 0
        by_ratio = sorted(
            self.shards, key=lambda s: (s.view.load_ratio, s.shard_id)
        )
        donor, needy = by_ratio[0], by_ratio[-1]
        skew = needy.view.load_ratio - donor.view.load_ratio
        if skew <= REBALANCE_THRESHOLD:
            return 0
        idle = sorted(
            (s for s in donor.view.states if s.load == 0),
            key=lambda s: informativeness_key(s.worker),
        )
        moved = 0
        for state in idle:
            if moved >= REBALANCE_MAX_MOVES:
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
        """A snapshot's ledger section: the allocator ledger, the
        migration count and, under ``"shard:<id>"``, each shard's
        membership, migrations, grant and scheduler state (the caches
        travel separately)."""
        ledger = {
            "allocator": self.allocator.state_dict(),
            "migrations": self.migrations,
        }
        for shard in self.shards:
            ledger[f"shard:{shard.shard_id}"] = {
                "shard_id": shard.shard_id,
                "member_ids": list(shard.view.member_ids),
                "migrations_in": shard.migrations_in,
                "migrations_out": shard.migrations_out,
                "granted": shard.granted,
                "scheduler": shard.scheduler.state_dict(),
            }
        return ledger

    def load_state(self, state: Mapping) -> None:
        """Restore onto a freshly constructed sharded scheduler (same
        registry, config, and shard count)."""
        self.allocator.load_state(state["allocator"])
        self.migrations = int(state["migrations"])
        for shard in self.shards:
            shard_state = state[f"shard:{shard.shard_id}"]
            shard.view.set_members(shard_state["member_ids"])
            shard.migrations_in = int(shard_state["migrations_in"])
            shard.migrations_out = int(shard_state["migrations_out"])
            shard.granted = float(shard_state["granted"])
            shard.scheduler.load_state(shard_state["scheduler"])

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def shard_snapshots(self) -> tuple[ShardSnapshot, ...]:
        return tuple(shard.snapshot() for shard in self.shards)

    def merged_cache_stats(self) -> CacheStats:
        merged = CacheStats(0, 0, 0)
        for shard in self.shards:
            merged = merged.merge(shard.cache.stats)
        return merged
