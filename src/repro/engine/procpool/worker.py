"""Worker-process side of the process-pool shard dispatcher.

Each shard worker process owns a *real* serving stack for its shard — a
:class:`~repro.engine.scheduler.CampaignScheduler` over a
:class:`~repro.engine.cache.JQCache` — driven against a
:class:`ShadowRegistry`: a picklable replica of the
:class:`~repro.engine.sharding.ShardRegistryView` surface the scheduler
consumes (``available_pool`` / ``states`` / ``worker`` /
``free_capacity`` / ``assign``), rebuilt from the parent's member rows
at the start of every round.

The split of authority is what keeps process dispatch byte-identical to
sequential dispatch:

* the **parent** owns the global registry (seats, releases, quality
  re-estimation, peak load) and ships each round's membership-filtered
  worker rows down in :class:`ShardWorkState`;
* the **worker** owns the shard's scheduler and cache *between* rounds
  — frontier memos, reservation ledger, stats, and every cache counter
  evolve in the worker exactly as they would inline, because the very
  same scheduler code runs over the very same member view;
* decisions flow back as plain ids and costs; the parent replays the
  seat assignments through the real registry view in shard-id order.

The pipe protocol (one request, one response, in order)::

    ("init", params)                  -> ("ok", pid)
    ("admit", ShardWorkState)         -> ("ok", AdmitResult)
    ("pull",)                         -> ("ok", (scheduler_state, cache_state))
    ("load", scheduler_state, cache_state) -> ("ok", None)
    ("warm", entries)                 -> ("ok", imported_count)
    ("stop",)                         -> (worker exits)

Errors are returned as ``("error", traceback_text, reserved_delta)`` —
the reservation delta lets the parent repair the allocator ledger
(``granted == reserved + reabsorbed``) even for a round that died
half-seated.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field

from ..cache import JQCache
from ..events import EngineTask
from ..scheduler import CampaignScheduler
from ..state import CapacityError, WorkerState
from ...core.worker import Worker, WorkerPool

#: Scheduler/cache construction parameters a shard worker needs; the
#: parent derives them from its ``CampaignConfig`` once at pool start.
SCHEDULER_PARAMS = (
    "budget",
    "expected_tasks",
    "frontier_pool_size",
    "alpha",
    "num_buckets",
    "quantization",
    "cache_max_entries",
)


@dataclass
class ShardWorkState:
    """One round's work unit for one shard worker — fully picklable.

    ``member_rows`` carries the shard's membership in *global registry
    order* (the order every deterministic downstream ranking keys on):
    one ``(worker_id, est_quality, cost, capacity, active_task_ids)``
    tuple per member, reflecting seats and quality drift up to this
    round.  ``task_states`` is the routed sub-batch
    (:meth:`EngineTask.state_dict` rows, order preserved) and ``grant``
    the shard's allocator grant for the round.
    """

    shard_id: int
    member_rows: list = field(default_factory=list)
    task_states: list = field(default_factory=list)
    grant: float = 0.0


@dataclass
class AdmitResult:
    """A shard worker's decisions for one round, as plain data.

    ``assignments`` rows are ``(task_id, seated_worker_ids, predicted_jq,
    reserved_cost)`` in admission order (empty id list = unfunded);
    ``deferred`` is the deferred task ids in order; ``reserved`` the
    round's total reservation (what the parent settles against the
    shard's grant).
    """

    shard_id: int
    assignments: list = field(default_factory=list)
    deferred: list = field(default_factory=list)
    reserved: float = 0.0


class ShadowRegistry:
    """The shard-membership registry surface, rebuilt per round.

    Replicates exactly what :class:`CampaignScheduler` reads from a
    :class:`~repro.engine.sharding.ShardRegistryView`: member states in
    global registry order, the available pool, per-worker free capacity,
    and check-then-seat ``assign``.  Seat mutations made while admitting
    a round live only until the next :meth:`sync` — the parent registry
    is the durable source of truth.
    """

    def __init__(self) -> None:
        self._states: dict[str, WorkerState] = {}

    def sync(self, member_rows) -> None:
        """Replace the membership with this round's rows (global order)."""
        states: dict[str, WorkerState] = {}
        for worker_id, est_quality, cost, capacity, active in member_rows:
            states[worker_id] = WorkerState(
                worker=Worker(worker_id, float(est_quality), float(cost)),
                true_quality=float(est_quality),
                capacity=int(capacity),
                active_tasks=set(active),
            )
        self._states = states

    # -- the registry surface the scheduler consumes -------------------
    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._states

    @property
    def states(self) -> tuple[WorkerState, ...]:
        return tuple(self._states.values())

    def available_pool(self, exclude=()) -> WorkerPool:
        excluded = set(exclude)
        return WorkerPool(
            s.worker
            for s in self._states.values()
            if s.free_capacity > 0 and s.worker.worker_id not in excluded
        )

    def worker(self, worker_id: str) -> Worker:
        return self._states[worker_id].worker

    def free_capacity(self, worker_id: str) -> int:
        state = self._states.get(worker_id)
        return 0 if state is None else state.free_capacity

    def assign(self, worker_id: str, task_id: str) -> None:
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
        state.active_tasks.add(task_id)


def build_shard_scheduler(shard_id: int, params: dict):
    """Construct a shard's (shadow registry, cache, scheduler) triple
    from the pool's construction parameters.  Shared by the worker
    process and the pool's tests."""
    registry = ShadowRegistry()
    cache = JQCache(
        alpha=params["alpha"],
        num_buckets=params["num_buckets"],
        quantization=params["quantization"],
        max_entries=params["cache_max_entries"],
    )
    scheduler = CampaignScheduler(
        registry,
        cache,
        budget=params["budget"],
        expected_tasks=params["expected_tasks"],
        frontier_pool_size=params["frontier_pool_size"],
        shard_id=shard_id,
    )
    return registry, cache, scheduler


def admit_work(registry, scheduler, work: ShardWorkState) -> AdmitResult:
    """Run one round on a shard's scheduler and flatten the decisions.

    Kept free of any process machinery so the dispatch tests can drive
    the exact worker-side round logic in-process.
    """
    registry.sync(work.member_rows)
    tasks = [EngineTask.from_state(t) for t in work.task_states]
    before = scheduler.reserved
    assignments, deferred = scheduler.admit(tasks, batch_budget=work.grant)
    return AdmitResult(
        shard_id=work.shard_id,
        assignments=[
            (
                a.task.task_id,
                [w.worker_id for w in a.jury.workers],
                a.predicted_jq,
                a.reserved_cost,
            )
            for a in assignments
        ],
        deferred=[t.task_id for t in deferred],
        reserved=scheduler.reserved - before,
    )


def shard_worker_main(conn, shard_id: int) -> None:
    """The shard worker process's request loop (one pipe, one shard).

    Runs until ``("stop",)`` or until the pipe breaks (parent died —
    exit quietly rather than orphan).  Every request is answered; the
    parent matches responses to requests positionally.
    """
    registry = cache = scheduler = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message[0]
        reserved_before = 0.0 if scheduler is None else scheduler.reserved
        if op == "stop":
            break
        try:
            if op == "init":
                registry, cache, scheduler = build_shard_scheduler(
                    shard_id, message[1]
                )
                conn.send(("ok", os.getpid()))
            elif op == "admit":
                conn.send(("ok", admit_work(registry, scheduler, message[1])))
            elif op == "pull":
                conn.send(
                    ("ok", (scheduler.state_dict(), cache.state_dict()))
                )
            elif op == "load":
                scheduler.load_state(message[1])
                cache.load_state(message[2])
                conn.send(("ok", None))
            elif op == "warm":
                conn.send(("ok", cache.warm(message[1])))
            else:
                conn.send(("error", f"unknown op {op!r}", 0.0))
        except BaseException:
            delta = 0.0
            if op == "admit" and scheduler is not None:
                # A half-seated round still reserved budget; report the
                # delta so the parent can settle the grant correctly.
                delta = max(scheduler.reserved - reserved_before, 0.0)
            try:
                conn.send(("error", traceback.format_exc(), delta))
            except (BrokenPipeError, OSError):
                break
    try:
        conn.close()
    except OSError:
        pass
