"""The campaign engine: a deterministic event loop over shared state.

This is the serving layer the one-shot library lacked.  One
:class:`CampaignEngine` owns

* a :class:`~repro.engine.state.WorkerRegistry` (capacity, load, spend,
  drifting quality estimates),
* a :class:`~repro.engine.sharding.ShardedScheduler` routing batches
  across ``num_shards`` shard schedulers (each seating juries over its
  own :class:`~repro.engine.cache.JQCache`) under one budget
  allocator, and
* an :class:`~repro.engine.metrics.EngineMetrics` accumulator,

and advances them by draining an :class:`~repro.engine.events.EventQueue`:

``task-arrival``
    buffered into batches; a full batch (or the last arrival) triggers
    scheduling, which seats juries and enqueues their members' votes.
``vote-arrival``
    feeds the task's :class:`~repro.online.OnlineDecisionSession`;
    when the posterior clears the confidence target with votes still
    outstanding the task **stops early** — outstanding votes are
    cancelled, their workers released, and the unspent reservation
    refunded to the campaign budget.
``task-complete``
    finalizes the verdict, releases seats, credits worker agreement
    stats, optionally triggers quality re-estimation, and retries any
    deferred tasks now that capacity freed up.

Runs are reproducible: event order is ``(logical time, enqueue
serial)``, all randomness flows through one seeded generator consumed
in pop order, and wall-clock time is only ever *measured* (for the
throughput metric), never branched on.

The engine is the one owner of its state: every loop steps it
through :meth:`CampaignEngine.advance` and ends a pass with
:meth:`CampaignEngine.end_pass`; :meth:`CampaignEngine.state_dict` and
:meth:`CampaignEngine.from_state` are its snapshot layout.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..core.jury import Jury
from ..core.worker import Worker, WorkerPool
from ..estimation import AnswerMatrix
from ..online import OnlineDecisionSession
from .config import CampaignConfig
from .events import (
    EngineTask,
    Event,
    EventQueue,
    TaskArrival,
    TaskComplete,
    VoteArrival,
)
from .ingest import AssignmentBook, NoOpenOffer, check_chunk
from .metrics import EngineMetrics, TaskRecord
from .scheduler import Assignment
from .sharding import ShardedScheduler
from .state import WorkerRegistry, informativeness_key
from .telemetry import NULL_TELEMETRY, Telemetry

#: Logical ticks between consecutive jurors' simulated votes.
VOTE_LATENCY = 1.0


@dataclass
class _TaskRuntime:
    """Mutable per-task serving state while a task is in flight."""

    task: EngineTask
    assignment: Assignment
    session: OnlineDecisionSession
    sim_truth: int  # vote-generating latent truth (drawn when unknown)
    pending_workers: list[str] = field(default_factory=list)
    done: bool = False

    def state_dict(self) -> dict:
        assignment = self.assignment
        return {
            "task": self.task.state_dict(),
            "jury": [
                [w.worker_id, w.quality, w.cost]
                for w in assignment.jury.workers
            ],
            "predicted_jq": assignment.predicted_jq,
            "reserved_cost": assignment.reserved_cost,
            "session": self.session.state_dict(),
            "sim_truth": self.sim_truth,
            "scored_truth": self.task.ground_truth,
            "pending_workers": list(self.pending_workers),
            "done": self.done,
        }

    @classmethod
    def from_state(cls, state: dict) -> "_TaskRuntime":
        task = EngineTask.from_state(state["task"])
        jury = Jury(
            Worker(wid, float(q), float(c)) for wid, q, c in state["jury"]
        )
        return cls(
            task=task,
            assignment=Assignment(
                task,
                jury,
                float(state["predicted_jq"]),
                float(state["reserved_cost"]),
            ),
            session=OnlineDecisionSession.from_state(state["session"]),
            sim_truth=int(state["sim_truth"]),
            pending_workers=list(state["pending_workers"]),
            done=bool(state["done"]),
        )


class CampaignEngine:
    """Event-driven jury-selection serving for one campaign.

    The engine core behind the :class:`~repro.engine.campaign.Campaign`
    facade, which adds the resumable lifecycle (``run(until=...)``,
    ``checkpoint()``, ``resume()``) and pluggable persistent state
    backends.  The one-shot surface works on its own too::

        engine = CampaignEngine(pool, CampaignConfig(budget=50, seed=7))
        engine.submit(EngineTask(f"t{i}", ground_truth=...) for i in ...)
        metrics = engine.run()
        print(metrics.render(budget=50))

    Every campaign serves through a
    :class:`~repro.engine.sharding.ShardedScheduler` of
    ``config.num_shards`` shards (one by default).
    """

    def __init__(
        self,
        pool: WorkerPool,
        config: CampaignConfig,
        initial_quality: float | dict[str, float] | None = None,
    ) -> None:
        registry = WorkerRegistry(
            pool, capacity=config.capacity, initial_quality=initial_quality
        )
        self._setup(config, registry)

    def _setup(self, config: CampaignConfig, registry: WorkerRegistry) -> None:
        self.config = config
        self.registry = registry
        if config.num_shards > len(registry):
            raise ValueError(
                f"num_shards ({config.num_shards}) cannot exceed the "
                f"pool size ({len(registry)})"
            )
        self.metrics = EngineMetrics()
        self.telemetry = (
            Telemetry(interval=config.metrics_interval)
            if config.telemetry == "on"
            else NULL_TELEMETRY
        )
        self.telemetry.add_collector(self._telemetry_gauges)
        self.telemetry.add_collector(self._telemetry_counters, kind="counter")
        # External-vote serving: seated juries become open offers on
        # the book instead of simulated VoteArrival events.
        self.offers: AssignmentBook | None = (
            AssignmentBook() if config.vote_source == "external" else None
        )
        self.scheduler: ShardedScheduler | None = None
        self._queue = EventQueue()
        self._rng = np.random.default_rng(config.seed)
        self._batch: list[EngineTask] = []
        self._deferred: list[EngineTask] = []
        self._active: dict[str, _TaskRuntime] = {}
        # An insertion-ordered set: checkpoints journal it in
        # submission order.
        self._task_ids: dict[str, None] = {}
        self._clock = 0.0
        self._expected_tasks: int | None = None
        self._ran = False
        self.finished = False  # set once a pass finalized the campaign
        #: Called every ``config.checkpoint_every`` completions (the
        #: Campaign facade installs its ``checkpoint``).
        self.checkpoint_hook = None
        # Observed scheduler-admit wall latency (EWMA, seconds); feeds
        # the server's 503 Retry-After hint.
        self.admit_latency_ewma: float | None = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        tasks,
        start_time: float = 0.0,
        spacing: float = 1.0,
    ) -> int:
        """Enqueue task arrivals at evenly spaced logical times.

        Returns the number of tasks enqueued.  May be called repeatedly
        before :meth:`run`.  A NaN or infinite arrival time or a
        duplicate id raises ``ValueError`` and enqueues none of the
        chunk.  The event heap is not thread-safe: only the thread
        driving the engine may call this (under the facade, through
        :meth:`~repro.engine.ingest.AsyncIngestLoop.submit`).
        """
        stamped = check_chunk(
            ((start_time + i * spacing, task) for i, task in enumerate(tasks)),
            self._task_ids,
        )
        for arrival_time, task in stamped:
            self._task_ids[task.task_id] = None
            self._queue.push(TaskArrival(arrival_time, task))
        return len(stamped)

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def run(self) -> EngineMetrics:
        """Drain the event queue and return the campaign metrics."""
        if self._ran:
            raise RuntimeError("a CampaignEngine instance runs one campaign")
        self._ran = True
        start = time.perf_counter()
        self.advance()
        return self.end_pass(start, finish=True)

    def advance(
        self,
        until: int | None = None,
        *,
        arrivals: bool = False,
        steps: int | None = None,
    ) -> None:
        """The one stepping primitive: build the serving stack if needed,
        then dispatch events in ``(time, seq)`` order until the queue
        drains or a stop condition holds — at least ``until`` tasks
        completed, no task arrival left queued (``arrivals=True``), or
        ``steps`` events dispatched (``steps=0`` only builds the
        stack).  Loop thread only."""
        self._start()
        queue = self._queue
        metrics = self.metrics
        stepped = 0
        while queue and not (
            (until is not None and metrics.completed >= until)
            or (arrivals and not queue.pending(TaskArrival))
            or (steps is not None and stepped >= steps)
        ):
            self._step()
            stepped += 1

    def end_pass(
        self, started: float, finish: bool, intake_stats: dict | None = None
    ) -> EngineMetrics:
        """End a pass begun at ``perf_counter()`` time ``started``:
        finalize (``finish``; idempotent — every task still deferred
        could never be seated and answers its prior) or pause, then fold
        the live gauges into the metrics (so a paused report is not all
        zeros), stamp ``intake_stats`` when given, add the wall time."""
        metrics = self.metrics
        if not (finish and self.finished):  # final gauges stay final
            if finish:
                if self.awaiting_votes:
                    raise RuntimeError(
                        f"cannot finalize: {len(self._active)} task(s) "
                        "still await external votes — deliver them or "
                        "keep serving"
                    )
                self.finished = True
                for task in self._deferred:
                    metrics.record_task(self._unfunded_record(task))
                self._deferred = []
            registry = self.registry
            scheduler = self.scheduler
            metrics.peak_worker_load = registry.peak_load
            if scheduler is not None:
                metrics.cache_stats = scheduler.merged_cache_stats()
                metrics.shard_snapshots = scheduler.shard_snapshots()
                metrics.allocator_snapshot = scheduler.allocator.snapshot()
            metrics.reestimations = registry.reestimations
            if registry.reestimations:
                metrics.quality_estimation_error = registry.estimation_error()
        if intake_stats is not None:
            metrics.intake_stats = intake_stats
        metrics.wall_seconds += time.perf_counter() - started
        return metrics

    # The one-event primitives under advance() (perfbench times _step).
    def _start(self) -> None:
        """Build the scheduler on first use (idempotent).  A restored
        campaign arrives with ``_expected_tasks`` already pinned — the
        pacing baseline must not be re-derived from a queue whose
        arrivals were partly consumed before the checkpoint."""
        if self.scheduler is None:
            if self._expected_tasks is None:
                self._expected_tasks = self.config.expected_tasks or max(
                    self._queue.pending(TaskArrival), 1
                )
            self.scheduler = ShardedScheduler(
                self.registry,
                self.config,
                self._expected_tasks,
                telemetry=self.telemetry,
            )

    def _step(self) -> None:
        """Pop and dispatch exactly one event."""
        event = self._queue.pop()
        self._clock = max(self._clock, event.time)
        self._dispatch(event)

    # ------------------------------------------------------------------
    # Public reads
    # ------------------------------------------------------------------
    @property
    def queued_events(self) -> int:
        """Events waiting in the queue."""
        return len(self._queue)

    @property
    def pending_arrivals(self) -> int:
        """Task arrivals not yet dispatched (what the intake's
        backpressure bound counts)."""
        return self._queue.pending(TaskArrival)

    @property
    def active_tasks(self) -> int:
        """Tasks seated and not yet completed."""
        return len(self._active)

    @property
    def deferred_tasks(self) -> int:
        """Tasks waiting for capacity or budget."""
        return len(self._deferred)

    @property
    def awaiting_votes(self) -> bool:
        """Whether a seated jury still owes external votes."""
        return self.offers is not None and bool(self._active)

    @property
    def task_ids(self):
        """Every task id taken, in submission order (a read-only view)."""
        return self._task_ids.keys()

    def _telemetry_gauges(self):
        """Pull-based gauges for the telemetry snapshot (collector: read
        only at export time, zero hot-path cost).  The JQ caches report
        through the :class:`ShardedScheduler` collector."""
        yield "registry.active_seats", {}, float(self.registry.active_seats)
        yield "registry.total_capacity", {}, float(
            self.registry.total_capacity
        )
        yield "registry.peak_load", {}, float(self.registry.peak_load)
        yield "engine.tasks_active", {}, float(len(self._active))
        yield "engine.tasks_deferred", {}, float(len(self._deferred))
        if self.offers is not None:
            yield "engine.open_offers", {}, float(self.offers.open_count)

    def _telemetry_counters(self):
        """The engine's own tallies as telemetry counters (collector:
        read at export time)."""
        metrics = self.metrics
        yield "engine.tasks_submitted", {}, metrics.submitted
        yield "engine.votes_cast", {}, metrics.votes_cast
        yield "engine.votes_cancelled", {}, metrics.votes_cancelled
        reasons = Counter(record.reason for record in metrics.records)
        for reason, count in reasons.items():
            yield "engine.tasks_completed", {"reason": reason}, count

    # ------------------------------------------------------------------
    # Snapshot layout
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The engine's fixed-size state as snapshot sections:
        ``campaign`` (the loop state), ``workers`` and ``ledger`` (empty
        until the serving stack is built).  The facade cuts the journals
        — votes, records, :attr:`task_ids`, JQ-cache entries — from its
        own marks."""
        scheduler = self.scheduler
        return {
            "campaign": {
                "config": self.config.to_dict(),
                "clock": self._clock,
                "expected_tasks": self._expected_tasks,
                "finished": self.finished,
                "reestimations": self.registry.reestimations,
                "batch": [t.state_dict() for t in self._batch],
                "deferred": [t.state_dict() for t in self._deferred],
                "active": [rt.state_dict() for rt in self._active.values()],
                "queue": self._queue.state_dict(),
                "rng": self._rng.bit_generator.state,
                "metrics": self.metrics.aggregate_state(),
                # None when telemetry is off; restore is .get()-tolerant
                # so snapshots predating the key still load.
                "telemetry": self.telemetry.state_dict(),
            },
            "workers": self.registry.worker_rows(),
            "ledger": {} if scheduler is None else scheduler.state_dict(),
        }

    @classmethod
    def from_state(
        cls, snapshot: dict, config: CampaignConfig
    ) -> "CampaignEngine":
        """Rebuild an engine from a version-3 snapshot with whole
        journals (what a backend loads), serving under ``config``; its
        one-shot :meth:`run` is spent."""
        section = snapshot["campaign"]
        engine = cls.__new__(cls)
        engine._setup(
            config,
            WorkerRegistry.from_rows(
                snapshot["workers"],
                AnswerMatrix.from_arrival_rows(snapshot["votes"]["rows"]),
                section["reestimations"],
            ),
        )
        engine._clock = float(section["clock"])
        expected = section["expected_tasks"]
        engine._expected_tasks = None if expected is None else int(expected)
        engine.finished = bool(section["finished"])
        engine._task_ids = dict.fromkeys(snapshot["task_ids"]["rows"])
        engine._batch = [EngineTask.from_state(t) for t in section["batch"]]
        engine._deferred = [
            EngineTask.from_state(t) for t in section["deferred"]
        ]
        engine._queue = EventQueue.from_state(section["queue"])
        engine._rng.bit_generator.state = section["rng"]
        engine.metrics = EngineMetrics.from_state(
            {**section["metrics"], "records": snapshot["records"]["rows"]}
        )
        engine._ran = True
        for rt_state in section["active"]:
            runtime = _TaskRuntime.from_state(rt_state)
            engine._active[runtime.task.task_id] = runtime
        if engine.offers is not None:
            # The offer book is derived state: every live task's
            # not-yet-voted seats are exactly its open offers.  Rebuild
            # in snapshot order so resumed fleets see a deterministic
            # book.
            for runtime in engine._active.values():
                if not runtime.done and runtime.pending_workers:
                    engine.offers.publish(
                        runtime.task.task_id,
                        runtime.pending_workers,
                        prior=runtime.task.prior,
                    )
        ledger = snapshot["ledger"]
        if ledger:
            engine._start()  # honors the restored _expected_tasks
            engine.scheduler.load_state(ledger)
            for shard in engine.scheduler.shards:
                shard.cache.load_state(
                    snapshot["caches"][f"shard:{shard.shard_id}"]
                )
        engine.telemetry.load_state(section.get("telemetry"))
        return engine

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _dispatch(self, event: Event) -> None:
        if isinstance(event, TaskArrival):
            self._on_arrival(event)
        elif isinstance(event, VoteArrival):
            self._on_vote(event)
        elif isinstance(event, TaskComplete):
            self._on_complete(event)
        else:  # pragma: no cover - closed event algebra
            raise TypeError(f"unknown event {type(event).__name__}")

    def _on_arrival(self, event: TaskArrival) -> None:
        self._batch.append(event.task)
        self.metrics.submitted += 1
        self.telemetry.mark("intake")
        if (
            len(self._batch) >= self.config.batch_size
            or self._queue.pending(TaskArrival) == 0
        ):
            self._flush_batch()

    def _flush_batch(self) -> None:
        """Schedule everything waiting: deferred tasks first (they have
        waited longest), then the fresh batch."""
        waiting = self._deferred + self._batch
        self._batch = []
        if not waiting:
            self._deferred = []
            return
        # Cap each scheduling pass at one batch so a long deferred
        # backlog (capacity starvation) costs O(batch) per retry, not
        # O(backlog).
        take = waiting[: self.config.batch_size]
        rest = waiting[self.config.batch_size :]
        assert self.scheduler is not None
        admit_start = time.perf_counter()
        assignments, deferred = self.scheduler.admit(take)
        admit_seconds = time.perf_counter() - admit_start
        self.admit_latency_ewma = (
            admit_seconds
            if self.admit_latency_ewma is None
            else 0.2 * admit_seconds + 0.8 * self.admit_latency_ewma
        )
        self._deferred = deferred + rest
        self.telemetry.event(
            "admit",
            batch=len(take),
            seated=len(assignments),
            deferred=len(deferred),
        )
        for assignment in assignments:
            self._start_task(assignment)

    def _start_task(self, assignment: Assignment) -> None:
        task = assignment.task
        truth = task.ground_truth
        if truth is None:
            # Simulation needs *some* latent truth to generate votes;
            # drawn tasks are excluded from accuracy scoring.
            truth = 0 if self._rng.random() < task.prior else 1
        session = OnlineDecisionSession(
            alpha=task.prior,
            confidence_target=self.config.confidence_target,
        )
        runtime = _TaskRuntime(
            task=task,
            assignment=assignment,
            session=session,
            sim_truth=truth,
            pending_workers=[],
        )
        self._active[task.task_id] = runtime
        if not assignment.funded:
            self._queue.push(
                TaskComplete(self._clock, task.task_id, "unfunded")
            )
            return
        jurors = sorted(assignment.jury, key=informativeness_key)
        runtime.pending_workers = [w.worker_id for w in jurors]
        if self.offers is not None:
            # External votes: publish one open offer per seat and wait
            # for deliver_vote() instead of scheduling simulated votes.
            self.offers.publish(
                task.task_id, runtime.pending_workers, prior=task.prior
            )
            self.telemetry.event(
                "offer", task=task.task_id, seats=len(jurors)
            )
            return
        for k, worker in enumerate(jurors):
            self._queue.push(
                VoteArrival(
                    self._clock + (k + 1) * VOTE_LATENCY,
                    task.task_id,
                    worker.worker_id,
                )
            )

    def _on_vote(self, event: VoteArrival) -> None:
        runtime = self._active.get(event.task_id)
        if runtime is None or runtime.done:
            # The vote landed after its task completed.
            self.metrics.votes_cancelled += 1
            return
        q_true = self.registry.true_quality(event.worker_id)
        truth = runtime.sim_truth
        vote = truth if self._rng.random() < q_true else 1 - truth
        self._apply_vote(runtime, event.worker_id, vote, event.time)

    def deliver_vote(self, task_id: str, worker_id: str, vote: int) -> bool:
        """Apply one externally supplied vote (``vote_source="external"``
        only; loop thread only — this touches the event heap).

        The simulated :meth:`_on_vote` path minus the RNG draw: the vote
        is recorded, the decision session updated, and an early stop or
        final vote pushes the task's ``TaskComplete`` onto the event
        queue at the loop clock (drive the loop afterwards to dispatch
        it).  Returns ``False`` — counting the vote as cancelled, the
        external analogue of a simulated vote landing after an early
        stop — when the task already completed; claims through
        :meth:`~repro.engine.ingest.AssignmentBook.claim` normally
        prevent that, but a vote claimed just before its task finished
        still lands here late.
        """
        if self.offers is None:
            raise RuntimeError(
                "deliver_vote requires vote_source='external' "
                "(this campaign simulates votes)"
            )
        if vote not in (0, 1):
            raise ValueError(f"vote must be 0 or 1, got {vote!r}")
        runtime = self._active.get(task_id)
        if runtime is None or runtime.done:
            self.metrics.votes_cancelled += 1
            return False
        if worker_id not in runtime.pending_workers:
            raise NoOpenOffer(
                f"worker {worker_id!r} holds no open seat on task "
                f"{task_id!r}"
            )
        self._apply_vote(runtime, worker_id, int(vote), self._clock)
        if runtime.done:
            # Seats whose votes are no longer needed: close the offers
            # so late claims fail fast instead of queueing dead votes.
            self.offers.revoke_task(task_id)
        return True

    def _apply_vote(
        self, runtime: _TaskRuntime, worker_id: str, vote: int, at: float
    ) -> None:
        """Record one vote on a live task; when it was the last seat's
        or it clears the stop rule, the task completes at time ``at``."""
        task_id = runtime.task.task_id
        runtime.session.add_vote(self.registry.worker(worker_id), vote)
        self.registry.record_vote(worker_id, task_id, vote)
        self.metrics.votes_cast += 1
        runtime.pending_workers.remove(worker_id)

        if not runtime.pending_workers:
            runtime.done = True
            self._queue.push(TaskComplete(at, task_id, "all-votes"))
        elif runtime.session.should_stop:
            runtime.done = True
            self._queue.push(TaskComplete(at, task_id, "early-stop"))

    def _on_complete(self, event: TaskComplete) -> None:
        runtime = self._active.pop(event.task_id)
        assignment = runtime.assignment
        session = runtime.session
        assert self.scheduler is not None

        if event.reason == "unfunded":
            self.metrics.record_task(self._unfunded_record(runtime.task))
        else:
            answer = session.answer
            spent = session.cost
            # Release every seat (voted or not) and refund what the
            # early stop left unspent.
            for worker_id in assignment.jury.worker_ids:
                self.registry.release(worker_id, event.task_id)
            self.scheduler.allocator.refund(assignment.reserved_cost - spent)
            self.registry.resolve(event.task_id, answer)
            self.metrics.record_task(
                TaskRecord(
                    task_id=event.task_id,
                    answer=answer,
                    confidence=session.confidence,
                    predicted_jq=assignment.predicted_jq,
                    reserved_cost=assignment.reserved_cost,
                    spent_cost=spent,
                    votes_used=session.votes_used,
                    reason=event.reason,
                    correct=None
                    if runtime.task.ground_truth is None
                    else (answer == runtime.task.ground_truth),
                )
            )

        self.telemetry.mark("throughput")

        every = self.config.reestimate_every
        if every and self.metrics.completed % every == 0:
            with self.telemetry.span("reestimate"):
                self.registry.reestimate()
            self.telemetry.event(
                "re-estimation", passes=self.registry.reestimations
            )

        # Freed capacity may unblock deferred tasks.
        if self._deferred and self._queue.pending(TaskArrival) == 0:
            self._flush_batch()

        # Scheduled checkpointing piggybacks on the same completion
        # hook as re-estimation; snapshotting is read-only, so a run
        # that checkpoints is byte-identical to one that does not.
        ckpt_every = self.config.checkpoint_every
        if (
            ckpt_every
            and self.checkpoint_hook is not None
            and self.metrics.completed % ckpt_every == 0
        ):
            self.checkpoint_hook()

    @staticmethod
    def _unfunded_record(task: EngineTask) -> TaskRecord:
        """A task served no jury answers its prior's mode; both the
        confidence and the 'predicted' accuracy are the prior mass."""
        answer = 0 if task.prior >= 0.5 else 1
        confidence = max(task.prior, 1.0 - task.prior)
        return TaskRecord(
            task_id=task.task_id,
            answer=answer,
            confidence=confidence,
            predicted_jq=confidence,
            reserved_cost=0.0,
            spent_cost=0.0,
            votes_used=0,
            reason="unfunded",
            correct=None
            if task.ground_truth is None
            else (answer == task.ground_truth),
        )
