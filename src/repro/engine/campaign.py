"""The `Campaign` facade: an explicit, resumable serving lifecycle.

The bare :class:`~repro.engine.engine.CampaignEngine` is one-shot:
``submit()``, ``run()`` once, lose everything.  :class:`Campaign` wraps
it in a lifecycle::

    campaign = Campaign.open(pool, CampaignConfig(budget=150, seed=7),
                             backend=SQLiteBackend("campaign.db"))
    campaign.submit(EngineTask(f"t{i}") for i in range(1000))
    campaign.run(until=400)     # resumable stepping, not one-shot
    campaign.checkpoint()       # full state -> backend
    campaign.close()

    # ... later, possibly in another process ...
    campaign = Campaign.resume(SQLiteBackend("campaign.db"))
    metrics = campaign.run()    # finishes the same campaign

A checkpoint captures *everything* replay identity needs — worker
registry (vote histories, drifted quality estimates, live seats),
answer matrix, budget/allocator ledgers, shard membership, pending
events, in-flight decision sessions, RNG state, metrics, the JQ caches
and frontier memos — so a campaign checkpointed mid-run and resumed
produces a :meth:`~repro.engine.metrics.EngineMetrics.fingerprint`
byte-identical to an uninterrupted run (pinned by the invariant
harness, across backends and shard counts).

Shard count is a config field (``CampaignConfig(num_shards=K)``), not a
class choice.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Iterable

from ..core.jury import Jury
from ..core.worker import Worker, WorkerPool
from ..online import OnlineDecisionSession
from .backends import (
    SNAPSHOT_VERSION,
    BackendError,
    MemoryBackend,
    StateBackend,
)
from .config import CampaignConfig
from .engine import CampaignEngine, _TaskRuntime
from .events import EngineTask, EventQueue, TaskArrival
from .ingest import AsyncIngestLoop, IngestStats
from .metrics import EngineMetrics
from .procpool import LeaseCoordinator
from .scheduler import Assignment
from .sharding import ShardedScheduler
from .state import WorkerRegistry
from .cache import load_cache_file, save_cache_file

#: Environment toggles forcing the concurrent serving path — CI runs
#: the whole engine suite once with both set, so every lifecycle test
#: doubles as a deadlock/race probe for the async machinery.  Applied
#: only at the facade (a bare engine honors its explicit config), and
#: only when the value is non-empty.
FORCE_INGESTION_ENV = "REPRO_ENGINE_FORCE_INGESTION"
FORCE_PARALLEL_SHARDS_ENV = "REPRO_ENGINE_FORCE_PARALLEL_SHARDS"
FORCE_TELEMETRY_ENV = "REPRO_ENGINE_FORCE_TELEMETRY"
FORCE_DISPATCH_ENV = "REPRO_ENGINE_FORCE_DISPATCH"


def _apply_env_overrides(config: CampaignConfig) -> CampaignConfig:
    updates: dict = {}
    ingestion = os.environ.get(FORCE_INGESTION_ENV)
    if ingestion:
        updates["ingestion"] = ingestion
    parallel = os.environ.get(FORCE_PARALLEL_SHARDS_ENV)
    if parallel:
        updates["parallel_shards"] = int(parallel)
    dispatch = os.environ.get(FORCE_DISPATCH_ENV)
    if dispatch:
        # Re-runs the whole engine suite under process dispatch, which
        # is byte-identical to threaded dispatch by construction — the
        # CI ``procpool`` job is exactly this toggle over the suite.
        updates["dispatch"] = dispatch
    if os.environ.get(FORCE_TELEMETRY_ENV):
        # Any non-empty value forces the live hub on — telemetry only
        # observes, so forcing it must never change a decision (that is
        # exactly what the CI job running under this toggle verifies).
        updates["telemetry"] = "on"
    if not updates:
        return config
    return dataclasses.replace(config, **updates)


_INTERNAL = object()


class Campaign:
    """One campaign with an explicit open/run/checkpoint/close lifecycle.

    Construct via :meth:`open` (fresh) or :meth:`resume` (from a
    backend's checkpoint); the class is also a context manager
    (``with Campaign.open(...) as campaign:``), closing the backend on
    exit.
    """

    def __init__(self, *, _token=None) -> None:
        if _token is not _INTERNAL:
            raise TypeError(
                "use Campaign.open(pool, config, backend=...) or "
                "Campaign.resume(backend)"
            )
        self._engine: CampaignEngine | None = None
        self._config: CampaignConfig | None = None
        self._backend: StateBackend = MemoryBackend()
        self._ingest: AsyncIngestLoop | None = None
        self._coordinator: LeaseCoordinator | None = None
        self._closed = False
        # Sync campaigns have no intake queue; external-vote mode still
        # needs the "no more tasks are coming" handshake before run()
        # may finalize, so the facade tracks it directly.
        self._sync_intake_closed = False

    def _attach_ingest(self) -> None:
        """Build the async intake loop when the config asks for it
        (``ingestion="async"``); the sync path keeps ``None``."""
        if self._config.ingestion == "async":
            self._ingest = AsyncIngestLoop(
                self._engine,
                max_pending=self._config.ingest_max_pending,
                grace=self._config.ingest_grace,
                producer_quota=self._config.ingest_producer_quota,
            )

    def _attach_coordinator(self) -> None:
        """Join the shared seat-lease store when the config names one
        (``coordinate_path``): every seat this engine takes acquires a
        cross-process lease first, so N engines serving one worker pool
        cannot double-seat (see :mod:`repro.engine.procpool`)."""
        if self._config.coordinate_path:
            self._coordinator = LeaseCoordinator(
                self._config.coordinate_path, ttl=self._config.lease_ttl
            )
            self._engine.registry.attach_lease_coordinator(
                self._coordinator
            )

    @property
    def coordinator(self) -> LeaseCoordinator | None:
        """This engine's lease-store handle (``None`` when the campaign
        is not coordinated)."""
        return self._coordinator

    # ------------------------------------------------------------------
    # Lifecycle entry points
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        pool: WorkerPool,
        config: CampaignConfig,
        backend: StateBackend | None = None,
        initial_quality: float | dict[str, float] | None = None,
    ) -> "Campaign":
        """Start a fresh campaign over ``pool`` under ``config``.

        ``backend`` receives :meth:`checkpoint` snapshots;
        :class:`~repro.engine.backends.MemoryBackend` (in-process only)
        when omitted.
        """
        campaign = cls(_token=_INTERNAL)
        config = _apply_env_overrides(config)
        campaign._config = config
        campaign._engine = CampaignEngine(
            pool, config, initial_quality=initial_quality
        )
        if backend is not None:
            campaign._backend = backend
        campaign._engine._checkpoint_hook = campaign.checkpoint
        campaign._attach_ingest()
        campaign._attach_coordinator()
        return campaign

    @classmethod
    def resume(cls, backend: StateBackend) -> "Campaign":
        """Rebuild a campaign from the backend's last checkpoint and
        keep serving it — same decisions, same metrics fingerprint, as
        if the run had never been interrupted."""
        snapshot = backend.load()
        version = snapshot.get("version")
        if version != SNAPSHOT_VERSION:
            raise BackendError(
                f"checkpoint version {version!r} is not supported "
                f"(expected {SNAPSHOT_VERSION})"
            )
        campaign = cls(_token=_INTERNAL)
        campaign._backend = backend
        campaign._restore(snapshot)
        return campaign

    def close(self) -> None:
        """Release the backend, the intake, and any dispatch pool
        (idempotent).  State already checkpointed stays checkpointed;
        un-checkpointed progress is lost — call :meth:`checkpoint`
        first to keep it."""
        if not self._closed:
            self._closed = True
            if self._ingest is not None:
                self._ingest.close_intake()
            if self._engine is not None and self._engine.scheduler is not None:
                self._engine.scheduler.close()
            if self._coordinator is not None:
                self._coordinator.close()
            self._backend.close()

    def __enter__(self) -> "Campaign":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(
        self,
        tasks: Iterable[EngineTask],
        start_time: float = 0.0,
        spacing: float = 1.0,
        timeout: float | None = None,
    ) -> int:
        """Enqueue task arrivals (see :meth:`CampaignEngine.submit`).
        Allowed any time before the campaign finishes — including
        between :meth:`run` calls and after a :meth:`resume`.  Under
        ``ingestion="async"`` submission goes through the thread-safe
        intake queue (bounded backpressure), so producers on any thread
        may stream tasks in **while** :meth:`run` is serving;
        ``timeout`` bounds how long a producer waits out backpressure
        (async only — the sync path never blocks)."""
        self._require_serving()
        if self._ingest is not None:
            return self._ingest.submit(tasks, start_time, spacing, timeout)
        return self._engine.submit(tasks, start_time, spacing)

    def run(self, until: int | None = None) -> EngineMetrics:
        """Advance the campaign and return the live metrics.

        ``until=None`` drains the event queue (the campaign finishes);
        ``until=N`` pauses as soon as at least ``N`` tasks have
        completed, leaving juries in flight and every pending event
        queued — exactly what :meth:`checkpoint` then persists.
        Calling :meth:`run` again continues from the pause point.

        Under ``ingestion="async"`` the same contract is served through
        the intake loop: live submissions from other threads are folded
        in as they arrive, and ``until=None`` finishes once the queue
        and the intake have both quiesced (after an ``ingest_grace``
        straggler window).
        """
        self._require_open()
        engine = self._engine
        if self._ingest is not None:
            metrics = self._ingest.run(until)
            self._write_configured_trace()
            return metrics
        engine._start()
        start = time.perf_counter()
        while engine._queue and (
            until is None or engine.metrics.completed < until
        ):
            engine._step()
        # External-vote campaigns may only finalize once no jury still
        # awaits votes and the caller has declared the task stream over
        # (close_intake()) — otherwise this run() is just a pump.
        external_waiting = engine.offers is not None and (
            bool(engine._active) or not self._intake_closed
        )
        if not engine._queue and not external_waiting:
            engine._finish()
        else:
            # Paused mid-campaign: fold the live gauges (peak load,
            # cache stats, re-estimation passes) into the metrics so a
            # paused report is not all zeros.  The finish pass
            # overwrites them with final values, so resumed-run
            # fingerprints are untouched.
            engine._collect_stats()
        engine.metrics.wall_seconds += time.perf_counter() - start
        self._write_configured_trace()
        return engine.metrics

    def _write_configured_trace(self) -> None:
        """Honor ``config.trace_path`` after every run (cumulative: the
        hub keeps its ring buffers across pauses, so the last write
        carries the fullest trace)."""
        path = self._config.trace_path
        if path and self._engine.telemetry.enabled:
            self._engine.telemetry.write_trace(path)

    def serve(
        self,
        stop=None,
        poll: float = 0.05,
        drain_hook=None,
        tick=None,
        tick_interval: float | None = None,
    ) -> EngineMetrics:
        """Serve-forever daemon mode (requires ``ingestion="async"``).

        Blocks the calling thread, idling indefinitely for live traffic
        — unlike :meth:`run`, which concludes after one quiet
        ``ingest_grace`` window.  Exits by finalizing once the intake
        is closed and everything quiesced, or by *pausing* (checkpoint
        and :meth:`resume` later) once ``stop`` — a
        ``threading.Event`` — is set.  See
        :meth:`AsyncIngestLoop.serve` for the hook parameters; the
        HTTP layer (:class:`~repro.engine.server.CampaignServer`)
        drives vote delivery and admin commands through them.
        """
        self._require_serving()
        if self._ingest is None:
            raise RuntimeError(
                "serve() requires ingestion='async' "
                "(CampaignConfig(ingestion='async'))"
            )
        if self._coordinator is not None:
            # A coordinated engine must renew its seat leases well
            # inside the TTL or a live engine's seats get reclaimed as
            # if it had crashed.  Renewal rides the serve loop's tick
            # at ttl/3; the caller's own tick keeps its own cadence.
            # A StaleEpochError out of renew() (this owner re-registered
            # elsewhere) propagates and stops serving — fenced means
            # fenced.
            coordinator = self._coordinator
            renew_every = coordinator.ttl / 3.0
            caller_tick, caller_interval = tick, tick_interval
            last = {
                "renew": time.monotonic(),
                "tick": time.monotonic(),
            }

            def tick() -> None:
                now = time.monotonic()
                if now - last["renew"] >= renew_every:
                    last["renew"] = now
                    coordinator.renew()
                if (
                    caller_tick is not None
                    and caller_interval
                    and now - last["tick"] >= caller_interval
                ):
                    last["tick"] = now
                    caller_tick()

            tick_interval = (
                renew_every
                if not caller_interval
                else min(renew_every, caller_interval)
            )
        metrics = self._ingest.serve(
            stop=stop,
            poll=poll,
            drain_hook=drain_hook,
            tick=tick,
            tick_interval=tick_interval,
        )
        self._write_configured_trace()
        return metrics

    def close_intake(self) -> None:
        """Stop accepting task submissions (idempotent).  The
        producer-side handshake for live serving: once the last
        producer joins, closing the intake lets an in-flight ``run()``
        or ``serve()`` finish instead of idling for more traffic.  For
        sync external-vote campaigns this is the explicit "no more
        tasks" declaration that allows :meth:`run` to finalize."""
        self._sync_intake_closed = True
        if self._ingest is not None:
            self._ingest.close_intake()

    @property
    def _intake_closed(self) -> bool:
        if self._ingest is not None:
            return self._ingest.intake.closed
        return self._sync_intake_closed

    def fold_intake(self) -> None:
        """Count every accepted task: fold staged arrivals into the
        event queue, then step the engine until no arrival is left, so
        ``metrics.submitted`` (and a checkpoint or metrics flush that
        follows) covers each task the intake acknowledged.  For a paused
        campaign between :meth:`serve` and :meth:`checkpoint`; the steps
        are the ones a longer serve would have taken, so a resume stays
        fingerprint-identical."""
        self._require_open()
        engine = self._engine
        if self._ingest is not None:
            self._ingest.quiesce_intake()
        if not engine._queue.pending(TaskArrival):
            return
        engine._start()
        while engine._queue.pending(TaskArrival):
            engine._step()
        engine._collect_stats()

    # ------------------------------------------------------------------
    # External-vote surface (vote_source="external")
    # ------------------------------------------------------------------
    @property
    def offers(self):
        """The open-offer book under ``vote_source="external"``
        (``None`` when votes are simulated)."""
        return self._engine.offers

    def _pump(self) -> None:
        """Drive the engine to a quiescent point on the caller's thread
        (single-threaded external driving only — the serve loop owns
        the engine while it runs)."""
        engine = self._engine
        engine._start()
        if self._ingest is not None:
            self._ingest.quiesce_intake()
        while engine._queue:
            engine._step()

    def _require_external(self) -> None:
        if self._engine.offers is None:
            raise RuntimeError(
                "this campaign simulates votes "
                "(CampaignConfig(vote_source='external') enables "
                "assignments()/vote())"
            )
        if self._ingest is not None and self._ingest.running:
            raise RuntimeError(
                "serve() owns the engine; submit assignments/votes "
                "through the serving endpoint instead"
            )

    def assignments(self, worker_id: str) -> list[dict]:
        """The worker's open vote offers (external mode, in-process
        driving).  Pumps pending arrivals first so freshly submitted
        tasks are seated before the worker looks for work."""
        self._require_serving()
        self._require_external()
        self._pump()
        return self._engine.offers.for_worker(worker_id)

    def vote(self, task_id: str, worker_id: str, vote: int) -> bool:
        """Claim the worker's open offer on ``task_id`` and apply the
        vote (external mode, in-process driving).  Returns ``False``
        when the vote landed after the task completed (counted as
        cancelled); raises
        :class:`~repro.engine.ingest.NoOpenOffer` when the seat is not
        open.  Mirrors, step for step, what one ``POST /votes`` does on
        the serving loop — the fingerprint-parity pin between the two
        transports rests on that equivalence."""
        self._require_serving()
        self._require_external()
        self._pump()
        self._engine.offers.claim(task_id, worker_id)
        accepted = self._engine.deliver_vote(task_id, worker_id, vote)
        self._pump()
        return accepted

    @property
    def intake_stats(self):
        """Live intake counters (async campaigns; ``None`` for sync)."""
        if self._ingest is None:
            return None
        return self._ingest.intake.stats

    @property
    def telemetry(self):
        """The engine's telemetry hub —
        :data:`~repro.engine.telemetry.NULL_TELEMETRY` when
        ``config.telemetry="off"``."""
        return self._engine.telemetry

    def snapshot_metrics(self) -> dict:
        """JSON-serialisable metrics snapshot: campaign aggregates plus
        the full telemetry export (counters, gauges, histograms, and the
        windowed intake/throughput rates)."""
        self._require_open()
        metrics = self._engine.metrics
        return {
            "completed": metrics.completed,
            "submitted": metrics.submitted,
            "early_stopped": metrics.early_stopped,
            "unfunded": metrics.unfunded,
            "votes_cast": metrics.votes_cast,
            "votes_cancelled": metrics.votes_cancelled,
            "total_spend": metrics.total_spend,
            "total_refunded": metrics.total_refunded,
            "throughput": metrics.throughput,
            "wall_seconds": metrics.wall_seconds,
            "intake": metrics.intake_stats,
            "telemetry": self._engine.telemetry.snapshot(),
        }

    def write_trace(self, path) -> int:
        """Write the campaign's Chrome trace-event JSON to ``path`` and
        return the event count (0 when telemetry is off).  The file
        loads directly in Perfetto (https://ui.perfetto.dev)."""
        self._require_open()
        return self._engine.telemetry.write_trace(str(path))

    def checkpoint(self) -> None:
        """Persist the full campaign state to the backend, replacing
        any earlier checkpoint.  Async campaigns fold staged intake
        into the event queue first, so no accepted task is ever lost to
        a checkpoint taken between drain and schedule.  (Like
        :meth:`run`, this must be called from the serving thread.)"""
        self._require_open()
        if self._ingest is not None:
            self._ingest.quiesce_intake()
        self._engine.telemetry.event(
            "checkpoint", completed=self._engine.metrics.completed
        )
        self._backend.save(self._snapshot())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> CampaignConfig:
        return self._config

    @property
    def backend(self) -> StateBackend:
        return self._backend

    @property
    def metrics(self) -> EngineMetrics:
        return self._engine.metrics

    @property
    def registry(self) -> WorkerRegistry:
        return self._engine.registry

    @property
    def done(self) -> bool:
        """True once the event queue has drained and finalization ran."""
        return self._engine._finished

    @property
    def engine(self) -> CampaignEngine:
        """The underlying engine core (single or sharded) — an escape
        hatch for observability; drive the campaign through the facade."""
        return self._engine

    def render(self) -> str:
        return self.metrics.render(budget=self._config.budget)

    # ------------------------------------------------------------------
    # Warm-cache shipping
    # ------------------------------------------------------------------
    def _caches(self):
        engine = self._engine
        if isinstance(engine.scheduler, ShardedScheduler):
            # Under process dispatch the worker-side caches are the
            # live ones; sync the parent replicas before reading.
            engine.scheduler.pull_worker_state()
            return [shard.cache for shard in engine.scheduler.shards]
        return [engine.cache]

    def export_cache(self, path) -> int:
        """Write this campaign's warmed JQ-cache entries (union across
        shards) to a JSON file another campaign can import."""
        self._require_open()
        return save_cache_file(path, self._caches())

    def import_cache(self, path) -> int:
        """Warm this campaign's JQ caches from an exported file.  Call
        after :meth:`submit` (importing forces the serving stack to
        build, which fixes the expected-task pacing baseline)."""
        self._require_open()
        if self._ingest is not None:
            # Staged arrivals must reach the event queue before the
            # stack builds, or the pacing baseline would see none of
            # them.
            self._ingest.quiesce_intake()
        self._engine._start()
        imported = load_cache_file(path, self._caches())
        scheduler = self._engine.scheduler
        if isinstance(scheduler, ShardedScheduler):
            # Warmed entries must reach the shard worker processes, or
            # process dispatch would serve from cold caches.
            scheduler.push_worker_state()
        return imported

    # ------------------------------------------------------------------
    # Guards
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("campaign is closed")

    def _require_serving(self) -> None:
        self._require_open()
        if self.done:
            raise RuntimeError("campaign already finished")

    # ------------------------------------------------------------------
    # Snapshot assembly
    # ------------------------------------------------------------------
    def _snapshot(self) -> dict:
        engine = self._engine
        runtime_states = [
            {
                "task": rt.task.state_dict(),
                "jury": [
                    [w.worker_id, w.quality, w.cost]
                    for w in rt.assignment.jury.workers
                ],
                "predicted_jq": rt.assignment.predicted_jq,
                "reserved_cost": rt.assignment.reserved_cost,
                "session": rt.session.state_dict(),
                "sim_truth": rt.sim_truth,
                "scored_truth": rt.scored_truth,
                "pending_workers": list(rt.pending_workers),
                "done": rt.done,
            }
            for rt in engine._active.values()
        ]
        campaign_section = {
            "config": self._config.to_dict(),
            "clock": engine._clock,
            "expected_tasks": engine._expected_tasks,
            "finished": engine._finished,
            "reestimations": engine.registry.reestimations,
            "task_ids": sorted(engine._task_ids),
            "batch": [t.state_dict() for t in engine._batch],
            "deferred": [t.state_dict() for t in engine._deferred],
            "active": runtime_states,
            "queue": engine._queue.state_dict(),
            "rng": engine._rng.bit_generator.state,
            "metrics": engine.metrics.state_dict(),
            # Observability state rides along (None when telemetry is
            # off / the intake is sync); restore is .get()-tolerant so
            # snapshots predating these keys still load.
            "telemetry": engine.telemetry.state_dict(),
            "intake_stats": (
                None
                if self._ingest is None
                else self._ingest.intake.stats.state_dict()
            ),
        }

        scheduler = engine.scheduler
        caches = {"campaign": engine.cache.state_dict()}
        if scheduler is None:
            ledger = {"mode": "unstarted"}
        elif isinstance(scheduler, ShardedScheduler):
            state = scheduler.state_dict()
            ledger = {
                "mode": "sharded",
                "allocator": state["allocator"],
                "migrations": state["migrations"],
            }
            for shard_state in state["shards"]:
                ledger[f"shard:{shard_state['shard_id']}"] = shard_state
            for shard in scheduler.shards:
                caches[f"shard:{shard.shard_id}"] = shard.cache.state_dict()
        else:
            ledger = {"mode": "single", "scheduler": scheduler.state_dict()}

        return {
            "version": SNAPSHOT_VERSION,
            "campaign": campaign_section,
            "workers": engine.registry.worker_rows(),
            "votes": engine.registry.answers.vote_rows(),
            "ledger": ledger,
            "caches": caches,
        }

    def _restore(self, snapshot: dict) -> None:
        section = snapshot["campaign"]
        config = _apply_env_overrides(
            CampaignConfig.from_dict(section["config"])
        )
        registry = WorkerRegistry.from_rows(
            snapshot["workers"],
            snapshot["votes"],
            section["reestimations"],
        )
        engine = CampaignEngine(registry.original_pool(), config)
        engine.registry = registry
        engine.cache.load_state(snapshot["caches"]["campaign"])
        engine._clock = float(section["clock"])
        expected = section["expected_tasks"]
        engine._expected_tasks = None if expected is None else int(expected)
        engine._finished = bool(section["finished"])
        engine._task_ids = set(section["task_ids"])
        engine._batch = [
            EngineTask.from_state(t) for t in section["batch"]
        ]
        engine._deferred = [
            EngineTask.from_state(t) for t in section["deferred"]
        ]
        engine._queue = EventQueue.from_state(section["queue"])
        engine._rng.bit_generator.state = section["rng"]
        engine.metrics = EngineMetrics.from_state(section["metrics"])
        engine._ran = True  # the facade owns the loop from here on
        engine._active = {}
        for rt_state in section["active"]:
            task = EngineTask.from_state(rt_state["task"])
            jury = Jury(
                Worker(wid, float(q), float(c))
                for wid, q, c in rt_state["jury"]
            )
            scored = rt_state["scored_truth"]
            runtime = _TaskRuntime(
                task=task,
                assignment=Assignment(
                    task,
                    jury,
                    float(rt_state["predicted_jq"]),
                    float(rt_state["reserved_cost"]),
                ),
                session=OnlineDecisionSession.from_state(
                    rt_state["session"]
                ),
                sim_truth=int(rt_state["sim_truth"]),
                scored_truth=None if scored is None else int(scored),
                pending_workers=list(rt_state["pending_workers"]),
                done=bool(rt_state["done"]),
            )
            engine._active[task.task_id] = runtime
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
        if ledger["mode"] != "unstarted":
            engine._start()  # honors the restored _expected_tasks
            if ledger["mode"] == "single":
                engine.scheduler.load_state(ledger["scheduler"])
            else:
                engine.scheduler.load_state(
                    {
                        "allocator": ledger["allocator"],
                        "migrations": ledger["migrations"],
                        "shards": [
                            ledger[f"shard:{k}"]
                            for k in range(config.num_shards)
                        ],
                    }
                )
                for shard in engine.scheduler.shards:
                    shard.cache.load_state(
                        snapshot["caches"][f"shard:{shard.shard_id}"]
                    )
                # load_state pushed scheduler state before the caches
                # above were restored; push again so the shard worker
                # processes hold the full checkpoint.
                engine.scheduler.push_worker_state()
        engine.telemetry.load_state(section.get("telemetry"))
        self._config = config
        self._engine = engine
        engine._checkpoint_hook = self.checkpoint
        self._attach_ingest()
        self._attach_coordinator()
        intake_state = section.get("intake_stats")
        if self._ingest is not None and intake_state:
            # The intake queue is rebuilt fresh; the counters are not —
            # a resumed campaign's intake totals keep accumulating
            # instead of silently resetting to zero.
            self._ingest.intake.stats = IngestStats.from_state(intake_state)
