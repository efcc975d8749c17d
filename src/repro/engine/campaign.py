"""The `Campaign` facade: an explicit, resumable serving lifecycle.

The bare :class:`~repro.engine.engine.CampaignEngine` is one-shot:
``submit()``, ``run()`` once, lose everything.  :class:`Campaign` wraps
it in a lifecycle::

    campaign = Campaign.open(pool, CampaignConfig(budget=150, seed=7),
                             backend=SQLiteBackend("campaign.db"))
    campaign.submit(EngineTask(f"t{i}") for i in range(1000))
    campaign.run(until=400)     # resumable stepping, not one-shot
    campaign.checkpoint()       # what changed since the last one -> backend
    campaign.close()

    # ... later, possibly in another process ...
    campaign = Campaign.resume(SQLiteBackend("campaign.db"))
    metrics = campaign.run()    # finishes the same campaign

A checkpoint captures *everything* replay identity needs — worker
registry (vote histories, drifted quality estimates, live seats),
answer matrix, the allocator ledger, shard membership, pending
events, in-flight decision sessions, RNG state, metrics, the JQ caches
and frontier memos — so a campaign checkpointed mid-run and resumed
produces a :meth:`~repro.engine.metrics.EngineMetrics.fingerprint`
byte-identical to an uninterrupted run (pinned by the invariant
harness, across backends and shard counts).  The state that only grows
(votes, task records, task ids, JQ-cache entries) is journaled: each
checkpoint hands the backend only what was added since the last one it
saved (see :mod:`repro.engine.backends`).  The telemetry hub's metric
state rides along; its trace rings cover one process and are not
saved.

Shard count is a config field (``CampaignConfig(num_shards=K)``), not a
class choice.

The engine owns its state: everything that steps it calls
:meth:`~repro.engine.engine.CampaignEngine.advance`, and a checkpoint
is its :meth:`~repro.engine.engine.CampaignEngine.state_dict` plus the
journal tails and the intake totals.  Every campaign has one intake
(:class:`~repro.engine.ingest.AsyncIngestLoop`); :meth:`Campaign.serve`
is the one concurrent loop, an ``asyncio`` coroutine the HTTP layer
shares its thread with.  While it runs, any other thread that submits,
steps, checkpoints or votes gets ``RuntimeError`` and changes nothing.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import itertools
import os
import time
from typing import Iterable

from ..core.worker import WorkerPool
from ..estimation import AnswerMatrix
from .backends import (
    SNAPSHOT_VERSION,
    BackendError,
    MemoryBackend,
    StateBackend,
)
from .config import CampaignConfig
from .engine import CampaignEngine
from .events import EngineTask
from .ingest import AsyncIngestLoop, IngestStats
from .leases import LeaseCoordinator
from .metrics import EngineMetrics
from .state import WorkerRegistry
from .cache import load_cache_file, save_cache_file

#: Environment toggle forcing the live telemetry hub — CI runs the
#: whole engine suite under it, so every lifecycle test doubles as a
#: decision-neutrality probe for telemetry.  Applied only at the facade
#: (a bare engine honors its explicit config), and only when the value
#: is non-empty.
FORCE_TELEMETRY_ENV = "REPRO_ENGINE_FORCE_TELEMETRY"


def _apply_env_overrides(config: CampaignConfig) -> CampaignConfig:
    if not os.environ.get(FORCE_TELEMETRY_ENV):
        return config
    # Any non-empty value forces the live hub on — telemetry only
    # observes, so forcing it must never change a decision (that is
    # exactly what the CI job running under this toggle verifies).
    return dataclasses.replace(config, telemetry="on")


_INTERNAL = object()

#: Journal marks of a backend that holds nothing of this campaign: the
#: next checkpoint writes every journal whole (base 0).
_NO_MARKS = {"votes": 0, "records": 0, "task_ids": 0, "caches": {}}


def _upgrade_v1(snapshot: dict) -> dict:
    """Lay a version-1 snapshot out as version 3, every journal whole.

    Version 1 kept the task records and task ids inside the campaign
    section, and the votes as ``[worker_id, task_id, label, wpos,
    tpos]`` rows: two view orders, which merge into one arrival order
    that replays to the same matrix.  (Its telemetry state also holds
    the event ring, which the hub ignores on load.)
    """
    section = dict(snapshot["campaign"])
    metrics = dict(section["metrics"])
    records = metrics.pop("records")
    section["metrics"] = metrics
    task_ids = section.pop("task_ids")
    votes = AnswerMatrix.from_vote_rows(snapshot["votes"]).arrival_rows()
    return _upgrade_v2({
        "version": 2,
        "campaign": section,
        "workers": snapshot["workers"],
        "ledger": snapshot["ledger"],
        "votes": {"base": 0, "rows": votes},
        "records": {"base": 0, "rows": records},
        "task_ids": {"base": 0, "rows": task_ids},
        "caches": {
            cache_id: {**state, "base": 0}
            for cache_id, state in snapshot["caches"].items()
        },
    })


def _upgrade_v2(snapshot: dict) -> dict:
    """Lay a version-2 snapshot out as version 3.

    Version 2 served a one-shard campaign through a single scheduler
    that paced its own budget (ledger ``"mode": "single"``) over a
    campaign-level JQ cache, id ``"campaign"``.  Version 3 serves every
    campaign as shards under the allocator: the single scheduler's
    pacing ledger becomes the allocator's (every grant was reserved, so
    nothing was re-absorbed), the scheduler itself shard 0 holding
    every worker, and its cache shard 0's.  A sharded campaign's
    ``"campaign"`` cache was never used, so it is dropped.
    """
    ledger = dict(snapshot["ledger"])
    mode = ledger.pop("mode")
    caches = dict(snapshot["caches"])
    campaign_cache = caches.pop("campaign")
    if mode == "single":
        state = ledger.pop("scheduler")
        ledger = {
            "allocator": {
                "entitled": state["entitled"],
                "entitled_tasks": state["entitled_tasks"],
                "reserved": state["reserved"],
                "refunded": state["refunded"],
                "granted": state["reserved"],
                "reabsorbed": 0.0,
                "rounds": state["stats"]["batches"],
            },
            "migrations": 0,
            "shard:0": {
                "shard_id": 0,
                "member_ids": [row["worker_id"] for row in snapshot["workers"]],
                "migrations_in": 0,
                "migrations_out": 0,
                "granted": state["reserved"],
                "scheduler": {
                    key: state[key]
                    for key in ("reserved", "stats", "frontier_memo")
                },
            },
        }
        caches["shard:0"] = campaign_cache
    return {
        **snapshot,
        "version": SNAPSHOT_VERSION,
        "ledger": ledger,
        "caches": caches,
    }


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
        self._backend: StateBackend = MemoryBackend()
        self._ingest: AsyncIngestLoop | None = None  # set by open/resume
        self._coordinator: LeaseCoordinator | None = None
        self._closed = False
        # What the backend holds of each journal, as of the last save
        # that returned (see _snapshot).
        self._marks = _NO_MARKS

    def _attach(self, engine: CampaignEngine) -> None:
        """Drive ``engine``: install the checkpoint hook, give the
        campaign its one intake, and join the shared seat-lease store
        when the config names one (``coordinate_path``): every seat the
        engine takes acquires a cross-process lease first, so N engines
        serving one worker pool cannot double-seat (see
        :mod:`repro.engine.leases`)."""
        config = engine.config
        self._engine = engine
        engine.checkpoint_hook = self.checkpoint
        self._ingest = AsyncIngestLoop(
            engine, max_pending=config.ingest_max_pending
        )
        if config.coordinate_path:
            self._coordinator = LeaseCoordinator(
                config.coordinate_path, ttl=config.lease_ttl
            )
            engine.registry.attach_lease_coordinator(self._coordinator)

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
        if backend is not None:
            campaign._backend = backend
        campaign._attach(
            CampaignEngine(
                pool,
                _apply_env_overrides(config),
                initial_quality=initial_quality,
            )
        )
        return campaign

    @classmethod
    def resume(cls, backend: StateBackend) -> "Campaign":
        """Rebuild a campaign from the backend's last checkpoint and
        keep serving it — same decisions, same metrics fingerprint, as
        if the run had never been interrupted."""
        snapshot = backend.load()
        version = snapshot.get("version")
        upgrade = {1: _upgrade_v1, 2: _upgrade_v2}.get(version)
        if upgrade is not None:
            snapshot = upgrade(snapshot)
        elif version != SNAPSHOT_VERSION:
            raise BackendError(
                f"checkpoint version {version!r} is not supported "
                f"(expected {SNAPSHOT_VERSION}, 2 or 1)"
            )
        section = snapshot["campaign"]
        config = CampaignConfig.from_dict(section["config"])
        campaign = cls(_token=_INTERNAL)
        campaign._backend = backend
        campaign._attach(
            CampaignEngine.from_state(snapshot, _apply_env_overrides(config))
        )
        # The backend holds exactly the journals just loaded — unless it
        # holds an older layout: then the first save rewrites them all.
        if upgrade is None:
            campaign._marks = campaign._journal_marks()
        intake_state = section.get("intake_stats")
        if intake_state:
            # The intake is rebuilt fresh; its counters are not — a
            # resumed campaign's intake totals keep accumulating instead
            # of silently resetting to zero.
            campaign._ingest.stats = IngestStats.from_state(intake_state)
        return campaign

    def close(self) -> None:
        """Release the backend, the intake, and the lease store
        (idempotent).  State already checkpointed stays checkpointed;
        un-checkpointed progress is lost — call :meth:`checkpoint`
        first to keep it."""
        if not self._closed:
            self._closed = True
            self._ingest.close_intake()
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
    ) -> int:
        """Enqueue task arrivals (see :meth:`CampaignEngine.submit`).
        Allowed any time before the campaign finishes — including
        between :meth:`run` calls and after a :meth:`resume`.  The tasks
        go straight into the event queue, on the caller's thread.  While
        :meth:`serve` runs, only its own thread may submit (a
        ``periodic`` job, or ``POST /tasks``), and a chunk that would
        push the arrivals not yet dispatched past
        ``ingest_max_pending`` is refused whole (see
        :meth:`AsyncIngestLoop.submit`)."""
        self._require_serving()
        return self._ingest.submit(tasks, start_time, spacing)

    def run(self, until: int | None = None) -> EngineMetrics:
        """Advance the campaign and return the live metrics.

        ``until=None`` drains the event queue (the campaign finishes);
        ``until=N`` pauses as soon as at least ``N`` tasks have
        completed, leaving juries in flight and every pending event
        queued — exactly what :meth:`checkpoint` then persists.
        Calling :meth:`run` again continues from the pause point.
        """
        self._require_owner()
        engine = self._engine
        ingest = self._ingest
        start = time.perf_counter()
        engine.advance(until)
        # External-vote campaigns may only finalize once no jury still
        # awaits votes and the caller has declared the task stream over
        # (close_intake()) — otherwise this run() is just a pump.
        finish = not (
            engine.queued_events
            or engine.awaiting_votes
            or (engine.offers is not None and not ingest.closed)
        )
        if finish:
            ingest.close_intake()
        return engine.end_pass(start, finish, ingest.stats.state_dict())

    def serve(
        self, stop=None, poll: float = 0.05, periodic=(), front_end=None
    ) -> EngineMetrics:
        """Serve-forever daemon mode: the campaign's one concurrent loop.

        Blocks the calling thread, idling indefinitely for live traffic
        — unlike :meth:`run`, which steps only what is queued.  Exits by
        finalizing once the intake is closed and everything quiesced,
        or by *pausing* (checkpoint and :meth:`resume` later) once
        ``stop`` — a ``threading.Event`` — is set.  Runs
        :meth:`AsyncIngestLoop.serve_async` (see it for ``poll`` and
        ``periodic``) on a fresh ``asyncio`` event loop.  ``front_end``,
        an async context manager, is entered on that loop before serving
        starts and exited once it ends: the HTTP layer
        (:class:`~repro.engine.server.CampaignServer`) answers requests
        there, between engine steps.

        Raises :class:`ValueError` when a fresh campaign has no
        ``expected_tasks`` and nothing was submitted yet: the budget
        pacing baseline is fixed when serving starts.
        """
        self._require_serving()
        engine = self._engine
        if (
            engine.scheduler is None
            and self.config.expected_tasks is None
            and not engine.queued_events
        ):
            # With no task in sight the baseline would be 1 task, and
            # the first round would be granted the whole budget.
            raise ValueError(
                "serve() needs CampaignConfig(expected_tasks=...) when no "
                "task was submitted before serving starts (budget pacing "
                "spreads the budget over the expected tasks)"
            )
        if self._coordinator is not None:
            # A coordinated engine must renew its seat leases well
            # inside the TTL or a live engine's seats get reclaimed as
            # if it had crashed.  A StaleEpochError out of renew() (this
            # owner re-registered elsewhere) propagates and stops
            # serving — fenced means fenced.
            coordinator = self._coordinator
            periodic = (*periodic, (coordinator.ttl / 3.0, coordinator.renew))

        async def serving():
            async with front_end or contextlib.nullcontext():
                return await self._ingest.serve_async(stop, poll, periodic)

        return asyncio.run(serving())

    def close_intake(self) -> None:
        """Stop accepting task submissions (idempotent).  The
        producer-side handshake for live serving: once the last
        producer joins, closing the intake lets an in-flight
        ``serve()`` finish instead of idling for more traffic.  For
        external-vote campaigns this is the explicit "no more tasks"
        declaration that allows :meth:`run` to finalize."""
        self._ingest.close_intake()

    @property
    def intake_closed(self) -> bool:
        """Whether :meth:`close_intake` ran."""
        return self._ingest.closed

    @property
    def serving(self) -> bool:
        """Whether :meth:`serve` runs right now."""
        return self._ingest.running

    def stop(self) -> None:
        """Pause a running :meth:`serve` from any thread or a signal
        handler (or the next one to start, if none runs yet)."""
        self._ingest.stop()

    def wake(self) -> None:
        """Wake an idle :meth:`serve` loop, from any thread: something
        it should act on was queued."""
        self._ingest.wake()

    def fold_intake(self) -> None:
        """Count every accepted task: step the engine until no arrival
        is left in the event queue, so ``metrics.submitted`` (and a
        checkpoint or metrics flush that follows) covers each task the
        intake acknowledged.  For a paused campaign between :meth:`serve`
        and :meth:`checkpoint`; the steps are the ones a longer serve
        would have taken, so a resume stays fingerprint-identical."""
        self._require_owner()
        engine = self._engine
        if engine.pending_arrivals:
            start = time.perf_counter()
            engine.advance(arrivals=True)
            engine.end_pass(start, finish=False)

    # ------------------------------------------------------------------
    # External-vote surface (vote_source="external")
    # ------------------------------------------------------------------
    @property
    def offers(self):
        """The open-offer book under ``vote_source="external"``
        (``None`` when votes are simulated)."""
        return self._engine.offers

    def _require_external(self) -> None:
        if self._engine.offers is None:
            raise RuntimeError(
                "this campaign simulates votes "
                "(CampaignConfig(vote_source='external') enables "
                "assignments()/vote())"
            )

    def assignments(self, worker_id: str) -> list[dict]:
        """The worker's open vote offers (external mode, in-process
        driving).  Pumps pending arrivals first so freshly submitted
        tasks are seated before the worker looks for work."""
        self._require_serving()
        self._require_external()
        self._engine.advance()
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
        engine = self._engine
        engine.advance()
        engine.offers.claim(task_id, worker_id)
        accepted = engine.deliver_vote(task_id, worker_id, vote)
        engine.advance()
        return accepted

    @property
    def intake_stats(self):
        """Live intake counters."""
        return self._ingest.stats

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
        """Persist the campaign state to the backend, superseding any
        earlier checkpoint: the fixed-size state whole, the journals
        from what the backend's last save left off.  Every accepted task
        is in the event queue already, so the snapshot holds it.  (Like
        :meth:`run`, this must be called from the serving thread.)"""
        self._require_owner()
        self._engine.telemetry.event(
            "checkpoint", completed=self._engine.metrics.completed
        )
        snapshot, marks = self._snapshot()
        self._backend.save(snapshot)
        # Only a save that returned moves the marks: after a failed one
        # the next checkpoint re-sends the same tails.
        self._marks = marks

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> CampaignConfig:
        return self._engine.config

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
        return self._engine.finished

    @property
    def engine(self) -> CampaignEngine:
        """The underlying engine core — an escape hatch for
        observability; drive the campaign through the facade."""
        return self._engine

    def render(self) -> str:
        return self.metrics.render(budget=self.config.budget)

    # ------------------------------------------------------------------
    # Warm-cache shipping
    # ------------------------------------------------------------------
    def _named_caches(self) -> dict:
        """Every JQ cache by its snapshot id: the shards' caches, none
        before the serving stack is built."""
        scheduler = self._engine.scheduler
        if scheduler is None:
            return {}
        return {
            f"shard:{shard.shard_id}": shard.cache
            for shard in scheduler.shards
        }

    def export_cache(self, path) -> int:
        """Write this campaign's warmed JQ-cache entries (union across
        shards) to a JSON file another campaign can import.  The caches
        exist once the campaign has started serving."""
        self._require_open()
        return save_cache_file(path, list(self._named_caches().values()))

    def import_cache(self, path) -> int:
        """Warm this campaign's JQ caches from an exported file.  Call
        after :meth:`submit` (importing forces the serving stack to
        build, which fixes the expected-task pacing baseline)."""
        self._require_owner()
        self._engine.advance(steps=0)
        return load_cache_file(path, list(self._named_caches().values()))

    # ------------------------------------------------------------------
    # Guards
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("campaign is closed")

    def _require_owner(self) -> None:
        """The owner guard of every entry point that steps or writes the
        campaign: open and, while :meth:`serve` runs, on its thread."""
        self._require_open()
        self._ingest.require_owner()

    def _require_serving(self) -> None:
        self._require_owner()
        if self.done:
            raise RuntimeError("campaign already finished")

    # ------------------------------------------------------------------
    # Snapshot assembly
    # ------------------------------------------------------------------
    def _snapshot(self) -> tuple[dict, dict]:
        """The snapshot to save — the engine's fixed-size sections whole
        plus the intake totals, journal tails from :attr:`_marks` on —
        and the marks saving it reaches.  Assembly is O(what changed)
        plus the fixed-size state."""
        engine = self._engine
        marks = self._marks
        state = engine.state_dict()
        snapshot = {
            "version": SNAPSHOT_VERSION,
            "campaign": {
                **state["campaign"],
                "intake_stats": self._ingest.stats.state_dict(),
            },
            "workers": state["workers"],
            "ledger": state["ledger"],
            "votes": {
                "base": marks["votes"],
                "rows": engine.registry.answers.arrival_rows(marks["votes"]),
            },
            "records": {
                "base": marks["records"],
                "rows": engine.metrics.record_rows(marks["records"]),
            },
            "task_ids": {
                "base": marks["task_ids"],
                "rows": list(
                    itertools.islice(engine.task_ids, marks["task_ids"], None)
                ),
            },
            "caches": {
                cache_id: cache.state_dict(
                    since=marks["caches"].get(cache_id)
                )
                for cache_id, cache in self._named_caches().items()
            },
        }
        return snapshot, self._journal_marks()

    def _journal_marks(self) -> dict:
        """Marks for a backend that holds every journal as it stands
        now."""
        engine = self._engine
        return {
            "votes": engine.registry.answers.num_arrivals,
            "records": len(engine.metrics.records),
            "task_ids": len(engine.task_ids),
            "caches": {
                cache_id: cache.journal_mark
                for cache_id, cache in self._named_caches().items()
            },
        }
