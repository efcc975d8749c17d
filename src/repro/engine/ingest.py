"""The intake: a campaign's one way in, and its one concurrent loop.

The engine's event heap is single-threaded: one thread fires every
event in ``(time, seq)`` order, and one thread feeds it.

* :meth:`AsyncIngestLoop.submit` is the only way a task enters a
  campaign.  It validates the chunk whole and pushes it straight into
  the event queue, on the thread that drives the campaign.  While
  :meth:`~AsyncIngestLoop.serve_async` runs, that is the loop's own
  thread: the HTTP layer and ``periodic`` jobs submit there between
  engine steps, a submit from any other thread raises
  ``RuntimeError``, and a chunk that would push the arrivals not yet
  dispatched past ``max_pending`` is refused whole.
* :meth:`AsyncIngestLoop.serve_async` is the one concurrent loop, an
  ``asyncio`` coroutine that yields between engine steps, so the HTTP
  layer answers requests on the same thread.  ``Campaign.run`` is the
  stepping loop.
* :class:`AssignmentBook` — the open external-vote offers.

Nothing is staged between a submit and the event queue, so a chunk
joins the queue whole, before the next step: the campaign's decisions
depend on the order submits arrive in alone.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from dataclasses import dataclass, fields
from functools import partial

from ..core.exceptions import ReproError
from .events import EngineTask, TaskArrival
from .metrics import EngineMetrics


class IngestionError(ReproError, RuntimeError):
    """Base class for intake failures."""


class IngestionClosed(IngestionError):
    """A task was submitted to a closed intake."""


class IngestionOverflow(IngestionError):
    """Backpressure refused a chunk whole: while the loop serves, taking
    it would push the arrivals not yet dispatched past
    ``ingest_max_pending``."""


def check_chunk(stamped, known) -> list[tuple[float, EngineTask]]:
    """Validate a chunk of ``(arrival_time, task)`` pairs whole, before
    any of its ids is taken, so a refused chunk leaves nothing queued:
    every task an :class:`EngineTask`, every stamp finite (NaN or inf
    would break the event queue's ``(time, seq)`` order), and no id in
    ``known`` or twice in the chunk.  Returns the pairs as a list with
    float stamps; raises ``TypeError`` or ``ValueError`` otherwise."""
    out = []
    ids = set()
    for arrival_time, task in stamped:
        if not isinstance(task, EngineTask):
            raise TypeError(f"expected EngineTask, got {type(task).__name__}")
        arrival_time = float(arrival_time)
        if not math.isfinite(arrival_time):
            raise ValueError(
                f"arrival time must be finite, got {arrival_time!r}"
            )
        task_id = task.task_id
        if task_id in known or task_id in ids:
            raise ValueError(f"duplicate task id {task_id!r}")
        ids.add(task_id)
        out.append((arrival_time, task))
    return out


@dataclass
class IngestStats:
    """Running intake counters: tasks taken, and chunks refused whole
    by the serving loop's backpressure bound."""

    submitted: int = 0
    overflows: int = 0

    # -- persistence (campaign checkpoints carry intake totals) --------
    def state_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_state(cls, state) -> "IngestStats":
        """Rebuild stored counters; the staging counters, per-producer
        rows and quota counters older checkpoints carry are ignored."""
        return cls(**{f.name: int(state.get(f.name, 0)) for f in fields(cls)})


class NoOpenOffer(ReproError, LookupError):
    """A vote was claimed for a (task, worker) pair with no open offer —
    never seated, already voted, or revoked by an early stop."""


class AssignmentBook:
    """Registry of open external-vote offers (loop thread only).

    Under ``vote_source="external"`` the engine stops simulating votes:
    seating a jury *publishes* one offer per seated worker here, and the
    offer stays open until that worker's vote is claimed (exactly once)
    or the task completes first and revokes it.  Workers — HTTP clients,
    in-process drivers — discover their open seats with
    :meth:`for_worker` and spend them through
    :meth:`~repro.engine.engine.CampaignEngine.deliver_vote`.

    The book is observational bookkeeping on top of the engine's own
    per-task ``pending_workers`` state (and is rebuilt from it on
    resume); claims are what make vote delivery idempotent-safe under
    spammy clients — the second claim of the same seat raises
    :class:`NoOpenOffer` instead of double-voting.
    """

    def __init__(self) -> None:
        # worker id -> {task id -> offer row}; rows are plain dicts so
        # the HTTP layer can serialize them without translation.
        self._by_worker: dict[str, dict[str, dict]] = {}
        self.published = 0
        self.claimed = 0
        self.revoked = 0

    def publish(self, task_id: str, worker_ids, prior: float) -> None:
        for worker_id in worker_ids:
            self._by_worker.setdefault(worker_id, {})[task_id] = {
                "task_id": task_id,
                "worker_id": worker_id,
                "prior": prior,
            }
            self.published += 1

    def claim(self, task_id: str, worker_id: str) -> dict:
        """Close the (task, worker) offer and return its row; raises
        :class:`NoOpenOffer` when it is not open."""
        offers = self._by_worker.get(worker_id)
        row = None if offers is None else offers.pop(task_id, None)
        if row is None:
            raise NoOpenOffer(
                f"no open offer for worker {worker_id!r} on task "
                f"{task_id!r}"
            )
        if not offers:
            del self._by_worker[worker_id]
        self.claimed += 1
        return row

    def revoke_task(self, task_id: str) -> int:
        """Close every remaining offer for a completed task (early stop
        releases seats whose votes are no longer needed).  Returns the
        number revoked."""
        revoked = 0
        for worker_id in list(self._by_worker):
            offers = self._by_worker[worker_id]
            if offers.pop(task_id, None) is not None:
                revoked += 1
                if not offers:
                    del self._by_worker[worker_id]
        self.revoked += revoked
        return revoked

    def for_worker(self, worker_id: str) -> list[dict]:
        """The worker's open offers, oldest first (dicts are copies —
        safe to mutate/serialize)."""
        offers = self._by_worker.get(worker_id, {})
        return [dict(row) for row in offers.values()]

    def open_offers(self) -> list[dict]:
        """Every open offer, sorted by (task, worker) for deterministic
        iteration by seeded client fleets."""
        rows = [
            dict(row)
            for offers in self._by_worker.values()
            for row in offers.values()
        ]
        return sorted(rows, key=lambda r: (r["task_id"], r["worker_id"]))

    @property
    def open_count(self) -> int:
        return sum(len(offers) for offers in self._by_worker.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AssignmentBook({self.open_count} open, "
            f"{self.claimed} claimed, {self.revoked} revoked)"
        )


class AsyncIngestLoop:
    """A campaign's one intake and its one concurrent serving loop.

    :meth:`serve_async` owns the engine's thread while it runs: every
    submit, event, seated jury and vote happens on the thread that runs
    it.  Outside it, :meth:`submit` runs on the caller's thread, which
    drives the campaign.
    """

    def __init__(self, engine, max_pending: int = 10_000) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.engine = engine
        self.max_pending = max_pending
        self.stats = IngestStats()
        self.closed = False
        self._owner: int | None = None  # the serving thread's ident
        self._waker = None  # set while serving: wakes it from any thread
        self._stop_requested = False
        engine.telemetry.add_collector(self._telemetry_gauges)
        engine.telemetry.add_collector(self._telemetry_counters, "counter")

    def _telemetry_gauges(self):
        """The arrivals the backpressure bound counts (collector)."""
        yield "intake.depth", {}, float(
            self.engine._queue.pending(TaskArrival)
        )

    def _telemetry_counters(self):
        """The intake's own tallies as counters (collector)."""
        yield "intake.submitted", {}, self.stats.submitted
        yield "intake.overflows", {}, self.stats.overflows

    # ------------------------------------------------------------------
    # The way in
    # ------------------------------------------------------------------
    def submit(
        self, tasks, start_time: float = 0.0, spacing: float = 1.0
    ) -> int:
        """:meth:`CampaignEngine.submit` through the intake: the chunk is
        validated whole and pushed straight into the event queue, or
        refused whole.  Returns the number of tasks taken.

        Raises :class:`IngestionClosed` once the intake closed.  While
        :meth:`serve_async` runs, a submit from another thread raises
        ``RuntimeError``, and one that would push the arrivals not yet
        dispatched past :attr:`max_pending` raises
        :class:`IngestionOverflow`; either changes nothing.
        """
        owner = self._owner
        if owner is not None and owner != threading.get_ident():
            raise RuntimeError(
                "serve() owns the engine; submit on its thread (a periodic "
                "job) or through the serving endpoint instead"
            )
        if self.closed:
            raise IngestionClosed(
                "intake is closed; the campaign is no longer accepting tasks"
            )
        engine = self.engine
        if owner is not None:
            tasks = list(tasks)
            pending = engine._queue.pending(TaskArrival)
            if pending + len(tasks) > self.max_pending:
                self.stats.overflows += 1
                engine.telemetry.event("intake-overflow", pending=pending)
                raise IngestionOverflow(
                    f"intake cannot take {len(tasks)} tasks: {pending} of "
                    f"{self.max_pending} arrivals await dispatch"
                )
        taken = engine.submit(tasks, start_time, spacing)
        self.stats.submitted += taken
        engine.telemetry.event("intake-submit", tasks=taken)
        self.wake()
        return taken

    def close_intake(self) -> None:
        """Stop accepting tasks (idempotent; any thread)."""
        self.closed = True
        self.wake()

    # ------------------------------------------------------------------
    # The serving loop
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether :meth:`serve_async` owns the engine right now."""
        return self._owner is not None

    def wake(self) -> None:
        """Wake a parked :meth:`serve_async` loop (any thread, signal
        handlers too; a no-op while none runs).  Takes no lock."""
        waker = self._waker
        if waker is not None:
            try:
                waker()
            except RuntimeError:
                pass  # that serve() ended and closed its event loop

    def stop(self) -> None:
        """Pause the running :meth:`serve_async` from any thread, or the
        next one to start if none runs yet."""
        self._stop_requested = True
        self.wake()

    async def serve_async(
        self, stop: threading.Event | None = None, poll=0.05, periodic=()
    ) -> EngineMetrics:
        """Serve-forever daemon loop.

        Idles indefinitely, waiting for traffic, until one of two exits:

        - the intake is **closed** and everything has quiesced (no
          queued events, no tasks awaiting external votes): the campaign
          finalizes exactly like ``run()``;
        - ``stop`` is set, or :meth:`stop` is called: the loop
          **pauses** without finalizing — the graceful-shutdown path:
          checkpoint, exit, ``Campaign.resume`` later.

        The loop yields to the event loop after every engine step and
        while it idles, so coroutines sharing it (the HTTP layer) run
        between steps and never during one.  :meth:`submit`,
        :meth:`close_intake`, :meth:`wake` and :meth:`stop` wake an idle
        loop through ``call_soon_threadsafe``.  ``periodic`` is a
        sequence of ``(interval, fn)`` jobs: each ``fn()`` runs on the
        loop thread once ``interval`` seconds have passed since it last
        ran (lease renewal, observability flushes, in-process
        producers).  ``poll`` bounds how long the idle loop sleeps
        between checks of ``stop``.
        """
        if poll <= 0:
            raise ValueError("poll must be positive")
        jobs = [[interval, fn, time.monotonic()] for interval, fn in periodic]
        if any(job[0] <= 0 for job in jobs):
            raise ValueError("periodic intervals must be positive")
        if self._owner is not None:
            raise RuntimeError("AsyncIngestLoop is already serving")
        wake = asyncio.Event()
        self._owner = threading.get_ident()
        self._waker = partial(
            asyncio.get_running_loop().call_soon_threadsafe, wake.set
        )
        # The idle waits must never outlast the shortest interval: a
        # job may carry the coordinator's lease renewals, so an idle
        # loop sleeping a full ``poll`` past it would let live leases
        # expire mid-serve and another engine steal the seats.
        poll = min([poll, *(job[0] for job in jobs)])
        engine = self.engine
        start = time.perf_counter()
        finished = False
        try:
            engine._start()
            while not (
                self._stop_requested or (stop is not None and stop.is_set())
            ):
                if jobs:
                    now = time.monotonic()
                    for job in jobs:
                        if now - job[2] >= job[0]:
                            job[2] = now
                            job[1]()
                if engine._queue:
                    engine._step()
                    await asyncio.sleep(0)
                    continue
                # Finished once the intake is closed and no seated jury
                # owes votes.
                if self.closed and not (
                    engine.offers is not None and engine._active
                ):
                    finished = True
                    break
                # Idle: nothing queued.  A wake-up scheduled before this
                # clear runs after it, so none is lost.
                wake.clear()
                try:
                    await asyncio.wait_for(wake.wait(), poll)
                except asyncio.TimeoutError:
                    pass
            if finished:
                engine._finish()
            else:
                engine._collect_stats()
        finally:
            engine.metrics.intake_stats = self.stats.state_dict()
            engine.metrics.wall_seconds += time.perf_counter() - start
            self._owner = None
            self._waker = None
            self._stop_requested = False
        return engine.metrics
