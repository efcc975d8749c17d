"""The intake: a thread-safe queue feeding the one concurrent loop.

The engine's event heap is single-threaded: one thread fires every
event in ``(time, seq)`` order.  A serving system still has to accept
live traffic *while* batches are being seated, so this module splits
arrival intake from scheduling:

* :class:`IntakeQueue` — a thread-safe, **bounded** staging queue.
  Producers call :meth:`~IntakeQueue.submit` from any thread; when the
  queue is full they block (backpressure) until the serving loop drains
  or the queue closes.  Tasks are stamped with their logical arrival
  time *at submission* (under the intake mutex), so the arrival order —
  and therefore the campaign's decisions — is fixed by who got into the
  queue first, not by when the loop happened to look.
* :class:`AsyncIngestLoop` — every campaign's one intake and its one
  concurrent loop, :meth:`~AsyncIngestLoop.serve`, which injects every
  staged arrival into the event heap before it dispatches the next
  event (drain-before-step).  While no loop runs, submits skip the
  queue and go straight into the event heap on the caller's thread;
  ``Campaign.run`` is the stepping loop, and folds anything staged.
* :class:`AssignmentBook` — the open external-vote offers.

Batch *coalescing* falls out of the two layers: the intake mutex makes
bursts arrive as runs of consecutive items, the drain takes everything
pending at once, and the engine's own ``batch_size`` buffering turns
the drained run into scheduling batches.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, fields
from itertools import islice

from ..core.exceptions import ReproError
from .events import EngineTask
from .metrics import EngineMetrics
from .telemetry import NULL_TELEMETRY


class IngestionError(ReproError, RuntimeError):
    """Base class for intake failures."""


class IngestionClosed(IngestionError):
    """A task was submitted to an intake queue that has been closed."""


class IngestionOverflow(IngestionError):
    """Backpressure timed out: the intake stayed full for longer than
    the submitter was willing to wait."""


def check_chunk(stamped, known) -> list[tuple[float, EngineTask]]:
    """Validate a chunk of ``(arrival_time, task)`` pairs whole, before
    any of its ids is taken, so a refused chunk leaves nothing queued:
    every task an :class:`EngineTask`, every stamp finite (NaN or inf
    would break the event queue's ``(time, seq)`` order), and no id in
    ``known`` or twice in the chunk.  Returns the pairs as a list with
    float stamps; raises ``TypeError`` or ``ValueError`` otherwise.
    Both submit routes (the intake and the direct one) use it."""
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
    """Running intake counters (read under no lock: observability only).
    Counts the staged route; direct submits never enter the queue."""

    submitted: int = 0
    drained: int = 0
    drains: int = 0
    peak_pending: int = 0
    blocked_submits: int = 0  # staged tasks that had to wait out a full queue
    overflows: int = 0  # submits that gave up after a backpressure timeout

    # -- persistence (campaign checkpoints carry intake totals) --------
    def state_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_state(cls, state) -> "IngestStats":
        """Rebuild stored counters; the per-producer rows and quota
        counters older checkpoints carry are ignored."""
        return cls(**{f.name: int(state.get(f.name, 0)) for f in fields(cls)})


class IntakeQueue:
    """Thread-safe bounded staging queue for live task arrivals.

    Parameters
    ----------
    max_pending:
        Backpressure bound: :meth:`submit` blocks once this many tasks
        are staged and un-drained.  Producers outrunning the serving
        loop wait here instead of growing memory without bound.
    seen_ids:
        Task ids already known to the campaign (the resume path seeds
        this from the restored engine), so duplicate submission is
        caught at the intake mutex — before two threads could race the
        engine's own duplicate check.
    """

    def __init__(
        self,
        max_pending: int = 10_000,
        seen_ids=(),
        telemetry=NULL_TELEMETRY,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = max_pending
        self.telemetry = telemetry
        self._mutex = threading.Lock()
        self._not_full = threading.Condition(self._mutex)
        self._not_empty = threading.Condition(self._mutex)
        self._items: deque[tuple[float, EngineTask]] = deque()
        self._seen: set[str] = set(seen_ids)
        self._closed = False
        self.stats = IngestStats()
        self.telemetry.add_collector(self._telemetry_gauges)

    def _telemetry_gauges(self):
        """Pull-based intake gauge (collector: read at export time)."""
        yield "intake.depth", {}, float(self.pending)

    # ------------------------------------------------------------------
    # Producer side (any thread)
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise IngestionClosed(
                "intake is closed; the campaign is no longer accepting tasks"
            )

    def submit(
        self,
        tasks,
        start_time: float = 0.0,
        spacing: float = 1.0,
        timeout: float | None = None,
    ) -> int:
        """Stage task arrivals at evenly spaced logical times.

        Mirrors :meth:`CampaignEngine.submit` — same signature, same
        time stamping — but is safe from any thread and enforces the
        backpressure bound.  Blocks while the queue is full; raises
        :class:`IngestionOverflow` when ``timeout`` (seconds, per task)
        expires first, :class:`IngestionClosed` once the queue closed.
        Returns the number of tasks staged.

        A chunk that fails :func:`check_chunk` (a bad type, a
        non-finite stamp, a duplicate id) stages nothing.  A valid one
        stages under one hold of the intake mutex, so the loop drains
        all of it or none: the engine flushes a batch when the queue
        runs out of arrivals, and a chunk drained in two parts would
        seat different juries.  Only a full queue splits a chunk — the
        producer then waits for room, releasing the mutex.  If the
        wait overflows or the queue closes meanwhile, the tasks staged
        before it stay staged (the loop may already have taken them)
        and the rest are refused, their ids free for a retry.
        """
        staged = 0
        with self._not_full:
            stamped = check_chunk(
                ((start_time + i * spacing, task)
                 for i, task in enumerate(tasks)),
                self._seen,
            )
            # Taken up front: a producer waiting for room holds its ids.
            self._seen.update(task.task_id for _, task in stamped)
            try:
                for item in stamped:
                    if len(self._items) >= self.max_pending:
                        self._wait_for_room(timeout)
                    self._require_open()
                    self._items.append(item)
                    staged += 1
                    self.stats.submitted += 1
                    self.stats.peak_pending = max(
                        self.stats.peak_pending, len(self._items)
                    )
            except BaseException:
                self._seen.difference_update(
                    task.task_id for _, task in stamped[staged:]
                )
                raise
            finally:
                # Tasks staged before an error stay staged: wake the
                # loop for them too.
                if staged:
                    self._not_empty.notify_all()
                    self.telemetry.inc("intake.submitted", staged)
        if staged:
            self.telemetry.event("intake-submit", staged=staged)
        return staged

    def _wait_for_room(self, timeout: float | None) -> None:
        """Wait out a full queue (call under the intake mutex)."""
        self.stats.blocked_submits += 1
        # The loop may be parked waiting for traffic: wake it to drain
        # what this chunk staged so far.
        self._not_empty.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        while len(self._items) >= self.max_pending and not self._closed:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                self.stats.overflows += 1
                self.telemetry.inc("intake.overflows")
                self.telemetry.event(
                    "intake-overflow", pending=len(self._items)
                )
                raise IngestionOverflow(
                    f"intake full ({self.max_pending} pending) for {timeout:g}s"
                )
            self._not_full.wait(remaining)

    def close(self) -> None:
        """Stop accepting tasks (idempotent).  Producers blocked on
        backpressure are woken and raise :class:`IngestionClosed`."""
        with self._mutex:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    # ------------------------------------------------------------------
    # Consumer side (the serving loop's thread)
    # ------------------------------------------------------------------
    def drain(self) -> list[tuple[float, EngineTask]]:
        """Pop every staged ``(arrival_time, task)`` pair, oldest first.
        Never blocks."""
        # The drain is called once per loop step (usually empty), so the
        # timing probe only fires when telemetry is live.
        timed = self.telemetry.enabled
        t0 = time.monotonic() if timed else 0.0
        with self._not_full:
            out = self._take()
        if out and timed:
            self.telemetry.observe(
                "intake_drain_seconds", time.monotonic() - t0
            )
            self.telemetry.event("intake-drain", count=len(out))
        return out

    def _take(self) -> list[tuple[float, EngineTask]]:
        """Pop every staged pair (call under the intake mutex)."""
        out = list(self._items)
        self._items.clear()
        if out:
            self.stats.drained += len(out)
            self.stats.drains += 1
            self._not_full.notify_all()
        return out

    def wait_for_traffic(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds for something to drain;
        returns whether anything is pending.  Wakes early on close."""
        with self._not_empty:
            if not self._items and not self._closed:
                self._not_empty.wait(timeout)
            return bool(self._items)

    def kick(self) -> None:
        """Wake a consumer blocked in :meth:`wait_for_traffic` without
        staging anything — side channels (vote submission, admin
        commands) use this so the serving loop notices their traffic
        promptly instead of sleeping out the poll window."""
        with self._mutex:
            self._not_empty.notify_all()

    @property
    def pending(self) -> int:
        with self._mutex:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._mutex:
            return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IntakeQueue({len(self._items)}/{self.max_pending} pending"
            f"{', closed' if self._closed else ''})"
        )


class NoOpenOffer(ReproError, LookupError):
    """A vote was claimed for a (task, worker) pair with no open offer —
    never seated, already voted, or revoked by an early stop."""


class AssignmentBook:
    """Thread-safe registry of open external-vote offers.

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
    concurrent spammy clients — the second claim of the same seat
    raises :class:`NoOpenOffer` instead of double-voting.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        # worker id -> {task id -> offer row}; rows are plain dicts so
        # the HTTP layer can serialize them without translation.
        self._by_worker: dict[str, dict[str, dict]] = {}
        self.published = 0
        self.claimed = 0
        self.revoked = 0

    def publish(self, task_id: str, worker_ids, prior: float) -> None:
        with self._mutex:
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
        with self._mutex:
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
        with self._mutex:
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
        with self._mutex:
            offers = self._by_worker.get(worker_id, {})
            return [dict(row) for row in offers.values()]

    def open_offers(self) -> list[dict]:
        """Every open offer, sorted by (task, worker) for deterministic
        iteration by seeded client fleets."""
        with self._mutex:
            rows = [
                dict(row)
                for offers in self._by_worker.values()
                for row in offers.values()
            ]
        return sorted(rows, key=lambda r: (r["task_id"], r["worker_id"]))

    @property
    def open_count(self) -> int:
        with self._mutex:
            return sum(len(offers) for offers in self._by_worker.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AssignmentBook({self.open_count} open, "
            f"{self.claimed} claimed, {self.revoked} revoked)"
        )


class AsyncIngestLoop:
    """A campaign's one intake and its one concurrent serving loop.

    :meth:`serve` owns the engine's thread while it runs: events are
    dispatched, juries seated and votes processed on the thread that
    calls it — only *arrival intake* is concurrent.  The
    drain-before-step discipline (inject every staged arrival before
    dispatching the next event) plus submission-time stamping make the
    result deterministic in the delivery order alone.

    :meth:`submit` picks its route under the intake mutex, which
    :meth:`serve` also holds while it takes or gives back the engine:
    while the loop runs, tasks stage through the intake; otherwise they
    go straight into the event queue on the caller's thread, so a
    direct submit never overlaps the loop.
    """

    def __init__(self, engine, max_pending: int = 10_000) -> None:
        self.engine = engine
        self.intake = IntakeQueue(
            max_pending, seen_ids=engine._task_ids, telemetry=engine.telemetry
        )
        self._running = False
        self._idle = False

    # ------------------------------------------------------------------
    # Producer surface
    # ------------------------------------------------------------------
    def submit(
        self,
        tasks,
        start_time: float = 0.0,
        spacing: float = 1.0,
        timeout: float | None = None,
    ) -> int:
        """:meth:`CampaignEngine.submit` from any thread: staged through
        the intake (see :meth:`IntakeQueue.submit` for blocking) while
        :meth:`serve` runs, pushed into the event queue directly
        otherwise.  One seen-set catches duplicates across both routes:
        a direct submit records the ids the engine took in it."""
        intake = self.intake
        with intake._mutex:
            if not self._running:
                intake._require_open()
                engine = self.engine
                ids = engine._task_ids
                known = len(ids)
                try:
                    # Staged tasks were submitted first.  Folded in, they
                    # fall under the engine's own duplicate check.
                    engine.ingest(intake._take())
                    return engine.submit(tasks, start_time, spacing)
                finally:
                    # The ids taken are the newest in the engine's
                    # insertion-ordered index.
                    intake._seen.update(
                        islice(reversed(ids), len(ids) - known)
                    )
        return intake.submit(tasks, start_time, spacing, timeout)

    def close_intake(self) -> None:
        self.intake.close()

    # ------------------------------------------------------------------
    # The serving loop
    # ------------------------------------------------------------------
    def quiesce_intake(self) -> int:
        """Fold every staged arrival into the engine's event queue (the
        thread driving the engine only — the event heap is not
        thread-safe).  Returns the number injected.  Called before
        checkpoints so a snapshot never loses tasks that were accepted
        but not yet scheduled."""
        return self.engine.ingest(self.intake.drain())

    @property
    def running(self) -> bool:
        """Whether :meth:`serve` owns the engine right now."""
        return self._running

    @property
    def idle(self) -> bool:
        """Whether a live :meth:`serve` loop is parked waiting for
        traffic (nothing staged, queued, or delivered on its last
        pass).  The quiescence half of an HTTP client's barrier: read
        after the counters, ``staged == 0 and queued_events == 0 and
        idle`` means every previously accepted task has been seated —
        each pass clears the flag before it touches any work."""
        return self._idle

    def serve(
        self,
        stop: threading.Event | None = None,
        poll: float = 0.05,
        drain_hook=None,
        periodic=(),
    ) -> EngineMetrics:
        """Serve-forever daemon loop.

        Idles indefinitely, waiting for traffic, until one of two exits:

        - the intake is **closed** and everything has quiesced (no
          staged arrivals, no queued events, no tasks awaiting external
          votes): the campaign finalizes exactly like ``run()``;
        - ``stop`` is set: the loop folds staged arrivals into the
          (checkpointable) event queue and **pauses** without
          finalizing — the graceful-shutdown path: checkpoint, exit,
          ``Campaign.resume`` later.

        ``drain_hook()`` runs on the loop thread once per iteration —
        the serving layer applies externally delivered votes and admin
        commands through it (return truthy when anything was applied).
        ``periodic`` is a sequence of ``(interval, fn)`` jobs: each
        ``fn()`` runs on the loop thread once ``interval`` seconds have
        passed since it last ran (lease renewal, observability
        flushes).  ``poll`` bounds how long the idle loop sleeps
        between checks for side-channel traffic.
        """
        if poll <= 0:
            raise ValueError("poll must be positive")
        jobs = [[interval, fn, time.monotonic()] for interval, fn in periodic]
        if any(job[0] <= 0 for job in jobs):
            raise ValueError("periodic intervals must be positive")
        with self.intake._mutex:
            if self._running:
                raise RuntimeError("AsyncIngestLoop is already serving")
            self._running = True
        # The idle sleeps must never outlast the shortest interval: a
        # job may carry the coordinator's lease renewals, so an idle
        # loop sleeping a full ``poll`` past it would let live leases
        # expire mid-serve and another engine steal the seats.
        poll = min([poll, *(job[0] for job in jobs)])
        engine = self.engine
        start = time.perf_counter()
        finished = False
        try:
            self.quiesce_intake()
            engine._start()
            while True:
                # Not idle from here until this pass finds nothing to
                # do: a /status poll must not see the barrier while the
                # pass drains the intake or applies a mailbox command.
                self._idle = False
                if stop is not None and stop.is_set():
                    break
                if jobs:
                    now = time.monotonic()
                    for job in jobs:
                        if now - job[2] >= job[0]:
                            job[2] = now
                            job[1]()
                progressed = self.quiesce_intake() > 0
                if drain_hook is not None and drain_hook():
                    progressed = True
                if engine._queue:
                    engine._step()
                    continue
                if progressed:
                    continue
                # Idle: nothing queued, staged, or delivered this pass.
                if self.intake.closed:
                    if engine.offers is not None and engine._active:
                        # Votes still owed to seated juries: keep
                        # serving (the intake condition cannot wake on
                        # side-channel traffic once closed, so sleep
                        # out a poll window instead).
                        self._idle = True
                        time.sleep(poll)
                        continue
                    finished = True
                    break
                self._idle = True
                self.intake.wait_for_traffic(poll)
            if finished:
                engine._finish()
            else:
                # Stopped: fold accepted-but-unscheduled arrivals in so
                # the checkpoint that typically follows loses nothing.
                self.quiesce_intake()
                engine._collect_stats()
        finally:
            self._idle = False
            engine.metrics.intake_stats = self.intake.stats.state_dict()
            engine.metrics.wall_seconds += time.perf_counter() - start
            with self.intake._mutex:
                self._running = False
        return engine.metrics
