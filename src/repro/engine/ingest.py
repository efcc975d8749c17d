"""Async ingestion: a thread-safe intake queue feeding the event loop.

The classic engine is fed up front: every arrival is enqueued before
:meth:`~repro.engine.engine.CampaignEngine.run`, and nothing may touch
the event heap while the loop drains it.  A serving system cannot live
like that — live traffic arrives *while* batches are being seated.
This module splits arrival intake from scheduling:

* :class:`IntakeQueue` — a thread-safe, **bounded** staging queue.
  Producers call :meth:`~IntakeQueue.submit` from any thread; when the
  queue is full they block (backpressure) until the serving loop drains
  or the queue closes.  Tasks are stamped with their logical arrival
  time *at submission* (under the intake mutex), so the arrival order —
  and therefore the campaign's decisions — is fixed by who got into the
  queue first, not by when the loop happened to look.
* :class:`AsyncIngestLoop` — drives the engine's event loop off the
  intake queue with a **drain-before-step** discipline: every pending
  intake task is injected into the event heap before the next event is
  dispatched.  The discipline is what makes the async path
  deterministic given a delivery order — a campaign whose tasks are all
  submitted before :meth:`~AsyncIngestLoop.run` (or between paused
  runs) produces a metrics fingerprint **byte-identical to the
  synchronous path**, which the invariant harness pins.
* :class:`InterleavingSchedule` — a seeded schedule of drain cadences
  (events stepped between drains, items taken per drain).  Replayable
  concurrency: two runs with the same schedule seed and delivery order
  interleave arrivals with in-flight votes identically, so randomized
  interleaving stress tests can assert byte-identical fingerprints.

Batch *coalescing* falls out of the two layers: the intake mutex makes
bursts arrive as runs of consecutive items, the drain takes everything
pending at once (up to the schedule's cap), and the engine's own
``batch_size`` buffering turns the drained run into scheduling batches.
When the loop goes idle with the intake open it waits ``grace`` seconds
(the coalescing deadline) for stragglers before finishing, so a slow
trickle of producers is served in fuller batches instead of one jury
at a time.

Sharding lives in :class:`~repro.engine.sharding.ShardedScheduler`;
this module owns the producer-facing half.  The two compose: burst
traffic streams in through the intake while the loop admits each round
across K shards — ``benchmarks/bench_async_ingestion.py`` measures the
intake against the synchronous loop at equal shards.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

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


@dataclass
class IngestStats:
    """Running intake counters (read under no lock: observability only).

    ``per_producer`` keys on the submitting thread's name and carries
    ``submits`` / ``overflows`` / ``blocked_seconds`` per producer — the
    measurement half of per-producer fairness under backpressure: a
    producer whose ``blocked_seconds`` dwarfs its peers' is the one the
    bound is starving.
    """

    submitted: int = 0
    drained: int = 0
    drains: int = 0
    peak_pending: int = 0
    blocked_submits: int = 0  # staged tasks that had to wait out a full queue
    overflows: int = 0  # submits that gave up after a backpressure timeout
    quota_blocked: int = 0  # submits that waited on their *own* quota
    quota_overflows: int = 0  # quota waits that timed out
    per_producer: dict[str, dict] = field(default_factory=dict)

    def producer(self, name: str) -> dict:
        """The named producer's counter row (created on first use).
        Call under the intake mutex."""
        entry = self.per_producer.get(name)
        if entry is None:
            entry = self.per_producer[name] = {
                "submits": 0,
                "overflows": 0,
                "blocked_seconds": 0.0,
            }
        return entry

    # -- persistence (campaign checkpoints carry intake totals) --------
    def state_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "drained": self.drained,
            "drains": self.drains,
            "peak_pending": self.peak_pending,
            "blocked_submits": self.blocked_submits,
            "overflows": self.overflows,
            "quota_blocked": self.quota_blocked,
            "quota_overflows": self.quota_overflows,
            "per_producer": {
                name: dict(entry) for name, entry in self.per_producer.items()
            },
        }

    @classmethod
    def from_state(cls, state) -> "IngestStats":
        return cls(
            submitted=int(state.get("submitted", 0)),
            drained=int(state.get("drained", 0)),
            drains=int(state.get("drains", 0)),
            peak_pending=int(state.get("peak_pending", 0)),
            blocked_submits=int(state.get("blocked_submits", 0)),
            overflows=int(state.get("overflows", 0)),
            quota_blocked=int(state.get("quota_blocked", 0)),
            quota_overflows=int(state.get("quota_overflows", 0)),
            per_producer={
                name: dict(entry)
                for name, entry in state.get("per_producer", {}).items()
            },
        )


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
    producer_quota:
        Per-producer fairness bound as a fraction of ``max_pending``
        (0 disables).  One producer may occupy at most
        ``max(1, int(producer_quota * max_pending))`` staged slots; a
        producer over its share blocks until its *own* staged tasks
        drain, even while the queue as a whole has room — so one
        firehose producer cannot starve its peers out of the intake.
    """

    def __init__(
        self,
        max_pending: int = 10_000,
        seen_ids=(),
        telemetry=NULL_TELEMETRY,
        producer_quota: float = 0.0,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if not 0.0 <= producer_quota <= 1.0:
            raise ValueError("producer_quota must lie in [0, 1]")
        self.max_pending = max_pending
        self.producer_quota = producer_quota
        self._quota_cap = (
            max(1, int(producer_quota * max_pending))
            if producer_quota > 0
            else None
        )
        self.telemetry = telemetry
        self._mutex = threading.Lock()
        self._not_full = threading.Condition(self._mutex)
        self._not_empty = threading.Condition(self._mutex)
        self._items: deque[tuple[float, EngineTask, str]] = deque()
        self._staged_by_producer: dict[str, int] = {}
        self._seen: set[str] = set(seen_ids)
        self._closed = False
        self.stats = IngestStats()
        self.telemetry.add_collector(self._telemetry_gauges)

    def _telemetry_gauges(self):
        """Pull-based intake gauges (collector: read at export time
        only).  Producer names are caller-chosen thread names and land
        verbatim as label values — the exporter escapes them."""
        with self._mutex:
            pending = len(self._items)
            rows = [
                (name, dict(entry))
                for name, entry in self.stats.per_producer.items()
            ]
        yield "intake.depth", {}, float(pending)
        for name, entry in rows:
            labels = {"producer": name}
            yield "intake.producer_submits", labels, float(entry["submits"])
            yield (
                "intake.producer_overflows",
                labels,
                float(entry["overflows"]),
            )
            yield (
                "intake.producer_blocked_seconds",
                labels,
                float(entry["blocked_seconds"]),
            )

    # ------------------------------------------------------------------
    # Producer side (any thread)
    # ------------------------------------------------------------------
    def _over_quota(self, producer: str) -> bool:
        """Whether the producer has its full quota of slots staged
        (call under the intake mutex)."""
        return (
            self._quota_cap is not None
            and self._staged_by_producer.get(producer, 0) >= self._quota_cap
        )

    def _must_wait(self, producer: str) -> bool:
        return len(self._items) >= self.max_pending or self._over_quota(
            producer
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
        """
        count = 0
        producer = threading.current_thread().name
        for i, task in enumerate(tasks):
            if not isinstance(task, EngineTask):
                raise TypeError(
                    f"expected EngineTask, got {type(task).__name__}"
                )
            arrival = start_time + i * spacing
            with self._not_full:
                entry = self.stats.producer(producer)
                if self._must_wait(producer):
                    # Distinguish *why* at entry: a producer over its
                    # own quota while the queue has room is throttled
                    # for fairness, not by global backpressure.
                    if self._over_quota(producer) and (
                        len(self._items) < self.max_pending
                    ):
                        self.stats.quota_blocked += 1
                    else:
                        self.stats.blocked_submits += 1
                    blocked_at = time.monotonic()
                    deadline = (
                        None if timeout is None else blocked_at + timeout
                    )
                    try:
                        while self._must_wait(producer) and not self._closed:
                            remaining = (
                                None
                                if deadline is None
                                else deadline - time.monotonic()
                            )
                            if remaining is not None and remaining <= 0:
                                if self._over_quota(producer) and (
                                    len(self._items) < self.max_pending
                                ):
                                    self.stats.quota_overflows += 1
                                    entry["overflows"] += 1
                                    self.telemetry.inc(
                                        "intake.quota_overflows"
                                    )
                                    self.telemetry.event(
                                        "intake-quota-overflow",
                                        producer=producer,
                                        staged=self._staged_by_producer.get(
                                            producer, 0
                                        ),
                                    )
                                    raise IngestionOverflow(
                                        f"producer {producer!r} is over its "
                                        f"intake quota ({self._quota_cap} "
                                        f"staged) for {timeout:g}s"
                                    )
                                self.stats.overflows += 1
                                entry["overflows"] += 1
                                self.telemetry.inc("intake.overflows")
                                self.telemetry.event(
                                    "intake-overflow",
                                    producer=producer,
                                    pending=len(self._items),
                                )
                                raise IngestionOverflow(
                                    f"intake full ({self.max_pending} pending) "
                                    f"for {timeout:g}s"
                                )
                            self._not_full.wait(remaining)
                    finally:
                        entry["blocked_seconds"] += (
                            time.monotonic() - blocked_at
                        )
                if self._closed:
                    raise IngestionClosed(
                        "intake is closed; the campaign is no longer "
                        "accepting tasks"
                    )
                if task.task_id in self._seen:
                    raise ValueError(f"duplicate task id {task.task_id!r}")
                self._seen.add(task.task_id)
                self._items.append((arrival, task, producer))
                self._staged_by_producer[producer] = (
                    self._staged_by_producer.get(producer, 0) + 1
                )
                self.stats.submitted += 1
                entry["submits"] += 1
                self.stats.peak_pending = max(
                    self.stats.peak_pending, len(self._items)
                )
                self._not_empty.notify_all()
            self.telemetry.inc("intake.submitted")
            count += 1
        if count:
            self.telemetry.event(
                "intake-submit", producer=producer, staged=count
            )
        return count

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
    def drain(self, max_items: int | None = None) -> list[tuple[float, EngineTask]]:
        """Pop up to ``max_items`` staged ``(arrival_time, task)`` pairs
        (everything pending when ``None``), oldest first.  Never blocks."""
        # The drain is called once per loop step (usually empty), so the
        # timing probe only fires when telemetry is live.
        timed = self.telemetry.enabled
        t0 = time.monotonic() if timed else 0.0
        with self._not_full:
            take = len(self._items)
            if max_items is not None:
                take = min(take, max(int(max_items), 0))
            out = []
            for _ in range(take):
                arrival, task, producer = self._items.popleft()
                staged = self._staged_by_producer.get(producer, 0) - 1
                if staged > 0:
                    self._staged_by_producer[producer] = staged
                else:
                    self._staged_by_producer.pop(producer, None)
                out.append((arrival, task))
            if out:
                self.stats.drained += len(out)
                self.stats.drains += 1
                self._not_full.notify_all()
        if out and timed:
            self.telemetry.observe(
                "intake_drain_seconds", time.monotonic() - t0
            )
            self.telemetry.event("intake-drain", count=len(out))
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


class InterleavingSchedule:
    """Seeded drain cadence for replayable concurrent runs.

    Draws, from one seeded generator consumed in call order, how many
    events the loop dispatches between intake drains
    (:meth:`next_chunk`) and how many staged tasks each drain may take
    (:meth:`next_take`).  Fixing the seed fixes where arrivals land
    between in-flight vote events — the whole interleaving — so two
    runs over the same delivery order are byte-identical, while
    different seeds explore genuinely different schedules.  This is the
    deterministic mode the concurrency stress harness replays.
    """

    def __init__(self, seed: int, max_chunk: int = 8, max_take: int = 16) -> None:
        if max_chunk < 1:
            raise ValueError("max_chunk must be >= 1")
        if max_take < 1:
            raise ValueError("max_take must be >= 1")
        self._rng = np.random.default_rng(seed)
        self.max_chunk = max_chunk
        self.max_take = max_take

    def next_chunk(self) -> int:
        return int(self._rng.integers(1, self.max_chunk + 1))

    def next_take(self) -> int:
        return int(self._rng.integers(1, self.max_take + 1))


class AsyncIngestLoop:
    """Drives one engine's event loop off a live intake queue.

    The loop owns the engine's thread: events are dispatched, juries
    seated, and votes processed on the thread that calls :meth:`run`,
    exactly like the synchronous path — only *arrival intake* is
    concurrent.  The drain-before-step discipline (inject every staged
    arrival before dispatching the next event) plus submission-time
    stamping make the result deterministic in the delivery order alone.

    ``run(until=None)`` serves to quiescence: when the event queue and
    the intake are both empty it waits ``grace`` seconds for straggler
    producers, then finalizes the campaign and closes the intake.
    ``run(until=N)`` pauses after N completions with the intake still
    open — staged tasks are folded into the (checkpointable) event
    queue first, so a paused async campaign snapshots completely.
    """

    def __init__(
        self,
        engine,
        max_pending: int = 10_000,
        grace: float = 0.05,
        interleave: InterleavingSchedule | None = None,
        producer_quota: float = 0.0,
    ) -> None:
        if grace <= 0:
            raise ValueError(f"grace must be positive, got {grace!r}")
        self.engine = engine
        self.grace = grace
        self.interleave = interleave
        self.intake = IntakeQueue(
            max_pending,
            seen_ids=engine._task_ids,
            telemetry=engine.telemetry,
            producer_quota=producer_quota,
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
        """Thread-safe :meth:`CampaignEngine.submit` (see
        :meth:`IntakeQueue.submit` for blocking semantics)."""
        return self.intake.submit(tasks, start_time, spacing, timeout)

    def close_intake(self) -> None:
        self.intake.close()

    # ------------------------------------------------------------------
    # The serving loop
    # ------------------------------------------------------------------
    def quiesce_intake(self) -> int:
        """Fold every staged arrival into the engine's event queue (loop
        thread only — the event heap is not thread-safe).  Returns the
        number injected.  Called before checkpoints so a snapshot never
        loses tasks that were accepted but not yet scheduled."""
        return self.engine.ingest(self.intake.drain())

    def run(self, until: int | None = None) -> EngineMetrics:
        """Serve until quiescence (``until=None``) or pause after
        ``until`` completed tasks.  Not reentrant; producers may submit
        concurrently throughout."""
        if self._running:
            raise RuntimeError("AsyncIngestLoop.run is not reentrant")
        self._running = True
        engine = self.engine
        start = time.perf_counter()
        try:
            self.quiesce_intake()
            engine._start()
            chunk = 0
            paused = False
            while True:
                if until is not None and engine.metrics.completed >= until:
                    paused = True
                    break
                if self.interleave is None:
                    self.quiesce_intake()
                elif chunk <= 0:
                    engine.ingest(
                        self.intake.drain(self.interleave.next_take())
                    )
                    chunk = self.interleave.next_chunk()
                if engine._queue:
                    engine._step()
                    chunk -= 1
                    continue
                # Event queue drained: serve freshly staged traffic, or
                # give straggler producers one grace window.
                chunk = 0
                if self.intake.pending:
                    continue
                if engine.offers is not None and engine._active:
                    # External-vote campaign with votes outstanding:
                    # run() cannot conjure them (vote delivery is the
                    # caller's job), so pause rather than idle or
                    # finalize a half-voted campaign.  serve() is the
                    # blocking mode that waits for that traffic.
                    paused = True
                    break
                if not self.intake.closed and self.intake.wait_for_traffic(
                    self.grace
                ):
                    continue
                # Quiescence candidate: nothing queued, nothing staged,
                # and the grace window produced nothing (or the intake
                # was closed).  Close the intake *before* concluding —
                # a submit that raced the check above is now staged
                # behind a closed door, so fold it in and keep serving;
                # none can race the next pass.
                self.intake.close()
                self.quiesce_intake()
                if not engine._queue:
                    break
            if paused:
                # Paused at the target: juries in flight, the intake
                # stays open for more traffic.  Stage everything
                # accepted so far (a checkpoint must capture it) and
                # fold the live gauges in so a paused report is not all
                # zeros (the finish pass overwrites them, so resumed
                # fingerprints are untouched).
                self.quiesce_intake()
                engine._collect_stats()
            else:
                # Quiesced: every accepted task was served; finalize
                # exactly like the synchronous path.
                engine._finish()
        finally:
            self._running = False
            # Fold intake totals into the report on every exit (pause,
            # finish, or error) — render-only, excluded from the
            # fingerprint, so sync/async parity is untouched.
            engine.metrics.intake_stats = self.intake.stats.state_dict()
            engine.metrics.wall_seconds += time.perf_counter() - start
        return engine.metrics

    @property
    def running(self) -> bool:
        """Whether a serving loop (:meth:`run` or :meth:`serve`) owns
        the engine right now."""
        return self._running

    @property
    def idle(self) -> bool:
        """Whether a live :meth:`serve` loop is parked waiting for
        traffic (nothing staged, queued, or delivered on its last
        pass).  The quiescence half of an HTTP client's barrier:
        ``idle and staged == 0 and queued_events == 0`` means every
        previously accepted task has been seated."""
        return self._idle

    def serve(
        self,
        stop: threading.Event | None = None,
        poll: float = 0.05,
        drain_hook=None,
        tick=None,
        tick_interval: float | None = None,
    ) -> EngineMetrics:
        """Serve-forever daemon loop.

        Unlike :meth:`run` — which concludes after one quiet
        ``grace`` window — this loop idles indefinitely, waiting for
        traffic, until one of two exits:

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
        ``tick()`` runs at most every ``tick_interval`` seconds —
        periodic observability flushes.  ``poll`` bounds how long the
        idle loop sleeps between checks for side-channel traffic.
        """
        if self._running:
            raise RuntimeError("AsyncIngestLoop is already serving")
        if poll <= 0:
            raise ValueError("poll must be positive")
        # The idle sleeps must never outlast the tick cadence: ``tick``
        # carries the coordinator's lease renewals, so an idle serve
        # loop sleeping a full ``poll > tick_interval`` would let live
        # leases expire mid-serve and another engine steal the seats.
        effective_poll = (
            poll if not tick_interval else min(poll, tick_interval)
        )
        self._running = True
        engine = self.engine
        start = time.perf_counter()
        last_tick = time.monotonic()
        finished = False
        try:
            self.quiesce_intake()
            engine._start()
            while True:
                if stop is not None and stop.is_set():
                    break
                if (
                    tick is not None
                    and tick_interval
                    and time.monotonic() - last_tick >= tick_interval
                ):
                    last_tick = time.monotonic()
                    tick()
                progressed = self.quiesce_intake() > 0
                if drain_hook is not None and drain_hook():
                    progressed = True
                if progressed or engine._queue:
                    self._idle = False
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
                        time.sleep(effective_poll)
                        continue
                    finished = True
                    break
                self._idle = True
                self.intake.wait_for_traffic(effective_poll)
            if finished:
                engine._finish()
            else:
                # Stopped: fold accepted-but-unscheduled arrivals in so
                # the checkpoint that typically follows loses nothing.
                self.quiesce_intake()
                engine._collect_stats()
        finally:
            self._running = False
            self._idle = False
            engine.metrics.intake_stats = self.intake.stats.state_dict()
            engine.metrics.wall_seconds += time.perf_counter() - start
        return engine.metrics
