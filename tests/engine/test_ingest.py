"""Unit tests for the intake layer (`repro.engine.ingest`).

The concurrency *invariants* (budget/capacity/ledger laws while a
producer job streams tasks into a served campaign, served-vs-``run()``
fingerprint pins) live in ``test_invariants.py``; this file covers the
intake's own contract: stamping, validation, duplicate detection, the
serving loop's backpressure bound and thread rule, close semantics, and
how ``run()`` serves what is submitted while it steps.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.engine import (
    AsyncIngestLoop,
    Campaign,
    CampaignConfig,
    EngineTask,
    IngestionClosed,
    IngestionOverflow,
    IngestStats,
    TaskArrival,
)
from repro.simulation import SyntheticPoolConfig, generate_pool


def tasks(n, prefix="t"):
    return [EngineTask(f"{prefix}{i}") for i in range(n)]


def make_campaign(num_tasks=20, seed=3, **overrides):
    rng = np.random.default_rng(seed)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=12, quality_ceiling=0.95), rng
    )
    config = dict(
        budget=0.3 * num_tasks,
        capacity=3,
        batch_size=10,
        confidence_target=0.95,
        expected_tasks=num_tasks,
        seed=seed,
    )
    config.update(overrides)
    return Campaign.open(pool, CampaignConfig(**config))


def serve_with_job(campaign, job, **kwargs):
    """Serve on this thread with ``job`` due on every loop pass."""
    return campaign.serve(periodic=((1e-9, job),), **kwargs)


# ----------------------------------------------------------------------
# The one submit route
# ----------------------------------------------------------------------
def test_submit_stamps_arrival_times_in_order():
    campaign = make_campaign()
    assert campaign.submit(tasks(3), start_time=5.0, spacing=2.0) == 3
    queue = campaign.engine._queue
    arrivals = [queue.pop() for _ in range(len(queue))]
    assert [(e.time, e.task.task_id) for e in arrivals] == [
        (5.0, "t0"),
        (7.0, "t1"),
        (9.0, "t2"),
    ]
    assert campaign.intake_stats.submitted == 3


def test_rejects_non_tasks_and_duplicates():
    campaign = make_campaign()
    with pytest.raises(TypeError):
        campaign.submit(["not a task"])
    assert campaign.submit(tasks(2)) == 2
    with pytest.raises(ValueError, match="duplicate"):
        campaign.submit([EngineTask("t1")])
    with pytest.raises(ValueError, match="duplicate"):
        campaign.submit([EngineTask("u"), EngineTask("u")])
    assert campaign.intake_stats == IngestStats(submitted=2)


def test_a_repeated_id_is_refused_and_changes_nothing():
    campaign = make_campaign()
    assert campaign.submit(tasks(10)) == 10
    with pytest.raises(ValueError, match="duplicate"):
        campaign.submit([EngineTask("t3")])
    assert campaign.intake_stats.submitted == 10
    # The ids a checkpoint holds are taken in the resumed campaign too.
    campaign.checkpoint()
    resumed = Campaign.resume(campaign.backend)
    with pytest.raises(ValueError, match="duplicate"):
        resumed.submit([EngineTask("t3")])
    metrics = resumed.run()
    assert metrics.completed == metrics.submitted == 10


def test_a_refused_chunk_stages_none_of_it():
    """A chunk refused for its second task (a repeat inside the chunk,
    a stamp that overflows to inf, a non-task) queues none of it and
    takes none of its ids: the same ids go through on a retry."""
    campaign = make_campaign()
    queue = campaign.engine._queue
    for chunk, stamps in (
        ([EngineTask("a"), EngineTask("a")], {}),
        (
            [EngineTask("a"), EngineTask("b")],
            {"start_time": 1e308, "spacing": 1e308},
        ),
        ([EngineTask("a"), "not a task"], {}),
    ):
        with pytest.raises((TypeError, ValueError)):
            campaign.submit(chunk, **stamps)
        assert len(queue) == 0
        assert campaign.intake_stats.submitted == 0
    assert campaign.submit([EngineTask("a"), EngineTask("b")]) == 2


def test_one_submit_takes_a_generator_chunk_whole():
    """A chunk given as a generator is checked whole before any of it
    is queued: one that fails on its last task queues nothing."""
    campaign = make_campaign()
    queue = campaign.engine._queue

    def chunk(last):
        yield EngineTask("g0")
        yield EngineTask("g1")
        yield last

    with pytest.raises(TypeError):
        campaign.submit(chunk("not a task"))
    assert len(queue) == 0
    assert campaign.submit(chunk(EngineTask("g2"))) == 3
    assert queue.pending(TaskArrival) == 3
    assert campaign.run().completed == 3


def test_intake_validation():
    with pytest.raises(ValueError):
        AsyncIngestLoop(make_campaign().engine, max_pending=0)


def test_stored_staging_and_producer_counters_are_ignored():
    """Checkpoints written while the intake staged tasks, kept
    per-producer rows and quota counters still restore their totals."""
    stored = {
        "submitted": 9,
        "drained": 7,
        "drains": 3,
        "peak_pending": 4,
        "blocked_submits": 1,
        "overflows": 2,
        "quota_blocked": 1,
        "quota_overflows": 1,
        "per_producer": {"Thread-1": {"submits": 9}},
    }
    stats = IngestStats.from_state(stored)
    assert stats == IngestStats(submitted=9, overflows=2)
    assert stats.state_dict() == {"submitted": 9, "overflows": 2}


def test_stored_producer_rows_and_quota_counters_are_ignored():
    """A checkpoint that carries only the per-producer rows and quota
    counters (no staging counters) restores its totals, and a missing
    total reads as zero."""
    stored = {
        "submitted": 5,
        "quota_blocked": 2,
        "quota_overflows": 3,
        "per_producer": {"Thread-1": {"submits": 5, "overflows": 3}},
    }
    stats = IngestStats.from_state(stored)
    assert stats == IngestStats(submitted=5)
    assert stats.state_dict() == {"submitted": 5, "overflows": 0}


# ----------------------------------------------------------------------
# run(): the stepping loop
# ----------------------------------------------------------------------
def test_run_closes_the_intake_before_it_finishes():
    campaign = make_campaign()
    campaign.submit(tasks(20))
    metrics = campaign.run()
    assert metrics.completed == 20
    assert campaign.done
    assert campaign._ingest.closed
    with pytest.raises(IngestionClosed):
        campaign._ingest.submit(tasks(1, prefix="late"))


def test_run_serves_tasks_submitted_while_it_steps():
    """A task submitted from inside a step (on run()'s own thread) goes
    straight into the event queue and is served before the campaign
    finalizes, never left behind a finished campaign."""
    campaign = make_campaign(num_tasks=21)
    campaign.submit(tasks(20))
    engine = campaign.engine
    real_step = engine._step
    submitted = []

    def step():
        if not submitted:
            submitted.append(campaign.submit(tasks(1, "late")))
        real_step()

    engine._step = step
    metrics = campaign.run()
    assert submitted == [1]
    assert metrics.completed == 21
    assert campaign.done


def test_intake_bound_applies_only_while_serving():
    """``ingest_max_pending`` bounds what waits for the serving loop;
    a submit before run() is not refused, however large."""
    campaign = make_campaign(num_tasks=50, ingest_max_pending=8)
    assert campaign.submit(tasks(50)) == 50
    assert campaign.run().completed == 50


def test_submit_after_close_raises_closed_error():
    """Once the intake is closed a submit raises ``IngestionClosed``
    and takes nothing, before run() and on the serving loop's thread
    alike; what was queued before the close is still served."""
    campaign = make_campaign(num_tasks=10)
    campaign.submit(tasks(5))
    campaign.close_intake()
    with pytest.raises(IngestionClosed):
        campaign.submit(tasks(1, prefix="late"))
    assert campaign.run().completed == 5

    campaign = make_campaign(num_tasks=10)
    campaign.submit(tasks(5))
    errors = []

    def job():
        if errors:
            return
        campaign.close_intake()
        try:
            campaign.submit(tasks(1, prefix="late"))
        except IngestionClosed as exc:
            errors.append(exc)

    metrics = serve_with_job(campaign, job)
    assert len(errors) == 1
    assert campaign.intake_stats == IngestStats(submitted=5)
    assert metrics.completed == metrics.submitted == 5
    assert "late0" not in campaign.engine._task_ids


# ----------------------------------------------------------------------
# serve(): the loop's thread is the only way in
# ----------------------------------------------------------------------
def test_serving_submit_over_the_bound_is_refused_whole():
    """On the loop's thread a chunk that would push the arrivals not
    yet dispatched past ``ingest_max_pending`` is refused whole, counted
    once, and leaves the queue as it was; one that fits goes in."""
    campaign = make_campaign(num_tasks=12, ingest_max_pending=10)
    queue = campaign.engine._queue
    seen = []

    def job():
        if seen:
            return
        assert campaign.submit(tasks(8)) == 8
        before = len(queue)
        with pytest.raises(IngestionOverflow, match="8 of 10"):
            campaign.submit(tasks(3, prefix="over"))
        seen.append((before, len(queue), queue.pending(TaskArrival)))
        assert campaign.submit(tasks(2, prefix="fits")) == 2
        campaign.close_intake()

    metrics = serve_with_job(campaign, job)
    assert seen == [(8, 8, 8)]
    assert campaign.intake_stats == IngestStats(submitted=10, overflows=1)
    assert metrics.completed == metrics.submitted == 10
    assert "10 submitted, 1 chunks refused" in campaign.render()


def test_a_refused_chunk_fits_once_the_loop_dispatches_arrivals():
    """The bound counts arrivals not yet dispatched, so a chunk refused
    at the bound goes in whole, under the same ids, once the loop has
    stepped enough arrivals out of the queue."""
    campaign = make_campaign(num_tasks=11, ingest_max_pending=10)
    queue = campaign.engine._queue
    seen = []

    def job():
        if not seen:
            campaign.submit(tasks(8))
            with pytest.raises(IngestionOverflow):
                campaign.submit(tasks(3, prefix="retry"))
            seen.append("refused")
        elif len(seen) == 1 and queue.pending(TaskArrival) <= 7:
            seen.append(campaign.submit(tasks(3, prefix="retry")))
            campaign.close_intake()

    metrics = serve_with_job(campaign, job)
    assert seen == ["refused", 3]
    assert campaign.intake_stats == IngestStats(submitted=11, overflows=1)
    assert metrics.completed == metrics.submitted == 11


def test_a_duplicate_on_the_loop_thread_is_refused_not_counted():
    """On the serving loop's thread a repeated id is refused with
    ``ValueError`` like anywhere else: not counted as an overflow, and
    the rest of the campaign is served."""
    campaign = make_campaign(num_tasks=10)
    campaign.submit(tasks(10))
    errors = []

    def job():
        if errors:
            return
        try:
            campaign.submit([EngineTask("t3")])
        except ValueError as exc:
            errors.append(exc)
        campaign.close_intake()

    metrics = serve_with_job(campaign, job)
    assert len(errors) == 1 and "duplicate" in str(errors[0])
    assert campaign.intake_stats == IngestStats(submitted=10)
    assert metrics.completed == metrics.submitted == 10


def test_foreign_thread_submit_during_serve_raises_and_changes_nothing():
    """While serve() runs only its own thread may submit.  A submit from
    another thread raises ``RuntimeError`` and leaves the metrics, the
    event queue, the intake counters and the ``/metrics`` text as they
    were.  The loop thread waits in a job for the foreign submit, so
    nothing else moves while it is checked."""
    campaign = make_campaign(num_tasks=10, telemetry="on")
    campaign.submit(tasks(10))
    engine = campaign.engine
    errors, checked = [], []

    def state():
        metrics = engine.metrics
        return (
            metrics.fingerprint(),
            metrics.submitted,
            metrics.completed,
            len(engine._queue),
            engine._queue.pending(TaskArrival),
            dict(engine._task_ids),
            campaign.intake_stats.state_dict(),
            campaign.telemetry.render_prometheus(),
        )

    def foreign():
        try:
            campaign.submit(tasks(1, prefix="foreign"))
        except RuntimeError as exc:
            errors.append(exc)

    def job():
        if checked or engine.metrics.submitted < 5:
            return
        before = state()
        thread = threading.Thread(target=foreign)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        checked.append(before == state())
        campaign.close_intake()

    metrics = serve_with_job(campaign, job)
    assert checked == [True]
    assert len(errors) == 1 and "serve() owns the engine" in str(errors[0])
    assert metrics.completed == metrics.submitted == 10
    assert "foreign0" not in engine._task_ids
    # Once serve() returned, the caller's thread drives the campaign.
    assert campaign._ingest.running is False


@pytest.mark.parametrize(
    "call", ["run", "fold_intake", "checkpoint", "vote"]
)
def test_foreign_thread_driving_during_serve_raises_and_changes_nothing(
    call
):
    """While an external-vote serve() runs, only its own thread may step
    or write the campaign: ``run()``, ``fold_intake()``, ``checkpoint()``
    and ``vote()`` from another thread raise ``RuntimeError``
    and leave the metrics, the event queue, the task ids, the JQ
    caches, the backend and the ``/metrics`` text as they were.  The
    loop thread waits in a job for the foreign call, so nothing else
    moves while it is checked."""
    campaign = make_campaign(
        num_tasks=10, telemetry="on", vote_source="external"
    )
    campaign.submit(tasks(10))
    engine = campaign.engine
    calls = {
        "run": campaign.run,
        "fold_intake": campaign.fold_intake,
        "checkpoint": campaign.checkpoint,
        "vote": lambda: campaign.vote("t0", "w0", 1),
    }
    errors, checked = [], []
    stop = threading.Event()

    def state():
        metrics = engine.metrics
        return (
            metrics.fingerprint(),
            metrics.submitted,
            engine.queued_events,
            engine.pending_arrivals,
            list(engine.task_ids),
            [len(shard.cache) for shard in engine.scheduler.shards],
            campaign.backend.exists(),
            campaign.intake_stats.state_dict(),
            campaign.telemetry.render_prometheus(),
        )

    def foreign():
        try:
            calls[call]()
        except RuntimeError as exc:
            errors.append(exc)

    def job():
        if checked:
            return
        before = state()
        thread = threading.Thread(target=foreign)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        checked.append(before == state())
        stop.set()

    serve_with_job(campaign, job, stop=stop)
    assert checked == [True]
    assert len(errors) == 1 and "serve() owns the engine" in str(errors[0])
    assert not campaign.done
    # Once serve() returned, the caller's thread drives the campaign.
    calls[call]()


def test_a_loop_thread_job_may_vote_during_serve():
    """The owner guard refuses other threads only: a periodic job on the
    serve loop's own thread drives the external-vote surface
    (``assignments()`` and ``vote()``) as an in-process caller does, and
    the campaign finishes once every jury has its votes."""
    campaign = make_campaign(num_tasks=10, vote_source="external")
    campaign.submit(tasks(10))
    campaign.close_intake()
    workers = sorted(campaign.registry.worker_ids)

    def job():
        for worker_id in workers:
            for row in campaign.assignments(worker_id):
                campaign.vote(row["task_id"], worker_id, 1)

    metrics = serve_with_job(campaign, job)
    assert campaign.done
    assert metrics.completed == metrics.submitted == 10


def test_periodic_jobs_keep_their_own_cadence_through_a_long_poll():
    """Each ``(interval, fn)`` job runs once its own interval passed,
    and the idle sleep is clamped to the shortest one: a 5 s poll must
    not hold back a 20 ms job."""
    campaign = make_campaign(num_tasks=5)
    campaign.submit(tasks(5))
    runs = {"fast": 0, "slow": 0}

    def job(name):
        def run():
            runs[name] += 1

        return run

    with pytest.raises(ValueError, match="positive"):
        campaign.serve(periodic=((0.0, job("fast")),))
    stop = threading.Event()
    thread = threading.Thread(
        target=campaign.serve,
        kwargs={
            "stop": stop,
            "poll": 5.0,
            "periodic": ((0.02, job("fast")), (60.0, job("slow"))),
        },
        daemon=True,
    )
    thread.start()
    time.sleep(0.5)
    stop.set()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert runs["fast"] >= 3
    assert runs["slow"] == 0


def test_close_from_another_thread_ends_an_idle_serve():
    """Closing the intake is the one cross-thread call besides stop():
    it wakes the idle loop, which finishes the campaign."""
    campaign = make_campaign()
    campaign.submit(tasks(20))
    thread = threading.Thread(
        target=campaign.serve, kwargs={"poll": 5.0}, daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10
    while campaign.metrics.completed < 20 and time.monotonic() < deadline:
        time.sleep(0.005)
    campaign.close_intake()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert campaign.done
    assert campaign.metrics.completed == 20


def test_serve_is_not_reentrant():
    campaign = make_campaign()
    campaign._ingest._owner = threading.get_ident()
    with pytest.raises(RuntimeError, match="already serving"):
        asyncio.run(campaign._ingest.serve_async())


def test_async_campaign_validates_config():
    for retired in ("sync", "async"):
        assert "ingestion" not in CampaignConfig(
            budget=1.0, ingestion=retired
        ).to_dict()
    with pytest.raises(ValueError, match="ingestion"):
        CampaignConfig(budget=1.0, ingestion="bogus")
    with pytest.raises(ValueError, match="ingest_max_pending"):
        CampaignConfig(budget=1.0, ingest_max_pending=0)
