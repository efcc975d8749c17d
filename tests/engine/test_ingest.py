"""Unit tests for the intake layer (`repro.engine.ingest`).

The concurrency *invariants* (budget/capacity/ledger laws while
producers stream into a served campaign, served-vs-``run()`` fingerprint
pins) live in ``test_invariants.py``; this file covers the intake's own
contract: stamping, ordering, bounded backpressure, close semantics,
duplicate detection across threads and across the staged and direct
submit routes, and how ``run()`` folds what is staged.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.engine import (
    Campaign,
    CampaignConfig,
    EngineTask,
    IngestionClosed,
    IngestionOverflow,
    IngestStats,
    IntakeQueue,
)
from repro.simulation import SyntheticPoolConfig, generate_pool


def tasks(n, prefix="t"):
    return [EngineTask(f"{prefix}{i}") for i in range(n)]


# ----------------------------------------------------------------------
# IntakeQueue
# ----------------------------------------------------------------------
def test_submit_stamps_arrival_times_in_order():
    queue = IntakeQueue()
    assert queue.submit(tasks(3), start_time=5.0, spacing=2.0) == 3
    drained = queue.drain()
    assert [(t, task.task_id) for t, task in drained] == [
        (5.0, "t0"),
        (7.0, "t1"),
        (9.0, "t2"),
    ]
    assert queue.pending == 0
    assert queue.stats.submitted == 3
    assert queue.stats.drained == 3
    assert queue.stats.peak_pending == 3


def test_rejects_non_tasks_and_duplicates():
    queue = IntakeQueue()
    with pytest.raises(TypeError):
        queue.submit(["not a task"])
    queue.submit(tasks(2))
    with pytest.raises(ValueError, match="duplicate"):
        queue.submit([EngineTask("t1")])
    # Seeded ids (the resume path) are duplicates too.
    seeded = IntakeQueue(seen_ids={"old"})
    with pytest.raises(ValueError, match="duplicate"):
        seeded.submit([EngineTask("old")])


def test_backpressure_times_out_with_overflow():
    queue = IntakeQueue(max_pending=2)
    queue.submit(tasks(2))
    start = time.monotonic()
    with pytest.raises(IngestionOverflow):
        queue.submit([EngineTask("t9")], timeout=0.05)
    assert time.monotonic() - start >= 0.05
    assert queue.stats.blocked_submits == 1
    assert queue.pending == 2  # the overflowing task was never staged


def test_backpressure_unblocks_when_drained():
    queue = IntakeQueue(max_pending=2)
    queue.submit(tasks(2))
    staged = []

    def producer():
        staged.append(queue.submit([EngineTask("t9")], timeout=5.0))

    thread = threading.Thread(target=producer)
    thread.start()
    time.sleep(0.02)  # let the producer hit the full queue
    assert [task.task_id for _, task in queue.drain()] == ["t0", "t1"]
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert staged == [1]
    assert [task.task_id for _, task in queue.drain()] == ["t9"]


def test_close_wakes_blocked_producer_with_closed_error():
    queue = IntakeQueue(max_pending=1)
    queue.submit(tasks(1))
    errors = []

    def producer():
        try:
            queue.submit([EngineTask("t9")])
        except IngestionClosed as exc:
            errors.append(exc)

    thread = threading.Thread(target=producer)
    thread.start()
    time.sleep(0.02)
    queue.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert len(errors) == 1
    with pytest.raises(IngestionClosed):
        queue.submit([EngineTask("t10")])


def test_one_submit_stages_its_chunk_whole():
    """A drain racing a submit gets the whole chunk or none of it: the
    engine flushes a batch when the queue runs out of arrivals, so a
    chunk drained in two parts would seat different juries."""
    queue = IntakeQueue()
    drained, drainers = [], []

    def chunk():
        yield EngineTask("t0")
        # The loop looks while the rest of the chunk is still coming.
        drainer = threading.Thread(target=lambda: drained.append(queue.drain()))
        drainer.start()
        drainer.join(timeout=0.2)
        drainers.append(drainer)
        yield EngineTask("t1")

    assert queue.submit(chunk()) == 2
    drainers[0].join(timeout=5.0)
    assert not drainers[0].is_alive()
    assert [[task.task_id for _, task in got] for got in drained] == [
        ["t0", "t1"]
    ]


def test_wait_for_traffic():
    queue = IntakeQueue()
    start = time.monotonic()
    assert queue.wait_for_traffic(0.03) is False
    assert time.monotonic() - start >= 0.03
    queue.submit(tasks(1))
    assert queue.wait_for_traffic(0.03) is True
    queue.drain()
    queue.close()  # closed + empty: returns promptly, nothing pending
    assert queue.wait_for_traffic(5.0) is False


def test_concurrent_producers_stage_everything_exactly_once():
    queue = IntakeQueue(max_pending=64)
    per_thread = 50

    def producer(j):
        for i in range(per_thread):
            queue.submit([EngineTask(f"p{j}-{i}")], start_time=float(i))

    threads = [
        threading.Thread(target=producer, args=(j,)) for j in range(4)
    ]
    for thread in threads:
        thread.start()
    drained = []
    while len(drained) < 4 * per_thread:
        drained.extend(queue.drain())
        time.sleep(0.001)
    for thread in threads:
        thread.join(timeout=5.0)
    ids = [task.task_id for _, task in drained]
    assert len(ids) == len(set(ids)) == 4 * per_thread
    # Per-producer submission order survives interleaving.
    for j in range(4):
        mine = [i for i in ids if i.startswith(f"p{j}-")]
        assert mine == [f"p{j}-{i}" for i in range(per_thread)]


def test_intake_validation():
    with pytest.raises(ValueError):
        IntakeQueue(max_pending=0)


def test_stored_producer_rows_and_quota_counters_are_ignored():
    """Checkpoints written while the intake kept per-producer rows and
    quota counters still restore their totals."""
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
    assert stats == IngestStats(9, 7, 3, 4, 1, 2)
    assert "per_producer" not in stats.state_dict()


# ----------------------------------------------------------------------
# One intake per campaign: submit routes, run() folding
# ----------------------------------------------------------------------
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


def test_run_closes_the_intake_before_it_finishes():
    campaign = make_campaign()
    campaign.submit(tasks(20))
    metrics = campaign.run()
    assert metrics.completed == 20
    assert campaign.done
    assert campaign._ingest.intake.closed
    with pytest.raises(IngestionClosed):
        campaign._ingest.submit(tasks(1, prefix="late"))


def test_direct_and_staged_submits_share_one_duplicate_check():
    """A submit outside serve() goes straight into the event queue;
    one staged on the intake (what a POST /tasks does) waits for the
    next loop.  Either route refuses an id the other one took."""
    campaign = make_campaign()
    intake = campaign._ingest.intake
    assert campaign.submit(tasks(10)) == 10
    assert intake.pending == 0 and intake.stats.submitted == 0
    with pytest.raises(ValueError, match="duplicate"):
        intake.submit([EngineTask("t3")])
    assert intake.submit(tasks(10, prefix="s")) == 10
    with pytest.raises(ValueError, match="duplicate"):
        campaign.submit([EngineTask("s4")])
    metrics = campaign.run()
    assert metrics.completed == metrics.submitted == 20
    assert intake.pending == 0


@pytest.mark.parametrize("route", ["direct", "staged"])
def test_each_route_refuses_a_repeat_of_its_own_ids(route):
    """A repeated id is refused on the route that took it first, and
    the refused chunk leaves the campaign unchanged."""
    campaign = make_campaign()
    intake = campaign._ingest.intake
    submit = campaign.submit if route == "direct" else intake.submit
    assert submit(tasks(10)) == 10
    with pytest.raises(ValueError, match="duplicate"):
        submit([EngineTask("t3")])
    metrics = campaign.run()
    assert metrics.completed == metrics.submitted == 10


def test_a_refused_chunk_stages_none_of_it():
    """A chunk refused for its second task (a repeat inside the chunk,
    a stamp that overflows to inf, a non-task) stages none of it and
    takes none of its ids: the same ids go through on a retry."""
    queue = IntakeQueue()
    for chunk, stamps in (
        ([EngineTask("a"), EngineTask("a")], {}),
        (
            [EngineTask("a"), EngineTask("b")],
            {"start_time": 1e308, "spacing": 1e308},
        ),
        ([EngineTask("a"), "not a task"], {}),
    ):
        with pytest.raises((TypeError, ValueError)):
            queue.submit(chunk, **stamps)
        assert queue.pending == 0
        assert queue.stats.submitted == 0
    assert queue.submit([EngineTask("a"), EngineTask("b")]) == 2


def test_run_serves_tasks_staged_while_it_steps():
    """A task staged while run() steps (a handler thread's POST /tasks)
    is folded in before the campaign finalizes, never left behind a
    finished campaign."""
    campaign = make_campaign(num_tasks=21)
    campaign.submit(tasks(20))
    engine = campaign.engine
    real_step = engine._step
    staged = []

    def step():
        if not staged:
            staged.append(campaign._ingest.intake.submit(tasks(1, "late")))
        real_step()

    engine._step = step
    metrics = campaign.run()
    assert staged == [1]
    assert metrics.completed == 21
    assert campaign.done
    assert campaign._ingest.intake.pending == 0


def test_small_intake_bound_never_blocks_a_direct_submit():
    """``ingest_max_pending`` bounds what waits for the serving loop;
    a submit before run() never waits for a loop, so it never blocks."""
    campaign = make_campaign(num_tasks=50, ingest_max_pending=8)
    assert campaign.submit(tasks(50), timeout=0.05) == 50
    assert campaign.run().completed == 50


def test_submit_stages_only_while_serve_runs():
    campaign = make_campaign(num_tasks=20)
    intake = campaign._ingest.intake
    campaign.submit(tasks(10))
    assert intake.stats.submitted == 0
    thread = threading.Thread(target=campaign.serve, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while not campaign._ingest.running and time.monotonic() < deadline:
        time.sleep(0.001)
    campaign.submit(tasks(10, prefix="live"))
    assert intake.stats.submitted == 10
    campaign.close_intake()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert campaign.done
    assert campaign.metrics.completed == 20
    assert "10 submitted" in campaign.render()


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


def test_submit_routes_stay_sound_while_serve_starts_and_stops():
    """Producers submit through ``Campaign.submit`` while serve()
    starts and stops under them.  Each route choice is made under the
    intake mutex that serve() also takes, so every task is queued
    exactly once and the campaign serves all of them."""
    campaign = make_campaign(num_tasks=800)
    errors = []

    def recording(fn, *args):
        try:
            fn(*args)
        except Exception as exc:  # reported by the assert below
            errors.append(exc)

    def producer(j):
        for i in range(200):
            campaign.submit([EngineTask(f"p{j}-{i}")], start_time=float(i))
            time.sleep(0)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        producers = [
            threading.Thread(target=recording, args=(producer, j))
            for j in range(4)
        ]
        for thread in producers:
            thread.start()
        while any(thread.is_alive() for thread in producers):
            stop = threading.Event()
            loop = threading.Thread(
                target=recording,
                args=(lambda: campaign.serve(stop=stop),),
                daemon=True,
            )
            loop.start()
            time.sleep(0.002)
            stop.set()
            loop.join(timeout=10)
            assert not loop.is_alive()
        for thread in producers:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert not errors
    metrics = campaign.run()
    assert metrics.completed == metrics.submitted == 800
    assert len({record.task_id for record in metrics.records}) == 800
    # A push racing a step would lose an update to the queue's counts.
    assert not any(campaign.engine._queue._pending.values())


def test_serve_waits_for_a_direct_submit_in_flight():
    """A direct submit holds the intake mutex while it pushes into the
    event queue, so serve() cannot take the engine until it returns."""
    campaign = make_campaign()
    engine = campaign.engine
    real_ingest = engine.ingest
    entered, release = threading.Event(), threading.Event()

    def slow_ingest(stamped):
        entered.set()
        assert release.wait(10)
        return real_ingest(stamped)

    engine.ingest = slow_ingest
    producer = threading.Thread(target=campaign.submit, args=(tasks(20),))
    producer.start()
    assert entered.wait(10)
    engine.ingest = real_ingest
    loop = threading.Thread(target=campaign.serve, daemon=True)
    loop.start()
    try:
        time.sleep(0.05)
        assert not campaign._ingest.running
    finally:
        release.set()
    producer.join(timeout=10)
    assert not producer.is_alive()
    campaign.close_intake()
    loop.join(timeout=10)
    assert not loop.is_alive()
    assert campaign.metrics.completed == 20


def test_serve_is_not_reentrant():
    campaign = make_campaign()
    campaign._ingest._running = True
    with pytest.raises(RuntimeError, match="already serving"):
        campaign._ingest.serve()


def test_async_campaign_validates_config():
    for retired in ("sync", "async"):
        assert "ingestion" not in CampaignConfig(
            budget=1.0, ingestion=retired
        ).to_dict()
    with pytest.raises(ValueError, match="ingestion"):
        CampaignConfig(budget=1.0, ingestion="bogus")
    with pytest.raises(ValueError, match="ingest_max_pending"):
        CampaignConfig(budget=1.0, ingest_max_pending=0)
