"""Unit tests for the async intake layer (`repro.engine.ingest`).

The concurrency *invariants* (budget/capacity/ledger laws under
interleaving, fingerprint pins against the sync path) live in
``test_invariants.py``; this file covers the intake queue's own
contract: stamping, ordering, bounded backpressure, close semantics,
duplicate detection across threads, and the seeded interleaving
schedule's replayability.
"""

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
    IntakeQueue,
    InterleavingSchedule,
)
from repro.engine.engine import CampaignEngine
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


def test_drain_max_items_takes_oldest_first():
    queue = IntakeQueue()
    queue.submit(tasks(5))
    first = queue.drain(2)
    assert [task.task_id for _, task in first] == ["t0", "t1"]
    assert queue.pending == 3
    assert [task.task_id for _, task in queue.drain()] == ["t2", "t3", "t4"]


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
    queue.drain(1)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert staged == [1]
    assert {task.task_id for _, task in queue.drain()} == {"t1", "t9"}


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
    with pytest.raises(ValueError):
        InterleavingSchedule(0, max_chunk=0)
    with pytest.raises(ValueError):
        IntakeQueue(producer_quota=1.5)
    with pytest.raises(ValueError):
        IntakeQueue(producer_quota=-0.1)


# ----------------------------------------------------------------------
# Per-producer intake quota
# ----------------------------------------------------------------------
def test_quota_caps_one_producer_without_starving_peers():
    # cap = max(1, int(0.25 * 8)) = 2 staged slots per producer.
    queue = IntakeQueue(max_pending=8, producer_quota=0.25)
    queue.submit(tasks(2, prefix="a"))
    with pytest.raises(IngestionOverflow, match="quota"):
        queue.submit([EngineTask("a9")], timeout=0.02)
    assert queue.stats.quota_blocked == 1
    assert queue.stats.quota_overflows == 1
    # The firehose producer being throttled leaves room for a peer.
    staged = []
    peer = threading.Thread(
        target=lambda: staged.append(queue.submit(tasks(2, prefix="b"))),
        name="peer-producer",
    )
    peer.start()
    peer.join(timeout=5.0)
    assert staged == [2]
    assert queue.pending == 4


def test_quota_frees_as_own_tasks_drain():
    queue = IntakeQueue(max_pending=8, producer_quota=0.25)
    queue.submit(tasks(2))
    released = []

    def producer():
        released.append(queue.submit([EngineTask("t9")], timeout=5.0))

    # Quota is keyed by the submitting thread's name: impersonate the
    # main thread so the helper counts against the same producer.
    thread = threading.Thread(
        target=producer, name=threading.current_thread().name
    )
    thread.start()
    time.sleep(0.02)
    assert not released  # still over quota
    queue.drain(1)  # the producer's own staged count drops below cap
    thread.join(timeout=5.0)
    assert released == [1]
    assert queue.stats.quota_overflows == 0


def test_quota_floor_is_one_slot():
    # A tiny quota never rounds to zero — every producer may always
    # stage at least one task.
    queue = IntakeQueue(max_pending=4, producer_quota=0.01)
    assert queue.submit(tasks(1)) == 1
    with pytest.raises(IngestionOverflow, match="quota"):
        queue.submit([EngineTask("t9")], timeout=0.02)


def test_quota_zero_disables_enforcement():
    queue = IntakeQueue(max_pending=4, producer_quota=0.0)
    assert queue.submit(tasks(4)) == 4  # one producer fills the queue


def test_quota_counters_survive_state_round_trip():
    queue = IntakeQueue(max_pending=4, producer_quota=0.25)
    queue.submit(tasks(1))
    with pytest.raises(IngestionOverflow):
        queue.submit([EngineTask("t9")], timeout=0.01)
    state = queue.stats.state_dict()
    restored = IngestStats.from_state(state)
    assert restored.quota_blocked == 1
    assert restored.quota_overflows == 1
    # Old checkpoints without the quota keys still load.
    legacy = {k: v for k, v in state.items() if not k.startswith("quota")}
    assert IngestStats.from_state(legacy).quota_overflows == 0


def test_campaign_config_threads_quota_to_the_loop():
    rng = np.random.default_rng(0)
    pool = generate_pool(SyntheticPoolConfig(num_workers=8), rng)
    with Campaign.open(
        pool,
        CampaignConfig(
            budget=5.0,
            ingestion="async",
            ingest_max_pending=8,
            ingest_producer_quota=0.25,
        ),
    ) as campaign:
        intake = campaign._ingest.intake
        assert intake.producer_quota == 0.25
        assert intake._quota_cap == 2
    with pytest.raises(ValueError, match="quota"):
        CampaignConfig(budget=5.0, ingest_producer_quota=1.5)
    with pytest.raises(ValueError):
        InterleavingSchedule(0, max_take=0)


def test_interleaving_schedule_replays_per_seed():
    a = InterleavingSchedule(7)
    b = InterleavingSchedule(7)
    draws_a = [(a.next_take(), a.next_chunk()) for _ in range(50)]
    draws_b = [(b.next_take(), b.next_chunk()) for _ in range(50)]
    assert draws_a == draws_b
    assert all(
        1 <= take <= a.max_take and 1 <= chunk <= a.max_chunk
        for take, chunk in draws_a
    )
    c = InterleavingSchedule(8)
    assert [(c.next_take(), c.next_chunk()) for _ in range(50)] != draws_a


# ----------------------------------------------------------------------
# AsyncIngestLoop / facade plumbing
# ----------------------------------------------------------------------
def _engine(num_tasks=20, seed=3):
    rng = np.random.default_rng(seed)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=12, quality_ceiling=0.95), rng
    )
    config = CampaignConfig(
        budget=0.3 * num_tasks,
        capacity=3,
        batch_size=10,
        confidence_target=0.95,
        expected_tasks=num_tasks,
        seed=seed,
    )
    return CampaignEngine(pool, config)


def test_loop_run_is_not_reentrant():
    loop = AsyncIngestLoop(_engine())
    loop._running = True
    with pytest.raises(RuntimeError, match="not reentrant"):
        loop.run()


def test_finished_loop_closes_its_intake():
    loop = AsyncIngestLoop(_engine())
    loop.submit(tasks(20))
    metrics = loop.run()
    assert metrics.completed == 20
    assert loop.intake.closed
    with pytest.raises(IngestionClosed):
        loop.submit(tasks(1, prefix="late"))


def test_paused_at_target_leaves_intake_open_even_when_queue_drains():
    """run(until=N) must pause with the intake open — even when the
    Nth completion happens to drain the event queue — so live
    producers can keep submitting across the pause."""
    loop = AsyncIngestLoop(_engine(num_tasks=25))
    loop.submit(tasks(20))
    metrics = loop.run(until=20)  # target lands exactly on exhaustion
    assert metrics.completed == 20
    assert not loop.engine._finished
    assert not loop.intake.closed
    loop.submit(tasks(5, prefix="late"))  # must still be accepted
    metrics = loop.run()
    assert metrics.completed == 25
    assert loop.engine._finished
    assert loop.intake.closed


def test_run_to_quiescence_serves_submits_that_race_the_exit():
    """A submit landing in the window between the final grace check and
    the intake close must still be served before run(until=None)
    finalizes — never left staged in a 'finished' campaign."""
    loop = AsyncIngestLoop(_engine(num_tasks=21), grace=0.01)
    loop.submit(tasks(20))
    real_wait = loop.intake.wait_for_traffic
    raced = []

    def racing_wait(timeout):
        # Simulate the adversarial interleaving: traffic arrives right
        # as the grace window concludes there is none.
        if not raced:
            raced.append(True)
            loop.submit(tasks(1, prefix="raced"))
            return False  # the stale answer the loop must survive
        return real_wait(timeout)

    loop.intake.wait_for_traffic = racing_wait
    metrics = loop.run()
    assert raced
    assert metrics.completed == 21  # the raced task was served
    assert loop.engine._finished
    assert loop.intake.pending == 0


def test_loop_grace_window_serves_straggler_producers():
    """A producer that appears while the loop idles inside its grace
    window is served in the same run."""
    loop = AsyncIngestLoop(_engine(num_tasks=30), grace=5.0)
    loop.submit(tasks(10))

    def straggler():
        time.sleep(0.05)
        loop.submit(tasks(20, prefix="late"))
        loop.close_intake()

    thread = threading.Thread(target=straggler)
    thread.start()
    metrics = loop.run()
    thread.join(timeout=5.0)
    assert metrics.completed == 30
    assert metrics.submitted == 30


def test_async_campaign_validates_config():
    with pytest.raises(ValueError, match="ingestion"):
        CampaignConfig(budget=1.0, ingestion="bogus")
    with pytest.raises(ValueError, match="ingest_max_pending"):
        CampaignConfig(budget=1.0, ingest_max_pending=0)


def test_async_facade_campaign_round_trip(tmp_path):
    """The facade surface (submit -> run -> report) works end to end
    with async ingestion over two shards, and duplicate submission is
    caught at the intake."""
    rng = np.random.default_rng(5)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=24, quality_ceiling=0.95), rng
    )
    campaign = Campaign.open(
        pool,
        CampaignConfig(
            budget=9.0,
            capacity=3,
            batch_size=10,
            confidence_target=0.95,
            seed=5,
            num_shards=2,
            ingestion="async",
        ),
    )
    campaign.submit(tasks(30))
    with pytest.raises(ValueError, match="duplicate"):
        campaign.submit([EngineTask("t0")])
    metrics = campaign.run()
    assert campaign.done
    assert metrics.completed == 30
    assert "Campaign engine report" in campaign.render()
    campaign.close()


# ----------------------------------------------------------------------
# Intake grace
# ----------------------------------------------------------------------
def test_grace_must_be_positive():
    for grace in (0.0, -1.0):
        with pytest.raises(ValueError, match="grace"):
            AsyncIngestLoop(_engine(), grace=grace)
