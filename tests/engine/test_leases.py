"""Worker leases: N engines, one worker pool.

The coordination layer's contract, bottom-up:

* ``SQLiteBackend`` lease tables — atomic check-then-insert seat
  acquisition, TTL expiry reclaim, epoch fencing.  Two *processes*
  racing one remaining seat serialize on the database: exactly one
  wins (pinned with real ``multiprocessing``).
* ``LeaseCoordinator`` — the engine-side client: renewal, epoch
  fencing, release-on-close.
* ``WorkerRegistry`` integration — two engines sharing a coordination
  file never double-seat; a killed engine's seats return after one TTL
  and a second engine finishes the campaign with conservation intact.
* Crash-mid-checkpoint durability — a SIGKILL in the middle of a
  ``save()`` leaves the database integral and the previous checkpoint
  loadable; a SIGKILL before *each* write statement of an incremental
  save in turn resumes to the uninterrupted fingerprint with budget,
  seats and the allocator ledger conserved.
"""

import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    Campaign,
    CampaignConfig,
    CapacityError,
    EngineTask,
    LeaseCoordinator,
    SQLiteBackend,
    StaleEpochError,
)
from repro.engine.backends import SNAPSHOT_SECTIONS
from repro.engine.state import WorkerRegistry
from repro.simulation import SyntheticPoolConfig, generate_pool


def minimal_snapshot(**extra):
    snapshot = {"version": 1, **{s: {} for s in SNAPSHOT_SECTIONS}}
    snapshot.update(extra)
    return snapshot


def make_pool(num_workers=24, seed=1):
    rng = np.random.default_rng(seed)
    return generate_pool(
        SyntheticPoolConfig(num_workers=num_workers, quality_ceiling=0.95),
        rng,
    )


# ----------------------------------------------------------------------
# Backend lease primitives
# ----------------------------------------------------------------------
class TestLeaseTables:
    def test_acquire_counts_against_capacity(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        epoch = backend.register_engine("e1")
        assert backend.acquire_lease(
            "w1", "t1", owner="e1", epoch=epoch, ttl=30, capacity=2
        )
        assert backend.acquire_lease(
            "w1", "t2", owner="e1", epoch=epoch, ttl=30, capacity=2
        )
        # Third seat on a capacity-2 worker is denied...
        assert not backend.acquire_lease(
            "w1", "t3", owner="e1", epoch=epoch, ttl=30, capacity=2
        )
        # ...but another worker's seats are independent.
        assert backend.acquire_lease(
            "w2", "t3", owner="e1", epoch=epoch, ttl=30, capacity=2
        )
        assert backend.count_leases("w1") == 2
        backend.close()

    def test_duplicate_seat_is_denied(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        e1 = backend.register_engine("e1")
        e2 = backend.register_engine("e2")
        assert backend.acquire_lease(
            "w1", "t1", owner="e1", epoch=e1, ttl=30, capacity=4
        )
        # The same (worker, task) seat cannot be leased twice — not by
        # the holder, not by a peer: that's the double-seating bug the
        # layer exists to prevent.
        assert not backend.acquire_lease(
            "w1", "t1", owner="e1", epoch=e1, ttl=30, capacity=4
        )
        assert not backend.acquire_lease(
            "w1", "t1", owner="e2", epoch=e2, ttl=30, capacity=4
        )
        backend.close()

    def test_expiry_reclaims_seats(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        e1 = backend.register_engine("e1")
        e2 = backend.register_engine("e2")
        assert backend.acquire_lease(
            "w1", "t1", owner="e1", epoch=e1, ttl=0.05, capacity=1
        )
        assert not backend.acquire_lease(
            "w1", "t2", owner="e2", epoch=e2, ttl=30, capacity=1
        )
        time.sleep(0.08)
        # e1's lease expired: the seat is back in the pool.
        assert backend.acquire_lease(
            "w1", "t2", owner="e2", epoch=e2, ttl=30, capacity=1
        )
        rows = backend.list_leases()
        assert [(r[0], r[1], r[2]) for r in rows] == [("w1", "t2", "e2")]
        backend.close()

    def test_renew_extends_only_live_leases(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        epoch = backend.register_engine("e1")
        backend.acquire_lease(
            "w1", "t1", owner="e1", epoch=epoch, ttl=0.2, capacity=2
        )
        for _ in range(4):
            time.sleep(0.08)
            assert backend.renew_leases("e1", epoch=epoch, ttl=0.2) == 1
        # Renewed past several original TTLs, still alive.
        assert backend.count_leases("w1") == 1
        time.sleep(0.25)
        # Expired but not yet purged by any peer: a late-but-healthy
        # owner may still renew its own rows (the safety margin).
        assert backend.renew_leases("e1", epoch=epoch, ttl=0.2) == 1
        assert backend.count_leases("w1") == 1
        time.sleep(0.25)
        # A peer's purge reclaims the seat AND deposes the owner: from
        # here renewal is fenced, not a resurrection.
        assert backend.count_leases("w1") == 0
        with pytest.raises(StaleEpochError):
            backend.renew_leases("e1", epoch=epoch, ttl=0.2)
        backend.close()

    def test_stale_epoch_is_fenced(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        old = backend.register_engine("e1")
        new = backend.register_engine("e1")  # re-registration deposes
        assert new == old + 1
        with pytest.raises(StaleEpochError):
            backend.acquire_lease(
                "w1", "t1", owner="e1", epoch=old, ttl=30, capacity=4
            )
        with pytest.raises(StaleEpochError):
            backend.renew_leases("e1", epoch=old, ttl=30)
        # The new incarnation proceeds normally.
        assert backend.acquire_lease(
            "w1", "t1", owner="e1", epoch=new, ttl=30, capacity=4
        )
        backend.close()

    def test_release_owner_drops_everything(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        epoch = backend.register_engine("e1")
        for task in ("t1", "t2", "t3"):
            backend.acquire_lease(
                "w1", task, owner="e1", epoch=epoch, ttl=30, capacity=4
            )
        assert backend.release_owner("e1") == 3
        assert backend.count_leases("w1") == 0
        backend.close()

    def test_checkpoint_save_leaves_leases_untouched(self, tmp_path):
        # One file serving both as a checkpoint store and a lease store
        # must not lose leases to a snapshot (save replaces tables).
        backend = SQLiteBackend(tmp_path / "c.db")
        epoch = backend.register_engine("e1")
        backend.acquire_lease(
            "w1", "t1", owner="e1", epoch=epoch, ttl=30, capacity=4
        )
        backend.save(minimal_snapshot(campaign={"anything": "at all"}))
        assert backend.count_leases("w1") == 1
        assert backend.load()["campaign"]["anything"] == "at all"
        backend.close()


# ----------------------------------------------------------------------
# LeaseCoordinator
# ----------------------------------------------------------------------
class TestLeaseCoordinator:
    def test_two_coordinators_share_capacity(self, tmp_path):
        path = tmp_path / "coord.db"
        a = LeaseCoordinator(path, ttl=30, owner="a")
        b = LeaseCoordinator(path, ttl=30, owner="b")
        assert a.acquire("w1", "t1", capacity=2)
        assert b.acquire("w1", "t2", capacity=2)
        assert not a.acquire("w1", "t3", capacity=2)
        assert b.shared_load("w1") == 2
        a.release("w1", "t1")
        assert b.acquire("w1", "t3", capacity=2)
        a.close()
        b.close()

    def test_close_releases_held_seats(self, tmp_path):
        path = tmp_path / "coord.db"
        a = LeaseCoordinator(path, ttl=30, owner="a")
        b = LeaseCoordinator(path, ttl=30, owner="b")
        assert a.acquire("w1", "t1", capacity=1)
        a.close()
        assert b.acquire("w1", "t2", capacity=1)
        # close(release=False) simulates a crash: the seat stays taken
        # until the TTL passes.
        b.close(release=False)
        c = LeaseCoordinator(path, ttl=30, owner="c")
        assert not c.acquire("w1", "t3", capacity=1)
        c.close()

    def test_deposed_coordinator_raises_stale_epoch(self, tmp_path):
        path = tmp_path / "coord.db"
        first = LeaseCoordinator(path, ttl=30, owner="engine-1")
        assert first.acquire("w1", "t1", capacity=4)
        # Same owner id re-registers (e.g. the process restarted):
        # the first incarnation is deposed.
        second = LeaseCoordinator(path, ttl=30, owner="engine-1")
        with pytest.raises(StaleEpochError):
            first.renew()
        with pytest.raises(StaleEpochError):
            first.acquire("w1", "t2", capacity=4)
        assert second.acquire("w1", "t2", capacity=4)
        first.close(release=False)
        second.close()


# ----------------------------------------------------------------------
# Wall-clock skew: NTP steps degrade to fencing, never double-seating
# ----------------------------------------------------------------------
class TestClockSkew:
    def test_forward_step_deposes_instead_of_double_seating(self, tmp_path):
        """A peer whose clock stepped forward sees live leases as
        expired and reclaims the seats.  The victim engine may be
        perfectly healthy — the contract is that it gets *fenced*
        (StaleEpochError on its next write), so exactly one engine
        operates the seat at any time."""
        path = tmp_path / "c.db"
        now = {"t": 1000.0}
        a = SQLiteBackend(path, clock=lambda: now["t"])
        b = SQLiteBackend(path, clock=lambda: now["t"] + 100.0)
        ea = a.register_engine("a")
        eb = b.register_engine("b")
        assert a.acquire_lease(
            "w1", "t1", owner="a", epoch=ea, ttl=30, capacity=1
        )
        # b's skewed clock is past a's expiry: purge reclaims the seat
        # and deposes a in the same transaction.
        assert b.count_leases("w1") == 0
        assert b.acquire_lease(
            "w1", "t2", owner="b", epoch=eb, ttl=30, capacity=1
        )
        # a cannot renew or re-seat against its zombie epoch...
        with pytest.raises(StaleEpochError):
            a.renew_leases("a", epoch=ea, ttl=30)
        with pytest.raises(StaleEpochError):
            a.acquire_lease(
                "w2", "t1", owner="a", epoch=ea, ttl=30, capacity=1
            )
        # ...so exactly one live seat exists on w1.
        assert [r[2] for r in b.list_leases()] == ["b"]
        a.close()
        b.close()

    def test_backward_step_never_shortens_a_lease(self, tmp_path):
        """Renewal takes MAX(current expiry, now + ttl): a backward
        clock step cannot pull a live lease's expiry earlier (which
        would hand the seat to a peer while the owner still works)."""
        now = {"t": 1000.0}
        backend = SQLiteBackend(tmp_path / "c.db", clock=lambda: now["t"])
        epoch = backend.register_engine("e1")
        assert backend.acquire_lease(
            "w1", "t1", owner="e1", epoch=epoch, ttl=30, capacity=1
        )  # expires at 1030
        now["t"] = 900.0  # backward NTP step on the owner's host
        assert backend.renew_leases("e1", epoch=epoch, ttl=30) == 1
        (row,) = backend.list_leases()
        assert row[4] >= 1030.0  # not shortened to 930
        now["t"] = 1020.0
        assert backend.count_leases("w1") == 1  # still held
        backend.close()

    def test_zombie_shutdown_cannot_release_successor_seats(self, tmp_path):
        """Releases are epoch-scoped: a deposed incarnation shutting
        down gracefully must not delete seats its successor (same
        owner id) re-acquired under a newer epoch."""
        path = tmp_path / "coord.db"
        first = LeaseCoordinator(path, ttl=30, owner="engine-1")
        second = LeaseCoordinator(path, ttl=30, owner="engine-1")
        assert second.acquire("w1", "t1", capacity=1)
        first.close()  # zombie's graceful shutdown
        probe = LeaseCoordinator(path, ttl=30, owner="probe")
        assert not probe.acquire("w1", "t2", capacity=1)
        second.close()
        probe.close()


# ----------------------------------------------------------------------
# Serve-loop renewal cadence: long polls must not outlast the TTL
# ----------------------------------------------------------------------
def test_serve_with_long_poll_keeps_leases_renewed(tmp_path):
    """Regression: lease renewal rides the serve loop's tick, but the
    idle loop used to sleep the caller's full ``poll`` between ticks —
    a ``poll`` longer than ``ttl / 3`` silently let a live, idle
    engine's leases expire so a peer could steal its seats.  The loop
    now clamps its idle sleeps to the tick cadence."""
    coord_path = str(tmp_path / "coord.db")
    campaign = Campaign.open(
        make_pool(8, seed=3),
        CampaignConfig(
            budget=20.0,
            capacity=2,
            batch_size=4,
            confidence_target=0.95,
            seed=3,
            vote_source="external",
            coordinate_path=coord_path,
            lease_ttl=0.9,  # renew_every = 0.3s
        ),
    )
    campaign.submit([EngineTask(f"t{i}") for i in range(4)])
    observer = SQLiteBackend(coord_path)
    stop = threading.Event()
    thread = threading.Thread(
        target=campaign.serve,
        kwargs={"stop": stop, "poll": 5.0},  # >> ttl
        daemon=True,
    )
    thread.start()
    try:
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if observer.list_leases():
                break
            time.sleep(0.05)
        assert observer.list_leases(), "no juries were ever seated"
        # Idle out well past the TTL; renewals must keep the seats
        # live the whole time (before the fix the loop slept 5s
        # without a single renewal and the leases lapsed).
        time.sleep(1.5)
        assert observer.list_leases(), "leases expired mid-serve"
    finally:
        stop.set()
        thread.join(timeout=20)
        observer.close()
        campaign.close()
    assert not thread.is_alive()


# ----------------------------------------------------------------------
# Registry integration: engines cannot double-seat
# ----------------------------------------------------------------------
def make_registry(pool, capacity=1):
    return WorkerRegistry(pool, capacity=capacity)


class TestRegistryLeases:
    def test_second_engine_is_denied_the_taken_seat(self, tmp_path):
        pool = make_pool(4)
        path = tmp_path / "coord.db"
        a = LeaseCoordinator(path, ttl=30, owner="a")
        b = LeaseCoordinator(path, ttl=30, owner="b")
        reg_a = make_registry(pool, capacity=1)
        reg_b = make_registry(pool, capacity=1)
        reg_a.attach_lease_coordinator(a)
        reg_b.attach_lease_coordinator(b)
        worker_id = pool.workers[0].worker_id
        reg_a.assign(worker_id, "t1")
        with pytest.raises(CapacityError, match="shared capacity"):
            reg_b.assign(worker_id, "t2")
        # Releasing locally releases the shared lease too.
        reg_a.release(worker_id, "t1")
        reg_b.assign(worker_id, "t2")
        a.close()
        b.close()

    def test_local_failure_rolls_back_nothing_shared(self, tmp_path):
        pool = make_pool(4)
        a = LeaseCoordinator(tmp_path / "coord.db", ttl=30, owner="a")
        registry = make_registry(pool, capacity=1)
        registry.attach_lease_coordinator(a)
        worker_id = pool.workers[0].worker_id
        registry.assign(worker_id, "t1")
        # Locally full: denied before the lease layer is consulted.
        with pytest.raises(CapacityError):
            registry.assign(worker_id, "t2")
        assert a.shared_load(worker_id) == 1
        a.close()


# ----------------------------------------------------------------------
# Real multi-process races
# ----------------------------------------------------------------------
def _race_for_seat(path, owner, barrier, queue):
    backend = SQLiteBackend(path)
    epoch = backend.register_engine(owner)
    barrier.wait(timeout=10)
    won = backend.acquire_lease(
        "w1", f"task-{owner}", owner=owner, epoch=epoch, ttl=30, capacity=1
    )
    queue.put((owner, won))
    backend.close()


def test_two_processes_race_one_seat_exactly_one_wins(tmp_path):
    path = str(tmp_path / "race.db")
    # Create the schema before forking so both children race the seat,
    # not the CREATE TABLE.
    SQLiteBackend(path).close()
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=_race_for_seat, args=(path, owner, barrier, queue))
        for owner in ("p1", "p2")
    ]
    for p in procs:
        p.start()
    results = dict(queue.get(timeout=10) for _ in procs)
    for p in procs:
        p.join(timeout=10)
    assert sorted(results.values()) == [False, True]
    backend = SQLiteBackend(path)
    assert backend.count_leases("w1") == 1
    backend.close()


def _crash_mid_save(path, ready):
    backend = SQLiteBackend(path)
    payload = minimal_snapshot(caches={"blob": "x" * 2_000_000})
    ready.set()
    while True:  # save in a tight loop until SIGKILLed mid-write
        backend.save(payload)


def test_sigkill_mid_checkpoint_keeps_database_integral(tmp_path):
    path = str(tmp_path / "durable.db")
    backend = SQLiteBackend(path)
    backend.save(minimal_snapshot(campaign={"generation": "first"}))
    backend.close()

    ctx = multiprocessing.get_context("fork")
    ready = ctx.Event()
    proc = ctx.Process(target=_crash_mid_save, args=(path, ready))
    proc.start()
    assert ready.wait(timeout=10)
    time.sleep(0.15)  # let it get into the write path
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)

    backend = SQLiteBackend(path)
    (verdict,) = backend._connect().execute(
        "PRAGMA integrity_check"
    ).fetchone()
    assert verdict == "ok"
    # Whatever generation survived, it is a complete one.
    snapshot = backend.load()
    assert snapshot["version"] == 1
    backend.close()


CRASH_TASKS = 40


def _crash_campaign(backend=None):
    """Two shards, so the allocator ledger is on the line too."""
    campaign = Campaign.open(
        make_pool(12, seed=3),
        CampaignConfig(
            budget=12.0,
            capacity=3,
            batch_size=10,
            confidence_target=0.95,
            seed=3,
            num_shards=2,
        ),
        backend=backend,
    )
    truths = np.random.default_rng(3).integers(0, 2, size=CRASH_TASKS)
    campaign.submit(
        EngineTask(f"t{i}", ground_truth=int(t)) for i, t in enumerate(truths)
    )
    return campaign


def _checkpoint_and_die_at(campaign, kill_at, writes):
    """Forked child: checkpoint, counting write statements on the
    connection and SIGKILLing itself just before write ``kill_at``
    (0: never)."""

    def count(statement):
        if not statement.lstrip().upper().startswith(
            ("SELECT", "PRAGMA", "BEGIN")
        ):
            writes.value += 1
            if writes.value == kill_at:
                os.kill(os.getpid(), signal.SIGKILL)

    campaign.backend._connect().set_trace_callback(count)
    campaign.checkpoint()


def _assert_conserved(campaign):
    metrics, engine = campaign.metrics, campaign.engine
    assert metrics.completed == metrics.submitted == CRASH_TASKS
    assert metrics.total_spend <= campaign.config.budget + 1e-6
    assert metrics.total_spend == pytest.approx(
        engine.registry.total_spend, abs=1e-9
    )
    assert all(state.load == 0 for state in engine.registry.states)
    allocator = engine.scheduler.allocator
    assert allocator.granted == pytest.approx(
        allocator.reserved + allocator.reabsorbed, abs=1e-6
    )
    assert allocator.refunded == pytest.approx(
        metrics.total_refunded, abs=1e-9
    )


def test_sigkill_before_every_write_of_an_incremental_save(tmp_path):
    """Crash-point harness: enumerate the write statements of one
    incremental checkpoint, then SIGKILL a forked child before each in
    turn (and once before COMMIT, the last write).  Every resume must
    find an integral file holding the previous checkpoint or the new
    one — never a blend — and finish on the uninterrupted fingerprint
    with budget, seats and the allocator ledger conserved."""
    reference = _crash_campaign().run().fingerprint()

    path = tmp_path / "crash.db"
    backend = SQLiteBackend(path)
    campaign = _crash_campaign(backend)
    campaign.run(until=12)
    campaign.checkpoint()
    saved = campaign.metrics.completed
    campaign.run(until=16)
    pending = campaign.metrics.completed
    backend.close()  # no connection crosses the fork; the WAL is folded
    pristine = path.read_bytes()
    ctx = multiprocessing.get_context("fork")

    def crash_at(kill_at):
        for suffix in ("-wal", "-shm"):
            Path(f"{path}{suffix}").unlink(missing_ok=True)
        path.write_bytes(pristine)
        writes = ctx.Value("i", 0)
        proc = ctx.Process(
            target=_checkpoint_and_die_at, args=(campaign, kill_at, writes)
        )
        proc.start()
        proc.join(timeout=60)
        return proc.exitcode, writes.value

    exitcode, total = crash_at(0)
    assert exitcode == 0
    # Whole workers table, the journal tails, the ledger, COMMIT.
    assert total > 12, total
    for kill_at in [*range(1, total + 1), 0]:
        exitcode, _ = crash_at(kill_at)
        assert exitcode == (-signal.SIGKILL if kill_at else 0), kill_at
        survivor = SQLiteBackend(path)
        (verdict,) = survivor._connect().execute(
            "PRAGMA integrity_check"
        ).fetchone()
        assert verdict == "ok", kill_at
        resumed = Campaign.resume(survivor)
        # Only the COMMIT (the last write) or no kill publishes the new
        # checkpoint.
        assert resumed.metrics.completed == (
            saved if kill_at else pending
        ), kill_at
        assert resumed.run().fingerprint() == reference, kill_at
        _assert_conserved(resumed)
        resumed.close()


def _serve_and_die(path, coord_path, ready):
    """A coordinated engine that seats juries, reports, then hangs
    holding its leases until SIGKILLed — the crashed-peer half of the
    expiry-reclaim test."""
    pool = make_pool(6, seed=2)
    campaign = Campaign.open(
        pool,
        CampaignConfig(
            budget=10.0,
            capacity=1,
            batch_size=4,
            confidence_target=0.95,
            seed=2,
            coordinate_path=coord_path,
            lease_ttl=0.5,
        ),
    )
    campaign.submit([EngineTask(f"t{i}") for i in range(6)])
    campaign.run(until=2)  # juries seated, some still mid-flight
    ready.set()
    while True:
        time.sleep(1)


def test_killed_engine_leases_expire_and_peer_completes(tmp_path):
    coord_path = str(tmp_path / "coord.db")
    SQLiteBackend(coord_path).close()
    ctx = multiprocessing.get_context("fork")
    ready = ctx.Event()
    proc = ctx.Process(target=_serve_and_die, args=(None, coord_path, ready))
    proc.start()
    assert ready.wait(timeout=60)
    os.kill(proc.pid, signal.SIGKILL)  # crash mid-admit: leases stranded
    proc.join(timeout=10)

    shared = SQLiteBackend(coord_path)
    stranded = len(shared.list_leases())
    assert stranded > 0  # the victim died holding seats
    time.sleep(0.6)  # one TTL passes, nobody renews

    # A second engine over the *same* worker pool now acquires freely
    # and serves a whole campaign to completion.
    campaign = Campaign.open(
        make_pool(6, seed=2),
        CampaignConfig(
            budget=10.0,
            capacity=1,
            batch_size=4,
            confidence_target=0.95,
            seed=2,
            coordinate_path=coord_path,
            lease_ttl=30.0,
        ),
    )
    campaign.submit([EngineTask(f"s{i}") for i in range(6)])
    metrics = campaign.run()
    assert metrics.completed == 6
    # Conservation after the crash: every seat the survivor took was
    # released on completion; nothing is double-held.
    assert len(shared.list_leases()) == 0
    campaign.close()
    shared.close()


def test_coordinated_campaign_matches_uncoordinated_fingerprint(tmp_path):
    """Coordination must be decision-neutral when uncontended: a single
    engine with leases on produces the same fingerprint as without."""

    def run(coordinate):
        config = dict(
            budget=20.0,
            capacity=3,
            batch_size=10,
            confidence_target=0.95,
            seed=5,
        )
        if coordinate:
            config["coordinate_path"] = str(tmp_path / "solo.db")
        with Campaign.open(
            make_pool(16, seed=5), CampaignConfig(**config)
        ) as campaign:
            campaign.submit([EngineTask(f"t{i}") for i in range(30)])
            return campaign.run().fingerprint()

    assert run(False) == run(True)
