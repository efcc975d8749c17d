"""Multi-process campaign pools: process dispatch.

The tentpole claim is *byte-identity*: shipping each shard's admit
round to a persistent worker process (``dispatch="processes"``) must
produce the same metrics fingerprint — task records, spend, cache
counters, everything — as the sequential and threaded paths, across
seeds, shard counts, and state backends.  This file pins that claim,
the pool's own mechanics (sticky workers, state pull/push, poisoning
on a failed round), the ``REPRO_ENGINE_FORCE_DISPATCH`` CI toggle, and
the satellite knob that rode along (``ingest_grace="auto"``).

Cross-process *lease* coordination lives in ``test_leases.py``.
"""

import os
import signal

import numpy as np
import pytest

from repro.engine import (
    Campaign,
    CampaignConfig,
    EngineTask,
    SQLiteBackend,
    ShardedScheduler,
)
from repro.engine.campaign import FORCE_DISPATCH_ENV
from repro.engine.procpool import ShadowRegistry
from repro.simulation import SyntheticPoolConfig, generate_pool


def make_pool(num_workers=32, seed=1):
    rng = np.random.default_rng(seed)
    return generate_pool(
        SyntheticPoolConfig(num_workers=num_workers, quality_ceiling=0.95),
        rng,
    )


def make_tasks(num_tasks=60, seed=5):
    rng = np.random.default_rng(seed)
    truths = rng.integers(0, 2, size=num_tasks)
    return [
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    ]


def run_fingerprint(
    seed,
    num_shards,
    dispatch,
    backend=None,
    parallel_shards=0,
    **overrides,
):
    config = dict(
        budget=25.0,
        capacity=3,
        batch_size=20,
        confidence_target=0.95,
        seed=seed,
        num_shards=num_shards,
        dispatch=dispatch,
        parallel_shards=parallel_shards,
    )
    config.update(overrides)
    with Campaign.open(
        make_pool(seed=seed), CampaignConfig(**config), backend=backend
    ) as campaign:
        campaign.submit(make_tasks(seed=seed))
        metrics = campaign.run()
        return metrics.fingerprint(), metrics


# ----------------------------------------------------------------------
# The tentpole pin: processes == threads == sequential, byte for byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [7, 21])
@pytest.mark.parametrize("num_shards", [1, 4])
@pytest.mark.parametrize("store", ["memory", "sqlite"])
def test_process_dispatch_fingerprint_identical(
    seed, num_shards, store, tmp_path
):
    def backend():
        if store == "memory":
            return None
        return SQLiteBackend(
            tmp_path / f"{store}-{seed}-{num_shards}-{os.urandom(4).hex()}.db"
        )

    sequential, _ = run_fingerprint(seed, num_shards, "threads", backend())
    threaded, _ = run_fingerprint(
        seed, num_shards, "threads", backend(), parallel_shards=4
    )
    processes, _ = run_fingerprint(seed, num_shards, "processes", backend())
    assert sequential == threaded
    assert sequential == processes


def test_process_dispatch_builds_a_pool_only_when_sharded():
    with Campaign.open(
        make_pool(),
        CampaignConfig(budget=5.0, num_shards=4, dispatch="processes"),
    ) as campaign:
        campaign.engine._start()
        scheduler = campaign.engine.scheduler
        assert isinstance(scheduler, ShardedScheduler)
        assert scheduler._pool is not None
        assert len(scheduler._pool.pids) == 4
        # Process dispatch supersedes the shard thread executor.
        assert scheduler._executor is None
    with Campaign.open(
        make_pool(),
        CampaignConfig(budget=5.0, num_shards=1, dispatch="processes"),
    ) as campaign:
        campaign.engine._start()
        assert not isinstance(campaign.engine.scheduler, ShardedScheduler)


def test_workers_are_sticky_across_rounds():
    with Campaign.open(
        make_pool(),
        CampaignConfig(
            budget=25.0, num_shards=4, dispatch="processes", seed=3
        ),
    ) as campaign:
        campaign.engine._start()
        pids_before = list(campaign.engine.scheduler._pool.pids)
        campaign.submit(make_tasks(40, seed=3))
        campaign.run()
        assert campaign.engine.scheduler._pool.pids == pids_before


def test_checkpoint_resume_under_process_dispatch(tmp_path):
    seed = 11
    reference, _ = run_fingerprint(seed, 4, "threads")

    backend = SQLiteBackend(tmp_path / "resume.db")
    with Campaign.open(
        make_pool(seed=seed),
        CampaignConfig(
            budget=25.0,
            capacity=3,
            batch_size=20,
            confidence_target=0.95,
            seed=seed,
            num_shards=4,
            dispatch="processes",
        ),
        backend=backend,
    ) as campaign:
        campaign.submit(make_tasks(seed=seed))
        campaign.run(until=20)
        campaign.checkpoint()

    resumed = Campaign.resume(SQLiteBackend(tmp_path / "resume.db"))
    try:
        assert resumed.config.dispatch == "processes"
        assert resumed.engine.scheduler._pool is not None
        metrics = resumed.run()
        assert metrics.fingerprint() == reference
    finally:
        resumed.close()


def test_env_toggle_forces_process_dispatch(monkeypatch):
    monkeypatch.setenv(FORCE_DISPATCH_ENV, "processes")
    with Campaign.open(
        make_pool(), CampaignConfig(budget=5.0, num_shards=2)
    ) as campaign:
        assert campaign.config.dispatch == "processes"
        campaign.engine._start()
        assert campaign.engine.scheduler._pool is not None
    monkeypatch.setenv(FORCE_DISPATCH_ENV, "threads")
    with Campaign.open(
        make_pool(),
        CampaignConfig(budget=5.0, num_shards=2, dispatch="processes"),
    ) as campaign:
        assert campaign.config.dispatch == "threads"
        campaign.engine._start()
        assert campaign.engine.scheduler._pool is None


def test_invalid_dispatch_is_rejected():
    with pytest.raises(ValueError, match="dispatch"):
        CampaignConfig(budget=5.0, dispatch="rayon")


# ----------------------------------------------------------------------
# Failure paths: a dead worker poisons the round but not the ledger
# ----------------------------------------------------------------------
def test_killed_worker_raises_and_conserves_ledger():
    campaign = Campaign.open(
        make_pool(48),
        CampaignConfig(
            budget=60.0,
            capacity=3,
            batch_size=20,
            confidence_target=0.95,
            seed=9,
            num_shards=4,
            dispatch="processes",
        ),
    )
    try:
        campaign.submit(make_tasks(40, seed=9))
        campaign.run(until=10)
        scheduler = campaign.engine.scheduler
        allocator = scheduler.allocator
        victim = scheduler._pool.pids[2]
        os.kill(victim, signal.SIGKILL)
        campaign.submit(EngineTask(f"x{i}") for i in range(40))
        with pytest.raises(Exception):
            campaign.run()
        # The repair path settled every grant: nothing stays reserved
        # against a round that never landed.
        assert allocator.granted == pytest.approx(
            allocator.reserved + allocator.reabsorbed, abs=1e-6
        )
        # A failed round poisons the pool (state is unknowable).
        assert scheduler._pool.broken
    finally:
        campaign.close()


def test_pool_close_is_idempotent():
    pool_workers = make_pool(16)
    with Campaign.open(
        pool_workers,
        CampaignConfig(budget=5.0, num_shards=2, dispatch="processes"),
    ) as campaign:
        campaign.engine._start()
        pool = campaign.engine.scheduler._pool
        campaign.close()
        campaign.close()
        assert pool.broken


# ----------------------------------------------------------------------
# ShadowRegistry: the picklable member view workers rebuild
# ----------------------------------------------------------------------
def test_shadow_registry_mirrors_member_rows():
    rows = [
        ("w1", 0.9, 1.0, 3, ["t1", "t2"]),
        ("w0", 0.7, 0.5, 2, []),
    ]
    shadow = ShadowRegistry()
    shadow.sync(rows)
    assert [state.worker.worker_id for state in shadow.states] == [
        "w1",
        "w0",
    ]
    assert len(shadow) == 2 and "w1" in shadow
    assert shadow.free_capacity("w1") == 1
    assert shadow.worker("w0").quality == 0.7
    assert shadow.free_capacity("w0") == 2
    # Seat mutations respect capacity; duplicates are rejected.
    shadow.assign("w1", "t9")
    assert shadow.free_capacity("w1") == 0
    with pytest.raises(Exception):
        shadow.assign("w1", "t10")
    assert {w.worker_id for w in shadow.available_pool()} == {"w0"}


# ----------------------------------------------------------------------
# Satellite: adaptive intake grace
# ----------------------------------------------------------------------
def test_auto_grace_tracks_admit_latency():
    with Campaign.open(
        make_pool(),
        CampaignConfig(
            budget=25.0, ingestion="async", ingest_grace="auto", seed=3
        ),
    ) as campaign:
        loop = campaign._ingest
        # Before any admit: the fixed fallback.
        assert loop._effective_grace() == pytest.approx(0.05)
        campaign.submit(make_tasks(30, seed=3))
        campaign.run()
        ewma = campaign.engine.admit_latency_ewma
        assert ewma is not None and ewma > 0
        grace = loop._effective_grace()
        assert 0.01 <= grace <= 0.5
        assert grace == pytest.approx(min(max(8.0 * ewma, 0.01), 0.5))


def test_auto_grace_async_fingerprint_matches_sync():
    reference, _ = run_fingerprint(17, 1, "threads")
    auto, _ = run_fingerprint(
        17, 1, "threads", ingestion="async", ingest_grace="auto"
    )
    assert auto == reference


def test_fixed_grace_still_validates():
    with pytest.raises(ValueError, match="grace"):
        CampaignConfig(budget=5.0, ingest_grace="adaptive")
    with pytest.raises(ValueError, match="grace"):
        CampaignConfig(budget=5.0, ingest_grace=0.0)
