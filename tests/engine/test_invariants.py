"""Randomized campaign-invariant and concurrency stress harness.

The DB-nets direction in PAPERS.md treats state transitions of a
data-aware process as explicit, checkable invariants.  This suite makes
that executable for the campaign engine: seeded randomized campaigns
across pool sizes and shard counts, with the global serving invariants
asserted **after every event** the loop dispatches:

* **capacity** — no worker ever seated above their concurrent cap;
* **budget** — gross reservations net of refunds never exceed the
  campaign budget, and the allocator's entitlement never exceeds it;
* **ledger conservation** — every granted unit is either reserved by a
  shard or re-absorbed, cumulatively and exactly;
* **spend** — workers are only ever paid out of reserved cost.

The budget and ledger laws are checked once, on the one allocator
ledger every campaign keeps, whether it has one shard or many.

End-of-run laws (refund conservation across shard re-absorption, spend
reconciliation between registry and metrics, every submitted task
completing) and **byte-identical replay** for identical seeds round out
the harness.

The second half is the *concurrency* stress harness for the one
concurrent loop, ``serve()`` over the campaign's intake
(`repro.engine.ingest`): the same per-event laws while producer
threads stream tasks in under backpressure, and the determinism pins —
a served campaign fed up front, or paused, checkpointed and resumed
mid-flight, must reproduce the ``run()`` fingerprint.
"""

import threading

import numpy as np
import pytest

from repro.engine import (
    AsyncIngestLoop,
    Campaign,
    CampaignConfig,
    CampaignEngine,
    EngineTask,
    MemoryBackend,
    SQLiteBackend,
)
from repro.engine import sharding
from repro.simulation import SyntheticPoolConfig, generate_pool

EPS = 1e-9
SEEDS = (1, 7, 13, 42, 2015)


class InvariantViolation(AssertionError):
    pass


class _CheckedMixin:
    """Engine mixin asserting the global invariants after every event."""

    def _dispatch(self, event):
        super()._dispatch(event)
        self.check_invariants()

    def check_invariants(self):
        """Seat laws per worker, then the budget and ledger laws on the
        allocator."""
        budget = self.config.budget
        for state in self.registry.states:
            if state.load > state.capacity:
                raise InvariantViolation(
                    f"worker {state.worker.worker_id} seated "
                    f"{state.load}/{state.capacity}"
                )
            if state.peak_load > state.capacity:
                raise InvariantViolation(
                    f"worker {state.worker.worker_id} peaked above capacity"
                )

        scheduler = self.scheduler
        if scheduler is None:
            return
        allocator = scheduler.allocator
        gross_reserved = allocator.reserved
        refunded = allocator.refunded
        if allocator.entitled > budget + EPS:
            raise InvariantViolation(
                f"entitled {allocator.entitled} beyond budget {budget}"
            )
        ledger_gap = abs(
            allocator.granted - (allocator.reserved + allocator.reabsorbed)
        )
        if ledger_gap > 1e-6:
            raise InvariantViolation(
                f"allocator ledger leaks: granted {allocator.granted} "
                f"!= reserved {allocator.reserved} "
                f"+ reabsorbed {allocator.reabsorbed}"
            )
        shard_reserved = sum(
            shard.scheduler.reserved for shard in scheduler.shards
        )
        if abs(shard_reserved - gross_reserved) > 1e-6:
            raise InvariantViolation(
                f"shard reservations {shard_reserved} diverge from "
                f"allocator ledger {gross_reserved}"
            )
        if gross_reserved - refunded > budget + 1e-6:
            raise InvariantViolation(
                f"net reservations {gross_reserved - refunded} "
                f"exceed budget {budget}"
            )
        # Workers are only ever paid out of reserved jury cost.
        if self.registry.total_spend > gross_reserved + 1e-6:
            raise InvariantViolation(
                f"worker payouts {self.registry.total_spend} exceed "
                f"gross reservations {gross_reserved}"
            )


class CheckedEngine(_CheckedMixin, CampaignEngine):
    pass


def make_engine(pool, shards, checked, **config_kwargs):
    """A ``shards``-shard engine, asserting the laws after every event
    when ``checked``."""
    cls = CheckedEngine if checked else CampaignEngine
    return cls(pool, CampaignConfig(num_shards=shards, **config_kwargs))


def build_campaign(
    seed,
    pool_size,
    shards,
    num_tasks=60,
    checked=True,
    reestimate_every=0,
):
    rng = np.random.default_rng(seed)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=pool_size, quality_ceiling=0.95), rng
    )
    engine = make_engine(
        pool,
        shards,
        checked,
        budget=0.3 * num_tasks,
        capacity=3,
        batch_size=20,
        confidence_target=0.95,
        reestimate_every=reestimate_every,
        seed=seed,
    )
    truths = rng.integers(0, 2, size=num_tasks)
    engine.submit(
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    )
    return engine


def final_laws(engine, metrics):
    """End-of-run conservation laws, common to every configuration."""
    budget = engine.config.budget
    assert metrics.completed == metrics.submitted
    assert metrics.total_spend <= budget + 1e-6
    # Every landed vote was paid exactly once: the registry's payout
    # ledger and the per-task records must reconcile.
    assert metrics.total_spend == pytest.approx(
        engine.registry.total_spend, abs=1e-9
    )
    allocator = engine.scheduler.allocator
    # Refund conservation across shard re-absorption: everything the
    # tasks handed back landed in the allocator's pot.
    assert allocator.refunded == pytest.approx(
        metrics.total_refunded, abs=1e-9
    )
    assert allocator.granted == pytest.approx(
        allocator.reserved + allocator.reabsorbed, abs=1e-6
    )
    assert metrics.allocator_snapshot is not None
    assert metrics.shard_snapshots is not None
    reserved = sum(s.reserved for s in metrics.shard_snapshots)
    assert reserved == pytest.approx(allocator.reserved, abs=1e-6)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("pool_size,shards", [(12, 1), (24, 2), (48, 4)])
def test_invariants_hold_after_every_event(seed, pool_size, shards):
    engine = build_campaign(seed, pool_size, shards)
    metrics = engine.run()
    final_laws(engine, metrics)


@pytest.mark.parametrize("seed", SEEDS)
def test_invariants_under_quality_drift(seed):
    """Re-estimation perturbs every quality estimate mid-campaign;
    the budget and capacity laws must be indifferent to it."""
    engine = build_campaign(seed, 32, 4, reestimate_every=25)
    metrics = engine.run()
    final_laws(engine, metrics)
    assert metrics.reestimations > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_replay_is_byte_identical(seed):
    """Identical seeds => identical campaigns, fingerprint-for-
    fingerprint — across a run that routes, grants, rebalances, and
    early-stops."""
    first = build_campaign(seed, 32, 4, checked=False).run()
    second = build_campaign(seed, 32, 4, checked=False).run()
    assert first.fingerprint() == second.fingerprint()


#: One-shard fingerprints of :func:`build_campaign` ``(seed, 16, 1)`` as
#: recorded by the engine that still served one shard through a single
#: self-pacing scheduler (git c1808d5).
PRESHARDING_FINGERPRINTS = {
    1: "3e1b5d61b797ddd3bacc02f08009793f5c09922b6cbba93d97d1032299613ee7",
    7: "137de5349dcd526b1e2f80c375250e55c7d5937a78b5493f319be6d602589759",
    13: "4a9224c255d520e483517def78db80d29b73e113ed352cf973ae804c7810c1a3",
    42: "975cf774a5a819b3620ce7e09a9b9f694c8f98d0e1fc9785c60d35b2b26e98ea",
    2015: "1c763796001b1049511a12fd48907c408dd667e2037eef1fb65520d3b526d3aa",
}


@pytest.mark.parametrize("seed", SEEDS)
def test_single_shard_matches_presharding_engine(seed):
    """The one-shard path is pinned to the single-scheduler engine it
    replaced: same seed => byte-identical metrics (fingerprints cover
    every task record at full float precision plus all campaign
    counters)."""
    metrics = build_campaign(seed, 16, 1, checked=False).run()
    assert metrics.fingerprint() == PRESHARDING_FINGERPRINTS[seed]


def test_unfunded_starved_campaign_still_conserves():
    """Zero budget: every task must complete unfunded, spend nothing,
    and violate nothing."""
    rng = np.random.default_rng(3)
    pool = generate_pool(SyntheticPoolConfig(num_workers=8), rng)
    engine = CheckedEngine(
        pool,
        CampaignConfig(
            budget=0.0, capacity=2, batch_size=5, seed=3, num_shards=2
        ),
    )
    engine.submit(EngineTask(f"t{i}") for i in range(20))
    metrics = engine.run()
    final_laws(engine, metrics)
    assert metrics.unfunded == 20
    assert metrics.total_spend == 0.0


def test_wide_frontier_pool_campaign_conserves():
    """A candidate pool past the old [1, 12] cap (and past the dense
    lattice at 14): scheduler frontiers build through the streamed
    lattice sweep, and every per-event and end-of-run conservation law
    must hold exactly as before."""
    rng = np.random.default_rng(11)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=18, quality_ceiling=0.95), rng
    )
    config = CampaignConfig(
        budget=6.0,
        capacity=3,
        batch_size=10,
        confidence_target=0.95,
        frontier_pool_size=15,
        seed=11,
    )
    engine = CheckedEngine(pool, config)
    engine.submit(EngineTask(f"t{i}") for i in range(20))
    metrics = engine.run()
    final_laws(engine, metrics)
    assert metrics.completed == 20


def build_facade_campaign(
    seed,
    pool_size,
    shards,
    backend=None,
    num_tasks=60,
    reestimate_every=0,
    submit=True,
    **config_kwargs,
):
    """The :func:`build_campaign` scenario through the Campaign facade.
    Extra keyword arguments reach :class:`CampaignConfig` (the async
    knobs); ``submit=False`` returns the campaign
    with its tasks unsubmitted, for script-driven interleavings."""
    rng = np.random.default_rng(seed)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=pool_size, quality_ceiling=0.95), rng
    )
    config = CampaignConfig(
        budget=0.3 * num_tasks,
        capacity=3,
        batch_size=20,
        confidence_target=0.95,
        reestimate_every=reestimate_every,
        seed=seed,
        num_shards=shards,
        **config_kwargs,
    )
    campaign = Campaign.open(pool, config, backend=backend)
    truths = rng.integers(0, 2, size=num_tasks)
    tasks = [
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    ]
    if submit:
        campaign.submit(tasks)
        return campaign
    return campaign, tasks


CHECKPOINT_SEEDS = SEEDS[:3]


@pytest.mark.parametrize("seed", CHECKPOINT_SEEDS)
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
def test_checkpoint_resume_is_byte_identical(
    seed, shards, backend_kind, tmp_path
):
    """A campaign checkpointed mid-run and resumed from its backend
    must finish with a metrics fingerprint byte-identical to an
    uninterrupted run — the full persistence surface (registry, votes,
    ledgers, shard membership, caches, frontier memos, pending events,
    in-flight sessions, RNG) is on the line, across seeds x shard
    counts x backends."""
    pool_size = 16 if shards == 1 else 48
    uninterrupted = build_facade_campaign(seed, pool_size, shards)
    reference = uninterrupted.run().fingerprint()

    path = tmp_path / f"{seed}-{shards}.db"
    if backend_kind == "memory":
        backend = MemoryBackend()
    else:
        backend = SQLiteBackend(path)
    interrupted = build_facade_campaign(seed, pool_size, shards, backend)
    # Cut at a seed-dependent point so the matrix hits different loop
    # phases (mid-batch, mid-jury, between re-estimations).
    interrupted.run(until=10 + (seed % 3) * 15)
    assert not interrupted.done
    interrupted.checkpoint()
    if backend_kind == "sqlite":
        # The realistic restart: the process dies, a new one reopens
        # the file.  (A MemoryBackend's whole point is living in the
        # process, so it is resumed in place.)
        interrupted.close()
        backend = SQLiteBackend(path)

    resumed = Campaign.resume(backend)
    assert resumed.run().fingerprint() == reference
    final_laws(resumed.engine, resumed.metrics)


@pytest.mark.parametrize("seed", CHECKPOINT_SEEDS)
def test_checkpoint_resume_under_quality_drift(seed, tmp_path):
    """Re-estimation perturbs every quality estimate from streamed
    votes; resume must restore the answer matrix (in both iteration
    orders) and the drifted estimates exactly or EM diverges."""
    backend = SQLiteBackend(tmp_path / "drift.db")
    reference = build_facade_campaign(
        seed, 32, 4, num_tasks=80, reestimate_every=25
    )
    fingerprint = reference.run().fingerprint()
    assert reference.metrics.reestimations > 0

    interrupted = build_facade_campaign(
        seed, 32, 4, backend, num_tasks=80, reestimate_every=25
    )
    interrupted.run(until=40)
    interrupted.checkpoint()
    resumed = Campaign.resume(backend)
    assert resumed.run().fingerprint() == fingerprint


def test_facade_matches_legacy_engines():
    """The facade is a lifecycle wrapper, not a re-implementation: same
    seed => same fingerprint as the bare engine it drives, at one shard
    and at four."""
    bare = build_campaign(7, 16, 1, checked=False).run().fingerprint()
    assert build_facade_campaign(7, 16, 1).run().fingerprint() == bare
    bare_sharded = build_campaign(7, 48, 4, checked=False).run().fingerprint()
    assert (
        build_facade_campaign(7, 48, 4).run().fingerprint() == bare_sharded
    )


def test_rebalancing_campaign_migrates_and_conserves(monkeypatch):
    """A hash-routed campaign on a skewed pool should trigger idle
    migrations; all laws must survive workers changing shards."""
    monkeypatch.setattr(sharding, "REBALANCE_THRESHOLD", 0.05)
    engine = build_campaign(11, 48, 4, num_tasks=120)
    metrics = engine.run()
    final_laws(engine, metrics)
    assert engine.scheduler.migrations > 0
    moved_in = sum(s.migrations_in for s in metrics.shard_snapshots)
    moved_out = sum(s.migrations_out for s in metrics.shard_snapshots)
    assert moved_in == moved_out == engine.scheduler.migrations


# ======================================================================
# Concurrency stress harness: the serve() loop
# ======================================================================
def build_served_loop(
    seed,
    pool_size,
    shards,
    num_tasks=60,
    checked=True,
    max_pending=10_000,
    expected_tasks=None,
    telemetry="off",
):
    """The :func:`build_campaign` scenario behind an
    :class:`AsyncIngestLoop` (checked engines assert the global laws
    after every event, concurrency or not).  Returns ``(loop, tasks)``
    with the tasks *not yet submitted* — the test decides who submits
    them, from which thread, and when."""
    rng = np.random.default_rng(seed)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=pool_size, quality_ceiling=0.95), rng
    )
    engine = make_engine(
        pool,
        shards,
        checked,
        budget=0.3 * num_tasks,
        capacity=3,
        batch_size=20,
        confidence_target=0.95,
        expected_tasks=expected_tasks,
        telemetry=telemetry,
        seed=seed,
    )
    truths = rng.integers(0, 2, size=num_tasks)
    tasks = [
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    ]
    return AsyncIngestLoop(engine, max_pending=max_pending), tasks


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("pool_size,shards", [(16, 1), (48, 4)])
def test_served_preloaded_matches_run_fingerprint(seed, pool_size, shards):
    """Every task staged on the intake before serving: serve() folds
    them in before its first step and must reproduce the stepping
    loop's fingerprint byte for byte — while the checked engine asserts
    every per-event law along the way."""
    reference = build_campaign(
        seed, pool_size, shards, checked=False
    ).run().fingerprint()
    loop, tasks = build_served_loop(seed, pool_size, shards)
    loop.intake.submit(tasks)
    loop.close_intake()
    metrics = loop.serve()
    final_laws(loop.engine, metrics)
    assert metrics.fingerprint() == reference


def serve_with_producers(loop, tasks, producers=4):
    """Serve on this thread while ``producers`` threads stage ``tasks``
    round-robin on the intake (as in-process producers do), and a
    closer thread closes the intake once every producer is done."""
    chunks = [tasks[i::producers] for i in range(producers)]

    def producer(chunk):
        for k, task in enumerate(chunk):
            loop.intake.submit([task], start_time=float(k))

    threads = [
        threading.Thread(target=producer, args=(chunk,)) for chunk in chunks
    ]

    def closer():
        for thread in threads:
            thread.join()
        loop.close_intake()

    closer_thread = threading.Thread(target=closer)
    for thread in threads:
        thread.start()
    closer_thread.start()
    metrics = loop.serve()
    closer_thread.join(timeout=10.0)
    assert not closer_thread.is_alive()
    return metrics


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_submit_while_running_under_backpressure(seed):
    """Live traffic: four producer threads stream tasks into a tightly
    bounded intake while the serving loop seats juries across four
    shards.  Backpressure must bound staging, every
    task must be served exactly once, and the per-event laws must hold
    throughout."""
    loop, tasks = build_served_loop(
        seed, 32, 4, max_pending=8, expected_tasks=60
    )
    metrics = serve_with_producers(loop, tasks)
    final_laws(loop.engine, metrics)
    assert metrics.completed == metrics.submitted == 60
    assert loop.intake.stats.submitted == 60
    assert loop.intake.stats.peak_pending <= 8


@pytest.mark.parametrize("seed", SEEDS)
def test_single_shard_serves_concurrent_producers_exactly_once(seed):
    """The one-shard campaign under live traffic: three producer
    threads race a four-slot intake while one shard seats every jury.
    Each task is served exactly once, staging stays bounded, and the
    per-event laws hold throughout."""
    loop, tasks = build_served_loop(
        seed, 16, 1, max_pending=4, expected_tasks=60
    )
    metrics = serve_with_producers(loop, tasks, producers=3)
    final_laws(loop.engine, metrics)
    assert metrics.completed == metrics.submitted == 60
    assert loop.intake.stats.submitted == 60
    assert loop.intake.stats.peak_pending <= 4


@pytest.mark.parametrize("seed", CHECKPOINT_SEEDS)
def test_served_pause_checkpoint_resume_matches_run(seed, tmp_path):
    """Pause/checkpoint mid-flight on the serving loop: a served
    campaign stopped with juries in flight, checkpointed and resumed
    from SQLite must land on the stepping loop's fingerprint."""
    reference = build_facade_campaign(seed, 48, 4).run().fingerprint()

    path = tmp_path / f"served-{seed}.db"
    interrupted = build_facade_campaign(seed, 48, 4, SQLiteBackend(path))
    target = 10 + (seed % 3) * 15
    stop = threading.Event()

    def pause_at_target():
        if interrupted.metrics.completed >= target:
            stop.set()

    # A job due on every pass: the loop runs it between engine steps.
    interrupted.serve(stop=stop, periodic=((1e-9, pause_at_target),))
    assert not interrupted.done
    assert interrupted.metrics.completed >= target
    interrupted.checkpoint()
    interrupted.close()

    resumed = Campaign.resume(SQLiteBackend(path))
    assert resumed.run().fingerprint() == reference
    final_laws(resumed.engine, resumed.metrics)
    resumed.close()


def _assert_histogram_invariants(telemetry):
    """Bucket laws for every histogram the hub holds: internal counts
    conserve the observation count, the cumulative export is monotone
    and ends at that count under a ``+Inf`` bound."""
    snapshot = telemetry.snapshot()
    assert snapshot["histograms"], "stress run recorded no histograms"
    for hist in snapshot["histograms"]:
        counts = [bucket["count"] for bucket in hist["buckets"]]
        assert counts == sorted(counts), hist["name"]
        assert hist["buckets"][-1]["le"] == "+Inf"
        assert counts[-1] == hist["count"], hist["name"]
        assert hist["count"] > 0
        assert hist["sum"] >= 0.0


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_telemetry_histograms_consistent_under_concurrent_stress(seed):
    """Telemetry on during the threaded submit-while-serving scenario:
    producers and the serving loop report into the hub
    concurrently.  Every histogram must conserve
    its counts, the hub's counters must reconcile with the intake's own
    ledger, and the per-event campaign laws must hold throughout."""
    loop, tasks = build_served_loop(
        seed, 32, 4, max_pending=8, expected_tasks=60, telemetry="on"
    )
    metrics = serve_with_producers(loop, tasks)
    final_laws(loop.engine, metrics)
    assert metrics.completed == metrics.submitted == 60

    telemetry = loop.engine.telemetry
    _assert_histogram_invariants(telemetry)
    counters = {}
    for row in telemetry.snapshot()["counters"]:
        counters[row["name"]] = counters.get(row["name"], 0) + row["value"]
    assert counters["intake.submitted"] == loop.intake.stats.submitted == 60
    assert counters["engine.tasks_submitted"] == 60
    assert counters["engine.tasks_completed"] == 60
