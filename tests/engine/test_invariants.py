"""Randomized campaign-invariant and concurrency stress harness.

The DB-nets direction in PAPERS.md treats state transitions of a
data-aware process as explicit, checkable invariants.  This suite makes
that executable for the (sharded) campaign engine: seeded randomized
campaigns across pool sizes, shard counts, and routing policies, with
the global serving invariants asserted **after every event** the loop
dispatches:

* **capacity** — no worker ever seated above their concurrent cap;
* **budget** — gross reservations net of refunds never exceed the
  campaign budget, and the allocator's entitlement never exceeds it;
* **ledger conservation** — every granted unit is either reserved by a
  shard or re-absorbed, cumulatively and exactly;
* **spend** — workers are only ever paid out of reserved cost.

End-of-run laws (refund conservation across shard re-absorption, spend
reconciliation between registry and metrics, every submitted task
completing) and **byte-identical replay** for identical seeds round out
the harness.

The second half is the *concurrency* stress harness for the async
ingestion + parallel shard dispatch path (`repro.engine.ingest`): the
same per-event laws under randomized seeded interleavings
(submit-while-running producers, pause/checkpoint mid-flight, shard
rebalance under load), byte-identical replay of seeded interleavings,
and the deterministic-mode pins — a preloaded or run-boundary-fed
async campaign must reproduce the sync path's fingerprint, and
parallel shard dispatch must reproduce sequential dispatch exactly.
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
    InterleavingSchedule,
    MemoryBackend,
    SQLiteBackend,
    ShardedScheduler,
)
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
        if isinstance(scheduler, ShardedScheduler):
            allocator = scheduler.allocator
            gross_reserved = allocator.reserved
            refunded = allocator.refunded
            if allocator.entitled > budget + EPS:
                raise InvariantViolation(
                    f"entitled {allocator.entitled} beyond budget {budget}"
                )
            ledger_gap = abs(
                allocator.granted
                - (allocator.reserved + allocator.reabsorbed)
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
        else:
            gross_reserved = scheduler.reserved
            refunded = scheduler.refunded

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


class _OneShardMixin:
    """Serve ``num_shards=1`` through a one-shard :class:`ShardedScheduler`
    instead of the single scheduler the engine builds there — the other
    side of the single-shard byte-identity pin."""

    def _make_scheduler(self, expected_tasks):
        return ShardedScheduler(
            self.registry, self.config, expected_tasks, self.telemetry
        )


class OneShardEngine(_OneShardMixin, CampaignEngine):
    pass


class CheckedOneShardEngine(_CheckedMixin, OneShardEngine):
    pass


def make_engine(pool, shards, checked, **config_kwargs):
    """``shards=0`` is the single-scheduler engine, ``1`` the one-shard
    sharded scheduler, ``K > 1`` an ordinary K-shard campaign."""
    if shards == 1:
        cls = CheckedOneShardEngine if checked else OneShardEngine
    else:
        cls = CheckedEngine if checked else CampaignEngine
    config = CampaignConfig(num_shards=max(shards, 1), **config_kwargs)
    return cls(pool, config)


def build_campaign(
    seed,
    pool_size,
    shards,
    num_tasks=60,
    policy="hash",
    checked=True,
    reestimate_every=0,
    rebalance_threshold=0.25,
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
        routing_policy=policy,
        rebalance_threshold=rebalance_threshold,
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
    if isinstance(engine.scheduler, ShardedScheduler):
        allocator = engine.scheduler.allocator
        # Refund conservation across shard re-absorption: everything
        # the tasks handed back landed in the allocator's pot.
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
    # Rotate routing policies with the seed so all three are exercised
    # across the matrix.
    policy = ("hash", "least-loaded", "quality-balanced")[seed % 3]
    engine = build_campaign(seed, pool_size, shards, policy=policy)
    metrics = engine.run()
    final_laws(engine, metrics)


@pytest.mark.parametrize("seed", SEEDS)
def test_invariants_under_quality_drift(seed):
    """Re-estimation perturbs every quality estimate mid-campaign;
    the budget and capacity laws must be indifferent to it."""
    engine = build_campaign(
        seed, 32, 4, policy="least-loaded", reestimate_every=25
    )
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


@pytest.mark.parametrize("seed", SEEDS)
def test_single_shard_matches_presharding_engine(seed):
    """The single-shard path is pinned to the pre-sharding engine:
    same seed => byte-identical metrics (fingerprints cover every task
    record at full float precision plus all campaign counters)."""
    plain = build_campaign(seed, 16, 0, checked=False).run()
    sharded = build_campaign(seed, 16, 1, checked=False).run()
    assert plain.fingerprint() == sharded.fingerprint()


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
    and parallel-dispatch knobs); ``submit=False`` returns the campaign
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
    seed => same fingerprint as the bare engine it drives, single and
    sharded."""
    bare = build_campaign(7, 16, 0, checked=False).run().fingerprint()
    assert build_facade_campaign(7, 16, 1).run().fingerprint() == bare
    bare_sharded = build_campaign(7, 48, 4, checked=False).run().fingerprint()
    assert (
        build_facade_campaign(7, 48, 4).run().fingerprint() == bare_sharded
    )


def test_rebalancing_campaign_migrates_and_conserves():
    """A hash-routed campaign on a skewed pool should trigger idle
    migrations; all laws must survive workers changing shards."""
    engine = build_campaign(
        11, 48, 4, num_tasks=120, policy="hash", rebalance_threshold=0.05
    )
    metrics = engine.run()
    final_laws(engine, metrics)
    assert engine.scheduler.migrations > 0
    moved_in = sum(s.migrations_in for s in metrics.shard_snapshots)
    moved_out = sum(s.migrations_out for s in metrics.shard_snapshots)
    assert moved_in == moved_out == engine.scheduler.migrations


# ======================================================================
# Concurrency stress harness: async ingestion + parallel shard dispatch
# ======================================================================
def build_async_loop(
    seed,
    pool_size,
    shards,
    num_tasks=60,
    parallel=0,
    checked=True,
    interleave=None,
    max_pending=10_000,
    expected_tasks=None,
    policy="hash",
    rebalance_threshold=0.25,
    grace=0.05,
    telemetry="off",
):
    """The :func:`build_campaign` scenario served through an
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
        ingestion="async",
        parallel_shards=parallel,
        telemetry=telemetry,
        seed=seed,
        routing_policy=policy,
        rebalance_threshold=rebalance_threshold,
    )
    truths = rng.integers(0, 2, size=num_tasks)
    tasks = [
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    ]
    loop = AsyncIngestLoop(
        engine, max_pending=max_pending, grace=grace, interleave=interleave
    )
    return loop, tasks


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "pool_size,shards,parallel", [(16, 1, 0), (48, 4, 4)]
)
def test_async_preloaded_matches_sync_fingerprint(
    seed, pool_size, shards, parallel
):
    """Deterministic async mode, preloaded: the intake path plus
    parallel shard dispatch must reproduce the synchronous engine's
    fingerprint byte for byte — while the checked engine asserts every
    per-event law along the way."""
    reference = build_campaign(
        seed, pool_size, shards, checked=False
    ).run().fingerprint()
    loop, tasks = build_async_loop(
        seed, pool_size, shards, parallel=parallel
    )
    loop.submit(tasks)
    metrics = loop.run()
    final_laws(loop.engine, metrics)
    assert metrics.fingerprint() == reference


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_dispatch_is_byte_identical(seed):
    """Thread-pool shard dispatch is purely a throughput lever: same
    routing, same grants, same seatings, same floats as the sequential
    in-loop dispatch."""
    reference = build_campaign(seed, 48, 4, checked=False).run().fingerprint()
    rng = np.random.default_rng(seed)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=48, quality_ceiling=0.95), rng
    )
    config = CampaignConfig(
        budget=0.3 * 60,
        capacity=3,
        batch_size=20,
        confidence_target=0.95,
        parallel_shards=4,
        seed=seed,
        num_shards=4,
    )
    engine = CheckedEngine(pool, config)
    truths = rng.integers(0, 2, size=60)
    engine.submit(
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    )
    metrics = engine.run()
    final_laws(engine, metrics)
    assert metrics.fingerprint() == reference


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_interleavings_replay_and_conserve(seed):
    """Randomized seeded interleavings: the schedule chops intake
    drains into odd-sized bites at odd moments, so arrivals interleave
    with in-flight votes very differently from the batch path — every
    per-event law must hold regardless, every task must complete, and
    the same schedule seed must replay byte-identically."""

    def one_run():
        loop, tasks = build_async_loop(
            seed,
            48,
            4,
            parallel=2,
            interleave=InterleavingSchedule(seed * 31 + 1),
            expected_tasks=60,
        )
        loop.submit(tasks)
        metrics = loop.run()
        final_laws(loop.engine, metrics)
        assert metrics.completed == metrics.submitted == 60
        return metrics.fingerprint()

    assert one_run() == one_run()


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_submit_while_running_under_backpressure(seed):
    """Live traffic: four producer threads stream tasks into a tightly
    bounded intake while the serving loop seats juries and dispatches
    shard admits in parallel.  Backpressure must bound staging, every
    task must be served exactly once, and the per-event laws must hold
    throughout."""
    loop, tasks = build_async_loop(
        seed,
        32,
        4,
        parallel=2,
        max_pending=8,
        expected_tasks=60,
        grace=2.0,
    )
    chunks = [tasks[i::4] for i in range(4)]

    def producer(chunk):
        for k, task in enumerate(chunk):
            loop.submit([task], start_time=float(k))

    producers = [
        threading.Thread(target=producer, args=(chunk,)) for chunk in chunks
    ]

    def closer():
        for thread in producers:
            thread.join()
        loop.close_intake()

    closer_thread = threading.Thread(target=closer)
    for thread in producers:
        thread.start()
    closer_thread.start()
    metrics = loop.run()
    closer_thread.join(timeout=10.0)
    assert not closer_thread.is_alive()
    final_laws(loop.engine, metrics)
    assert metrics.completed == metrics.submitted == 60
    assert loop.intake.stats.submitted == 60
    assert loop.intake.stats.peak_pending <= 8


@pytest.mark.parametrize("seed", CHECKPOINT_SEEDS)
def test_async_pause_checkpoint_resume_matches_sync(seed, tmp_path):
    """Pause/checkpoint mid-flight on the async path: a concurrent
    campaign checkpointed with juries in flight and resumed from SQLite
    must land on the synchronous path's fingerprint."""
    reference = build_facade_campaign(seed, 48, 4).run().fingerprint()

    path = tmp_path / f"async-{seed}.db"
    interrupted = build_facade_campaign(
        seed,
        48,
        4,
        SQLiteBackend(path),
        ingestion="async",
        parallel_shards=2,
    )
    interrupted.run(until=10 + (seed % 3) * 15)
    assert not interrupted.done
    interrupted.checkpoint()
    interrupted.close()

    resumed = Campaign.resume(SQLiteBackend(path))
    assert resumed.config.ingestion == "async"
    assert resumed.run().fingerprint() == reference
    final_laws(resumed.engine, resumed.metrics)
    resumed.close()


@pytest.mark.parametrize("seed", CHECKPOINT_SEEDS)
def test_scripted_submission_interleavings_match_sync(seed):
    """Submit-while-running, deterministically: a seeded script of
    (submit a batch, serve until N) steps drives a sync campaign and an
    async one through identical run-boundary traffic; the async path —
    intake, drain-before-step, parallel dispatch — must reproduce the
    sync fingerprint byte for byte."""
    rng = np.random.default_rng(seed)
    splits = np.sort(rng.choice(np.arange(5, 55), size=2, replace=False))
    batches = (int(splits[0]), int(splits[1] - splits[0]), int(60 - splits[1]))
    cut_a = int(rng.integers(1, splits[0]))
    cut_b = int(rng.integers(cut_a + 1, splits[1]))

    def scripted(**config_kwargs):
        campaign, tasks = build_facade_campaign(
            seed, 48, 4, submit=False, expected_tasks=60, **config_kwargs
        )
        first = batches[0]
        second = batches[0] + batches[1]
        campaign.submit(tasks[:first])
        campaign.run(until=cut_a)
        campaign.submit(tasks[first:second])
        campaign.run(until=cut_b)
        campaign.submit(tasks[second:])
        metrics = campaign.run()
        assert campaign.done
        assert metrics.completed == 60
        return metrics.fingerprint()

    sync_fp = scripted()
    async_fp = scripted(ingestion="async", parallel_shards=2)
    assert async_fp == sync_fp


def test_async_rebalance_under_interleaved_load():
    """Shard rebalancing triggered while interleaved intake and
    parallel dispatch are live: migrations must happen and every law
    must survive workers changing shards mid-traffic."""
    loop, tasks = build_async_loop(
        11,
        48,
        4,
        num_tasks=120,
        parallel=4,
        rebalance_threshold=0.05,
        interleave=InterleavingSchedule(11),
        expected_tasks=120,
    )
    loop.submit(tasks)
    metrics = loop.run()
    final_laws(loop.engine, metrics)
    assert metrics.completed == 120
    assert loop.engine.scheduler.migrations > 0


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
    """Telemetry on during the threaded submit-while-running scenario:
    producers, the serving loop, and parallel dispatch workers all
    report into the hub concurrently.  Every histogram must conserve
    its counts, the hub's counters must reconcile with the intake's own
    ledger, and the per-event campaign laws must hold throughout."""
    loop, tasks = build_async_loop(
        seed,
        32,
        4,
        parallel=2,
        max_pending=8,
        expected_tasks=60,
        grace=2.0,
        telemetry="on",
    )
    chunks = [tasks[i::4] for i in range(4)]

    def producer(chunk):
        for k, task in enumerate(chunk):
            loop.submit([task], start_time=float(k))

    producers = [
        threading.Thread(target=producer, args=(chunk,)) for chunk in chunks
    ]

    def closer():
        for thread in producers:
            thread.join()
        loop.close_intake()

    closer_thread = threading.Thread(target=closer)
    for thread in producers:
        thread.start()
    closer_thread.start()
    metrics = loop.run()
    closer_thread.join(timeout=10.0)
    assert not closer_thread.is_alive()
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
    # Per-producer rows cover every submitting thread and reconcile.
    per_producer = loop.intake.stats.per_producer
    assert sum(row["submits"] for row in per_producer.values()) == 60


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_telemetry_is_observation_only_under_seeded_interleavings(seed):
    """The deterministic interleaved path must land on the same
    fingerprint with the hub recording as with NullTelemetry — spans,
    counters, and drain timing never leak into campaign decisions."""

    def one_run(telemetry):
        loop, tasks = build_async_loop(
            seed,
            48,
            4,
            parallel=2,
            interleave=InterleavingSchedule(seed * 31 + 1),
            expected_tasks=60,
            checked=False,
            telemetry=telemetry,
        )
        loop.submit(tasks)
        metrics = loop.run()
        if telemetry == "on":
            _assert_histogram_invariants(loop.engine.telemetry)
        return metrics.fingerprint()

    assert one_run("off") == one_run("on")
