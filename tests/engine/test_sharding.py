"""Unit tests for the sharded serving layer: partitioning, registry
views, the budget allocator's ledger, hash routing, rebalancing, and
the engine's reporting surface."""

import zlib

import numpy as np
import pytest

from repro.core import Worker, WorkerPool
from repro.engine import (
    BudgetAllocator,
    CampaignConfig,
    CampaignEngine,
    EngineTask,
    ShardedScheduler,
    ShardRegistryView,
    WorkerRegistry,
    partition_members,
    quality_mass,
)
from repro.engine import sharding
from repro.engine.sharding import MIN_SHARD_MEMBERS
from repro.simulation import SyntheticPoolConfig, generate_pool


def make_registry(qualities, capacity=2):
    pool = WorkerPool(
        Worker(f"w{i}", q, 1.0) for i, q in enumerate(qualities)
    )
    return WorkerRegistry(pool, capacity=capacity)


def make_scheduler(
    num_workers=16,
    shards=4,
    budget=30.0,
    expected=100,
    capacity=2,
    seed=5,
):
    rng = np.random.default_rng(seed)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=num_workers, quality_ceiling=0.95),
        rng,
    )
    registry = WorkerRegistry(pool, capacity=capacity)
    config = CampaignConfig(
        budget=budget,
        capacity=capacity,
        seed=seed,
        num_shards=shards,
    )
    return ShardedScheduler(registry, config, expected)


class TestShardingConfig:
    """The sharding fields of :class:`CampaignConfig`."""

    def test_validates_num_shards(self):
        with pytest.raises(ValueError, match="num_shards"):
            CampaignConfig(budget=1.0, num_shards=0)

    def test_routing_policy_is_not_a_field(self):
        """Hash routing is the one rule; the policy knob is gone."""
        with pytest.raises(TypeError, match="routing_policy"):
            CampaignConfig(budget=1.0, routing_policy="hash")


class TestPartition:
    def test_round_robin_deal_is_stratified(self):
        registry = make_registry([0.95, 0.9, 0.85, 0.8, 0.75, 0.7])
        members = partition_members(registry, 2)
        # Most-informative-first deal: shard 0 gets ranks 0,2,4...
        assert members[0] == ["w0", "w2", "w4"]
        assert members[1] == ["w1", "w3", "w5"]

    def test_every_worker_lands_exactly_once(self):
        registry = make_registry(np.linspace(0.55, 0.95, 13))
        members = partition_members(registry, 4)
        flat = [w for shard in members for w in shard]
        assert sorted(flat) == sorted(registry.worker_ids)

    def test_rejects_more_shards_than_workers(self):
        registry = make_registry([0.8, 0.7])
        with pytest.raises(ValueError, match="num_shards"):
            partition_members(registry, 3)


class TestShardRegistryView:
    def test_filters_to_members(self):
        registry = make_registry([0.9, 0.8, 0.7, 0.6])
        view = ShardRegistryView(registry, ["w0", "w2"])
        assert len(view) == 2
        assert {s.worker.worker_id for s in view.states} == {"w0", "w2"}
        pool_ids = {w.worker_id for w in view.available_pool()}
        assert pool_ids == {"w0", "w2"}

    def test_member_order_follows_global_registry(self):
        registry = make_registry([0.9, 0.8, 0.7, 0.6])
        view = ShardRegistryView(registry, ["w2", "w0"])
        assert view.member_ids == ("w0", "w2")

    def test_rejects_unknown_member(self):
        registry = make_registry([0.9])
        with pytest.raises(KeyError):
            ShardRegistryView(registry, ["ghost"])

    def test_assign_outside_shard_is_refused(self):
        registry = make_registry([0.9, 0.8])
        view = ShardRegistryView(registry, ["w0"])
        with pytest.raises(KeyError, match="not a member"):
            view.assign("w1", "t0")
        assert view.free_capacity("w1") == 0  # not ours to seat

    def test_assignment_flows_to_global_registry(self):
        registry = make_registry([0.9, 0.8], capacity=1)
        view = ShardRegistryView(registry, ["w0"])
        view.assign("w0", "t0")
        assert registry.state("w0").load == 1
        assert view.active_seats == 1
        assert view.load_ratio == 1.0

    def test_membership_moves_are_visible(self):
        registry = make_registry([0.9, 0.8])
        a = ShardRegistryView(registry, ["w0"])
        b = ShardRegistryView(registry, ["w1"])
        a.remove_member("w0")
        b.add_member("w0")
        assert len(a) == 0
        assert b.member_ids == ("w0", "w1")

    def test_quality_mass_counts_available_only(self):
        registry = make_registry([0.9, 0.8], capacity=1)
        view = ShardRegistryView(registry, ["w0", "w1"])
        full = view.quality_mass()
        view.assign("w0", "t0")
        assert view.quality_mass() < full
        assert view.quality_mass(available_only=False) == pytest.approx(
            quality_mass(view.states, available_only=False)
        )


class TestBudgetAllocator:
    def test_entitlement_grows_pro_rata_and_caps_at_budget(self):
        allocator = BudgetAllocator(budget=100.0, expected_tasks=10)
        assert allocator.open_round(["a", "b"]) == pytest.approx(20.0)
        assert allocator.entitled == pytest.approx(20.0)
        # Re-presenting the same ids mints nothing new.
        assert allocator.open_round(["a", "b"]) == pytest.approx(20.0)
        allocator.open_round([f"t{i}" for i in range(50)])
        assert allocator.entitled == 100.0

    def test_round_budget_nets_out_reservations_and_refunds(self):
        allocator = BudgetAllocator(budget=100.0, expected_tasks=10)
        allocator.open_round(["a", "b"])
        grants = allocator.split(20.0, {0: 1.0})
        allocator.settle(grants[0], 15.0)
        assert allocator.open_round([]) == pytest.approx(5.0)
        allocator.refund(5.0)
        assert allocator.open_round([]) == pytest.approx(10.0)

    def test_split_is_proportional_to_mass(self):
        allocator = BudgetAllocator(budget=100.0, expected_tasks=10)
        grants = allocator.split(30.0, {0: 2.0, 1: 1.0})
        assert grants[0] == pytest.approx(20.0)
        assert grants[1] == pytest.approx(10.0)
        assert allocator.granted == pytest.approx(30.0)

    def test_split_zero_mass_falls_back_to_equal(self):
        allocator = BudgetAllocator(budget=100.0, expected_tasks=10)
        grants = allocator.split(30.0, {0: 0.0, 2: 0.0})
        assert grants == {0: 15.0, 2: 15.0}

    def test_sole_recipient_gets_exact_round_budget(self):
        allocator = BudgetAllocator(budget=100.0, expected_tasks=10)
        budget = 0.1 + 0.2  # a float that proportional math would mangle
        assert allocator.split(budget, {3: 0.3})[3] == budget

    def test_settle_rejects_overspend_and_tracks_reabsorption(self):
        allocator = BudgetAllocator(budget=100.0, expected_tasks=10)
        grants = allocator.split(20.0, {0: 1.0, 1: 1.0})
        allocator.settle(grants[0], 4.0)
        assert allocator.reserved == pytest.approx(4.0)
        assert allocator.reabsorbed == pytest.approx(6.0)
        with pytest.raises(ValueError, match="beyond its grant"):
            allocator.settle(grants[1], 11.0)

    def test_refund_rejects_negative(self):
        allocator = BudgetAllocator(budget=10.0, expected_tasks=1)
        with pytest.raises(ValueError, match="refund"):
            allocator.refund(-1.0)

    def test_snapshot_carries_the_ledger(self):
        allocator = BudgetAllocator(budget=50.0, expected_tasks=5)
        allocator.open_round(["a"])
        grants = allocator.split(10.0, {0: 1.0})
        allocator.settle(grants[0], 7.0)
        allocator.refund(2.0)
        snap = allocator.snapshot()
        assert snap.rounds == 1
        assert snap.granted == pytest.approx(10.0)
        assert snap.reserved == pytest.approx(7.0)
        assert snap.reabsorbed == pytest.approx(3.0)
        assert snap.refunded == pytest.approx(2.0)
        assert "re-absorbed" in snap.render()


class TestRouting:
    def tasks(self, n):
        return [EngineTask(f"t{i}") for i in range(n)]

    def test_hash_routing_is_sticky_and_deterministic(self):
        scheduler = make_scheduler()
        routed = scheduler.route(self.tasks(40))
        again = scheduler.route(self.tasks(40))
        assert {
            k: [t.task_id for t in v] for k, v in routed.items()
        } == {k: [t.task_id for t in v] for k, v in again.items()}
        assert sum(len(v) for v in routed.values()) == 40
        assert len(routed) > 1  # 40 ids do not all collide

    @pytest.mark.parametrize("shards", [1, 4])
    def test_routes_by_crc32_of_the_task_id(self, shards):
        scheduler = make_scheduler(shards=shards)
        routed = scheduler.route(self.tasks(40))
        assert sum(len(sub) for sub in routed.values()) == 40
        for shard_id, sub in routed.items():
            for task in sub:
                crc = zlib.crc32(task.task_id.encode("utf-8"))
                assert crc % shards == shard_id

    def test_routing_preserves_task_order_within_shards(self):
        scheduler = make_scheduler()
        tasks = self.tasks(30)
        order = {t.task_id: i for i, t in enumerate(tasks)}
        for sub in scheduler.route(tasks).values():
            indices = [order[t.task_id] for t in sub]
            assert indices == sorted(indices)


class TestRebalancing:
    @pytest.fixture(autouse=True)
    def low_threshold(self, monkeypatch):
        monkeypatch.setattr(sharding, "REBALANCE_THRESHOLD", 0.1)

    def skewed_scheduler(self):
        scheduler = make_scheduler(shards=2, num_workers=12)
        # Saturate shard 1, leave shard 0 idle.
        needy = scheduler.shards[1]
        for state in needy.view.states:
            for i in range(state.free_capacity):
                needy.view.assign(state.worker.worker_id, f"hog-{i}")
        return scheduler

    def test_skew_migrates_idle_workers_to_the_needy_shard(self):
        scheduler = self.skewed_scheduler()
        before = len(scheduler.shards[1].view)
        moved = scheduler.rebalance()
        assert moved == sharding.REBALANCE_MAX_MOVES
        assert len(scheduler.shards[1].view) == before + moved
        assert scheduler.shards[0].migrations_out == moved
        assert scheduler.shards[1].migrations_in == moved

    def test_balanced_load_does_not_migrate(self, monkeypatch):
        monkeypatch.setattr(sharding, "REBALANCE_THRESHOLD", 0.5)
        scheduler = make_scheduler(shards=2)
        assert scheduler.rebalance() == 0

    def test_donor_is_never_stripped_below_minimum(self, monkeypatch):
        monkeypatch.setattr(sharding, "REBALANCE_MAX_MOVES", 100)
        scheduler = self.skewed_scheduler()
        scheduler.rebalance()
        assert len(scheduler.shards[0].view) >= MIN_SHARD_MEMBERS

    def test_zero_max_moves_disables(self, monkeypatch):
        monkeypatch.setattr(sharding, "REBALANCE_MAX_MOVES", 0)
        scheduler = self.skewed_scheduler()
        assert scheduler.rebalance() == 0


class TestShardedEngine:
    def run_campaign(
        self, shards=4, num_tasks=80, pool_size=32, seed=9,
        budget_per_task=0.35, **overrides,
    ):
        rng = np.random.default_rng(seed)
        pool = generate_pool(
            SyntheticPoolConfig(
                num_workers=pool_size, quality_ceiling=0.95
            ),
            rng,
        )
        settings = dict(capacity=3, batch_size=20)
        settings.update(overrides)
        config = CampaignConfig(
            budget=budget_per_task * num_tasks,
            seed=seed,
            num_shards=shards,
            **settings,
        )
        engine = CampaignEngine(pool, config)
        truths = rng.integers(0, 2, size=num_tasks)
        engine.submit(
            EngineTask(f"t{i}", ground_truth=int(t))
            for i, t in enumerate(truths)
        )
        return engine, engine.run()

    def test_campaign_completes_with_shard_reporting(self):
        engine, metrics = self.run_campaign()
        assert metrics.completed == 80
        assert len(metrics.shard_snapshots) == 4
        assert metrics.allocator_snapshot.rounds > 0
        report = metrics.render(budget=engine.config.budget)
        assert "sharding" in report
        assert "shard 0:" in report

    def test_cache_stats_are_aggregated_across_shards(self):
        engine, metrics = self.run_campaign()
        per_shard = [s.cache for s in metrics.shard_snapshots]
        assert metrics.cache_stats.lookups == sum(
            c.lookups for c in per_shard
        )
        assert metrics.cache_stats.entries == sum(
            c.entries for c in per_shard
        )

    def test_four_shards_cost_no_accuracy_past_the_frontier_cap(self):
        """64 workers in burst batches of 200: four shards seat juries
        from 4x the candidate workers of one scheduler and must score
        no worse than it (0.750 against 0.699 at this seed), with the
        serving invariants holding at this scale."""
        accuracy = {}
        for shards in (1, 4):
            engine, metrics = self.run_campaign(
                shards=shards, num_tasks=3000, pool_size=64, seed=2015,
                budget_per_task=0.25, capacity=8, batch_size=200,
                confidence_target=0.95,
            )
            assert len(metrics.shard_snapshots) == shards
            assert metrics.completed == 3000
            assert metrics.peak_worker_load <= 8
            assert metrics.total_spend <= engine.config.budget + 1e-6
            accuracy[shards] = metrics.realized_accuracy
        assert accuracy[4] >= accuracy[1] - 0.02, accuracy

    def test_accepts_bare_int_shard_count(self):
        engine, metrics = self.run_campaign(shards=2)
        assert isinstance(engine.scheduler, ShardedScheduler)
        assert len(engine.scheduler.shards) == 2
        assert len(metrics.shard_snapshots) == 2

    def test_rejects_more_shards_than_workers(self):
        rng = np.random.default_rng(0)
        pool = generate_pool(SyntheticPoolConfig(num_workers=4), rng)
        config = CampaignConfig(budget=10.0, num_shards=5)
        with pytest.raises(ValueError, match="pool size"):
            CampaignEngine(pool, config)

    #: The one-shard campaign's fingerprint as recorded by the engine
    #: that still served one shard through a single self-pacing
    #: scheduler (git c1808d5).
    PLAIN_ENGINE_FINGERPRINT = (
        "440eb56a2da27aebbeb4a2be58075a6e1427f1598b8def7aeec10a5d702fbd98"
    )

    def test_matches_plain_engine_at_one_shard(self):
        """The headline regression: one shard under the allocator
        decides exactly what the retired single scheduler did, bit for
        bit (full matrix in test_invariants.py)."""
        engine, metrics = self.run_campaign(shards=1)
        assert isinstance(engine.scheduler, ShardedScheduler)
        assert len(engine.scheduler.shards) == 1
        assert metrics.fingerprint() == self.PLAIN_ENGINE_FINGERPRINT

    def test_one_shard_reports_the_allocator_ledger(self):
        engine, metrics = self.run_campaign(shards=1)
        allocator = metrics.allocator_snapshot
        assert allocator.rounds == engine.scheduler.stats.batches > 0
        assert allocator.granted == pytest.approx(
            allocator.reserved + allocator.reabsorbed
        )
        assert allocator.refunded == pytest.approx(metrics.total_refunded)
        assert metrics.shard_snapshots[0].workers == 32
        assert metrics.cache_stats == metrics.shard_snapshots[0].cache
        report = metrics.render(budget=engine.config.budget)
        assert "sharding     : allocator:" in report


class TestAdmitErrorSettlement:
    """Regression: a shard scheduler raising mid-``admit`` used to leave
    that round's grants unsettled — the allocator then violated
    ``granted == reserved + reabsorbed`` for the rest of the campaign,
    and the round's unreserved budget was never re-absorbed (a
    permanent ledger leak).  The error path must settle every grant
    against what each shard actually reserved before re-raising."""

    @staticmethod
    def build(shards=4, seed=5):
        rng = np.random.default_rng(seed)
        pool = generate_pool(
            SyntheticPoolConfig(num_workers=16, quality_ceiling=0.95), rng
        )
        registry = WorkerRegistry(pool, capacity=2)
        config = CampaignConfig(
            budget=30.0,
            capacity=2,
            seed=seed,
            num_shards=shards,
        )
        return ShardedScheduler(registry, config, 100)

    @staticmethod
    def tasks(count, offset=0):
        return [EngineTask(f"t{offset + i}") for i in range(count)]

    @staticmethod
    def assert_ledger(scheduler):
        allocator = scheduler.allocator
        assert allocator.granted == pytest.approx(
            allocator.reserved + allocator.reabsorbed, abs=1e-9
        )
        shard_reserved = sum(
            shard.scheduler.reserved for shard in scheduler.shards
        )
        assert shard_reserved == pytest.approx(
            allocator.reserved, abs=1e-9
        )
        granted = sum(shard.granted for shard in scheduler.shards)
        assert granted == pytest.approx(allocator.granted, abs=1e-9)

    def test_raise_before_reserving_reabsorbs_the_grant(self):
        scheduler = self.build()
        calls = []

        def exploding_admit(tasks, batch_budget=None):
            calls.append(len(tasks))
            raise RuntimeError("shard exploded")

        scheduler.shards[2].scheduler.admit = exploding_admit
        with pytest.raises(RuntimeError, match="shard exploded"):
            scheduler.admit(self.tasks(16))
        assert calls, "the broken shard was never dispatched to"
        self.assert_ledger(scheduler)

    def test_raise_after_partial_reserve_settles_the_delta(self):
        scheduler = self.build()
        victim = scheduler.shards[1].scheduler
        real_admit = victim.admit

        def admit_then_explode(tasks, batch_budget=None):
            real_admit(tasks, batch_budget)
            raise RuntimeError("post-reserve failure")

        scheduler.shards[1].scheduler.admit = admit_then_explode
        with pytest.raises(RuntimeError, match="post-reserve failure"):
            scheduler.admit(self.tasks(16))
        # The victim's real reservations happened before the raise; the
        # repair must settle them (not zero) or the shard-sum law breaks.
        self.assert_ledger(scheduler)

    def test_scheduler_still_serves_after_a_failed_round(self):
        scheduler = self.build()
        original = scheduler.shards[3].scheduler.admit

        def explode_once(tasks, batch_budget=None):
            scheduler.shards[3].scheduler.admit = original
            raise RuntimeError("transient")

        scheduler.shards[3].scheduler.admit = explode_once
        with pytest.raises(RuntimeError, match="transient"):
            scheduler.admit(self.tasks(16))
        self.assert_ledger(scheduler)
        assignments, deferred = scheduler.admit(self.tasks(16, offset=100))
        assert assignments or deferred
        self.assert_ledger(scheduler)
