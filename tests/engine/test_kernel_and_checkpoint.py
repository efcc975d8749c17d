"""Batched-kernel parity, frontier-memo LRU, scheduled checkpoints and
live paused-report gauges.

The scheduler builds every frontier through the batched kernel; the
scalar path in :mod:`repro.frontier` is the oracle it must match in
every decision, cache counter, and therefore the campaign fingerprint.
Scheduled checkpoints are read-only snapshots, so an auto-checkpointing
run (and anything resumed from one of its checkpoints) must also be
fingerprint-identical to an uninterrupted run.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import Worker, WorkerPool
from repro.engine import (
    Campaign,
    CampaignConfig,
    EngineTask,
    JQCache,
    MemoryBackend,
)
from repro.engine import scheduler as scheduler_module
from repro.engine.metrics import TaskRecord
from repro.engine.scheduler import MAX_FRONTIER_MEMO, CampaignScheduler
from repro.engine.state import WorkerRegistry
from repro.simulation import SyntheticPoolConfig, generate_pool

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: Every retired config field a stored checkpoint may still carry, at
#: the default it had while it was a field.
RETIRED_DEFAULTS = {
    "routing_policy": "hash",
    "reestimate_method": "one-coin",
    "reestimate_rate": 0.3,
    "vote_latency": 1.0,
    "rebalance_threshold": 0.25,
    "rebalance_max_moves": 2,
    "ingest_grace": 0.05,
    "trace_path": None,
    "ingestion": "sync",
    "ingest_producer_quota": 0.0,
}


def make_pool(num_workers=24, seed=1):
    rng = np.random.default_rng(seed)
    return generate_pool(
        SyntheticPoolConfig(num_workers=num_workers, quality_ceiling=0.95),
        rng,
    )


def make_campaign(backend=None, seed=5, num_tasks=120, **overrides):
    defaults = dict(
        budget=40.0,
        confidence_target=0.95,
        reestimate_every=25,
        seed=seed,
    )
    defaults.update(overrides)
    campaign = Campaign.open(
        make_pool(), CampaignConfig(**defaults), backend=backend
    )
    rng = np.random.default_rng(seed)
    truths = rng.integers(0, 2, size=num_tasks)
    campaign.submit(
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    )
    return campaign


class TestKernelToggle:
    @pytest.mark.parametrize("num_shards", [1, 3])
    @pytest.mark.parametrize("quantization", ["auto", None])
    def test_fingerprint_identical_across_kernel_toggle(
        self, num_shards, quantization, monkeypatch
    ):
        """Re-estimation every 25 tasks churns the frontier memos, so
        both paths rebuild frontiers constantly — and must agree on
        every decision and every cache counter.  The scalar oracle is
        swapped in under the scheduler's own frontier builder."""
        batch = make_campaign(
            num_shards=num_shards, quantization=quantization
        ).run()

        batch_frontier = scheduler_module.exact_frontier
        calls = []

        def scalar_frontier(pool, objective, implementation):
            calls.append(implementation)
            return batch_frontier(pool, objective, implementation="scalar")

        monkeypatch.setattr(
            scheduler_module, "exact_frontier", scalar_frontier
        )
        scalar = make_campaign(
            num_shards=num_shards, quantization=quantization
        ).run()
        assert calls and set(calls) == {"batch"}
        assert batch.fingerprint() == scalar.fingerprint()
        assert batch.cache_stats == scalar.cache_stats


class TestReestimationPin:
    #: Recorded from the scalar-loop one-coin EM.  Re-estimation feeds
    #: the fitted qualities into every later frontier and into the
    #: fingerprint's full-precision estimation error, so a last-ulp
    #: drift in EM changes this digest.
    FINGERPRINT = (
        "365080e9a5e3fc72da58e5b1287fc10cff19dba50bfe422dd4f5411eae5f0744"
    )

    def test_one_coin_reestimation_fingerprint_is_pinned(self):
        metrics = make_campaign(
            backend=MemoryBackend(),
            num_tasks=300,
            budget=100.0,
            reestimate_every=50,
        ).run()
        assert metrics.reestimations == 6
        assert metrics.fingerprint() == self.FINGERPRINT


class TestFrontierMemoLRU:
    def _scheduler(self, pool_size=4):
        pool = WorkerPool(
            Worker(f"w{i}", 0.6 + 0.05 * i, 1.0) for i in range(pool_size)
        )
        registry = WorkerRegistry(pool, capacity=4)
        return CampaignScheduler(registry, JQCache())

    def test_overflow_evicts_lru_not_everything(self):
        scheduler = self._scheduler()
        for i in range(MAX_FRONTIER_MEMO):
            scheduler._frontier_memo[("key", i)] = f"frontier-{i}"
        # Touch the oldest entry: recency refresh must spare it.
        hit = scheduler._frontier_memo.get(("key", 0))
        del scheduler._frontier_memo[("key", 0)]
        scheduler._frontier_memo[("key", 0)] = hit
        # Admit a batch so a real miss inserts at the bound.
        tasks = [EngineTask("t0")]
        scheduler.admit(tasks, 1.0)
        assert len(scheduler._frontier_memo) == MAX_FRONTIER_MEMO
        assert ("key", 0) in scheduler._frontier_memo  # refreshed: kept
        assert ("key", 1) not in scheduler._frontier_memo  # LRU: evicted
        assert ("key", 2) in scheduler._frontier_memo  # everyone else kept

    def test_memo_order_round_trips_through_state(self):
        scheduler = self._scheduler()
        scheduler.admit([EngineTask("t0")], 1.0)
        # A hit on the same pool must refresh recency, preserving dict
        # order as the LRU order in the persisted state.
        scheduler.admit([EngineTask("t1")], 1.0)
        state = scheduler.state_dict()
        restored = self._scheduler()
        restored.load_state(state)
        assert list(restored._frontier_memo) == list(scheduler._frontier_memo)


class TestScheduledCheckpoints:
    def test_auto_checkpoint_writes_backend(self):
        backend = MemoryBackend()
        campaign = make_campaign(backend=backend, checkpoint_every=30)
        campaign.run()
        # The final state was written by the *hook*, without any manual
        # checkpoint() call.
        assert backend.exists()

    def test_resume_from_auto_checkpoint_is_byte_identical(self):
        reference = make_campaign().run().fingerprint()

        backend = MemoryBackend()
        campaign = make_campaign(backend=backend, checkpoint_every=30)
        campaign.run(until=70)  # pause somewhere past two checkpoints
        # Simulate a crash: drop the campaign, resume from the last
        # *auto* checkpoint and finish.
        resumed = Campaign.resume(backend)
        assert resumed.metrics.completed >= 30
        assert resumed.metrics.completed <= 70
        assert resumed.run().fingerprint() == reference

    def test_auto_checkpointing_does_not_perturb_the_run(self):
        plain = make_campaign().run().fingerprint()
        checkpointed = make_campaign(
            backend=MemoryBackend(), checkpoint_every=10
        ).run().fingerprint()
        assert checkpointed == plain

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(budget=1.0, checkpoint_every=-1)

    def test_record_payload_equals_asdict_key_order_included(self):
        metrics = make_campaign(num_tasks=60).run()
        records = metrics.state_dict()["records"]
        assert len(records) == len(metrics.records) == 60
        for record, payload in zip(metrics.records, records):
            assert payload == dataclasses.asdict(record)
            assert list(payload.items()) == list(
                dataclasses.asdict(record).items()
            )
            assert TaskRecord(**payload) == record


class TestRetiredConfigFields:
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_checkpoint_with_retired_modes_resumes_identically(
        self, num_shards
    ):
        """Checkpoints written while ``jq_kernel``, ``vote_fanout``,
        ``parallel_shards`` and ``dispatch`` were still config fields
        carry them in the saved config.  Every one of those modes was
        fingerprint-neutral, so resume drops them and lands on the
        uninterrupted run's fingerprint."""
        reference = make_campaign(num_shards=num_shards).run().fingerprint()

        backend = MemoryBackend()
        campaign = make_campaign(backend=backend, num_shards=num_shards)
        campaign.run(until=50)
        campaign.checkpoint()
        snapshot = backend.load()
        snapshot["campaign"]["config"].update(
            jq_kernel="scalar",
            vote_fanout=4,
            parallel_shards=4,
            dispatch="processes",
        )
        backend.save(snapshot)

        resumed = Campaign.resume(backend)
        assert resumed.metrics.completed >= 50
        assert resumed.run().fingerprint() == reference

    @staticmethod
    def resume_with(config_fields, num_shards=3):
        """Pause a campaign, store ``config_fields`` into its saved
        config, and resume it."""
        backend = MemoryBackend()
        campaign = make_campaign(backend=backend, num_shards=num_shards)
        campaign.run(until=50)
        campaign.checkpoint()
        snapshot = backend.load()
        snapshot["campaign"]["config"].update(config_fields)
        backend.save(snapshot)
        return Campaign.resume(backend)

    @pytest.mark.parametrize("num_shards", [1, 3])
    @pytest.mark.parametrize("field", sorted(RETIRED_DEFAULTS))
    def test_retired_field_at_its_old_default_resumes_identically(
        self, field, num_shards
    ):
        """Checkpoints written while these were config fields carry them
        at their defaults.  Each decision-affecting default is the value
        its constant kept; the intake mode, grace and quota and the
        trace path never shaped a decision.  Either way resume lands on the
        uninterrupted run."""
        reference = make_campaign(num_shards=num_shards).run().fingerprint()
        resumed = self.resume_with(
            {field: RETIRED_DEFAULTS[field]}, num_shards
        )
        assert field not in resumed.config.to_dict()
        assert resumed.run().fingerprint() == reference

    @pytest.mark.parametrize("field,value", [
        ("routing_policy", "least-loaded"),
        ("reestimate_method", "dawid-skene"),
        ("reestimate_rate", 0.5),
        ("vote_latency", 2.0),
        ("rebalance_threshold", 0.1),
        ("rebalance_max_moves", 0),
    ])
    def test_retired_decision_field_off_its_constant_refuses_to_resume(
        self, field, value
    ):
        with pytest.raises(ValueError, match=field):
            self.resume_with({field: value})

    @pytest.mark.parametrize("field,value", [
        ("ingest_grace", "auto"),
        ("ingest_grace", 2.5),
        ("trace_path", "campaign-trace.json"),
        ("ingestion", "async"),
        ("ingestion", "batch"),
        ("ingest_producer_quota", 0.25),
        ("ingest_producer_quota", 1.0),
    ])
    def test_wall_clock_and_output_fields_drop_at_any_value(
        self, field, value
    ):
        reference = make_campaign(num_shards=3).run().fingerprint()
        resumed = self.resume_with({field: value})
        assert resumed.run().fingerprint() == reference

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_fixtures_carry_every_retired_field_at_its_default(
        self, version
    ):
        """The committed v1/v2 checkpoints (whose resume is pinned in
        ``test_backends.py``) were written with every retired field."""
        snapshot = json.loads(
            (FIXTURES / f"v{version}_checkpoint.json").read_text()
        )
        config = snapshot["campaign"]["config"]
        for field, default in RETIRED_DEFAULTS.items():
            assert config[field] == default, field
        backend = MemoryBackend()
        backend.save(snapshot)
        resumed = Campaign.resume(backend)
        resumed.run()
        assert resumed.done

    def test_other_unknown_fields_still_refuse_to_resume(self):
        backend = MemoryBackend()
        campaign = make_campaign(backend=backend)
        campaign.run(until=10)
        campaign.checkpoint()
        snapshot = backend.load()
        snapshot["campaign"]["config"]["shard_policy"] = "hash"
        backend.save(snapshot)
        with pytest.raises(ValueError, match="shard_policy"):
            Campaign.resume(backend)


class TestPausedReportGauges:
    def test_paused_metrics_carry_live_gauges(self):
        campaign = make_campaign()
        metrics = campaign.run(until=40)
        assert not campaign.done
        assert metrics.peak_worker_load > 0
        assert metrics.cache_stats is not None
        assert metrics.cache_stats.lookups > 0
        report = campaign.render()
        assert "peak load    : 0 concurrent seats" not in report
        assert "cache        :" in report

    def test_final_gauges_unchanged_by_pausing(self):
        paused = make_campaign()
        paused.run(until=40)
        final_paused = paused.run()
        straight = make_campaign().run()
        assert final_paused.fingerprint() == straight.fingerprint()
        assert final_paused.peak_worker_load == straight.peak_worker_load


class TestCacheBatchReplay:
    """JQCache.jq_batch / jq_all_subsets must evolve the store exactly
    like the equivalent sequence of scalar jq() calls — same values,
    same hit/miss/eviction counters, same LRU order."""

    def _twin_caches(self, **kwargs):
        return JQCache(**kwargs), JQCache(**kwargs)

    def test_jq_batch_matches_scalar_sequence(self, rng=None):
        rng = np.random.default_rng(17)
        batch_cache, scalar_cache = self._twin_caches(
            alpha=0.3, quantization=200, max_entries=8
        )
        # Small LRU bound on purpose: replay-inserted keys get evicted
        # and re-missed within one batch, exercising the fallback that
        # recomputes a value scalar-side.
        rows = [
            rng.random(int(rng.integers(0, 15)))
            for _ in range(60)
        ]
        rows += rows[:10]  # duplicates: hits after first insertion
        values = batch_cache.jq_batch(rows)
        expected = [scalar_cache.jq(row) for row in rows]
        assert [float(v) for v in values] == expected
        assert batch_cache.stats == scalar_cache.stats
        assert list(batch_cache._store.items()) == list(
            scalar_cache._store.items()
        )

    def test_jq_all_subsets_matches_scalar_sequence(self):
        rng = np.random.default_rng(23)
        for quantization in (None, 200):
            batch_cache, scalar_cache = self._twin_caches(
                quantization=quantization, max_entries=500
            )
            qualities = rng.random(7)
            table = batch_cache.jq_all_subsets(qualities)
            n = qualities.size
            for mask in range(1, 1 << n):
                members = [i for i in range(n) if mask >> i & 1]
                assert float(table[mask]) == scalar_cache.jq(
                    qualities[members]
                ), (quantization, mask)
            assert batch_cache.stats == scalar_cache.stats
            assert list(batch_cache._store.items()) == list(
                scalar_cache._store.items()
            )

    def test_cached_objective_chunked_frontier_fallback(self):
        """Pools past the lattice bound route CachedJQObjective through
        jq_batch — still identical to the scalar cached frontier."""
        from repro.engine.cache import CachedJQObjective
        from repro.frontier import exact_frontier
        from repro.simulation import SyntheticPoolConfig, generate_pool

        rng = np.random.default_rng(31)
        pool = generate_pool(SyntheticPoolConfig(num_workers=15), rng)
        batch_cache, scalar_cache = self._twin_caches(quantization=200)
        batch = exact_frontier(
            pool, CachedJQObjective(batch_cache),
            implementation="batch", max_pool=15,
        )
        scalar = exact_frontier(
            pool, CachedJQObjective(scalar_cache),
            implementation="scalar", max_pool=15,
        )
        assert batch.points == scalar.points
        assert batch_cache.stats == scalar_cache.stats
