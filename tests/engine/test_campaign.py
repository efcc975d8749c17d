"""The Campaign facade: lifecycle, unified config, resumable stepping,
equivalence with the bare engine it drives."""

import dataclasses

import numpy as np
import pytest

from repro.engine import (
    Campaign,
    CampaignConfig,
    CampaignEngine,
    CampaignScheduler,
    EngineTask,
    MemoryBackend,
    ShardedScheduler,
)
from repro.simulation import SyntheticPoolConfig, generate_pool

#: Config fields retired because no caller set them.
RETIRED_FIELDS = {
    "reestimate_method",
    "reestimate_rate",
    "vote_latency",
    "rebalance_threshold",
    "rebalance_max_moves",
    "ingest_grace",
    "ingest_producer_quota",
    "trace_path",
    "quantization",
    "cache_max_entries",
}


def make_pool(num_workers=24, seed=1):
    rng = np.random.default_rng(seed)
    return generate_pool(
        SyntheticPoolConfig(num_workers=num_workers, quality_ceiling=0.95),
        rng,
    )


def make_tasks(num_tasks=80, seed=5):
    rng = np.random.default_rng(seed)
    truths = rng.integers(0, 2, size=num_tasks)
    return [
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    ]


def make_campaign(num_shards=1, seed=5, backend=None, **overrides):
    defaults = dict(
        budget=30.0, confidence_target=0.95, seed=seed, num_shards=num_shards
    )
    defaults.update(overrides)
    campaign = Campaign.open(
        make_pool(), CampaignConfig(**defaults), backend=backend
    )
    campaign.submit(make_tasks(seed=seed))
    return campaign


class TestCampaignConfig:
    def test_engine_view_forwards_every_engine_field(self):
        """The engine reads the campaign's config itself — there is no
        second config object for a field to get lost on the way to."""
        campaign = make_campaign(capacity=2, batch_size=7, seed=3)
        engine = campaign.engine
        assert engine.config is campaign.config
        assert engine.registry.states[0].capacity == 2
        campaign.run(until=1)
        assert engine.scheduler.allocator.budget == 30.0

    def test_sharding_view(self):
        """``num_shards`` sets the shard count of the one scheduler
        every campaign serves through."""
        campaign = make_campaign(num_shards=4)
        campaign.run(until=1)
        scheduler = campaign.engine.scheduler
        assert isinstance(scheduler, ShardedScheduler)
        assert len(scheduler.shards) == 4
        single = make_campaign()
        single.run(until=1)
        assert isinstance(single.engine.scheduler, ShardedScheduler)
        assert len(single.engine.scheduler.shards) == 1
        assert isinstance(
            single.engine.scheduler.shards[0].scheduler, CampaignScheduler
        )

    def test_validation_delegates_to_subsumed_configs(self):
        with pytest.raises(ValueError):
            CampaignConfig(budget=-1.0)
        with pytest.raises(ValueError):
            CampaignConfig(budget=1.0, num_shards=0)
        with pytest.raises(ValueError):
            CampaignConfig(budget=1.0, serve_port=70000)

    @pytest.mark.parametrize("field,value,message", [
        ("budget", -1.0, "budget"),
        ("batch_size", 0, "batch_size"),
        ("reestimate_every", -1, "reestimate_every"),
        ("checkpoint_every", -1, "checkpoint_every"),
        ("ingestion", "batch", "ingestion"),
        ("parallel_shards", -1, "parallel_shards"),
        ("parallel_shards", 1, "parallel_shards"),
        ("dispatch", "fork", "dispatch"),
        ("dispatch", "processes", "dispatch"),
        ("ingest_max_pending", 0, "ingest_max_pending"),
        ("telemetry", "verbose", "telemetry"),
        ("metrics_interval", 0.0, "metrics_interval"),
        ("vote_source", "oracle", "vote_source"),
        ("confidence_target", 0.3, "confidence_target"),
        ("alpha", 1.5, "prior alpha"),
        ("num_shards", 0, "num_shards"),
        ("serve_port", 70000, "serve_port"),
        ("lease_ttl", 0.0, "lease_ttl"),
    ])
    def test_every_field_invariant_is_checked(self, field, value, message):
        """The one config validates every knob itself — each check that
        used to live on a separate engine or sharding config."""
        with pytest.raises(ValueError, match=message):
            CampaignConfig(**{"budget": 1.0, field: value})

    def test_dict_round_trip(self):
        config = CampaignConfig(
            budget=4.0, num_shards=2, num_buckets=10, seed=11
        )
        assert CampaignConfig.from_dict(config.to_dict()) == config
        # The retired dispatch knobs are init-only: never stored.
        assert not {"parallel_shards", "dispatch"} & set(config.to_dict())

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            CampaignConfig.from_dict({"budget": 1.0, "shards": 2})
        # Only the retired mode fields are tolerated (and dropped).
        retired = {"budget": 1.0, "jq_kernel": "scalar", "vote_fanout": 4}
        assert CampaignConfig.from_dict(retired) == CampaignConfig(budget=1.0)
        dispatch = {
            "budget": 1.0, "parallel_shards": 4, "dispatch": "processes"
        }
        assert CampaignConfig.from_dict(dispatch) == CampaignConfig(budget=1.0)
        with pytest.raises(ValueError, match="unknown"):
            CampaignConfig.from_dict({**retired, "jq_kernels": "batch"})

    def test_from_dict_replays_only_hash_routing(self):
        """``routing_policy`` is retired: a stored ``"hash"`` (the one
        rule left) is dropped; any other stored policy routed tasks
        differently, so resuming it must fail naming the policy."""
        stored = CampaignConfig(budget=1.0, num_shards=2).to_dict()
        hashed = {**stored, "routing_policy": "hash"}
        assert CampaignConfig.from_dict(hashed) == CampaignConfig(
            budget=1.0, num_shards=2
        )
        for policy in ("least-loaded", "quality-balanced"):
            with pytest.raises(ValueError, match=policy):
                CampaignConfig.from_dict({**stored, "routing_policy": policy})

    @pytest.mark.parametrize("field", sorted(RETIRED_FIELDS))
    def test_retired_fields_are_gone(self, field):
        """Fields no caller set became constants or were deleted, and
        ``ingestion`` became a retired init-only argument; the config
        keeps 20 stored fields."""
        assert len(dataclasses.fields(CampaignConfig)) == 20
        assert "ingestion" not in CampaignConfig(budget=1.0).to_dict()
        assert field not in CampaignConfig(budget=1.0).to_dict()
        with pytest.raises(TypeError, match=field):
            CampaignConfig(budget=1.0, **{field: 1})


class TestFacadeEquivalence:
    """The facade must reproduce the bare engine bit-for-bit — the
    lifecycle wrapper never changes campaign decisions."""

    @staticmethod
    def bare_fingerprint(num_shards):
        engine = CampaignEngine(
            make_pool(),
            CampaignConfig(
                budget=30.0,
                confidence_target=0.95,
                seed=5,
                num_shards=num_shards,
            ),
        )
        engine.submit(make_tasks())
        return engine.run().fingerprint()

    def test_matches_campaign_engine(self):
        bare = self.bare_fingerprint(1)
        assert make_campaign().run().fingerprint() == bare

    def test_matches_sharded_campaign_engine(self):
        bare = self.bare_fingerprint(4)
        assert make_campaign(num_shards=4).run().fingerprint() == bare

    def test_paused_and_drained_equals_one_shot(self):
        one_shot = make_campaign().run().fingerprint()
        stepped = make_campaign()
        stepped.run(until=20)
        assert not stepped.done
        stepped.run(until=50)
        assert stepped.run().fingerprint() == one_shot
        assert stepped.done


class TestLifecycle:
    def test_direct_construction_is_refused(self):
        with pytest.raises(TypeError, match="Campaign.open"):
            Campaign()

    def test_run_until_pauses_at_completion_count(self):
        campaign = make_campaign()
        metrics = campaign.run(until=25)
        assert 25 <= metrics.completed < 80
        assert not campaign.done
        campaign.run()
        assert campaign.done
        assert campaign.metrics.completed == 80

    def test_submit_between_runs_is_served(self):
        campaign = make_campaign()
        campaign.run(until=25)
        campaign.submit(
            [EngineTask("late-arrival", ground_truth=1)],
            start_time=1e6,
        )
        campaign.run()
        assert campaign.metrics.completed == 81

    def test_submit_after_done_is_refused(self):
        campaign = make_campaign()
        campaign.run()
        with pytest.raises(RuntimeError, match="finished"):
            campaign.submit([EngineTask("too-late")])

    def test_non_finite_arrival_times_are_refused(self):
        """A NaN queue key breaks the event queue's ``(time, seq)``
        order; ``0 * inf`` is NaN too."""
        campaign = make_campaign()
        for stamps in (
            {"start_time": float("nan")},
            {"start_time": float("-inf")},
            {"spacing": float("inf")},
        ):
            with pytest.raises(ValueError, match="finite"):
                campaign.submit([EngineTask("odd")], **stamps)
        # The refused id was not taken.
        campaign.submit([EngineTask("odd", ground_truth=1)])
        assert campaign.run().completed == 81

    def test_a_refused_chunk_queues_none_of_it(self):
        """A chunk refused for its second task (a repeat inside the
        chunk, a stamp that overflows to inf, a non-task) queues none
        of its arrivals and takes none of its ids."""
        campaign = make_campaign()
        queued = campaign.engine.queued_events
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
            assert campaign.engine.queued_events == queued
        campaign.submit(
            [EngineTask("a", ground_truth=1), EngineTask("b", ground_truth=0)]
        )
        assert campaign.run().completed == 82

    def test_closed_campaign_refuses_everything(self):
        campaign = make_campaign()
        campaign.close()
        campaign.close()  # idempotent
        for call in (
            lambda: campaign.run(),
            lambda: campaign.checkpoint(),
            lambda: campaign.submit([EngineTask("x")]),
        ):
            with pytest.raises(RuntimeError, match="closed"):
                call()

    def test_context_manager_closes(self):
        with make_campaign() as campaign:
            campaign.run(until=10)
        with pytest.raises(RuntimeError, match="closed"):
            campaign.run()

    def test_default_backend_is_memory(self):
        campaign = make_campaign()
        assert isinstance(campaign.backend, MemoryBackend)
        campaign.run(until=10)
        campaign.checkpoint()
        assert campaign.backend.exists()

    def test_render_uses_config_budget(self):
        campaign = make_campaign()
        campaign.run()
        assert "/ budget 30" in campaign.render()

    def test_facade_construction_emits_no_deprecation(self, recwarn):
        make_campaign(num_shards=2)
        CampaignEngine(make_pool(), CampaignConfig(budget=1.0, num_shards=2))
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
