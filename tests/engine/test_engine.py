"""End-to-end engine behavior: the event loop, invariants, refunds,
reproducibility, and the events/metrics building blocks."""

import numpy as np
import pytest

from repro.engine import (
    CampaignConfig,
    CampaignEngine,
    EngineTask,
    EventQueue,
    TaskArrival,
    TaskComplete,
    VoteArrival,
)
from repro.simulation import SyntheticPoolConfig, generate_pool


def make_pool(num_workers=30, seed=1):
    rng = np.random.default_rng(seed)
    return generate_pool(
        SyntheticPoolConfig(num_workers=num_workers, quality_ceiling=0.95),
        rng,
    )


def run_campaign(num_tasks=200, seed=5, pool_size=30, **overrides):
    pool = make_pool(pool_size)
    defaults = dict(
        budget=0.4 * num_tasks,
        capacity=4,
        batch_size=20,
        confidence_target=0.95,
        seed=seed,
    )
    defaults.update(overrides)
    config = CampaignConfig(**defaults)
    engine = CampaignEngine(pool, config)
    rng = np.random.default_rng(seed)
    truths = rng.integers(0, 2, size=num_tasks)
    engine.submit(
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    )
    metrics = engine.run()
    return engine, metrics, config


class TestEndToEnd:
    def test_every_task_completes(self):
        _, metrics, _ = run_campaign()
        assert metrics.completed == metrics.submitted == 200

    def test_capacity_never_exceeded(self):
        engine, metrics, config = run_campaign()
        assert metrics.peak_worker_load <= config.capacity
        for state in engine.registry.states:
            assert state.peak_load <= state.capacity
            assert state.load == 0  # everything released at the end

    def test_spend_within_budget(self):
        engine, metrics, config = run_campaign()
        assert metrics.total_spend <= config.budget + 1e-9
        # The registry's ledger (worker earnings) must agree with the
        # metrics' task-side ledger.
        assert metrics.total_spend == pytest.approx(
            engine.registry.total_spend
        )

    def test_accuracy_tracks_predicted_jq(self):
        _, metrics, _ = run_campaign(num_tasks=400)
        assert metrics.realized_accuracy is not None
        assert metrics.mean_predicted_jq is not None
        assert abs(
            metrics.realized_accuracy - metrics.mean_predicted_jq
        ) < 0.1

    def test_cache_serves_most_lookups(self):
        """Under serving load the candidate pool churns through
        overlapping configurations, so most frontier re-enumerations
        find their juries' quality vectors already cached.  (Small
        static pools are instead absorbed by the scheduler's frontier
        memo before any JQ lookup happens — also fine, also cheap.)"""
        _, metrics, _ = run_campaign(
            num_tasks=600, pool_size=60, capacity=6, budget=0.35 * 600
        )
        assert metrics.cache_stats.hit_rate > 0.5

    def test_grid_keys_beat_exact_keys_under_reestimation(self):
        """Re-estimating every 100 tasks perturbs every jury's quality
        vector: exact cache keys churn while grid keys keep absorbing
        near-identical juries (0.465 against 0.408 at 1,000 tasks; at
        600 tasks the order flips, so the scale is part of the test)."""
        hit_rate = {}
        for quantization in (None, 200):
            rng = np.random.default_rng(2015)
            pool = generate_pool(
                SyntheticPoolConfig(num_workers=60, quality_ceiling=0.95),
                rng,
            )
            engine = CampaignEngine(pool, CampaignConfig(
                budget=0.35 * 1000, capacity=6, batch_size=25,
                confidence_target=0.95, quantization=quantization,
                reestimate_every=100, seed=2015,
            ))
            truths = rng.integers(0, 2, size=1000)
            engine.submit(
                EngineTask(f"t{i}", ground_truth=int(t))
                for i, t in enumerate(truths)
            )
            metrics = engine.run()
            assert metrics.completed == 1000
            hit_rate[quantization] = metrics.cache_stats.hit_rate
        assert hit_rate[200] > hit_rate[None], hit_rate


class TestEarlyStopRefunds:
    def test_early_stops_refund_unspent_cost(self):
        engine, metrics, config = run_campaign(confidence_target=0.9)
        early = [r for r in metrics.records if r.reason == "early-stop"]
        assert early, "expected some early stops at a 0.9 target"
        for record in early:
            assert record.votes_used >= 1
            assert record.spent_cost < record.reserved_cost
            assert record.refund > 0
        # Refunds flowed back into the allocator's pot.
        allocator = engine.scheduler.allocator
        assert allocator.remaining_budget == pytest.approx(
            config.budget - allocator.reserved + metrics.total_refunded
        )

    def test_full_juries_refund_nothing(self):
        _, metrics, _ = run_campaign(confidence_target=1.0)
        assert metrics.early_stopped == 0
        for record in metrics.records:
            if record.reason == "all-votes":
                assert record.refund == pytest.approx(0.0)

    def test_cancelled_votes_cost_nothing(self):
        engine, metrics, _ = run_campaign(confidence_target=0.9)
        # Every cast vote was paid for; cancelled ones were not.
        paid = sum(s.votes_cast for s in engine.registry.states)
        assert paid == metrics.votes_cast


class TestReproducibility:
    def test_same_seed_same_campaign(self):
        _, a, _ = run_campaign(seed=11)
        _, b, _ = run_campaign(seed=11)
        assert [
            (r.task_id, r.answer, r.votes_used, r.spent_cost, r.reason)
            for r in a.records
        ] == [
            (r.task_id, r.answer, r.votes_used, r.spent_cost, r.reason)
            for r in b.records
        ]
        assert a.total_spend == b.total_spend
        assert a.votes_cast == b.votes_cast

    def test_different_seed_different_votes(self):
        _, a, _ = run_campaign(seed=11)
        _, b, _ = run_campaign(seed=12)
        assert [r.answer for r in a.records] != [r.answer for r in b.records]

    def test_reestimation_is_deterministic_too(self):
        _, a, _ = run_campaign(seed=11, reestimate_every=50)
        _, b, _ = run_campaign(seed=11, reestimate_every=50)
        assert [r.answer for r in a.records] == [r.answer for r in b.records]
        assert a.quality_estimation_error == b.quality_estimation_error


class TestEngineLifecycle:
    def test_duplicate_task_ids_rejected(self):
        engine = CampaignEngine(make_pool(), CampaignConfig(budget=1.0))
        engine.submit([EngineTask("t0")])
        with pytest.raises(ValueError):
            engine.submit([EngineTask("t0")])

    def test_single_run_per_engine(self):
        engine = CampaignEngine(make_pool(), CampaignConfig(budget=1.0))
        engine.submit([EngineTask("t0")])
        engine.run()
        with pytest.raises(RuntimeError):
            engine.run()

    def test_unknown_truth_tasks_are_served_but_not_scored(self):
        pool = make_pool()
        engine = CampaignEngine(pool, CampaignConfig(budget=20.0, seed=3))
        engine.submit(EngineTask(f"t{i}") for i in range(40))
        metrics = engine.run()
        assert metrics.completed == 40
        assert metrics.realized_accuracy is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(budget=-1.0)
        with pytest.raises(ValueError):
            CampaignConfig(budget=1.0, batch_size=0)
        with pytest.raises(ValueError):
            CampaignConfig(budget=1.0, confidence_target=0.3)
        with pytest.raises(ValueError):
            CampaignConfig(budget=1.0, confidence_target=1.1)

    def test_zero_budget_campaign_answers_priors(self):
        engine = CampaignEngine(make_pool(), CampaignConfig(budget=0.0, seed=2))
        engine.submit(
            EngineTask(f"t{i}", prior=0.7, ground_truth=0) for i in range(10)
        )
        metrics = engine.run()
        assert metrics.completed == 10
        assert metrics.total_spend == 0.0
        assert all(r.reason == "unfunded" for r in metrics.records)
        assert all(r.answer == 0 for r in metrics.records)  # prior mode


class TestEventQueue:
    def test_orders_by_time_then_fifo(self):
        queue = EventQueue()
        queue.push(VoteArrival(2.0, "t1", "w1"))
        queue.push(TaskArrival(1.0, EngineTask("t2")))
        queue.push(VoteArrival(2.0, "t1", "w2"))
        first = queue.pop()
        assert isinstance(first, TaskArrival)
        assert queue.pop().worker_id == "w1"
        assert queue.pop().worker_id == "w2"

    def test_pending_counts_by_type(self):
        queue = EventQueue()
        queue.push(TaskArrival(0.0, EngineTask("t1")))
        queue.push(VoteArrival(1.0, "t1", "w1"))
        assert queue.pending(TaskArrival) == 1
        queue.pop()
        assert queue.pending(TaskArrival) == 0
        assert queue.pending(VoteArrival) == 1

    def test_mixed_types_at_one_time_pop_in_push_order(self):
        """Heap entries compare on ``(time, seq)`` only: events of
        different types at the same time never get compared."""
        queue = EventQueue()
        pushed = [
            TaskComplete(1.0, "t0", "early-stop"),
            VoteArrival(1.0, "t0", "w1"),
            TaskArrival(1.0, EngineTask("t1")),
            VoteArrival(1.0, "t1", "w2"),
            TaskComplete(1.0, "t1", "all-votes"),
            TaskArrival(1.0, EngineTask("t2")),
        ]
        for event in pushed:
            queue.push(event)
        assert queue.peek() is pushed[0]
        assert [queue.pop() for _ in pushed] == pushed
        assert queue.peek() is None

    #: ``EventQueue.state_dict()`` of the queue built by
    #: :meth:`_checkpointed_queue`, as recorded by the earlier
    #: dataclass-entry heap; the layout is ``[time, seq, event_state]``
    #: in pop order.
    CHECKPOINT_PAYLOAD = {
        "next_seq": 6,
        "entries": [
            [1.5, 2, {"kind": "task-complete", "time": 1.5,
                      "task_id": "t9", "reason": "early-stop"}],
            [1.5, 4, {"kind": "vote-arrival", "time": 1.5,
                      "task_id": "t0", "worker_id": "w2"}],
            [2.0, 1, {"kind": "vote-arrival", "time": 2.0,
                      "task_id": "t0", "worker_id": "w1"}],
            [2.0, 3, {"kind": "task-arrival", "time": 2.0,
                      "task": {"task_id": "t1", "prior": 0.3,
                               "ground_truth": 1}}],
            [2.0, 5, {"kind": "task-complete", "time": 2.0,
                      "task_id": "t0", "reason": "all-votes"}],
        ],
    }

    @staticmethod
    def _checkpointed_queue():
        queue = EventQueue()
        queue.push(TaskArrival(0.0, EngineTask("t0")))
        queue.push(VoteArrival(2.0, "t0", "w1"))
        queue.push(TaskComplete(1.5, "t9", "early-stop"))
        queue.push(TaskArrival(2.0, EngineTask("t1", prior=0.3,
                                               ground_truth=1)))
        queue.push(VoteArrival(1.5, "t0", "w2"))
        queue.push(TaskComplete(2.0, "t0", "all-votes"))
        queue.pop()
        return queue

    def test_state_dict_layout_unchanged(self):
        assert self._checkpointed_queue().state_dict() == (
            self.CHECKPOINT_PAYLOAD
        )

    def test_restores_recorded_checkpoint_in_pop_order(self):
        original = self._checkpointed_queue()
        restored = EventQueue.from_state(self.CHECKPOINT_PAYLOAD)
        assert len(restored) == len(original) == 5
        assert restored.pending(VoteArrival) == 2
        assert restored.pending(TaskComplete) == 2
        assert restored.pending(TaskArrival) == 1
        popped = []
        while original:
            event = original.pop()
            assert restored.pop() == event
            popped.append(event)
        assert not restored
        assert [(e.time, type(e).__name__) for e in popped] == [
            (1.5, "TaskComplete"),
            (1.5, "VoteArrival"),
            (2.0, "VoteArrival"),
            (2.0, "TaskArrival"),
            (2.0, "TaskComplete"),
        ]
        # New pushes continue the recorded serial counter.
        restored.push(VoteArrival(0.0, "t1", "w3"))
        assert restored.state_dict()["entries"][0][:2] == [0.0, 6]

    def test_task_validation(self):
        with pytest.raises(ValueError):
            EngineTask("")
        with pytest.raises(ValueError):
            EngineTask("t", ground_truth=2)
