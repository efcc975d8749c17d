"""Worker registry: capacity accounting, spend, quality drift."""

import numpy as np
import pytest

from repro.core import Worker, WorkerPool
from repro.engine import CapacityError, WorkerRegistry


@pytest.fixture
def pool():
    return WorkerPool(
        [
            Worker("a", 0.9, 1.0),
            Worker("b", 0.7, 0.5),
            Worker("c", 0.6, 0.2),
        ]
    )


class TestCapacity:
    def test_assign_consumes_seats(self, pool):
        registry = WorkerRegistry(pool, capacity=2)
        registry.assign("a", "t1")
        registry.assign("a", "t2")
        assert registry.free_capacity("a") == 0
        assert registry.state("a").peak_load == 2

    def test_assign_beyond_capacity_raises(self, pool):
        registry = WorkerRegistry(pool, capacity=1)
        registry.assign("a", "t1")
        with pytest.raises(CapacityError):
            registry.assign("a", "t2")

    def test_duplicate_assignment_rejected(self, pool):
        registry = WorkerRegistry(pool, capacity=3)
        registry.assign("a", "t1")
        with pytest.raises(ValueError):
            registry.assign("a", "t1")

    def test_release_frees_seat(self, pool):
        registry = WorkerRegistry(pool, capacity=1)
        registry.assign("a", "t1")
        registry.release("a", "t1")
        registry.assign("a", "t2")  # does not raise

    def test_per_worker_capacity_mapping(self, pool):
        registry = WorkerRegistry(pool, capacity={"a": 1, "b": 5, "c": 2})
        assert registry.state("b").capacity == 5
        registry.assign("a", "t1")
        with pytest.raises(CapacityError):
            registry.assign("a", "t2")

    def test_available_pool_excludes_saturated(self, pool):
        registry = WorkerRegistry(pool, capacity=1)
        registry.assign("b", "t1")
        available = registry.available_pool()
        assert "b" not in available
        assert "a" in available and "c" in available


class TestSpendAndHistory:
    def test_record_vote_pays_worker(self, pool):
        registry = WorkerRegistry(pool, capacity=2)
        registry.record_vote("a", "t1", 1)
        registry.record_vote("a", "t2", 0)
        assert registry.state("a").spend == pytest.approx(2.0)
        assert registry.total_spend == pytest.approx(2.0)
        assert registry.state("a").votes_cast == 2

    def test_resolve_credits_agreement(self, pool):
        registry = WorkerRegistry(pool, capacity=2)
        registry.record_vote("a", "t1", 1)
        registry.record_vote("b", "t1", 0)
        registry.resolve("t1", 1)
        a, b = registry.state("a"), registry.state("b")
        assert (a.agreements, a.resolved_votes) == (1.0, 1)
        assert (b.agreements, b.resolved_votes) == (0.0, 1)


class TestReestimation:
    def _stream_votes(self, registry, rng, num_tasks=40):
        """Workers vote per their *true* quality on random truths."""
        for t in range(num_tasks):
            truth = int(rng.random() < 0.5)
            for worker_id in registry.worker_ids:
                q = registry.true_quality(worker_id)
                vote = truth if rng.random() < q else 1 - truth
                registry.record_vote(worker_id, f"t{t}", vote)

    def test_estimates_drift_toward_truth(self, pool):
        rng = np.random.default_rng(3)
        # Cold start: everyone assumed mediocre.
        registry = WorkerRegistry(pool, capacity=4, initial_quality=0.55)
        before = registry.estimation_error()
        self._stream_votes(registry, rng)
        registry.reestimate(learning_rate=1.0)
        assert registry.estimation_error() < before
        # The best worker should now be recognized as the best.
        estimates = {w: registry.worker(w).quality for w in registry.worker_ids}
        assert max(estimates, key=estimates.get) == "a"

    def test_learning_rate_blends(self, pool):
        rng = np.random.default_rng(3)
        registry = WorkerRegistry(pool, capacity=4, initial_quality=0.55)
        self._stream_votes(registry, rng)
        registry.reestimate(learning_rate=0.5)
        half = registry.worker("a").quality
        assert 0.55 < half < 0.98  # moved, but not all the way

    def test_min_votes_guard(self, pool):
        registry = WorkerRegistry(pool, capacity=4)
        registry.record_vote("a", "t1", 1)
        updated = registry.reestimate(min_votes=3)
        assert updated == {}

    def test_no_votes_is_a_noop(self, pool):
        registry = WorkerRegistry(pool, capacity=4)
        assert registry.reestimate() == {}


class TestValidation:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            WorkerRegistry(WorkerPool())

    def test_nonpositive_capacity_rejected(self, pool):
        with pytest.raises(ValueError):
            WorkerRegistry(pool, capacity=0)
