"""Substitute search: per-cap substitute index vs linear rescan.

The unsharded engine's profiled bottleneck at 64 workers was
``CampaignScheduler``'s substitute search: every saturated planned seat
rescanned the whole informativeness-ranked pool, and under load the
head of that ranking is exactly the saturated part — O(pool) wasted
work per seat, every batch.  :class:`~repro.engine.SubstituteIndex`
replaces the scan with one filtered list per cost cap, built the first
time the cap appears, which drops workers observed saturated for the
remainder of the batch (capacity only decreases within ``admit``).

This benchmark drives identical seeded 64-worker campaigns — burst
batches against capacity 2, so substitution is constantly engaged —
through both implementations and asserts

* **identical seatings**: the end-to-end metrics fingerprints match
  (the index is an indexing change, not a policy change), and
* **the unsharded path no longer falls behind**: the indexed run
  completes at least as fast as the linear-scan run (with slack for
  timer noise).
"""

import numpy as np

from repro.engine import Campaign, CampaignConfig, EngineTask
from repro.engine.scheduler import CampaignScheduler, linear_best_substitute
from repro.engine.state import informativeness_key
from repro.experiments.reporting import ExperimentResult, SweepSeries
from repro.simulation import SyntheticPoolConfig, generate_pool

POOL_SIZE = 64
CAPACITY = 2
BATCH_SIZE = 200  # burst ingestion keeps the pool saturated
NUM_TASKS = 3_000
BUDGET_PER_TASK = 0.25
SEED = 2015
#: The index path must not be slower than the linear path beyond timer
#: noise; on a saturated 64-worker pool it is typically well ahead.
MAX_SLOWDOWN = 1.15


class _LinearScanIndex:
    """The pre-index substitute search, reconstructed as the oracle
    (same production ranking key as the index)."""

    def __init__(self, states):
        self._ranked = sorted(
            states, key=lambda s: informativeness_key(s.worker)
        )

    def best(self, max_cost, exclude):
        return linear_best_substitute(self._ranked, max_cost, exclude)


def run_campaign(use_index: bool):
    rng = np.random.default_rng(SEED)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=POOL_SIZE, quality_ceiling=0.95), rng
    )
    budget = BUDGET_PER_TASK * NUM_TASKS
    campaign = Campaign.open(
        pool,
        CampaignConfig(
            budget=budget,
            capacity=CAPACITY,
            batch_size=BATCH_SIZE,
            confidence_target=0.95,
            seed=SEED,
        ),
    )
    truths = rng.integers(0, 2, size=NUM_TASKS)
    campaign.submit(
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    )
    if not use_index:
        original = CampaignScheduler._make_substitute_index
        CampaignScheduler._make_substitute_index = (
            lambda self: _LinearScanIndex(self.registry.states)
        )
        try:
            metrics = campaign.run()
        finally:
            CampaignScheduler._make_substitute_index = original
    else:
        metrics = campaign.run()

    assert metrics.completed == NUM_TASKS
    assert metrics.peak_worker_load <= CAPACITY
    assert metrics.total_spend <= budget + 1e-6
    return metrics


def test_substitution_index_speed_and_equivalence(benchmark, emit, emit_json):
    def sweep():
        linear = run_campaign(use_index=False)
        index = run_campaign(use_index=True)
        return linear, index

    linear, index = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Indexing change, not a policy change: byte-identical campaigns.
    assert index.fingerprint() == linear.fingerprint()

    speedup = index.throughput / linear.throughput
    result = ExperimentResult(
        experiment_id="scheduler-substitution",
        title=(
            f"Substitute search: per-cap index vs linear rescan "
            f"({POOL_SIZE} workers, capacity {CAPACITY}, "
            f"burst batches of {BATCH_SIZE}, {NUM_TASKS} tasks)"
        ),
        x_label="implementation (1=linear, 2=index)",
        xs=(1.0, 2.0),
        series=(
            SweepSeries(
                "tasks/sec", (linear.throughput, index.throughput)
            ),
            SweepSeries(
                "wall seconds", (linear.wall_seconds, index.wall_seconds)
            ),
        ),
        notes=(
            f"index/linear speedup {speedup:.2f}x; identical fingerprints "
            f"(same seatings, same spend); acceptance bar: index >= "
            f"{1 / MAX_SLOWDOWN:.2f}x linear"
        ),
    )
    emit(result.render())
    emit_json(
        "scheduler-substitution",
        {
            "linear_tasks_per_sec": linear.throughput,
            "index_tasks_per_sec": index.throughput,
            "speedup": speedup,
        },
    )

    assert speedup >= 1.0 / MAX_SLOWDOWN, (
        f"indexed substitution fell behind the linear scan: "
        f"{index.throughput:,.0f} vs {linear.throughput:,.0f} tasks/s"
    )
