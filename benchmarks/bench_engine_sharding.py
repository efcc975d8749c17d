"""Sharded vs. single-scheduler serving at 64 workers.

Sharding partitions the registry so each of K shards admits its own
sub-batch over its own members; every per-shard frontier then stays
inside the exact-frontier cap.  Under burst ingestion (batches of 200
against a 64-worker pool) this once cleared ~6x the single scheduler,
but that win was the budget split's rescan of every task per greedy
step, which sharding shrank K ways.  With the lazy-heap allocator the
single scheduler no longer pays that quadratic cost, so the
sharded/single throughput ratio is recorded in
``benchmarks/BENCH_engine.json``, not gated.

The run re-asserts the serving invariants at benchmark scale (capacity
ceiling, net spend <= budget) and reports realized accuracy for both
configurations: sharding engages 4x the candidate workers, so its
accuracy must be no worse.
"""

import numpy as np

from repro.engine import Campaign, CampaignConfig, EngineTask
from repro.experiments.reporting import ExperimentResult, SweepSeries
from repro.simulation import SyntheticPoolConfig, generate_pool

POOL_SIZE = 64
NUM_SHARDS = 4
CAPACITY = 8
BATCH_SIZE = 200  # burst ingestion: arrivals buffered into large batches
NUM_TASKS = 3_000
BUDGET_PER_TASK = 0.25
SEED = 2015


def run_campaign(num_shards: int):
    rng = np.random.default_rng(SEED)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=POOL_SIZE, quality_ceiling=0.95), rng
    )
    budget = BUDGET_PER_TASK * NUM_TASKS
    config = CampaignConfig(
        budget=budget,
        capacity=CAPACITY,
        batch_size=BATCH_SIZE,
        confidence_target=0.95,
        seed=SEED,
        num_shards=num_shards,
    )
    campaign = Campaign.open(pool, config)
    truths = rng.integers(0, 2, size=NUM_TASKS)
    campaign.submit(
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    )
    metrics = campaign.run()

    assert metrics.completed == NUM_TASKS
    assert metrics.peak_worker_load <= CAPACITY
    assert metrics.total_spend <= budget + 1e-6
    return metrics


def test_sharded_vs_single_throughput(benchmark, emit, emit_json):
    def sweep():
        single = run_campaign(1)
        sharded = run_campaign(NUM_SHARDS)
        return single, sharded

    single, sharded = benchmark.pedantic(sweep, rounds=1, iterations=1)
    speedup = sharded.throughput / single.throughput
    result = ExperimentResult(
        experiment_id="engine-sharding",
        title=(
            f"Sharded ({NUM_SHARDS} shards) vs single scheduler "
            f"({POOL_SIZE} workers, capacity {CAPACITY}, "
            f"burst batches of {BATCH_SIZE}, {NUM_TASKS} tasks)"
        ),
        x_label="shards",
        xs=(1.0, float(NUM_SHARDS)),
        series=(
            SweepSeries(
                "tasks/sec", (single.throughput, sharded.throughput)
            ),
            SweepSeries(
                "realized accuracy",
                (single.realized_accuracy, sharded.realized_accuracy),
            ),
            SweepSeries(
                "net spend", (single.total_spend, sharded.total_spend)
            ),
        ),
        notes=f"sharded/single {speedup:.2f}x (recorded, not gated); "
        "identical seeded traffic, capacity/budget invariants asserted",
    )
    emit(result.render())
    emit_json(
        "engine-sharding",
        {
            "shards": NUM_SHARDS,
            "single_tasks_per_sec": single.throughput,
            "sharded_tasks_per_sec": sharded.throughput,
            "speedup": speedup,
        },
    )

    # 4x the engaged candidate pool must not cost accuracy.
    assert sharded.realized_accuracy >= single.realized_accuracy - 0.02
