"""Async ingestion vs the synchronous loop at equal shards.

A 64-worker, 4-shard campaign under burst traffic (arrivals in bursts
of 50, scheduled in batches of 200), served twice on identical seeded
traffic with every round's shard admits run in-loop.  The two runs
differ only in ingestion: the synchronous loop takes the
bursts straight into its event queue, the async one takes them through
the bounded :class:`~repro.engine.ingest.IntakeQueue` and its
drain-before-step loop.

Every burst lands before ``run()`` — the deterministic async mode — so
the async campaign must reproduce the synchronous fingerprint byte for
byte.  That, the completion count, the capacity ceiling, the budget,
the accuracy and "all traffic rode the intake" are the asserted gates.
The async/sync throughput ratio is recorded, not gated: the intake
exists for serving (producers that must not block on scheduling,
checkpoints while traffic keeps arriving), not to speed up a campaign
whose traffic is already in hand.  Producers racing a live loop are
the concurrency harness's job (``tests/engine/test_invariants.py``).
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
BURST = 50  # tasks per submit() call


def run_campaign(ingestion: str):
    rng = np.random.default_rng(SEED)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=POOL_SIZE, quality_ceiling=0.95), rng
    )
    truths = rng.integers(0, 2, size=NUM_TASKS)
    tasks = [
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    ]
    config = CampaignConfig(
        budget=BUDGET_PER_TASK * NUM_TASKS,
        capacity=CAPACITY,
        batch_size=BATCH_SIZE,
        confidence_target=0.95,
        expected_tasks=NUM_TASKS,
        seed=SEED,
        num_shards=NUM_SHARDS,
        ingestion=ingestion,
    )
    campaign = Campaign.open(pool, config)
    for start in range(0, NUM_TASKS, BURST):
        campaign.submit(tasks[start : start + BURST], start_time=float(start))
    if ingestion == "async":
        campaign.close_intake()
    metrics = campaign.run()

    assert metrics.completed == NUM_TASKS
    assert metrics.peak_worker_load <= CAPACITY
    assert metrics.total_spend <= config.budget + 1e-6
    if ingestion == "async":
        # All traffic rode the bounded queue.
        assert campaign.intake_stats.submitted == NUM_TASKS
    campaign.close()
    return metrics


def test_async_vs_sync_at_equal_shards(benchmark, emit, emit_json):
    def sweep():
        return run_campaign("sync"), run_campaign("async")

    sync, concurrent = benchmark.pedantic(sweep, rounds=1, iterations=1)
    ratio = concurrent.throughput / sync.throughput
    result = ExperimentResult(
        experiment_id="engine-async-ingestion",
        title=(
            f"Async intake vs the sync loop, both {NUM_SHARDS} shards with "
            f"in-loop shard admits ({POOL_SIZE} workers, "
            f"bursts of {BURST}, {NUM_TASKS} tasks)"
        ),
        x_label="ingestion (0=sync, 1=async)",
        xs=(0.0, 1.0),
        series=(
            SweepSeries(
                "tasks/sec", (sync.throughput, concurrent.throughput)
            ),
            SweepSeries(
                "realized accuracy",
                (sync.realized_accuracy, concurrent.realized_accuracy),
            ),
            SweepSeries(
                "net spend", (sync.total_spend, concurrent.total_spend)
            ),
        ),
        notes=(
            f"async/sync {ratio:.2f}x (recorded, not gated); identical "
            "seeded traffic and fingerprints; capacity/budget invariants "
            "asserted; all async traffic flowed through the bounded intake"
        ),
    )
    emit(result.render())
    emit_json(
        "engine-async-ingestion",
        {
            "shards": NUM_SHARDS,
            "burst_size": BURST,
            "tasks": NUM_TASKS,
            "sync_tasks_per_sec": sync.throughput,
            "async_tasks_per_sec": concurrent.throughput,
            "async_over_sync": ratio,
        },
    )

    assert concurrent.fingerprint() == sync.fingerprint()
    assert concurrent.realized_accuracy >= sync.realized_accuracy - 0.02
