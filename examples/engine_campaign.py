"""Serving a task stream through the `Campaign` facade.

The one-shot library answers "which jury for this task?".  The serving
layer (`repro.engine`) answers the production question: 300 tasks
arrive over time, share one 60-worker pool, one budget, and finite
worker attention (nobody sits on more than `capacity` juries at once).
The demo walks the Campaign lifecycle:

1. **Open + run** — `Campaign.open(pool, CampaignConfig(...))` with
   capacity-aware scheduling, early stopping with refunds, and quality
   drift (estimates start at a cold 0.65 prior and are re-fit from
   streamed votes every 100 completions).
2. **Sharded scale-out by config** — the same facade with
   `num_shards=4`: shard count is a config field, not a class choice.
3. **Checkpoint / resume** — the campaign is paused mid-run,
   checkpointed into a SQLite state backend, reopened as if by another
   process, and finished — with the metrics fingerprint byte-identical
   to an uninterrupted run.

Run:  python examples/engine_campaign.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.engine import (
    Campaign,
    CampaignConfig,
    EngineTask,
    SQLiteBackend,
)
from repro.simulation import SyntheticPoolConfig, generate_pool


def main() -> None:
    rng = np.random.default_rng(2015)
    pool = generate_pool(SyntheticPoolConfig(num_workers=60), rng)
    num_tasks = 300
    budget = 150.0

    config = CampaignConfig(
        budget=budget,
        capacity=5,
        batch_size=25,
        confidence_target=0.92,
        reestimate_every=100,
        seed=2015,
    )
    # Cold start: the provider only knows "workers are decent-ish".
    campaign = Campaign.open(pool, config, initial_quality=0.65)

    truths = rng.integers(0, 2, size=num_tasks)
    campaign.submit(
        EngineTask(f"task-{i:04d}", ground_truth=int(t))
        for i, t in enumerate(truths)
    )

    print(f"Serving {num_tasks} tasks from a {len(pool)}-worker pool "
          f"under budget {budget:g}...\n")
    campaign.run()
    print(campaign.render())

    print("\nBusiest workers (seats are scarce — capacity caps load):")
    busiest = sorted(
        campaign.registry.states, key=lambda s: -s.votes_cast
    )[:5]
    for state in busiest:
        acc = (
            state.agreements / state.resolved_votes
            if state.resolved_votes
            else None
        )
        print(
            f"  {state.worker.worker_id:>4}: {state.votes_cast:3d} votes, "
            f"peak load {state.peak_load}/{state.capacity}, "
            f"earned {state.spend:.3f}, "
            f"q_true {state.true_quality:.2f} -> "
            f"q_est {state.worker.quality:.2f}"
            + (f" (observed {acc:.2f})" if acc is not None else "")
        )

    print(
        f"\nQuality drift: mean |q_est - q_true| = "
        f"{campaign.registry.estimation_error():.4f} "
        f"(started at cold prior 0.65)"
    )

    sharded_act(rng)
    resume_act()


def sharded_act(rng: np.random.Generator) -> None:
    """64 workers is far past the exact-frontier cap — serve the pool
    as 4 shards by flipping one config field."""
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=64, quality_ceiling=0.95), rng
    )
    num_tasks = 400
    budget = 140.0
    config = CampaignConfig(
        budget=budget,
        capacity=5,
        batch_size=50,
        confidence_target=0.92,
        seed=2015,
        num_shards=4,
    )
    campaign = Campaign.open(pool, config)
    truths = rng.integers(0, 2, size=num_tasks)
    campaign.submit(
        EngineTask(f"shard-task-{i:04d}", ground_truth=int(t))
        for i, t in enumerate(truths)
    )

    print(f"\n{'=' * 60}")
    print(f"Sharded serving: {num_tasks} tasks, {len(pool)} workers "
          f"across 4 shards, budget {budget:g}...\n")
    campaign.run()
    print(campaign.render())


def resume_act() -> None:
    """Pause mid-run, checkpoint to SQLite, resume, and prove the
    resumed campaign is byte-identical to an uninterrupted one."""
    def build(backend=None):
        rng = np.random.default_rng(7)
        pool = generate_pool(
            SyntheticPoolConfig(num_workers=32, quality_ceiling=0.95), rng
        )
        config = CampaignConfig(
            budget=60.0, capacity=4, confidence_target=0.94, seed=7,
            num_shards=2,
        )
        campaign = Campaign.open(pool, config, backend=backend)
        truths = rng.integers(0, 2, size=200)
        campaign.submit(
            EngineTask(f"t{i}", ground_truth=int(t))
            for i, t in enumerate(truths)
        )
        return campaign

    print(f"\n{'=' * 60}")
    print("Checkpoint/resume: pause at 80 of 200 tasks, persist to "
          "SQLite, resume 'in another process'...\n")

    reference = build().run().fingerprint()

    state_path = Path(tempfile.mkdtemp()) / "campaign.db"
    interrupted = build(backend=SQLiteBackend(state_path))
    interrupted.run(until=80)
    interrupted.checkpoint()
    print(f"paused at {interrupted.metrics.completed} completed, "
          f"checkpointed to {state_path.name}")
    interrupted.close()  # the 'process' exits here

    resumed = Campaign.resume(SQLiteBackend(state_path))
    metrics = resumed.run()
    print(f"resumed and finished: {metrics.completed} completed")
    match = metrics.fingerprint() == reference
    print(f"fingerprint matches uninterrupted run: {match}")
    assert match


if __name__ == "__main__":
    main()
