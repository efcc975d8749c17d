"""Checkpoint scaling gate: a checkpoint costs what changed, not what
the campaign has accumulated.

Runs a steady-state campaign (60 workers, SQLite backend, an
auto-checkpoint every 500 completions) at two lengths, 1k and 10k
tasks, and times the in-run checkpoint that covers the last 500
completions.  Both checkpoints journal the same amount of new state
(about 500 records and their votes); only the state already on file
differs, tenfold.  Best of :data:`ROUNDS` campaigns per length:

* acceptance bar: the 10k-task checkpoint costs at most
  :data:`MAX_RATIO` times the 1k-task one (a checkpoint that rewrote
  the whole state measured 11.7x);
* the rows each checkpoint wrote (SQLite's own change counter) are
  recorded beside the timings, with both ratios, in
  ``BENCH_engine.json`` under ``checkpoint-scaling``.

Both lengths must also finish with every task completed.
"""

import os
import platform
import time

import numpy as np

from repro.engine import Campaign, CampaignConfig, EngineTask, SQLiteBackend
from repro.simulation import SyntheticPoolConfig, generate_pool

LENGTHS = (1_000, 10_000)
CHECKPOINT_EVERY = 500
ROUNDS = 5
MAX_RATIO = 2.0
SEED = 11


def last_checkpoint(num_tasks: int, path) -> tuple[float, int]:
    """Seconds and rows written by the auto-checkpoint at the last
    completion of one campaign."""
    rng = np.random.default_rng(SEED)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=60, quality_ceiling=0.95), rng
    )
    backend = SQLiteBackend(path)
    campaign = Campaign.open(
        pool,
        CampaignConfig(
            budget=0.35 * num_tasks,
            capacity=6,
            batch_size=25,
            confidence_target=0.95,
            seed=SEED,
            checkpoint_every=CHECKPOINT_EVERY,
        ),
        backend=backend,
    )
    timings = {}

    def timed_checkpoint():
        conn = backend._conn
        rows = conn.total_changes if conn is not None else 0
        start = time.perf_counter()
        campaign.checkpoint()
        timings[campaign.metrics.completed] = (
            time.perf_counter() - start,
            backend._conn.total_changes - rows,
        )

    campaign.engine.checkpoint_hook = timed_checkpoint
    campaign.submit(
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(rng.integers(0, 2, size=num_tasks))
    )
    metrics = campaign.run()
    campaign.close()
    assert metrics.completed == num_tasks
    return timings[num_tasks]


def test_checkpoint_scaling(benchmark, emit, emit_json, tmp_path):
    def sweep():
        best = {n: (float("inf"), 0) for n in LENGTHS}
        for round_ in range(ROUNDS):
            for n in LENGTHS:  # interleaved: drift hits both lengths
                seconds, rows = last_checkpoint(
                    n, tmp_path / f"{n}-{round_}.db"
                )
                if seconds < best[n][0]:
                    best[n] = (seconds, rows)
        return best

    best = benchmark.pedantic(sweep, rounds=1, iterations=1)
    (short_s, short_rows), (long_s, long_rows) = (best[n] for n in LENGTHS)
    ratio = long_s / short_s
    emit(
        "Checkpoint scaling (in-run checkpoint covering the last "
        f"{CHECKPOINT_EVERY} completions, best of {ROUNDS})\n"
        f"  {LENGTHS[0]:>6,} tasks: {short_s * 1e3:7.2f} ms, "
        f"{short_rows} rows written\n"
        f"  {LENGTHS[1]:>6,} tasks: {long_s * 1e3:7.2f} ms, "
        f"{long_rows} rows written\n"
        f"  ratio        : {ratio:.2f}x time, "
        f"{long_rows / short_rows:.2f}x rows (bar: <= {MAX_RATIO:g}x time)"
    )
    emit_json(
        "checkpoint-scaling",
        {
            "lengths": list(LENGTHS),
            "checkpoint_every": CHECKPOINT_EVERY,
            "rounds": ROUNDS,
            "checkpoint_ms": [short_s * 1e3, long_s * 1e3],
            "rows_written": [short_rows, long_rows],
            "time_ratio": ratio,
            "rows_ratio": long_rows / short_rows,
            "max_time_ratio": MAX_RATIO,
            "host_cores": os.cpu_count(),
            "python": platform.python_version(),
        },
    )
    assert ratio <= MAX_RATIO, (
        f"the {LENGTHS[1]:,}-task checkpoint costs {ratio:.2f}x the "
        f"{LENGTHS[0]:,}-task one (bar: <= {MAX_RATIO:g}x)"
    )
