"""Process-pool shard dispatch vs the threaded executor.

The acceptance scenario for the multi-process campaign pools work: a
**churn-heavy** 4-shard campaign — exact cache keying
(``quantization=None``, so drifting quality estimates force real
recomputes instead of bucket hits), a frontier pool at 12 workers, and
periodic EM re-estimation churning the cached qualities — where
admission rounds dominate wall-clock.  Frontiers build through the
production batch JQ kernel.

The threaded executor overlaps only the parts of a shard admit that
release the GIL (the numpy kernels), while the process pool runs whole
admits on four independent interpreters: ``dispatch="processes"`` is
the same byte-identical campaign, minus the GIL.

Three configurations on identical seeded traffic:

* sequential — 4 shards, admits dispatched inline;
* threads — 4 shards on a 4-worker thread pool (PR 5's executor);
* processes — 4 shards on persistent shard worker processes.

The fingerprint triple-identity is asserted unconditionally.  The
throughput bar (processes >= 1.5x threads) is enforced when the host
has enough cores for the claim to be physically possible — on a
single-core container every dispatch strategy collapses to the same
wall-clock and the numbers are recorded without the gate (the CI
``procpool`` job runs on multi-core runners, where the gate is live).
"""

import os
import time

import numpy as np

from repro.engine import Campaign, CampaignConfig, EngineTask
from repro.experiments.reporting import ExperimentResult, SweepSeries
from repro.simulation import SyntheticPoolConfig, generate_pool

POOL_SIZE = 64
NUM_SHARDS = 4
CAPACITY = 8
BATCH_SIZE = 50
NUM_TASKS = 300
BUDGET_PER_TASK = 0.25
SEED = 2015
#: Acceptance bar from the issue: process dispatch must clear at least
#: this multiple of the threaded executor's throughput on the
#: churn-heavy campaign.  Only enforceable with real parallel hardware.
MIN_SPEEDUP = 1.5
#: Cores needed before the bar is enforced: 4 shard workers + the
#: parent loop cannot express a 1.5x win on fewer.
MIN_CORES_FOR_GATE = 4


def _pool_and_tasks():
    rng = np.random.default_rng(SEED)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=POOL_SIZE, quality_ceiling=0.95), rng
    )
    truths = rng.integers(0, 2, size=NUM_TASKS)
    tasks = [
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    ]
    return pool, tasks


def run_config(dispatch: str, parallel_shards: int = 0):
    pool, tasks = _pool_and_tasks()
    campaign = Campaign.open(
        pool,
        CampaignConfig(
            budget=BUDGET_PER_TASK * NUM_TASKS,
            capacity=CAPACITY,
            batch_size=BATCH_SIZE,
            confidence_target=0.95,
            expected_tasks=NUM_TASKS,
            seed=SEED,
            num_shards=NUM_SHARDS,
            dispatch=dispatch,
            parallel_shards=parallel_shards,
            # The churn levers: exact cache keys (quality drift defeats
            # memoization), a wide frontier pool, and frequent EM
            # re-estimation.
            quantization=None,
            frontier_pool_size=12,
            reestimate_every=10,
        ),
    )
    campaign.submit(tasks)
    start = time.perf_counter()
    metrics = campaign.run()
    elapsed = time.perf_counter() - start
    assert metrics.completed == NUM_TASKS
    assert metrics.peak_worker_load <= CAPACITY
    assert metrics.total_spend <= campaign.config.budget + 1e-6
    fingerprint = metrics.fingerprint()
    campaign.close()
    return NUM_TASKS / elapsed, fingerprint, metrics


def test_process_pool_vs_threaded_dispatch(benchmark, emit, emit_json):
    def sweep():
        sequential = run_config("threads", parallel_shards=0)
        threaded = run_config("threads", parallel_shards=NUM_SHARDS)
        processes = run_config("processes")
        return sequential, threaded, processes

    sequential, threaded, processes = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    seq_tps, seq_fp, _ = sequential
    thr_tps, thr_fp, _ = threaded
    proc_tps, proc_fp, proc_metrics = processes

    # The tentpole invariant, at benchmark scale: dispatch strategy is
    # invisible in the decisions.
    assert seq_fp == thr_fp == proc_fp

    cores = os.cpu_count() or 1
    speedup = proc_tps / thr_tps
    gated = cores >= MIN_CORES_FOR_GATE

    result = ExperimentResult(
        experiment_id="engine-process-pool",
        title=(
            f"Process-pool vs threaded shard dispatch on a churn-heavy "
            f"campaign ({POOL_SIZE} workers, {NUM_SHARDS} shards, batch "
            f"JQ kernel, exact cache keys, {NUM_TASKS} tasks)"
        ),
        x_label=(
            "configuration (0=sequential, 1=threads, 2=processes)"
        ),
        xs=(0.0, 1.0, 2.0),
        series=(
            SweepSeries("tasks/sec", (seq_tps, thr_tps, proc_tps)),
        ),
        notes=(
            f"processes/threads speedup {speedup:.2f}x (bar >= "
            f"{MIN_SPEEDUP}x, enforced on >= {MIN_CORES_FOR_GATE} cores; "
            f"this host has {cores}); fingerprints byte-identical across "
            "all three dispatch strategies"
        ),
    )
    emit(result.render())
    emit_json(
        "engine-process-pool",
        {
            "sequential_tasks_per_sec": seq_tps,
            "threaded_tasks_per_sec": thr_tps,
            "process_tasks_per_sec": proc_tps,
            "speedup_vs_threads": speedup,
            "speedup_bar": MIN_SPEEDUP,
            "bar_enforced": gated,
            "host_cores": cores,
            "shards": NUM_SHARDS,
            "tasks": NUM_TASKS,
            "fingerprint_identical": True,
            "votes_cast": proc_metrics.votes_cast,
        },
    )
    if gated:
        assert speedup >= MIN_SPEEDUP, (
            f"process dispatch managed only {speedup:.2f}x the threaded "
            f"executor on {cores} cores (bar: {MIN_SPEEDUP}x)"
        )
