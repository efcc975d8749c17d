"""Telemetry overhead gate: the hub must be cheap enough to leave on.

Serves one seeded 1k-task campaign (60 workers, capacity 6, batches of
25, budget 0.35/task) with telemetry off (the :class:`NullTelemetry`
default — instrumentation sites cost an attribute lookup and an empty
call) and on (the full hub: counters, spans, histograms, event trace),
as ``PAIRS`` back-to-back off/on pairs whose order alternates, so
machine drift hits both modes alike.  One pair's on/off wall-time
ratio swings by tens of percent on a shared 2-core host; the gate
reads the median pair:

* acceptance bar: telemetry **on** costs at most **10%** wall time
  against the NullTelemetry baseline, in the median pair;
* every pair's timings land in ``BENCH_engine.json`` under
  ``telemetry-overhead`` so CI diffs catch creep.

Fingerprints are asserted byte-identical across the two modes while
we're here — the overhead run doubles as an observation-only check at
benchmark scale.
"""

import os
import platform
import statistics
import time

import numpy as np

from repro.engine import Campaign, CampaignConfig, EngineTask
from repro.simulation import SyntheticPoolConfig, generate_pool

NUM_TASKS = 1_000
SEED = 2015
PAIRS = 9
MAX_OVERHEAD = 0.10


def _timed_run(telemetry: str) -> tuple[float, str]:
    """Wall time of one whole campaign (pool, open, submit, run)."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=60, quality_ceiling=0.95), rng
    )
    campaign = Campaign.open(
        pool,
        CampaignConfig(
            budget=0.35 * NUM_TASKS,
            capacity=6,
            batch_size=25,
            confidence_target=0.95,
            quantization=200,
            seed=SEED,
            telemetry=telemetry,
        ),
    )
    truths = rng.integers(0, 2, size=NUM_TASKS)
    campaign.submit(
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    )
    metrics = campaign.run()
    elapsed = time.perf_counter() - start
    assert metrics.completed == NUM_TASKS
    return elapsed, metrics.fingerprint()


def test_telemetry_overhead(benchmark, emit, emit_json):
    def sweep():
        # One untimed warmup per mode, then pairs in alternating order.
        _timed_run("off")
        _timed_run("on")
        pairs = []
        fingerprints = set()
        for i in range(PAIRS):
            walls = {}
            for mode in ("off", "on") if i % 2 == 0 else ("on", "off"):
                walls[mode], fingerprint = _timed_run(mode)
                fingerprints.add(fingerprint)
            pairs.append((walls["off"], walls["on"]))
        assert len(fingerprints) == 1, (
            "telemetry changed campaign decisions at benchmark scale"
        )
        return pairs

    pairs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    overheads = [on / off - 1.0 for off, on in pairs]
    overhead = statistics.median(overheads)
    lines = [
        "== telemetry-overhead: Telemetry on vs off "
        "(1k tasks, alternating off/on pairs) =="
    ]
    for k, ((off, on), pair_overhead) in enumerate(zip(pairs, overheads)):
        lines.append(
            f"  pair {k}: off {off:.3f}s, on {on:.3f}s, "
            f"overhead {pair_overhead:+.1%}"
        )
    lines.append(
        f"  median overhead: {overhead:+.1%} (bar: <= {MAX_OVERHEAD:.0%})"
    )
    emit("\n".join(lines))
    emit_json(
        "telemetry-overhead",
        {
            "tasks": NUM_TASKS,
            "pairs": PAIRS,
            "off_wall_seconds": [off for off, _ in pairs],
            "on_wall_seconds": [on for _, on in pairs],
            "overhead_fractions": overheads,
            "median_overhead_fraction": overhead,
            "max_overhead_fraction": MAX_OVERHEAD,
            "host_cores": os.cpu_count(),
            "python": platform.python_version(),
        },
    )
    assert overhead <= MAX_OVERHEAD, (
        f"median telemetry overhead {overhead:.1%} exceeds "
        f"{MAX_OVERHEAD:.0%} bar"
    )
