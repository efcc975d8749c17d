"""The four canonical workloads and the clients that drive them.

A workload is a fixed serving configuration plus a fixed worker pool
(the paper's synthetic recipe drawn once from :data:`POOL_SEED`, the
pool the repository's older benchmarks use).  The benchmark seed draws
the *traffic*: each of a workload's ``subseeds`` campaigns gets its own
task truths and engine seed from ``SeedSequence([seed, k])``, so the
same seed always replays the same campaigns.

Simulated workloads run on one thread with synchronous ingestion and
sequential shard dispatch.  The client submits the tasks in
``batch_size`` chunks, then times ``Campaign.run(until=...)`` in slices
of :data:`RUN_SLICE` completions (a throughput run) or times every
engine event (a latency run, see :func:`_time_events`).

``serve`` runs an external-vote campaign behind ``CampaignServer`` on an
ephemeral localhost port, driven by one closed-loop client that holds
one connection at a time (see :func:`run_serve_campaign`).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.engine import (
    Campaign,
    CampaignConfig,
    CampaignServer,
    EngineTask,
    MemoryBackend,
    SQLiteBackend,
)
from repro.engine.events import TaskArrival, VoteArrival
from repro.simulation import SyntheticPoolConfig, generate_pool

from .hostspeed import Meter

#: Seed of the workloads' fixed worker pools.
POOL_SEED = 2015

#: Completions per ``Campaign.run(until=...)`` slice of a throughput run
#: (10-50 ms of work), so the host-speed probe can fall every
#: :data:`~perfbench.hostspeed.EVERY_S`.  Against one plain ``run()``,
#: the slices and probes cost +2.1% (steady), +3.1% (burst) and +0.8%
#: (churn) of served time, medians of 8 adjacent pairs whose own noise
#: is ~3%.
RUN_SLICE = 20

#: Timed ``Campaign.checkpoint()`` calls on a finished simulated
#: campaign; the fastest is the campaign's checkpoint latency (one
#: call alone swings ~1.5x with garbage-collection timing).
CHECKPOINT_PROBES = 5

#: Seconds one ``/status`` barrier may wait before the run is failed.
BARRIER_TIMEOUT = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    workers: int
    capacity: int
    batch_size: int
    tasks: int
    budget_per_task: float
    #: Distinct traffic seeds per measurement cycle.
    subseeds: int
    num_shards: int = 1
    reestimate_every: int = 0
    checkpoint_every: int = 0
    backend: str = "memory"
    serve: bool = False
    #: serve only: completions between ``GET /metrics`` scrapes.
    scrape_every: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "steady",
            "long everyday campaign: admission, per-vote posterior and "
            "SQLite checkpoints share the time; EM idle, frontier memo hits",
            workers=60,
            capacity=6,
            batch_size=25,
            tasks=1500,
            budget_per_task=0.35,
            subseeds=4,
            checkpoint_every=500,
            backend="sqlite",
        ),
        Workload(
            "burst",
            "arrival batches of 200 over 4 shards: budget allocation and "
            "shard coordination dominate; no EM, no checkpoints",
            workers=64,
            capacity=8,
            batch_size=200,
            tasks=2000,
            budget_per_task=0.25,
            subseeds=4,
            num_shards=4,
        ),
        Workload(
            "churn",
            "one-coin re-estimation every 100 completions: EM dominates, "
            "quality drift forces frontier rebuilds and JQ-cache misses",
            workers=60,
            capacity=6,
            batch_size=25,
            tasks=600,
            budget_per_task=0.35,
            subseeds=10,
            reestimate_every=100,
        ),
        Workload(
            "serve",
            "HTTP fleet over CampaignServer: vote, task and checkpoint "
            "writes beside assignment, status and metrics reads",
            workers=24,
            capacity=4,
            batch_size=25,
            tasks=400,
            budget_per_task=0.4,
            subseeds=3,
            checkpoint_every=50,
            backend="sqlite",
            serve=True,
            scrape_every=50,
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Inputs:
    """Everything one campaign consumes, drawn from the benchmark seed."""

    subseed: int
    pool: object
    truths: tuple[int, ...]
    engine_seed: int

    @property
    def tasks(self) -> list[EngineTask]:
        return [
            EngineTask(f"t{i:05d}", ground_truth=t)
            for i, t in enumerate(self.truths)
        ]


def make_pool(workload: Workload):
    return generate_pool(
        SyntheticPoolConfig(num_workers=workload.workers, quality_ceiling=0.95),
        np.random.default_rng(POOL_SEED),
    )


def make_inputs(workload: Workload, seed: int, subseed: int) -> Inputs:
    sequence = np.random.SeedSequence([seed, subseed])
    rng = np.random.default_rng(sequence)
    truths = tuple(int(t) for t in rng.integers(0, 2, size=workload.tasks))
    return Inputs(
        subseed=subseed,
        pool=make_pool(workload),
        truths=truths,
        engine_seed=int(sequence.generate_state(1)[0]),
    )


def make_config(workload: Workload, inputs: Inputs) -> CampaignConfig:
    common = dict(
        budget=workload.budget_per_task * workload.tasks,
        expected_tasks=workload.tasks,
        capacity=workload.capacity,
        batch_size=workload.batch_size,
        confidence_target=0.95,
        seed=inputs.engine_seed,
        num_shards=workload.num_shards,
        parallel_shards=0,
        dispatch="threads",
    )
    if workload.serve:
        return CampaignConfig(
            **common,
            vote_source="external",
            ingestion="async",
            telemetry="on",
        )
    return CampaignConfig(
        **common,
        ingestion="sync",
        telemetry="off",
        reestimate_every=workload.reestimate_every,
        checkpoint_every=workload.checkpoint_every,
    )


def open_backend(workload: Workload, db_path: Path):
    if workload.backend == "sqlite":
        remove_db(db_path)
        return SQLiteBackend(db_path)
    return MemoryBackend()


def remove_db(db_path: Path) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        Path(str(db_path) + suffix).unlink(missing_ok=True)


def db_bytes(db_path: Path) -> int:
    return sum(
        Path(str(db_path) + suffix).stat().st_size
        for suffix in ("", "-wal")
        if Path(str(db_path) + suffix).exists()
    )


def vote_for(seed: int, task_id: str, worker_id: str, quality: float, truth: int) -> int:
    """A worker's vote on a task: right with probability ``quality``.

    The uniform draw hashes ``(seed, task, worker)`` with BLAKE2b, so
    the vote is the same in every process (Python's ``hash`` of a str
    is salted per process).
    """
    digest = hashlib.blake2b(
        f"{seed}|{task_id}|{worker_id}".encode(), digest_size=8
    ).digest()
    u = int.from_bytes(digest, "big") / 2.0**64
    return truth if u < quality else 1 - truth


# ----------------------------------------------------------------------
# Results and checks
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """What one campaign measured and how its checks came out."""

    workload: str
    subseed: int
    tasks: int
    #: Seconds the campaign served — ``Campaign.run`` (simulated) or the
    #: fleet's wall time (serve) — scaled to nominal host speed, and as
    #: read off the clock.
    run_s: float
    raw_run_s: float
    #: Operations attempted and failed (tasks, or HTTP requests).
    attempted: int
    failed: int
    #: Requests counted by ``requests_per_s``: engine events (simulated)
    #: or HTTP requests other than ``/status`` barrier polls (serve).
    requests: int
    fingerprint: str
    completed: int
    correct: int
    scored: int
    spend: float
    votes: int
    checks: dict = field(default_factory=dict)
    #: Latency samples in seconds (scaled), keyed by operation.
    samples: dict = field(default_factory=dict)
    #: Host speed factors of the campaign's probes (1 = nominal).
    speed: list = field(default_factory=list)
    #: End-of-campaign layer counters (scheduler, cache, allocator, db).
    layer: dict = field(default_factory=dict)

    @property
    def failed_checks(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]


def _check(campaign: Campaign, workload: Workload, result: CampaignResult) -> None:
    metrics = campaign.metrics
    budget = workload.budget_per_task * workload.tasks
    checks = result.checks
    checks["completed == submitted"] = (
        metrics.completed == metrics.submitted == workload.tasks
    )
    checks["peak load <= capacity"] = (
        metrics.peak_worker_load <= workload.capacity
    )
    checks["net spend <= budget"] = metrics.total_spend <= budget + 1e-6
    allocator = metrics.allocator_snapshot
    if allocator is not None:
        checks["granted == reserved + reabsorbed"] = abs(
            allocator.granted - allocator.reserved - allocator.reabsorbed
        ) <= 1e-6 * max(1.0, allocator.granted)


def _summarize(
    campaign: Campaign,
    workload: Workload,
    inputs: Inputs,
    meter: Meter,
    served: str,
    db_path: Path | None,
) -> CampaignResult:
    metrics = campaign.metrics
    scored = [
        r.correct
        for r in metrics.records
        if r.correct is not None and r.reason != "unfunded"
    ]
    engine = campaign.engine
    scheduler = engine.scheduler
    stats = scheduler.stats
    shards = getattr(scheduler, "shards", None)
    caches = [s.cache for s in shards] if shards else [engine.cache]
    cache = metrics.cache_stats
    allocator = metrics.allocator_snapshot
    result = CampaignResult(
        workload=workload.name,
        subseed=inputs.subseed,
        tasks=workload.tasks,
        run_s=meter.total(served),
        raw_run_s=meter.raw_total(served),
        attempted=workload.tasks,
        failed=0,
        requests=0,
        fingerprint=metrics.fingerprint(),
        completed=metrics.completed,
        correct=sum(1 for c in scored if c),
        scored=len(scored),
        spend=metrics.total_spend,
        votes=metrics.votes_cast,
        layer={
            "admitted": stats.admitted,
            "deferred": stats.deferred,
            "cache_hits": cache.hits,
            "cache_lookups": cache.lookups,
            "cache_evaluations": sum(c.underlying_evaluations for c in caches),
            "granted": 0.0 if allocator is None else allocator.granted,
            "reabsorbed": 0.0 if allocator is None else allocator.reabsorbed,
            "rounds": 0 if allocator is None else allocator.rounds,
            "db_bytes": 0 if db_path is None else db_bytes(db_path),
        },
        speed=meter.factors,
    )
    _check(campaign, workload, result)
    return result


# ----------------------------------------------------------------------
# Simulated workloads
# ----------------------------------------------------------------------
def _time_events(campaign: Campaign, meter: Meter) -> None:
    """Latency run: advance the engine one event at a time, timing each.

    A vote event that casts a vote is the vote path alone (posterior
    update and stop rule; a vote landing after an early stop is only
    counted as cancelled and is not sampled); an arrival event that
    seats tasks gives its time per seated task.  The engine's one-event
    primitive ``_step`` is the only pause finer than a completion;
    ``Campaign.run()`` then finalizes the drained campaign.
    """
    engine = campaign.engine
    metrics = engine.metrics
    engine._start()
    queue = engine._queue
    while queue:
        event = queue.peek()
        arrival = isinstance(event, TaskArrival)
        before = engine.scheduler.stats.admitted if arrival else metrics.votes_cast
        t0 = time.perf_counter()
        engine._step()
        elapsed = time.perf_counter() - t0
        meter.add("run", elapsed)
        if isinstance(event, VoteArrival):
            if metrics.votes_cast > before:
                meter.add("vote", elapsed)
        elif arrival:
            admitted = engine.scheduler.stats.admitted - before
            if admitted:
                meter.add("assign", elapsed / admitted)
        meter.tick()
    t0 = time.perf_counter()
    campaign.run()
    meter.add("run", time.perf_counter() - t0)


def run_simulated_campaign(
    workload: Workload,
    inputs: Inputs,
    db_path: Path,
    probe_checkpoint: bool = True,
    latency: bool = False,
) -> CampaignResult:
    """One campaign through the facade: chunked submit, then run.

    A throughput run advances ``Campaign.run(until=...)`` by
    :data:`RUN_SLICE` completions at a time; a latency run
    (``latency=True``) times every event instead, for the vote and
    admission samples, and its per-event pauses never feed
    ``tasks_per_s``.  ``probe_checkpoint`` times explicit
    ``Campaign.checkpoint()`` calls on the finished campaign, outside
    the served time (traced runs skip them so checkpoint spans come from
    the workload alone).
    """
    backend = open_backend(workload, db_path)
    campaign = Campaign.open(inputs.pool, make_config(workload, inputs), backend)
    try:
        meter = Meter()
        tasks = inputs.tasks
        for start in range(0, len(tasks), workload.batch_size):
            chunk = tasks[start : start + workload.batch_size]
            t0 = time.perf_counter()
            campaign.submit(chunk, start_time=float(start))
            meter.add("submit", time.perf_counter() - t0)
        meter.flush()

        metrics = campaign.metrics
        if latency:
            _time_events(campaign, meter)
        target = 0
        while not campaign.done:
            target += RUN_SLICE
            t0 = time.perf_counter()
            campaign.run(until=target)
            meter.add("run", time.perf_counter() - t0)
            meter.tick()
        meter.flush()

        if probe_checkpoint:
            # Each call is its own scaled interval.
            for _ in range(CHECKPOINT_PROBES):
                t0 = time.perf_counter()
                campaign.checkpoint()
                meter.add("checkpoint", time.perf_counter() - t0)
                meter.flush()

        result = _summarize(
            campaign,
            workload,
            inputs,
            meter,
            "run",
            db_path if workload.backend == "sqlite" else None,
        )
        # Every event the loop handled: arrivals, votes, completions.
        result.requests = (
            metrics.submitted
            + metrics.votes_cast
            + metrics.votes_cancelled
            + metrics.completed
        )
        result.samples = {"submit": meter.scaled["submit"]}
        if probe_checkpoint:
            result.samples["checkpoint"] = [min(meter.scaled["checkpoint"])]
        if latency:
            result.samples["vote"] = meter.scaled["vote"]
            result.samples["assign"] = meter.scaled["assign"]
        return result
    finally:
        campaign.close()
        remove_db(db_path)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class FleetClient:
    """A client that opens one connection per request and times each
    round trip, connection set-up included.

    One connection per request, as ``curl`` or ``urllib`` clients do:
    on a kept-alive connection the server's separate header and body
    writes meet the client's delayed ACK, and every response stalls
    ~40 ms, which would measure the TCP stack rather than the engine.
    """

    def __init__(self, host: str, port: int, meter: Meter) -> None:
        self.host = host
        self.port = port
        self.meter = meter
        self.statuses: dict[str, dict[int, int]] = {}
        self.requests = 0
        self.failed = 0

    def call(self, op: str, method: str, path: str, payload=None, ok=(200,)):
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        self.requests += 1
        t0 = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.failed += 1
            raise
        finally:
            conn.close()
        self.meter.add(op, time.perf_counter() - t0)
        per_op = self.statuses.setdefault(op, {})
        per_op[response.status] = per_op.get(response.status, 0) + 1
        if response.status not in ok:
            self.failed += 1
            return response.status, None
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw


def _barrier(client: FleetClient) -> dict:
    """Poll ``/status`` until the loop has seated everything accepted
    and applied every consequence of the last vote."""
    deadline = time.perf_counter() + BARRIER_TIMEOUT
    while True:
        _, status = client.call("status", "GET", "/status")
        if (
            status is not None
            and status["idle"]
            and status["staged"] == 0
            and status["queued_events"] == 0
            and status["pending_commands"] == 0
        ):
            return status
        if time.perf_counter() > deadline:
            raise TimeoutError("serve barrier timed out")
        time.sleep(0.0002)


def run_serve_campaign(
    workload: Workload, inputs: Inputs, db_path: Path
) -> CampaignResult:
    """One HTTP fleet campaign.

    The client submits ``batch_size``-task chunks with ``POST /tasks``
    and waits for the ``/status`` barrier.  Then, round by round, it
    reads every worker's ``GET /assignments`` and posts each offered
    vote with ``POST /votes`` (votes from :func:`vote_for`), until the
    chunk is decided.  Reads happen only at the barrier, so the engine
    sees the same requests in the same order in every run.  A ``409``
    on a vote is the engine revoking a seat after an early stop, and
    counts as answered.  ``/admin/checkpoint`` and ``/metrics`` fire at
    fixed completion cadences; ``/admin/close`` drains at the end.
    """
    campaign = Campaign.open(
        inputs.pool, make_config(workload, inputs), open_backend(workload, db_path)
    )
    server = CampaignServer(campaign, host="127.0.0.1", port=0)
    loop = threading.Thread(target=server.serve, name="perfbench-serve-loop")
    loop.start()
    meter = Meter()
    client = FleetClient(server.host, server.port, meter)
    quality = {w.worker_id: w.quality for w in inputs.pool}
    truth = {f"t{i:05d}": t for i, t in enumerate(inputs.truths)}
    worker_ids = sorted(quality)
    seed = inputs.engine_seed
    next_checkpoint = workload.checkpoint_every
    next_scrape = workload.scrape_every
    try:
        tasks = inputs.tasks
        for offset in range(0, len(tasks), workload.batch_size):
            chunk = tasks[offset : offset + workload.batch_size]
            client.call(
                "submit",
                "POST",
                "/tasks",
                {
                    "tasks": [
                        {"task_id": t.task_id, "ground_truth": t.ground_truth}
                        for t in chunk
                    ],
                    "start_time": float(offset),
                },
                ok=(202,),
            )
            while True:
                status = _barrier(client)
                # The loop is idle here, so the probe steals no time
                # from requests in flight.
                meter.tick()
                completed = status["completed"]
                if next_scrape and completed >= next_scrape:
                    client.call("metrics", "GET", "/metrics")
                    next_scrape += workload.scrape_every
                if next_checkpoint and completed >= next_checkpoint:
                    client.call("checkpoint", "POST", "/admin/checkpoint", {})
                    next_checkpoint += workload.checkpoint_every
                if not status["open_offers"] and not status["active"]:
                    if status["deferred"]:
                        raise RuntimeError("deferred tasks with nothing active")
                    break
                offers = {}
                for worker_id in worker_ids:
                    _, body = client.call(
                        "assign", "GET", f"/assignments?worker={worker_id}"
                    )
                    offers[worker_id] = [] if body is None else body["assignments"]
                for worker_id in worker_ids:
                    for row in sorted(offers[worker_id], key=lambda r: r["task_id"]):
                        task_id = row["task_id"]
                        client.call(
                            "vote",
                            "POST",
                            "/votes",
                            {
                                "task_id": task_id,
                                "worker_id": worker_id,
                                "vote": vote_for(
                                    seed,
                                    task_id,
                                    worker_id,
                                    quality[worker_id],
                                    truth[task_id],
                                ),
                            },
                            ok=(200, 409),
                        )
        client.call("close", "POST", "/admin/close", {"mode": "drain"})
        loop.join(timeout=60)
        meter.flush()
        if loop.is_alive():
            raise RuntimeError("serve loop did not drain after /admin/close")
    finally:
        if loop.is_alive():
            server.stop()
            loop.join(timeout=60)
        server.shutdown()
    try:
        result = _summarize(campaign, workload, inputs, meter, "wall", db_path)
    finally:
        campaign.close()
        remove_db(db_path)
    result.attempted = client.requests
    result.failed = client.failed
    result.requests = client.requests - len(meter.scaled["status"])
    result.samples = {
        op: meter.scaled[op] for op in ("submit", "vote", "assign", "checkpoint")
    }
    result.layer["statuses"] = client.statuses
    return result


def run_campaign(
    workload: Workload,
    inputs: Inputs,
    db_path: Path,
    probe_checkpoint: bool = True,
    latency: bool = False,
) -> CampaignResult:
    if workload.serve:
        return run_serve_campaign(workload, inputs, db_path)
    return run_simulated_campaign(
        workload, inputs, db_path, probe_checkpoint, latency
    )
