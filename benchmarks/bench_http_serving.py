"""HTTP serving layer overhead: a seeded client fleet over the wire vs
the same fleet driving the facade in-process.

PR 7's acceptance scenario: an external-vote campaign — tasks POSTed,
vote offers fetched, every vote delivered as its own synchronous
``POST /votes`` round-trip through the loop mailbox — measured against
the identical seeded fleet calling ``Campaign.assignments``/``vote``
directly.  The benchmark re-asserts the HTTP-vs-in-process fingerprint
pin at benchmark scale (the correctness matrix lives in
``tests/engine/test_server.py``), then reports what serving over
localhost HTTP costs in wall-clock and sustained request throughput.

The acceptance bar is a *floor*, not a speedup: the stdlib threaded
server plus the synchronous vote mailbox must sustain at least
``MIN_REQUESTS_PER_SEC`` request round-trips per second — if a change
to the drain discipline ever serializes requests behind the poll
interval, this number collapses by two orders of magnitude.
"""

import json
import threading
import time
import urllib.request

import numpy as np

from repro.engine import Campaign, CampaignConfig, CampaignServer, EngineTask
from repro.experiments.reporting import ExperimentResult, SweepSeries
from repro.simulation import SyntheticPoolConfig, generate_pool

POOL_SIZE = 24
NUM_TASKS = 60
CAPACITY = 4
BUDGET_PER_TASK = 0.4
SEED = 2015
#: Sustained HTTP round-trips per second the serving stack must clear.
MIN_REQUESTS_PER_SEC = 50.0


def _pool():
    rng = np.random.default_rng(SEED)
    return generate_pool(
        SyntheticPoolConfig(num_workers=POOL_SIZE, quality_ceiling=0.95),
        rng,
    )


def _tasks():
    rng = np.random.default_rng(SEED + 1)
    truths = rng.integers(0, 2, size=NUM_TASKS)
    return [
        EngineTask(f"t{i:04d}", ground_truth=int(t))
        for i, t in enumerate(truths)
    ]


def _config(**overrides):
    defaults = dict(
        budget=BUDGET_PER_TASK * NUM_TASKS,
        capacity=CAPACITY,
        batch_size=20,
        confidence_target=0.95,
        seed=SEED,
        vote_source="external",
        # The served campaign starts before any task is POSTed, so it
        # paces over the declared campaign size.
        expected_tasks=NUM_TASKS,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _vote(task_id, worker_id):
    # Deterministic per-(task, worker) vote, identical for both fleets.
    return (hash((task_id, worker_id, "bench")) >> 3) & 1


def run_in_process():
    campaign = Campaign.open(_pool(), _config(ingestion="sync"))
    worker_ids = sorted(campaign.registry.worker_ids)
    campaign.submit(_tasks())
    campaign.run()  # seat the first juries; pause for external votes
    calls = 0
    start = time.perf_counter()
    while campaign.offers.open_count or campaign.engine._active:
        progressed = False
        for worker_id in worker_ids:
            for row in sorted(
                campaign.assignments(worker_id),
                key=lambda r: r["task_id"],
            ):
                calls += 1
                try:
                    campaign.vote(row["task_id"], worker_id,
                                  _vote(row["task_id"], worker_id))
                    progressed = True
                except Exception:
                    pass
        if not progressed:
            break
    elapsed = time.perf_counter() - start
    campaign.close_intake()
    metrics = campaign.run()
    campaign.close()
    return metrics, calls, elapsed


def run_over_http():
    campaign = Campaign.open(_pool(), _config(ingestion="async"))
    worker_ids = sorted(campaign.registry.worker_ids)
    server = CampaignServer(campaign, port=0)
    thread = threading.Thread(target=server.serve, daemon=True)
    thread.start()

    def get(path):
        with urllib.request.urlopen(server.url + path, timeout=30) as r:
            return json.loads(r.read())

    def post(path, payload):
        request = urllib.request.Request(
            server.url + path,
            data=json.dumps(payload).encode(),
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    import urllib.error

    post("/tasks", {"tasks": [
        {"task_id": t.task_id, "ground_truth": t.ground_truth}
        for t in _tasks()
    ]})
    while True:
        status = get("/status")
        if (status["idle"] and status["staged"] == 0
                and status["queued_events"] == 0):
            break
        time.sleep(0.002)

    requests = 0
    start = time.perf_counter()
    while True:
        status = get("/status")
        requests += 1
        if status["open_offers"] == 0 and status["active"] == 0:
            break
        progressed = False
        for worker_id in worker_ids:
            rows = get(f"/assignments?worker={worker_id}")["assignments"]
            requests += 1
            for row in sorted(rows, key=lambda r: r["task_id"]):
                code, _ = post("/votes", {
                    "task_id": row["task_id"],
                    "worker_id": worker_id,
                    "vote": _vote(row["task_id"], worker_id),
                })
                requests += 1
                if code == 200:
                    progressed = True
        if not progressed:
            time.sleep(0.005)
    elapsed = time.perf_counter() - start
    post("/admin/close", {"mode": "drain"})
    thread.join(timeout=60)
    server.shutdown()
    metrics = campaign.metrics
    campaign.close()
    return metrics, requests, elapsed


def test_http_fleet_vs_in_process(benchmark, emit, emit_json):
    def sweep():
        return run_in_process(), run_over_http()

    (in_proc, in_calls, in_elapsed), (http, http_requests, http_elapsed) = (
        benchmark.pedantic(sweep, rounds=1, iterations=1)
    )
    # The pin, re-asserted at benchmark scale.
    assert http.fingerprint() == in_proc.fingerprint(), (
        "HTTP fleet diverged from the in-process fleet"
    )
    assert http.completed == NUM_TASKS

    requests_per_sec = http_requests / http_elapsed
    overhead = http_elapsed / max(in_elapsed, 1e-9)
    result = ExperimentResult(
        experiment_id="engine-http-serving",
        title=(
            f"HTTP serving fleet vs in-process fleet "
            f"({POOL_SIZE} workers, {NUM_TASKS} tasks, seeded identical)"
        ),
        x_label="transport (0=in-process, 1=HTTP)",
        xs=(0.0, 1.0),
        series=(
            SweepSeries("votes cast", (in_proc.votes_cast, http.votes_cast)),
            SweepSeries(
                "fleet wall seconds",
                (round(in_elapsed, 4), round(http_elapsed, 4)),
            ),
            SweepSeries(
                "round-trips/sec",
                (round(in_calls / max(in_elapsed, 1e-9), 1),
                 round(requests_per_sec, 1)),
            ),
        ),
        notes=(
            f"fingerprints byte-identical; {http_requests} HTTP round-trips "
            f"at {requests_per_sec:,.0f} req/s "
            f"({overhead:.1f}x in-process wall time); "
            f"floor {MIN_REQUESTS_PER_SEC:,.0f} req/s"
        ),
    )
    emit(result.render())
    emit_json(
        "engine-http-serving",
        {
            "tasks": NUM_TASKS,
            "votes_cast": http.votes_cast,
            "http_requests": http_requests,
            "http_requests_per_sec": requests_per_sec,
            "in_process_fleet_seconds": in_elapsed,
            "http_fleet_seconds": http_elapsed,
            "fingerprint_identical": True,
        },
    )
    assert requests_per_sec >= MIN_REQUESTS_PER_SEC, (
        f"HTTP serving sustained only {requests_per_sec:,.0f} req/s "
        f"(floor {MIN_REQUESTS_PER_SEC:,.0f})"
    )
