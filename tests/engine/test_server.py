"""The HTTP serving layer: endpoint correctness, the request reader
over raw sockets, adversarial traffic, daemon lifecycle, and the
HTTP-vs-in-process fingerprint parity pin.

The parity pin is the load-bearing test: a seeded client fleet driving
a campaign over the wire (POST /tasks, GET /assignments, POST /votes)
must land on a fingerprint byte-identical to the same fleet driving the
synchronous facade in-process — across shard counts and state backends.
"""

import contextlib
import hashlib
import http.client
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.engine import (
    Campaign,
    CampaignConfig,
    CampaignServer,
    EngineTask,
    MemoryBackend,
    NoOpenOffer,
    SQLiteBackend,
    TaskArrival,
)
from repro.simulation import SyntheticPoolConfig, generate_pool

# ---------------------------------------------------------------------------
# Workload helpers
# ---------------------------------------------------------------------------


def make_pool(num_workers=16, seed=11):
    rng = np.random.default_rng(seed)
    return generate_pool(
        SyntheticPoolConfig(num_workers=num_workers, quality_ceiling=0.95),
        rng,
    )


def make_tasks(num_tasks=10, seed=3):
    rng = np.random.default_rng(seed)
    truths = rng.integers(0, 2, size=num_tasks)
    return [
        EngineTask(f"t{i:03d}", ground_truth=int(t))
        for i, t in enumerate(truths)
    ]


def task_rows(tasks):
    return [
        {"task_id": t.task_id, "prior": t.prior, "ground_truth": t.ground_truth}
        for t in tasks
    ]


def make_config(**overrides):
    defaults = dict(
        budget=40.0,
        capacity=3,
        batch_size=4,
        confidence_target=0.95,
        seed=7,
        vote_source="external",
        # Live serving starts before any task is POSTed, so the
        # pacing baseline cannot come from the submitted tasks.
        expected_tasks=10,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def fleet_vote(task_id, worker_id, seed=0):
    """Deterministic vote for (task, worker): the seeded fleet's crowd."""
    digest = hashlib.sha256(
        f"{seed}:{task_id}:{worker_id}".encode()
    ).hexdigest()
    return int(digest, 16) & 1


# ---------------------------------------------------------------------------
# HTTP helpers
# ---------------------------------------------------------------------------


def http_get(url, raw=False):
    with urllib.request.urlopen(url, timeout=10) as response:
        body = response.read()
        if raw:
            return response.status, body.decode()
        return response.status, json.loads(body)


def http_post(url, payload, timeout=10):
    """POST JSON; returns (status, body) without raising on 4xx/5xx."""
    data = (
        payload if isinstance(payload, bytes)
        else json.dumps(payload).encode()
    )
    request = urllib.request.Request(url, data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def raw_request(method, path, body=b"", headers=()):
    """One HTTP/1.1 request as bytes, for raw-socket clients."""
    lines = [f"{method} {path} HTTP/1.1", "Host: test"]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    lines.extend(headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def read_response(stream):
    """Read one response off a socket's binary file:
    ``(status, headers, body)``, headers keyed in lower case."""
    status = int(stream.readline().split()[1])
    headers = {}
    while True:
        line = stream.readline().decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.lower()] = value.strip()
    body = stream.read(int(headers.get("content-length", 0)))
    return status, headers, body


def read_until_closed(sock):
    """Everything the server sends before it closes the connection."""
    chunks = []
    try:
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    except ConnectionResetError:
        pass
    return b"".join(chunks)


class serving:
    """Context manager: a Campaign served by a CampaignServer on an
    ephemeral port, with the serve loop on a background thread.  Always
    closes the listening socket; joins the loop when the test drained
    it, and keeps what ``serve()`` raised in :attr:`error`."""

    def __init__(self, config=None, backend=None, campaign=None, **server_kw):
        self.campaign = campaign or Campaign.open(
            make_pool(), config or make_config(), backend=backend
        )
        self.server = CampaignServer(self.campaign, port=0, **server_kw)
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.metrics = None
        self.error = None

    def _serve(self):
        try:
            self.metrics = self.server.serve()
        except Exception as exc:  # asserted by the tests that cause it
            self.error = exc

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc_info):
        self.server.stop()
        self.thread.join(timeout=10)
        self.server.shutdown()
        if not self.campaign._closed:
            self.campaign.close()

    @property
    def url(self):
        return self.server.url

    def join(self, timeout=20):
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "serve loop failed to finish"
        return self.metrics


# ---------------------------------------------------------------------------
# Seeded client fleets — the same sweep discipline in-process and on the wire
# ---------------------------------------------------------------------------


def at_barrier(status):
    """The documented client barrier: every accepted task is seated and
    every delivered command applied."""
    return (
        status["idle"]
        and status["staged"] == 0
        and status["queued_events"] == 0
        and status["pending_commands"] == 0
    )


def barrier_http(url, deadline=20.0):
    """Wait until ``/status`` reports the barrier."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        _, status = http_get(url + "/status")
        if at_barrier(status):
            return status
        time.sleep(0.005)
    raise AssertionError("campaign never quiesced")


@contextlib.contextmanager
def steps_held(campaign):
    """Keep the engine from stepping, so what was submitted stays queued
    (and nothing it would seat moves the metrics).  The serve loop spins
    on the held queue, answering requests between passes, and a vote or
    checkpoint applies without settling it first."""
    engine = campaign.engine
    engine._step = campaign._pump = lambda: None
    try:
        yield engine._queue
    finally:
        del engine._step, campaign._pump


def drive_fleet_http(url, worker_ids, seed=0, deadline=30.0):
    """Sweep workers in sorted order, voting on every open offer, until
    the campaign holds no open offers and no active tasks."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        _, status = http_get(url + "/status")
        if (
            status["open_offers"] == 0
            and status["active"] == 0
            and status["staged"] == 0
            and status["queued_events"] == 0
        ):
            return
        progressed = False
        for worker_id in sorted(worker_ids):
            _, payload = http_get(f"{url}/assignments?worker={worker_id}")
            voted = False
            for row in sorted(
                payload["assignments"], key=lambda r: r["task_id"]
            ):
                code, _ = http_post(url + "/votes", {
                    "task_id": row["task_id"],
                    "worker_id": worker_id,
                    "vote": fleet_vote(row["task_id"], worker_id, seed),
                })
                assert code in (200, 409), code
                if code == 200:
                    progressed = voted = True
            if voted:
                # A vote's reply does not wait for the events it queued
                # (early stops, cancelled offers, re-seated tasks); the
                # in-process fleet reads the next worker's offers only
                # after Campaign.vote has stepped them, so wait for the
                # same quiescent point before the next read.
                barrier_http(url)
        if not progressed:
            time.sleep(0.01)
    raise AssertionError("HTTP fleet never drained the campaign")


def drive_fleet_in_process(campaign, worker_ids, seed=0, max_sweeps=500):
    """The same fleet against the synchronous facade."""
    for _ in range(max_sweeps):
        offers = campaign.offers
        if offers.open_count == 0 and not campaign.engine._active:
            return
        progressed = False
        for worker_id in sorted(worker_ids):
            for row in sorted(
                campaign.assignments(worker_id),
                key=lambda r: r["task_id"],
            ):
                try:
                    campaign.vote(
                        row["task_id"],
                        worker_id,
                        fleet_vote(row["task_id"], worker_id, seed),
                    )
                    progressed = True
                except NoOpenOffer:
                    pass
        if not progressed:
            raise AssertionError("in-process fleet stalled")
    raise AssertionError("in-process fleet never drained the campaign")


def run_http_campaign(config, backend, tasks, fleet_seed=0):
    with serving(config=config, backend=backend) as srv:
        worker_ids = list(srv.campaign.registry.worker_ids)
        code, body = http_post(
            srv.url + "/tasks", {"tasks": task_rows(tasks), "spacing": 1.0}
        )
        assert code == 202 and body["staged"] == len(tasks)
        barrier_http(srv.url)
        drive_fleet_http(srv.url, worker_ids, seed=fleet_seed)
        code, _ = http_post(srv.url + "/admin/close", {"mode": "drain"})
        assert code == 200
        metrics = srv.join()
        assert srv.campaign.done
        return metrics.fingerprint(), metrics


def run_in_process_campaign(config, backend, tasks, fleet_seed=0):
    campaign = Campaign.open(make_pool(), config, backend=backend)
    worker_ids = list(campaign.registry.worker_ids)
    campaign.submit(tasks)
    campaign.run()  # seats the juries; pauses awaiting external votes
    drive_fleet_in_process(campaign, worker_ids, seed=fleet_seed)
    campaign.close_intake()
    metrics = campaign.run()
    assert campaign.done
    fingerprint = metrics.fingerprint()
    campaign.close()
    return fingerprint, metrics


# ---------------------------------------------------------------------------
# The tentpole pin: HTTP == in-process, across shards × backends
# ---------------------------------------------------------------------------


class TestFingerprintParity:
    @pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_http_fleet_matches_in_process(
        self, num_shards, backend_kind, tmp_path
    ):
        tasks = make_tasks(num_tasks=8)

        def backend(tag):
            if backend_kind == "memory":
                return None
            return SQLiteBackend(tmp_path / f"{tag}.db")

        config = make_config(num_shards=num_shards)
        http_fp, http_metrics = run_http_campaign(
            config, backend("http"), tasks
        )
        sync_fp, sync_metrics = run_in_process_campaign(
            config, backend("sync"), tasks
        )
        assert http_metrics.completed == len(tasks)
        assert http_metrics.votes_cast == sync_metrics.votes_cast
        assert http_metrics.votes_cancelled == sync_metrics.votes_cancelled
        assert http_fp == sync_fp

    def test_binding_budget_http_fleet_matches_in_process(self):
        """A budget that binds makes pacing decide which juries are
        funded, so the served campaign (started before any task is
        POSTed) must pace over ``expected_tasks`` exactly like the
        in-process one paces over its submitted tasks."""
        tasks = make_tasks(num_tasks=12)
        budget = 1.2
        served = make_config(budget=budget, expected_tasks=len(tasks))
        http_fp, http_metrics = run_http_campaign(served, None, tasks)
        sync_fp, sync_metrics = run_in_process_campaign(
            make_config(budget=budget, expected_tasks=None), None, tasks
        )
        allocator = http_metrics.allocator_snapshot
        assert allocator.reserved - allocator.refunded > 0.8 * budget
        assert http_metrics.completed == len(tasks)
        assert http_metrics.votes_cast == sync_metrics.votes_cast
        assert http_fp == sync_fp

    def test_serving_with_no_pacing_baseline_refuses_to_start(self):
        """Without ``expected_tasks`` and with nothing submitted, the
        pacing baseline would be one task and the first round would be
        granted the whole budget."""
        campaign = Campaign.open(
            make_pool(),
            make_config(expected_tasks=None, vote_source="simulated"),
        )
        with pytest.raises(ValueError, match="expected_tasks"):
            campaign.serve()
        campaign.submit(make_tasks(num_tasks=2))
        campaign.close_intake()
        assert campaign.serve().submitted == 2
        campaign.close()

    def test_fleet_seed_changes_the_outcome(self):
        # The pin above is meaningful only if the fingerprint actually
        # depends on the votes the fleet casts.
        tasks = make_tasks(num_tasks=8)
        fp_a, _ = run_in_process_campaign(make_config(), None, tasks, 0)
        fp_b, _ = run_in_process_campaign(make_config(), None, tasks, 99)
        assert fp_a != fp_b


# ---------------------------------------------------------------------------
# Endpoint correctness and hostile payloads
# ---------------------------------------------------------------------------


class TestEndpoints:
    def test_status_reports_live_counters(self):
        with serving() as srv:
            tasks = make_tasks(num_tasks=4)
            code, body = http_post(
                srv.url + "/tasks", {"tasks": task_rows(tasks)}
            )
            assert code == 202 and body == {"staged": 4}
            status = barrier_http(srv.url)
            assert status["submitted"] == 4
            assert status["active"] == 4
            assert status["vote_source"] == "external"
            assert status["open_offers"] > 0
            assert status["serving"] is True
            assert status["done"] is False

    def test_kept_alive_connection_does_not_stall(self):
        # Headers and body sent as two writes wait ~40 ms per response
        # for the client's delayed ACK (Nagle); one write does not.
        with serving() as srv:
            conn = http.client.HTTPConnection(
                srv.server.host, srv.server.port, timeout=10
            )
            try:
                start = time.perf_counter()
                for _ in range(50):
                    conn.request("GET", "/status")
                    response = conn.getresponse()
                    assert response.status == 200
                    json.loads(response.read())
                elapsed = time.perf_counter() - start
            finally:
                conn.close()
        assert elapsed < 0.5, f"50 kept-alive requests took {elapsed:.2f}s"

    def test_metrics_endpoint_serves_prometheus_text(self):
        with serving(config=make_config(telemetry="on")) as srv:
            http_post(srv.url + "/tasks", {"tasks": task_rows(make_tasks(4))})
            barrier_http(srv.url)
            status, body = http_get(srv.url + "/metrics", raw=True)
            assert status == 200
            assert "repro_engine_tasks_submitted_total 4" in body

    def test_assignments_requires_worker_param(self):
        with serving() as srv:
            code, body = http_post(srv.url + "/tasks", {
                "tasks": task_rows(make_tasks(2))})
            assert code == 202
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_get(srv.url + "/assignments")
            assert excinfo.value.code == 400

    def test_unknown_routes_404(self):
        with serving() as srv:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_get(srv.url + "/nope")
            assert excinfo.value.code == 404
            code, _ = http_post(srv.url + "/nope", {})
            assert code == 404

    def test_invalid_json_400(self):
        with serving() as srv:
            code, body = http_post(srv.url + "/tasks", b"{not json")
            assert code == 400
            assert "JSON" in body["error"]

    def test_non_object_body_400(self):
        with serving() as srv:
            code, _ = http_post(srv.url + "/tasks", b"[1, 2, 3]")
            assert code == 400

    def test_oversized_body_413(self):
        with serving(max_body=256) as srv:
            bomb = {"tasks": [{"task_id": "x" * 1000}]}
            code, body = http_post(srv.url + "/tasks", bomb)
            assert code == 413
            assert "cap" in body["error"]

    def test_task_payload_validation_400(self):
        with serving() as srv:
            for payload in (
                {},
                {"tasks": []},
                {"tasks": "t0"},
                {"tasks": [42]},
                {"tasks": [{"prior": 0.5}]},
                {"tasks": [{"task_id": ""}]},
                {"tasks": [{"task_id": "t0", "prior": "high"}]},
            ):
                code, _ = http_post(srv.url + "/tasks", payload)
                assert code == 400, payload

    def test_non_finite_arrival_stamps_400(self):
        """``json.loads`` parses ``NaN`` and ``Infinity``, and a NaN
        arrival time would break the event queue's ``(time, seq)``
        order (``0 * Infinity`` is NaN too)."""
        rows = [{"task_id": "t0"}]
        with serving() as srv:
            for stamps in (
                {"start_time": float("nan")},
                {"start_time": float("inf")},
                {"spacing": float("inf")},
            ):
                code, body = http_post(
                    srv.url + "/tasks", {"tasks": rows, **stamps}
                )
                assert code == 400, stamps
                assert "finite" in body["error"]
            code, _ = http_post(srv.url + "/tasks", {"tasks": rows})
            assert code == 202
            assert barrier_http(srv.url)["submitted"] == 1

    def test_numeric_fields_must_be_json_numbers_400(self):
        """``start_time``, ``spacing`` and ``prior`` are JSON numbers:
        no booleans, no strings, and no integer too large for a float
        (``float()`` raised OverflowError on it: a 500)."""
        huge = 10 ** 400
        with serving() as srv:
            for stamps in (
                {"start_time": huge},
                {"spacing": huge},
                {"start_time": "NaN"},
                {"start_time": "2.5"},
                {"spacing": True},
            ):
                code, body = http_post(
                    srv.url + "/tasks", {"tasks": [{"task_id": "t0"}], **stamps}
                )
                assert code == 400, stamps
                assert "number" in body["error"] or "large" in body["error"]
            for prior in (huge, True, "0.7"):
                code, body = http_post(
                    srv.url + "/tasks",
                    {"tasks": [{"task_id": "t0", "prior": prior}]},
                )
                assert code == 400, prior
                assert "prior" in body["error"]
            code, _ = http_post(srv.url + "/tasks", {
                "tasks": [{"task_id": "t0", "prior": 0.7}],
                "start_time": 3,
                "spacing": 0.5,
            })
            assert code == 202
            assert barrier_http(srv.url)["submitted"] == 1

    def test_ground_truth_must_be_0_1_or_null_400(self):
        # int() would have scored a 0.9 truth as 0.
        with serving() as srv:
            for truth in (0.9, 1.0, True, "1", 2):
                code, body = http_post(
                    srv.url + "/tasks",
                    {"tasks": [{"task_id": "t0", "ground_truth": truth}]},
                )
                assert code == 400, truth
                assert "ground_truth" in body["error"]
            rows = [
                {"task_id": "t0", "ground_truth": 1},
                {"task_id": "t1", "ground_truth": None},
            ]
            code, _ = http_post(srv.url + "/tasks", {"tasks": rows})
            assert code == 202

    def test_duplicate_of_a_direct_submit_409_and_serving_continues(self):
        """An id submitted straight into the event queue before serving
        is caught by the intake's duplicate check, and the loop keeps
        serving."""
        campaign = Campaign.open(make_pool(), make_config())
        tasks = make_tasks(3)
        campaign.submit(tasks[:2])
        with serving(campaign=campaign) as srv:
            code, body = http_post(
                srv.url + "/tasks", {"tasks": task_rows(tasks[1:2])}
            )
            assert code == 409
            assert "duplicate" in body["error"]
            code, _ = http_post(
                srv.url + "/tasks", {"tasks": task_rows(tasks[2:])}
            )
            assert code == 202
            status = barrier_http(srv.url)
            assert status["serving"] is True
            assert status["submitted"] == 3

    def test_duplicate_task_409(self):
        with serving() as srv:
            rows = task_rows(make_tasks(2))
            code, _ = http_post(srv.url + "/tasks", {"tasks": rows})
            assert code == 202
            barrier_http(srv.url)
            code, body = http_post(srv.url + "/tasks", {"tasks": rows})
            assert code == 409
            assert "duplicate" in body["error"]

    def test_refused_chunk_stages_nothing_and_a_retry_is_accepted(self):
        with serving() as srv:
            code, body = http_post(
                srv.url + "/tasks",
                {"tasks": [{"task_id": "a"}, {"task_id": "a"}]},
            )
            assert code == 409
            assert "duplicate" in body["error"]
            assert barrier_http(srv.url)["submitted"] == 0
            code, body = http_post(
                srv.url + "/tasks", {"tasks": [{"task_id": "a"}]}
            )
            assert code == 202 and body == {"staged": 1}
            assert barrier_http(srv.url)["submitted"] == 1

    def test_vote_payload_validation_400(self):
        with serving() as srv:
            for payload in (
                {},
                {"task_id": "t", "worker_id": "w"},
                {"task_id": "t", "worker_id": "w", "vote": 2},
                {"task_id": "t", "worker_id": "w", "vote": "1"},
                {"task_id": "t", "worker_id": "w", "vote": True},
                {"task_id": "t", "worker_id": 3, "vote": 1},
                {"task_id": None, "worker_id": "w", "vote": 0},
            ):
                code, _ = http_post(srv.url + "/votes", payload)
                assert code == 400, payload

    def test_vote_without_offer_409(self):
        with serving() as srv:
            code, body = http_post(srv.url + "/votes", {
                "task_id": "ghost", "worker_id": "w0", "vote": 1})
            assert code == 409

    def test_simulated_campaign_rejects_external_votes(self):
        with serving(config=make_config(vote_source="simulated")) as srv:
            code, body = http_post(srv.url + "/votes", {
                "task_id": "t", "worker_id": "w", "vote": 1})
            assert code == 409
            assert "simulate" in body["error"]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_get(srv.url + "/assignments?worker=w0")
            assert excinfo.value.code == 409

    def test_simulated_campaign_still_serves_tasks(self):
        # Tasks over the wire, votes simulated in-engine: the serving
        # layer works for pure task-intake deployments too.
        with serving(config=make_config(vote_source="simulated")) as srv:
            code, _ = http_post(
                srv.url + "/tasks", {"tasks": task_rows(make_tasks(4))}
            )
            assert code == 202
            code, _ = http_post(srv.url + "/admin/close", {"mode": "drain"})
            assert code == 200
            metrics = srv.join()
            assert metrics.completed == 4

    def test_submit_after_close_409(self):
        # Seated juries still owe votes, so the loop serves on after
        # the close and answers the late submit.
        with serving() as srv:
            http_post(srv.url + "/tasks", {"tasks": task_rows(make_tasks(2))})
            barrier_http(srv.url)
            code, _ = http_post(srv.url + "/admin/close", {"mode": "drain"})
            assert code == 200
            code, _ = http_post(
                srv.url + "/tasks", {"tasks": task_rows(make_tasks(3)[2:])}
            )
            assert code == 409

    def test_close_mode_validation(self):
        with serving() as srv:
            code, _ = http_post(
                srv.url + "/admin/close", {"mode": "detonate"}
            )
            assert code == 400


class TestStatusBarrier:
    def test_barrier_is_never_reported_mid_drain(self):
        """Requests are answered between engine steps, so right after a
        202 on ``POST /tasks`` the chunk is staged, queued or counted:
        ``/status`` never shows the barrier with it uncounted."""
        config = make_config(vote_source="simulated", expected_tasks=200)
        with serving(config=config) as srv:
            for i in range(200):
                code, _ = http_post(
                    srv.url + "/tasks", {"tasks": [{"task_id": f"t{i}"}]}
                )
                assert code == 202
                _, status = http_get(srv.url + "/status")
                if at_barrier(status):
                    assert status["submitted"] == i + 1, status
            assert barrier_http(srv.url)["submitted"] == 200


class TestRequestReader:
    """The minimal HTTP/1.1 reader, driven over raw sockets."""

    @staticmethod
    def exchange(srv, data, timeout=10):
        """Send ``data`` on a fresh connection and read one response."""
        with socket.create_connection(
            (srv.server.host, srv.server.port), timeout=timeout
        ) as sock:
            sock.sendall(data)
            with sock.makefile("rb") as stream:
                return read_response(stream)

    def test_overlong_request_line_or_headers_4xx_and_serving_continues(self):
        with serving() as srv:
            cases = (
                (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
                (raw_request("GET", "/status", headers=(
                    "X-Big: " + "b" * 70_000,)), 431),
                (raw_request("GET", "/status", headers=tuple(
                    f"X-H{i}: {i}" for i in range(101))), 431),
            )
            for data, expected in cases:
                status, headers, _ = self.exchange(srv, data)
                assert status == expected
                assert headers["connection"] == "close"
                code, body = http_get(srv.url + "/status")
                assert code == 200 and body["serving"] is True
            status, _, _ = self.exchange(srv, raw_request(
                "GET", "/status",
                headers=tuple(f"X-H{i}: {i}" for i in range(99)),
            ))
            assert status == 200

    def test_chunked_body_is_refused_without_reading_it(self):
        with serving() as srv:
            status, headers, body = self.exchange(srv, raw_request(
                "POST", "/tasks", headers=("Transfer-Encoding: chunked",)
            ))
            assert status == 411
            assert headers["connection"] == "close"
            assert "Content-Length" in json.loads(body)["error"]
            assert barrier_http(srv.url)["submitted"] == 0

    @staticmethod
    def post_tasks(*lengths):
        """A ``POST /tasks`` of one task carrying the given
        ``Content-Length`` header values, in order."""
        body = json.dumps({"tasks": [{"task_id": "t0"}]}).encode()
        lines = [
            "POST /tasks HTTP/1.1",
            "Host: test",
            *(f"Content-Length: {value}".format(n=len(body))
              for value in lengths),
        ]
        return ("\r\n".join(lines) + "\r\n\r\n").encode() + body

    def test_content_length_must_be_digits_only(self):
        """RFC 9112 6.3: a Content-Length other than 1*DIGIT is a 400,
        however ``int()`` would have read it; the body is not taken."""
        with serving() as srv:
            for value in ("+{n}", "0_{n}", "-0", "{n}.0"):
                status, headers, body = self.exchange(
                    srv, self.post_tasks(value)
                )
                assert status == 400, value
                assert headers["connection"] == "close"
                assert "Content-Length" in json.loads(body)["error"]
            assert barrier_http(srv.url)["submitted"] == 0
            status, _, _ = self.exchange(srv, self.post_tasks("0{n}"))
            assert status == 202
            assert barrier_http(srv.url)["submitted"] == 1

    def test_differing_content_lengths_400(self):
        """Two ``Content-Length`` headers that disagree are a 400, not
        "the last one wins"; two that agree frame the body as one."""
        with serving() as srv:
            status, headers, _ = self.exchange(
                srv, self.post_tasks("{n}5", "{n}")
            )
            assert status == 400
            assert headers["connection"] == "close"
            assert barrier_http(srv.url)["submitted"] == 0
            status, _, _ = self.exchange(srv, self.post_tasks("{n}", "{n}"))
            assert status == 202
            assert barrier_http(srv.url)["submitted"] == 1

    def test_unsupported_method_501(self):
        with serving() as srv:
            for method in ("PUT", "DELETE", "HEAD"):
                status, _, _ = self.exchange(
                    srv, raw_request(method, "/tasks")
                )
                assert status == 501, method

    def test_stalled_body_does_not_delay_other_clients(self):
        with serving() as srv:
            with socket.create_connection(
                (srv.server.host, srv.server.port), timeout=10
            ) as stalled:
                body = json.dumps({"tasks": [{"task_id": "t0"}]}).encode()
                stalled.sendall(
                    raw_request("POST", "/tasks", body)[: -len(body) // 2]
                )
                time.sleep(0.05)  # the server has read the headers
                start = time.perf_counter()
                code, status = http_get(srv.url + "/status")
                assert time.perf_counter() - start < 0.5
                assert code == 200 and status["submitted"] == 0

    def test_expect_100_continue_is_answered_before_the_body(self):
        # curl sends this header with any body over 1 KiB.
        with serving() as srv:
            body = json.dumps({"tasks": [{"task_id": "t0"}]}).encode()
            request = raw_request(
                "POST", "/tasks", body, headers=("Expect: 100-continue",)
            )
            with socket.create_connection(
                (srv.server.host, srv.server.port), timeout=10
            ) as sock:
                sock.sendall(request[: -len(body)])
                with sock.makefile("rb") as stream:
                    assert stream.readline().split()[1] == b"100"
                    assert stream.readline() == b"\r\n"
                    sock.sendall(body)
                    assert read_response(stream)[0] == 202

    def test_pipelined_requests_are_answered_in_order(self):
        with serving() as srv:
            body = json.dumps({"tasks": [{"task_id": "t0"}]}).encode()
            with socket.create_connection(
                (srv.server.host, srv.server.port), timeout=10
            ) as sock:
                sock.sendall(
                    raw_request("POST", "/tasks", body)
                    + raw_request("POST", "/tasks", body)
                    + raw_request("GET", "/nope")
                )
                with sock.makefile("rb") as stream:
                    answers = [read_response(stream)[0] for _ in range(3)]
            assert answers == [202, 409, 404]


# ---------------------------------------------------------------------------
# Adversarial traffic
# ---------------------------------------------------------------------------


class TestAdversarialTraffic:
    def test_spammer_double_votes_are_rejected(self):
        """A worker replaying the same vote gets exactly one acceptance;
        the campaign's vote accounting stays exact."""
        with serving() as srv:
            http_post(srv.url + "/tasks", {"tasks": task_rows(make_tasks(2))})
            barrier_http(srv.url)
            # Pick a worker the engine actually seated.
            row = srv.campaign.offers.open_offers()[0]
            outcomes = []
            for _ in range(5):
                code, _ = http_post(srv.url + "/votes", {
                    "task_id": row["task_id"],
                    "worker_id": row["worker_id"],
                    "vote": 1,
                })
                outcomes.append(code)
            assert outcomes.count(200) == 1
            assert outcomes.count(409) == 4
            _, status = http_get(srv.url + "/status")
            assert status["votes_cast"] == 1

    def test_latency_skewed_concurrent_fleet_completes(self):
        """Workers voting concurrently with wildly different latencies:
        no deadlock, no lost votes, every task completes."""
        config = make_config(budget=60.0)
        with serving(config=config) as srv:
            worker_ids = list(srv.campaign.registry.worker_ids)
            tasks = make_tasks(num_tasks=6)
            http_post(srv.url + "/tasks", {"tasks": task_rows(tasks)})
            barrier_http(srv.url)
            stop = threading.Event()
            errors = []

            def worker_loop(worker_id, delay):
                try:
                    while not stop.is_set():
                        _, payload = http_get(
                            f"{srv.url}/assignments?worker={worker_id}"
                        )
                        if not payload["assignments"]:
                            time.sleep(delay)
                            continue
                        for row in payload["assignments"]:
                            code, _ = http_post(srv.url + "/votes", {
                                "task_id": row["task_id"],
                                "worker_id": worker_id,
                                "vote": fleet_vote(row["task_id"], worker_id),
                            })
                            assert code in (200, 409), code
                            time.sleep(delay)
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(
                    target=worker_loop,
                    args=(worker_id, 0.001 * (1 + 20 * (i % 3 == 0))),
                    daemon=True,
                )
                for i, worker_id in enumerate(worker_ids)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                _, status = http_get(srv.url + "/status")
                if status["active"] == 0 and status["open_offers"] == 0:
                    break
                time.sleep(0.02)
            stop.set()
            for thread in threads:
                thread.join(timeout=5)
            assert not errors, errors
            http_post(srv.url + "/admin/close", {"mode": "drain"})
            metrics = srv.join()
            assert metrics.completed == len(tasks)
            records = metrics.records
            assert sum(r.votes_used for r in records) == metrics.votes_cast

    def test_hostile_payload_storm_leaves_campaign_consistent(self):
        """A barrage of malformed requests must not perturb a normal
        workload running through the same server."""
        with serving() as srv:
            garbage = [
                (srv.url + "/votes", b"\xff\xfe\x00"),
                (srv.url + "/tasks", b'{"tasks": [{"task_id": 1}]}'),
                (srv.url + "/votes", {"task_id": "t000", "vote": 7}),
                (srv.url + "/admin/close", {"mode": "wipe"}),
                (srv.url + "/elsewhere", {}),
            ]
            for target, payload in garbage * 10:
                code, _ = http_post(target, payload)
                assert 400 <= code < 500
            tasks = make_tasks(num_tasks=4)
            worker_ids = list(srv.campaign.registry.worker_ids)
            code, _ = http_post(srv.url + "/tasks", {"tasks": task_rows(tasks)})
            assert code == 202
            barrier_http(srv.url)
            drive_fleet_http(srv.url, worker_ids)
            http_post(srv.url + "/admin/close", {"mode": "drain"})
            metrics = srv.join()
            assert metrics.completed == len(tasks)


# ---------------------------------------------------------------------------
# Hostile Prometheus labels through the live exporter (satellite 2)
# ---------------------------------------------------------------------------

#: One Prometheus text-format sample line: name{labels} value — label
#: values may contain any character except raw newline/quote/backslash,
#: which must appear escaped.
_PROM_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*")*\})?'
    r' \S+$'
)


def assert_valid_prometheus(body):
    for line in body.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _PROM_SAMPLE.match(line), f"invalid exposition line: {line!r}"


def series_keys(body):
    """The exposition's series: each sample line without its value."""
    return {
        line.rsplit(" ", 1)[0]
        for line in body.splitlines()
        if line and not line.startswith("#")
    }


def leaf_count(value):
    if isinstance(value, dict):
        return sum(leaf_count(v) for v in value.values())
    return 1


class TestHostileMetricsLabels:
    def test_task_posts_add_no_series_or_checkpoint_rows(self):
        """The intake keys nothing on the submitting thread.  Of 40
        tasks, one is offered through ``Campaign.submit`` on a thread
        with a hostile name, which serving refuses (only the loop's
        thread may submit), and the rest arrive through ``POST /tasks``.
        They must add no ``/metrics`` series and no checkpoint rows
        beyond what the first one adds.  The engine's steps are held, so
        the tasks stay queued (nothing else moves the series) until the
        close runs them."""
        backend = MemoryBackend()
        config = make_config(
            telemetry="on", expected_tasks=40, vote_source="simulated"
        )
        campaign = Campaign.open(make_pool(), config, backend=backend)
        tasks = make_tasks(40)
        rows = task_rows(tasks)
        with serving(campaign=campaign) as srv:

            def scrape():
                code, _ = http_post(srv.url + "/admin/checkpoint", {})
                assert code == 200
                intake_stats = backend.load()["campaign"]["intake_stats"]
                _, body = http_get(srv.url + "/metrics", raw=True)
                assert_valid_prometheus(body)
                return series_keys(body), leaf_count(intake_stats)

            refused = []

            def hostile_submit():
                try:
                    campaign.submit(tasks[1:2])
                except RuntimeError as exc:
                    refused.append(exc)

            with steps_held(campaign):
                http_get(srv.url + "/metrics", raw=True)
                code, _ = http_post(srv.url + "/tasks", {"tasks": rows[:1]})
                assert code == 202
                first_series, first_rows = scrape()
                hostile = threading.Thread(
                    target=hostile_submit,
                    name='evil"producer\nname\\with everything',
                )
                hostile.start()
                hostile.join(timeout=10)
                for row in rows[2:]:
                    code, _ = http_post(srv.url + "/tasks", {"tasks": [row]})
                    assert code == 202
                series, checkpoint_rows = scrape()
            assert len(refused) == 1
            assert campaign.intake_stats.submitted == 39
            assert series == first_series
            assert checkpoint_rows == first_rows
            assert "producer" not in " ".join(series)
            srv.server.close_intake()
            assert srv.join().completed == 39

    def test_unknown_paths_share_one_response_series(self):
        """Responses are labelled by route, so hostile paths cannot grow
        the ``/metrics`` series (or the checkpointed telemetry state)."""

        def response_series():
            _, body = http_get(srv.url + "/metrics", raw=True)
            return {
                key
                for key in series_keys(body)
                if key.startswith("repro_server_responses_total")
            }

        with serving(config=make_config(telemetry="on")) as srv:
            http_get(srv.url + "/status")
            before = response_series()
            for i in range(50):
                with pytest.raises(urllib.error.HTTPError):
                    http_get(f"{srv.url}/probe/{i}")
            assert len(response_series() - before) <= 1

    def test_server_response_labels_are_escaped(self):
        with serving(config=make_config(telemetry="on")) as srv:
            code, _ = http_post(srv.url + '/votes?x="\n', {})
            assert code in (400, 404)
            _, body = http_get(srv.url + "/metrics", raw=True)
            assert_valid_prometheus(body)


# ---------------------------------------------------------------------------
# Daemon lifecycle (satellite 4)
# ---------------------------------------------------------------------------


class TestDaemonLifecycle:
    def test_close_intake_ends_serve(self):
        with serving() as srv:
            http_post(srv.url + "/tasks", {"tasks": task_rows(make_tasks(2))})
            barrier_http(srv.url)
            worker_ids = list(srv.campaign.registry.worker_ids)
            drive_fleet_http(srv.url, worker_ids)
            code, body = http_post(srv.url + "/admin/close", {"mode": "drain"})
            assert code == 200 and body == {"closing": "drain"}
            metrics = srv.join()
            assert srv.campaign.done
            assert metrics.completed == 2

    def test_close_stop_pauses_without_finalizing(self):
        with serving() as srv:
            http_post(srv.url + "/tasks", {"tasks": task_rows(make_tasks(2))})
            barrier_http(srv.url)
            code, _ = http_post(srv.url + "/admin/close", {"mode": "stop"})
            assert code == 200
            srv.join()
            assert not srv.campaign.done
            assert srv.campaign.engine._active

    def test_admin_checkpoint_persists_mid_serve(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "live.db")
        with serving(backend=backend) as srv:
            http_post(srv.url + "/tasks", {"tasks": task_rows(make_tasks(3))})
            barrier_http(srv.url)
            code, body = http_post(srv.url + "/admin/checkpoint", {})
            assert code == 200 and body["checkpointed"] is True
        assert backend.exists()

    def test_serve_stop_checkpoint_resume_is_fingerprint_identical(
        self, tmp_path
    ):
        """The daemon pin: pause a served campaign mid-flight, resume
        it from the checkpoint, finish the fleet — byte-identical to
        the same workload served without interruption."""
        tasks = make_tasks(num_tasks=6)
        baseline_fp, _ = run_http_campaign(make_config(), None, tasks)

        backend = SQLiteBackend(tmp_path / "paused.db")
        campaign = Campaign.open(make_pool(), make_config(), backend=backend)
        worker_ids = list(campaign.registry.worker_ids)
        with serving(campaign=campaign) as srv:
            http_post(srv.url + "/tasks", {"tasks": task_rows(tasks)})
            barrier_http(srv.url)
            # Deliver the first sweep's worth of votes for two workers,
            # then pause mid-campaign.
            for worker_id in sorted(worker_ids)[:2]:
                _, payload = http_get(
                    f"{srv.url}/assignments?worker={worker_id}"
                )
                for row in sorted(
                    payload["assignments"], key=lambda r: r["task_id"]
                ):
                    http_post(srv.url + "/votes", {
                        "task_id": row["task_id"],
                        "worker_id": worker_id,
                        "vote": fleet_vote(row["task_id"], worker_id),
                    })
            srv.server.stop()
            srv.join()
            assert not campaign.done
            campaign.checkpoint()
        campaign.close()

        resumed = Campaign.resume(backend)
        assert resumed.offers.open_count > 0  # offers rebuilt on resume
        with serving(campaign=resumed) as srv:
            drive_fleet_http(srv.url, worker_ids)
            http_post(srv.url + "/admin/close", {"mode": "drain"})
            metrics = srv.join()
            assert resumed.done
            assert metrics.fingerprint() == baseline_fp

    def test_an_engine_error_under_a_request_ends_serving(self):
        """A step that raises while a request settles the engine leaves
        it in no known state: the request gets 500 and ``serve()``
        re-raises the error, as it would for a step inside the loop."""
        with serving() as srv:
            http_post(srv.url + "/tasks", {"tasks": task_rows(make_tasks(2))})
            barrier_http(srv.url)

            def broken_step():
                raise RuntimeError("step failed")

            srv.campaign._pump = broken_step
            code, body = http_post(srv.url + "/admin/checkpoint", {})
            assert code == 500 and "step failed" in body["error"]
            srv.thread.join(timeout=10)
            assert not srv.thread.is_alive()
            assert str(srv.error) == "step failed"

    def test_fold_intake_counts_staged_tasks_and_resumes_identically(self):
        """Tasks the intake acknowledged but the loop had not scheduled
        when it paused (a shutdown signal racing a POST /tasks) are
        admitted by fold_intake, so the metrics a shutdown flush writes
        count them, and resuming from the checkpoint that follows is
        byte-identical to an uninterrupted run."""
        tasks = make_tasks(num_tasks=6)
        config = make_config(vote_source="simulated")
        reference = Campaign.open(make_pool(), config)
        reference.submit(tasks)
        reference.close_intake()
        reference_fp = reference.run().fingerprint()

        backend = MemoryBackend()
        campaign = Campaign.open(make_pool(), config, backend=backend)
        campaign.submit(tasks)
        assert campaign.metrics.submitted == 0
        campaign.fold_intake()
        assert campaign.metrics.submitted == 6
        assert campaign.snapshot_metrics()["submitted"] == 6
        assert not campaign.done
        campaign.checkpoint()
        campaign.close()

        resumed = Campaign.resume(backend)
        assert resumed.metrics.submitted == 6
        resumed.close_intake()
        assert resumed.run().fingerprint() == reference_fp

    def test_stopped_server_rejects_staged_commands(self, tmp_path):
        """After ``serve()`` returns no request is answered or applied:
        a kept-alive connection is closed, and a new one waits in the
        backlog until the listener closes."""
        backend = SQLiteBackend(tmp_path / "stopped.db")
        with serving(backend=backend) as srv:
            http_post(srv.url + "/tasks", {"tasks": task_rows(make_tasks(2))})
            barrier_http(srv.url)
            row = srv.campaign.offers.open_offers()[0]
            vote = json.dumps({
                "task_id": row["task_id"],
                "worker_id": row["worker_id"],
                "vote": 1,
            }).encode()
            kept = http.client.HTTPConnection(
                srv.server.host, srv.server.port, timeout=10
            )
            kept.request("GET", "/status")
            assert kept.getresponse().read()
            srv.server.stop()
            srv.join()
            late = socket.create_connection(
                (srv.server.host, srv.server.port), timeout=10
            )
            for conn in (kept.sock, late):
                conn.sendall(
                    raw_request("POST", "/votes", vote)
                    + raw_request("POST", "/admin/checkpoint", b"{}")
                )
            assert read_until_closed(kept.sock) == b""
            late.settimeout(0.3)
            with pytest.raises(socket.timeout):
                late.recv(1)
            srv.server.shutdown()
            assert read_until_closed(late) == b""
            kept.close()
            late.close()
            assert srv.campaign.metrics.votes_cast == 0
            assert row in srv.campaign.offers.for_worker(row["worker_id"])
        assert not backend.exists()


# ---------------------------------------------------------------------------
# Backpressure hints: Retry-After derived from the admit-latency EWMA
# ---------------------------------------------------------------------------


def http_post_headers(url, payload):
    """POST JSON; returns (status, headers) without raising on 4xx/5xx."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            response.read()
            return response.status, dict(response.headers)
    except urllib.error.HTTPError as error:
        error.read()
        return error.code, dict(error.headers)


class TestRetryAfterHint:
    def test_cold_engine_floors_at_one_second(self):
        # Before any admit the EWMA is unset: the hint is the 1s floor
        # (the historical hardcoded hint — light campaigns keep it).
        campaign = Campaign.open(make_pool(), make_config())
        with CampaignServer(campaign, port=0) as server:
            assert server.retry_after_hint() == 1
        campaign.close()

    def test_heavy_campaign_scales_the_hint(self):
        # ewma * (max_pending / batch_size): time to drain one full
        # intake buffer, floored at 1s and capped at 60s.
        campaign = Campaign.open(
            make_pool(),
            make_config(batch_size=25, ingest_max_pending=100),
        )
        with CampaignServer(campaign, port=0) as server:
            campaign.engine.admit_latency_ewma = 2.0
            assert server.retry_after_hint() == 8
            campaign.engine.admit_latency_ewma = 0.001
            assert server.retry_after_hint() == 1  # floor
            campaign.engine.admit_latency_ewma = 1e9
            assert server.retry_after_hint() == 60  # cap
        campaign.close()

    def test_503_carries_the_derived_hint_both_regimes(self):
        """A chunk that would push the arrivals not yet dispatched past
        ``ingest_max_pending`` is refused whole with 503, and its ids
        stay free for a retry."""
        campaign = Campaign.open(
            make_pool(), make_config(ingest_max_pending=100)
        )
        over = {"tasks": [{"task_id": "late0"}, {"task_id": "late1"}]}
        with serving(campaign=campaign) as srv:
            with steps_held(campaign) as queue:
                code, _ = http_post(
                    srv.url + "/tasks", {"tasks": task_rows(make_tasks(99))}
                )
                assert code == 202
                # Cold regime: no admits observed yet → the floor.
                code, headers = http_post_headers(srv.url + "/tasks", over)
                assert code == 503
                assert headers["Retry-After"] == "1"
                # Heavy regime: a slow admit EWMA must push the hint
                # out — the hardcoded "1" invited retry storms here.
                campaign.engine.admit_latency_ewma = 2.0
                code, headers = http_post_headers(srv.url + "/tasks", over)
                assert code == 503
                assert headers["Retry-After"] == "50"  # 2.0s * (100/4)
                # Nothing of it queued.
                assert queue.pending(TaskArrival) == 99
                assert http_get(srv.url + "/status")[1]["staged"] == 99
            assert barrier_http(srv.url)["submitted"] == 99
            code, body = http_post(srv.url + "/tasks", over)
            assert code == 202 and body == {"staged": 2}
            assert barrier_http(srv.url)["submitted"] == 101


class TestServerConstruction:
    def test_accepts_a_resumed_sync_checkpoint(self, tmp_path):
        """A campaign opened with the retired ``ingestion="sync"`` and
        paused by ``run()`` serves after a resume like any other."""
        backend = SQLiteBackend(tmp_path / "sync.db")
        config = make_config(ingestion="sync", vote_source="simulated")
        campaign = Campaign.open(make_pool(), config, backend=backend)
        campaign.submit(make_tasks(6))
        campaign.run(until=2)
        campaign.checkpoint()
        campaign.close()

        resumed = Campaign.resume(SQLiteBackend(tmp_path / "sync.db"))
        with serving(campaign=resumed) as srv:
            code, _ = http_post(srv.url + "/admin/close", {"mode": "drain"})
            assert code == 200
            metrics = srv.join()
        assert resumed.done
        assert metrics.completed == 6

    def test_ephemeral_port_is_reported(self):
        campaign = Campaign.open(make_pool(), make_config())
        with CampaignServer(campaign, port=0) as server:
            assert server.port != 0
            assert str(server.port) in server.url
        campaign.close()
