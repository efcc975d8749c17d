"""HTTP serving layer: a real crowd on the other end of a `Campaign`.

Every earlier layer consumed *simulated* traffic from in-process
producers.  :class:`CampaignServer` puts a network endpoint on the
:class:`~repro.engine.campaign.Campaign` facade so annotation
platforms — or a seeded test fleet — can drive a campaign over the
wire::

    POST /tasks              stage tasks on the campaign's intake
    GET  /assignments?worker= the worker's open vote offers
    POST /votes              deliver one vote (applied synchronously)
    GET  /status             live campaign/loop counters
    GET  /metrics            Prometheus text exposition (v0.0.4)
    POST /admin/checkpoint   checkpoint to the campaign's backend
    POST /admin/close        close the intake (drain) or pause (stop)

Threading model
---------------
The listener is a stdlib ``ThreadingHTTPServer``: one handler thread
per connection.  The engine's event heap is single-threaded, so handler
threads never touch it directly:

- **Task submission** always stages on the thread-safe
  :class:`~repro.engine.ingest.IntakeQueue` (bounded backpressure →
  503 + ``Retry-After`` on overflow), even while the loop is not
  running; the next ``serve()`` or ``run()`` folds it in.
- **Votes and admin commands** are staged on a :class:`LoopMailbox`
  and *applied on the serving-loop thread* at its next drain point;
  the handler blocks until the application ran and reports the real
  outcome.  Claims happen at application time, so the engine observes
  the exact op sequence a single-threaded in-process driver would
  produce — the foundation of the HTTP-vs-in-process fingerprint
  parity pin.
- **Reads** (``/status``, ``/metrics``, ``/assignments``) touch only
  mutex-guarded or observational state.

The blocking :meth:`CampaignServer.serve` runs
:meth:`Campaign.serve` — the serve-forever daemon loop — on the
calling thread, with the mailbox wired in as its drain hook.  It
returns the final :class:`~repro.engine.metrics.EngineMetrics` when the
intake is closed and drained, or the paused metrics after
:meth:`CampaignServer.stop` (the graceful-shutdown path: checkpoint,
then exit).
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from .campaign import Campaign
from .events import EngineTask
from .ingest import IngestionClosed, IngestionOverflow, NoOpenOffer
from .metrics import EngineMetrics

#: Default cap on request bodies — a hostile client streaming an
#: unbounded payload gets 413 instead of exhausting memory.
DEFAULT_MAX_BODY = 1 << 20

#: How long a handler waits for the serving loop to apply its command
#: before giving up with 503 (the loop may be mid-checkpoint).
DEFAULT_COMMAND_TIMEOUT = 30.0


class ServerError(RuntimeError):
    """The serving loop could not accept or apply a command."""


def _is_bit(value) -> bool:
    """True for the JSON integers ``0`` and ``1`` only (not ``true``,
    not ``0.9``)."""
    return type(value) is int and value in (0, 1)


class _Command:
    """One unit of work staged for the serving-loop thread."""

    __slots__ = ("fn", "done", "result", "error")

    def __init__(self, fn) -> None:
        self.fn = fn
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self.result = self.fn()
        except BaseException as exc:  # reported to the waiting handler
            self.error = exc
        finally:
            self.done.set()

    def fail(self, exc: BaseException) -> None:
        if not self.done.is_set():
            self.error = exc
            self.done.set()


class LoopMailbox:
    """Thread-safe handoff of commands to the serving-loop thread.

    Handler threads :meth:`call` a closure; the loop thread
    :meth:`drain`s and runs it at its next drain point; the handler
    wakes with the closure's return value (or its exception re-raised).
    ``kick`` is invoked after staging so an idle loop notices the
    traffic immediately instead of sleeping out its poll window.
    """

    def __init__(self, kick=None) -> None:
        self._mutex = threading.Lock()
        self._items: deque[_Command] = deque()
        self._kick = kick
        self._rejecting: BaseException | None = None

    def call(self, fn, timeout: float = DEFAULT_COMMAND_TIMEOUT) -> Any:
        command = _Command(fn)
        with self._mutex:
            if self._rejecting is not None:
                raise self._rejecting
            self._items.append(command)
        if self._kick is not None:
            self._kick()
        if not command.done.wait(timeout):
            raise ServerError(
                f"serving loop did not apply the command within "
                f"{timeout:g}s"
            )
        if command.error is not None:
            raise command.error
        return command.result

    def drain(self) -> list[_Command]:
        with self._mutex:
            out = list(self._items)
            self._items.clear()
        return out

    @property
    def pending(self) -> int:
        with self._mutex:
            return len(self._items)

    def reject_all(self, exc: BaseException) -> None:
        """Fail every staged command and every future :meth:`call` with
        ``exc`` — the loop has exited; nothing will drain again."""
        with self._mutex:
            self._rejecting = exc
            items = list(self._items)
            self._items.clear()
        for command in items:
            command.fail(exc)


class CampaignServer:
    """HTTP facade over one :class:`Campaign` (see the module docstring
    for the endpoint table and threading model).

    ``port=0`` binds an ephemeral port; read :attr:`port` (or
    :attr:`url`) for the bound address.  The instance is a context
    manager that shuts the listener down on exit.
    """

    def __init__(
        self,
        campaign: Campaign,
        host: str | None = None,
        port: int | None = None,
        submit_timeout: float = 2.0,
        command_timeout: float = DEFAULT_COMMAND_TIMEOUT,
        max_body: int = DEFAULT_MAX_BODY,
    ) -> None:
        self.campaign = campaign
        self.submit_timeout = submit_timeout
        self.command_timeout = command_timeout
        self.max_body = max_body
        self.mailbox = LoopMailbox(kick=self._kick)
        self._stop = threading.Event()
        self._listener: threading.Thread | None = None
        self._started = time.monotonic()
        self._shutdown = False
        handler = type(
            "_BoundHandler", (_CampaignRequestHandler,), {"ctx": self}
        )
        # The stdlib default listen backlog (5) overflows under a burst
        # of concurrent clients; a dropped handshake ACK then surfaces
        # to the client as a connection reset.  A worker fleet IS a
        # burst, so listen deep.
        server_cls = type(
            "_CampaignHTTPServer",
            (ThreadingHTTPServer,),
            {"request_queue_size": 128, "daemon_threads": True},
        )
        self._httpd = server_cls(
            (host if host is not None else campaign.config.serve_host,
             port if port is not None else campaign.config.serve_port),
            handler,
        )
        self.host = self._httpd.server_address[0]
        self.port = self._httpd.server_address[1]

    # ------------------------------------------------------------- wiring
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _kick(self) -> None:
        """Wake an idle serving loop (side-channel traffic arrived)."""
        self.campaign._ingest.intake.kick()

    def _drain(self) -> bool:
        """The serve loop's drain hook (loop thread only): apply every
        staged vote/admin command, dispatching queued events first so
        each application sees the same quiescent engine state an
        in-process single-threaded driver would."""
        applied = False
        engine = self.campaign.engine
        for command in self.mailbox.drain():
            while engine._queue:
                engine._step()
            command.run()
            applied = True
        return applied

    # ------------------------------------------------------------ control
    def start_listener(self) -> None:
        """Bind-and-listen on a daemon thread (idempotent).  The
        listener accepts requests even while :meth:`serve` is not yet
        (or no longer) draining the mailbox — commands then fail with
        503 after ``command_timeout``."""
        if self._listener is None:
            self._listener = threading.Thread(
                target=self._httpd.serve_forever,
                name=f"repro-serve[{self.port}]",
                daemon=True,
            )
            self._listener.start()

    def serve(self, tick=None, tick_interval: float | None = None) -> EngineMetrics:
        """Serve forever on the calling thread (see
        :meth:`Campaign.serve`): starts the listener, drains votes and
        admin commands at the loop's drain points, and returns the
        campaign metrics once the intake closes and drains — or once
        :meth:`stop` pauses the loop."""
        self.start_listener()
        try:
            return self.campaign.serve(
                stop=self._stop,
                drain_hook=self._drain,
                tick=tick,
                tick_interval=tick_interval,
            )
        finally:
            self.mailbox.reject_all(
                ServerError("campaign is no longer serving")
            )

    def stop(self) -> None:
        """Ask a running :meth:`serve` to pause (graceful shutdown:
        checkpoint afterwards, resume later).  Does not close the
        intake — tasks accepted before the pause are checkpointed."""
        self._stop.set()
        self._kick()

    def close_intake(self, stop: bool = False) -> None:
        """Stop accepting tasks; with ``stop=True`` also pause the loop
        instead of letting it drain to completion."""
        self.campaign.close_intake()
        if stop:
            self.stop()
        else:
            self._kick()

    def shutdown(self) -> None:
        """Stop the HTTP listener (idempotent).  Separate from
        :meth:`stop`: the loop may keep draining after the listener is
        gone, and tests may keep the listener up across pauses."""
        if not self._shutdown:
            self._shutdown = True
            if self._listener is not None:
                # Only a running serve_forever can acknowledge
                # shutdown(); calling it before start_listener would
                # block forever on the never-set started event.
                self._httpd.shutdown()
            self._httpd.server_close()
            if self._listener is not None:
                self._listener.join(timeout=5.0)

    def __enter__(self) -> "CampaignServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------- status
    def status_payload(self) -> dict:
        """Observational snapshot for ``GET /status``.  Counter reads
        are lock-free (ints/bools).  The barrier a seeded client fleet
        polls is ``idle and staged == 0 and queued_events == 0 and
        pending_commands == 0``; ``idle`` is read after the three
        counters, so work the loop took between the reads shows as
        ``idle: false`` (each pass clears it before touching work)."""
        campaign = self.campaign
        engine = campaign.engine
        ingest = campaign._ingest
        queued_events = len(engine._queue)
        staged = ingest.intake.pending
        pending_commands = self.mailbox.pending
        idle = ingest.idle
        metrics = engine.metrics
        offers = engine.offers
        coordinator = campaign.coordinator
        return {
            # Which process answered, and its seat-lease identity when
            # N engines share one worker pool (lease coordination) —
            # lets an operator tell coordinated peers apart.
            "pid": os.getpid(),
            "coordinated": coordinator is not None,
            "lease_owner": None if coordinator is None else coordinator.owner,
            "lease_epoch": None if coordinator is None else coordinator.epoch,
            "serving": ingest.running,
            "idle": idle,
            "done": campaign.done,
            "vote_source": campaign.config.vote_source,
            "num_shards": campaign.config.num_shards,
            "submitted": metrics.submitted,
            "completed": metrics.completed,
            "votes_cast": metrics.votes_cast,
            "votes_cancelled": metrics.votes_cancelled,
            "active": len(engine._active),
            "deferred": len(engine._deferred),
            "queued_events": queued_events,
            "staged": staged,
            "intake_closed": ingest.intake.closed,
            "open_offers": None if offers is None else offers.open_count,
            "pending_commands": pending_commands,
            "uptime_seconds": time.monotonic() - self._started,
        }

    def retry_after_hint(self) -> int:
        """Backpressure advice (seconds) for 503 responses.

        A full intake drains at roughly one scheduler admit per
        ``batch_size`` staged tasks, so the honest hint is the time to
        work through a full buffer:
        ``admit_latency_ewma * (ingest_max_pending / batch_size)``.
        Floored at 1s (never invite a tighter retry loop than the old
        hardcoded hint) and capped at 60s (a heavy campaign should still be
        re-probed within the minute).  Before any admit has been
        observed the EWMA is unset and the floor is the hint.
        """
        ewma = getattr(self.campaign.engine, "admit_latency_ewma", None)
        if not ewma:
            return 1
        config = self.campaign.config
        backlog_admits = config.ingest_max_pending / max(
            config.batch_size, 1
        )
        return int(min(max(math.ceil(ewma * backlog_admits), 1), 60))

    # ----------------------------------------------------- command bodies
    def submit_tasks(self, payload: dict) -> dict:
        """``POST /tasks`` body → staged count.  Always stages on the
        intake, so a handler thread never touches the engine.  Raises
        ``ValueError`` (400/409) / ``IngestionOverflow`` (503) /
        ``IngestionClosed`` / ``RuntimeError`` (409) — mapped to HTTP
        statuses by the handler."""
        rows = payload.get("tasks")
        if not isinstance(rows, list) or not rows:
            raise ValueError("body must carry a non-empty 'tasks' list")
        start_time = float(payload.get("start_time", 0.0))
        spacing = float(payload.get("spacing", 1.0))
        tasks = []
        for row in rows:
            if not isinstance(row, dict):
                raise ValueError("each task must be an object")
            task_id = row.get("task_id")
            if not isinstance(task_id, str) or not task_id:
                raise ValueError("each task needs a non-empty 'task_id'")
            truth = row.get("ground_truth")
            if truth is not None and not _is_bit(truth):
                raise ValueError("'ground_truth' must be 0, 1 or null")
            tasks.append(
                EngineTask(
                    task_id,
                    prior=float(row.get("prior", 0.5)),
                    ground_truth=truth,
                )
            )
        self.campaign._require_serving()
        staged = self.campaign._ingest.intake.submit(
            tasks, start_time, spacing, timeout=self.submit_timeout
        )
        return {"staged": staged}

    def apply_vote(self, task_id: str, worker_id: str, vote: int) -> dict:
        """Stage one vote for loop-thread application and wait for the
        outcome.  Claim + deliver run atomically at the loop's drain
        point — the same sequence :meth:`Campaign.vote` performs
        in-process."""
        campaign = self.campaign

        def _apply():
            campaign.offers.claim(task_id, worker_id)
            return campaign.engine.deliver_vote(task_id, worker_id, vote)

        applied = self.mailbox.call(_apply, timeout=self.command_timeout)
        return {"applied": bool(applied)}

    def checkpoint(self) -> dict:
        campaign = self.campaign
        self.mailbox.call(campaign.checkpoint, timeout=self.command_timeout)
        return {
            "checkpointed": True,
            "completed": campaign.metrics.completed,
        }


class _CampaignRequestHandler(BaseHTTPRequestHandler):
    """Routes one request against the bound :class:`CampaignServer`
    (subclassed per server instance with ``ctx`` set)."""

    ctx: CampaignServer  # bound by CampaignServer.__init__
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # --------------------------------------------------------- plumbing
    def log_message(self, format: str, *args) -> None:
        # Access logging goes to the telemetry hub (if live), not
        # stderr — a serving daemon must not scale its console output
        # with traffic.
        pass

    def _send(
        self, status: int, body: bytes, content_type: str, headers=()
    ) -> None:
        """Send one response in one write.  Headers and body written
        separately stall every response on a kept-alive connection by
        ~40 ms: Nagle's algorithm holds the body until the client's
        delayed ACK of the headers arrives."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        # send_header() buffers into _headers_buffer; end_headers()
        # would flush it as a write of its own, so flush it with the body.
        self._headers_buffer.append(b"\r\n")
        self.wfile.write(b"".join(self._headers_buffer) + body)
        self._headers_buffer = []

    def _send_json(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        headers = ()
        if status == 503:
            # Derived from the admit-latency EWMA: heavy campaigns get
            # a proportionally later retry instead of an instant storm.
            headers = (("Retry-After", str(self.ctx.retry_after_hint())),)
        self._send(status, body, "application/json", headers)
        self.ctx.campaign.telemetry.inc(
            "server.responses", route=self.path.split("?")[0], status=status
        )

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send(status, text.encode("utf-8"), content_type)

    def _read_json(self) -> dict:
        length_text = self.headers.get("Content-Length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise ValueError(f"bad Content-Length {length_text!r}")
        if length < 0:
            raise ValueError("negative Content-Length")
        if length > self.ctx.max_body:
            raise _PayloadTooLarge(length)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ValueError("body must be a JSON object")
        return payload

    # ----------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/status":
                self._send_json(200, self.ctx.status_payload())
            elif parsed.path == "/metrics":
                self._send_text(
                    200,
                    self.ctx.campaign.telemetry.render_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif parsed.path == "/assignments":
                self._get_assignments(parsed)
            else:
                self._send_json(404, {"error": f"no route {parsed.path}"})
        except Exception as exc:  # pragma: no cover - defensive surface
            self._send_json(500, {"error": str(exc)})

    def _get_assignments(self, parsed) -> None:
        offers = self.ctx.campaign.engine.offers
        if offers is None:
            self._send_json(
                409,
                {
                    "error": "campaign simulates votes "
                    "(vote_source='simulated'); no assignments to offer"
                },
            )
            return
        query = parse_qs(parsed.query)
        workers = query.get("worker")
        if not workers or not workers[0]:
            self._send_json(
                400, {"error": "query parameter 'worker' is required"}
            )
            return
        worker_id = workers[0]
        self._send_json(
            200,
            {
                "worker": worker_id,
                "assignments": offers.for_worker(worker_id),
            },
        )

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        parsed = urlparse(self.path)
        try:
            payload = self._read_json()
        except _PayloadTooLarge as exc:
            self._send_json(
                413,
                {
                    "error": f"body of {exc.length} bytes exceeds the "
                    f"{self.ctx.max_body}-byte cap"
                },
            )
            return
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        try:
            if parsed.path == "/tasks":
                self._post_tasks(payload)
            elif parsed.path == "/votes":
                self._post_vote(payload)
            elif parsed.path == "/admin/checkpoint":
                self._send_json(200, self.ctx.checkpoint())
            elif parsed.path == "/admin/close":
                mode = payload.get("mode", "drain")
                if mode not in ("drain", "stop"):
                    self._send_json(
                        400, {"error": "mode must be 'drain' or 'stop'"}
                    )
                    return
                self.ctx.close_intake(stop=(mode == "stop"))
                self._send_json(200, {"closing": mode})
            else:
                self._send_json(404, {"error": f"no route {parsed.path}"})
        except ServerError as exc:
            self._send_json(503, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive surface
            self._send_json(500, {"error": str(exc)})

    def _post_tasks(self, payload: dict) -> None:
        try:
            result = self.ctx.submit_tasks(payload)
        except IngestionOverflow as exc:
            self._send_json(503, {"error": str(exc)})
            return
        except IngestionClosed as exc:
            self._send_json(409, {"error": str(exc)})
            return
        except RuntimeError as exc:
            # _require_serving: the campaign already finished.
            self._send_json(409, {"error": str(exc)})
            return
        except (TypeError, ValueError) as exc:
            status = 409 if "duplicate" in str(exc) else 400
            self._send_json(status, {"error": str(exc)})
            return
        self._send_json(202, result)

    def _post_vote(self, payload: dict) -> None:
        if self.ctx.campaign.engine.offers is None:
            self._send_json(
                409,
                {
                    "error": "campaign simulates votes "
                    "(vote_source='simulated'); external votes rejected"
                },
            )
            return
        task_id = payload.get("task_id")
        worker_id = payload.get("worker_id")
        vote = payload.get("vote")
        if not isinstance(task_id, str) or not task_id:
            self._send_json(400, {"error": "'task_id' must be a string"})
            return
        if not isinstance(worker_id, str) or not worker_id:
            self._send_json(400, {"error": "'worker_id' must be a string"})
            return
        if not _is_bit(vote):
            self._send_json(400, {"error": "'vote' must be 0 or 1"})
            return
        try:
            result = self.ctx.apply_vote(task_id, worker_id, vote)
        except NoOpenOffer as exc:
            self._send_json(409, {"error": str(exc)})
            return
        self._send_json(200, result)


class _PayloadTooLarge(Exception):
    def __init__(self, length: int) -> None:
        super().__init__(f"payload of {length} bytes too large")
        self.length = length
