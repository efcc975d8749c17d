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

One thread
----------
The HTTP front end is an ``asyncio`` server on the thread that runs the
serve loop (:meth:`~repro.engine.ingest.AsyncIngestLoop.serve_async`).
The loop yields to the event loop between engine steps, so a request is
read, routed and answered between two steps, never during one:

- **Votes and admin commands** are applied as soon as their request is
  read, against a settled engine (staged arrivals folded in, queued
  events dispatched): the state a single-threaded in-process driver
  applies them against.  The order requests arrive in is the order the
  engine applies them.  The HTTP-vs-in-process fingerprint parity pin
  rests on that.
- **Task submission** stages a chunk whole on the intake, or refuses it
  whole with 503 + ``Retry-After`` when it would push the intake past
  ``ingest_max_pending``: the loop thread never waits on backpressure.
- **Reads** see the engine between steps, so ``/status`` is an exact
  barrier: ``idle`` means the loop serves with nothing staged and
  nothing queued.  ``pending_commands`` is always 0, kept for clients
  that poll it.

The socket listens from construction, so a client may connect before
:meth:`CampaignServer.serve` starts; requests are answered only while
it runs.  When it returns, open connections are closed, and nothing
reaches the campaign until the next ``serve()``.

The request reader is minimal HTTP/1.1: a request line, at most 100
header lines of at most 64 KiB each (the stdlib ``http.server``
limits) and a ``Content-Length`` body of at most ``max_body`` bytes.
Chunked bodies are refused with 411.  Connections stay open unless the
client sends ``Connection: close`` or speaks HTTP/1.0 without
``Connection: keep-alive``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import socket
import time
from email.utils import formatdate
from http import HTTPStatus
from urllib.parse import parse_qs, urlsplit

from .campaign import Campaign
from .events import EngineTask
from .ingest import IngestionOverflow, NoOpenOffer
from .metrics import EngineMetrics

#: Default cap on request bodies — a hostile client streaming an
#: unbounded payload gets 413 instead of exhausting memory.
DEFAULT_MAX_BODY = 1 << 20

#: The stdlib ``http.server`` caps: bytes in one request or header
#: line, and header lines in one request.
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: The request paths the router serves; any other path is labelled
#: ``"unmatched"`` in ``server.responses``, so hostile paths cannot grow
#: the series count (or the telemetry state checkpoints store).
ROUTES = frozenset(
    ("/status", "/metrics", "/assignments", "/tasks", "/votes",
     "/admin/checkpoint", "/admin/close")
)

def _is_bit(value) -> bool:
    """True for the JSON integers ``0`` and ``1`` only (not ``true``,
    not ``0.9``)."""
    return type(value) is int and value in (0, 1)


def _number(payload: dict, key: str, default: float) -> float:
    """A JSON number field as a float: not a boolean, not a string, and
    no integer too large for a float."""
    value = payload.get(key, default)
    if type(value) not in (int, float):
        raise ValueError(f"'{key}' must be a JSON number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"'{key}' is too large for a float") from None


class _HTTPError(Exception):
    """``(status, message)``: a request refused before routing.  Its
    connection closes after the answer, since its body may be unread."""


async def _read_request(reader, writer, max_body: int):
    """Read one request: ``(method, target, keep_alive, body)``, or
    ``None`` when the client closed the connection between requests.
    Raises :class:`_HTTPError` for a request the reader refuses."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if exc.partial.strip():
            raise _HTTPError(400, "truncated request line") from None
        return None
    except asyncio.LimitOverrunError:
        raise _HTTPError(414, "request line too long") from None
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _HTTPError(400, "malformed request line")
    method, target, version = parts
    headers = {}
    for _ in range(_MAX_HEADERS + 1):
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.LimitOverrunError:
            raise _HTTPError(431, "header line too long") from None
        if line in (b"\r\n", b"\n"):
            break
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise _HTTPError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HTTPError(431, f"more than {_MAX_HEADERS} headers")
    if method not in ("GET", "POST"):
        raise _HTTPError(501, f"unsupported method {method!r}")
    if "transfer-encoding" in headers:
        raise _HTTPError(411, "send a Content-Length body, not a chunked one")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise _HTTPError(400, f"bad Content-Length {length_text!r}") from None
    if length < 0:
        raise _HTTPError(400, "negative Content-Length")
    if length > max_body:
        raise _HTTPError(
            413, f"body of {length} bytes exceeds the {max_body}-byte cap"
        )
    if length and headers.get("expect", "").lower() == "100-continue":
        # curl asks before sending a body over 1 KiB, and waits a
        # second for this answer otherwise.
        writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
    body = await reader.readexactly(length) if length else b""
    tokens = {t.strip().lower() for t in headers.get("connection", "").split(",")}
    if version == "HTTP/1.0":
        return method, target, "keep-alive" in tokens, body
    return method, target, "close" not in tokens, body


class CampaignServer:
    """HTTP facade over one :class:`Campaign` (see the module docstring
    for the endpoint table and threading model).

    ``port=0`` binds an ephemeral port; read :attr:`port` (or
    :attr:`url`) for the bound address.  The instance is a context
    manager that closes the listening socket on exit.
    """

    def __init__(
        self,
        campaign: Campaign,
        host: str | None = None,
        port: int | None = None,
        max_body: int = DEFAULT_MAX_BODY,
    ) -> None:
        self.campaign = campaign
        self.max_body = max_body
        self._started = time.monotonic()
        self._connections: set[asyncio.Task] = set()
        self._failure: BaseException | None = None
        # The default listen backlog overflows under a burst of
        # concurrent clients; a dropped handshake ACK then surfaces to
        # the client as a connection reset.  A worker fleet IS a burst,
        # so listen deep.
        self._sock = socket.create_server(
            (host if host is not None else campaign.config.serve_host,
             port if port is not None else campaign.config.serve_port),
            backlog=128,
        )
        self.host, self.port = self._sock.getsockname()[:2]

    # ------------------------------------------------------------- wiring
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------ control
    def start_listener(self) -> None:
        """A no-op kept for callers that start the listener explicitly:
        the socket listens from construction."""

    def serve(self, periodic=()) -> EngineMetrics:
        """Serve forever on the calling thread (see
        :meth:`Campaign.serve`): answers HTTP between the loop's engine
        steps, runs the ``(interval, fn)`` ``periodic`` jobs on the loop
        thread, and returns the campaign metrics once the intake closes
        and drains — or once :meth:`stop` pauses the loop."""
        metrics = self.campaign.serve(
            periodic=periodic, front_end=self._front_end()
        )
        if self._failure is not None:
            raise self._failure
        return metrics

    @contextlib.asynccontextmanager
    async def _front_end(self):
        # asyncio closes the socket it serves on, and this one must
        # outlive serve(): hand it a duplicate.
        server = await asyncio.start_server(
            self._connection, sock=self._sock.dup(), limit=_MAX_LINE,
            backlog=128,
        )
        try:
            yield
        finally:
            server.close()
            for task in self._connections:
                task.cancel()
            await asyncio.gather(*self._connections, return_exceptions=True)

    def stop(self) -> None:
        """Ask a running :meth:`serve` to pause (graceful shutdown:
        checkpoint afterwards, resume later), from any thread or a
        signal handler.  Does not close the intake — tasks accepted
        before the pause are checkpointed."""
        self.campaign._ingest.stop()

    def close_intake(self, stop: bool = False) -> None:
        """Stop accepting tasks; with ``stop=True`` also pause the loop
        instead of letting it drain to completion."""
        self.campaign.close_intake()
        if stop:
            self.stop()

    def shutdown(self) -> None:
        """Close the listening socket (idempotent).  Separate from
        :meth:`stop`: a paused campaign may be served again by the same
        server.  Call it once :meth:`serve` has returned."""
        self._sock.close()

    def __enter__(self) -> "CampaignServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------- status
    def status_payload(self) -> dict:
        """Snapshot for ``GET /status``, taken between engine steps.
        The barrier a seeded client fleet polls is ``idle and staged ==
        0 and queued_events == 0 and pending_commands == 0``."""
        campaign = self.campaign
        engine = campaign.engine
        ingest = campaign._ingest
        queued_events = len(engine._queue)
        staged = ingest.intake.pending
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
            "idle": ingest.running and not staged and not queued_events,
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
            "pending_commands": 0,
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
        """``POST /tasks`` body → staged count.  Stages the chunk whole
        on the intake, or refuses it whole.  Raises ``ValueError``
        (400/409) / ``IngestionOverflow`` (503) / ``IngestionClosed`` /
        ``RuntimeError`` (409) — mapped to HTTP statuses by the
        router."""
        rows = payload.get("tasks")
        if not isinstance(rows, list) or not rows:
            raise ValueError("body must carry a non-empty 'tasks' list")
        start_time = _number(payload, "start_time", 0.0)
        spacing = _number(payload, "spacing", 1.0)
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
                    prior=_number(row, "prior", 0.5),
                    ground_truth=truth,
                )
            )
        self.campaign._require_serving()
        staged = self.campaign._ingest.intake.submit(
            tasks, start_time, spacing, timeout=0
        )
        return {"staged": staged}

    def _settle(self) -> None:
        """Fold staged arrivals in and dispatch every queued event before
        a vote or checkpoint applies: the state a single-threaded
        in-process driver applies it against.  A step that raises ends
        serving, as it would inside the loop: :meth:`serve` re-raises
        it."""
        try:
            self.campaign._pump()
        except BaseException as exc:
            self._failure = exc
            self.stop()
            raise

    def apply_vote(self, task_id: str, worker_id: str, vote: int) -> dict:
        """Claim the worker's open offer and apply the vote against the
        settled engine — the sequence :meth:`Campaign.vote` performs
        in-process."""
        campaign = self.campaign
        self._settle()
        campaign.offers.claim(task_id, worker_id)
        applied = campaign.engine.deliver_vote(task_id, worker_id, vote)
        # The vote may have queued a completion: wake an idle loop.
        campaign._ingest.wake()
        return {"applied": bool(applied)}

    def checkpoint(self) -> dict:
        campaign = self.campaign
        self._settle()
        campaign.checkpoint()
        return {
            "checkpointed": True,
            "completed": campaign.metrics.completed,
        }

    # ------------------------------------------------------------ the wire
    async def _connection(self, reader, writer) -> None:
        """Answer one connection's requests in order until it closes."""
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await _read_request(
                        reader, writer, self.max_body
                    )
                except _HTTPError as exc:
                    status, message = exc.args
                    writer.write(self._json(
                        status, {"error": message}, "unmatched", False
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, keep_alive, body = request
                writer.write(self._respond(method, target, body, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the client went away mid-request
        finally:
            self._connections.discard(task)
            writer.close()

    def _respond(self, method: str, target: str, body: bytes, keep_alive):
        parsed = urlsplit(target)
        route = parsed.path if parsed.path in ROUTES else "unmatched"
        try:
            if method == "GET":
                if parsed.path == "/metrics":
                    text = self.campaign.telemetry.render_prometheus()
                    return _response(
                        200, text.encode("utf-8"),
                        "text/plain; version=0.0.4; charset=utf-8", keep_alive,
                    )
                status, payload = self._get(parsed)
            else:
                status, payload = self._post(parsed.path, body)
        except Exception as exc:  # pragma: no cover - defensive surface
            status, payload = 500, {"error": str(exc)}
        return self._json(status, payload, route, keep_alive)

    def _json(self, status: int, payload: dict, route: str, keep_alive):
        headers = ()
        if status == 503:
            # Derived from the admit-latency EWMA: heavy campaigns get
            # a proportionally later retry instead of an instant storm.
            headers = (("Retry-After", str(self.retry_after_hint())),)
        self.campaign.telemetry.inc(
            "server.responses", route=route, status=status
        )
        body = (json.dumps(payload) + "\n").encode("utf-8")
        return _response(status, body, "application/json", keep_alive, headers)

    # ----------------------------------------------------------- routes
    def _get(self, parsed) -> tuple[int, dict]:
        if parsed.path == "/status":
            return 200, self.status_payload()
        if parsed.path != "/assignments":
            return 404, {"error": f"no route {parsed.path}"}
        offers = self.campaign.engine.offers
        if offers is None:
            return 409, {
                "error": "campaign simulates votes "
                "(vote_source='simulated'); no assignments to offer"
            }
        workers = parse_qs(parsed.query).get("worker")
        if not workers or not workers[0]:
            return 400, {"error": "query parameter 'worker' is required"}
        worker_id = workers[0]
        return 200, {
            "worker": worker_id,
            "assignments": offers.for_worker(worker_id),
        }

    def _post(self, path: str, body: bytes) -> tuple[int, dict]:
        try:
            payload = json.loads(body) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, {"error": f"body is not valid JSON: {exc}"}
        if not isinstance(payload, dict):
            return 400, {"error": "body must be a JSON object"}
        if path == "/tasks":
            return self._post_tasks(payload)
        if path == "/votes":
            return self._post_vote(payload)
        if path == "/admin/checkpoint":
            return 200, self.checkpoint()
        if path == "/admin/close":
            mode = payload.get("mode", "drain")
            if mode not in ("drain", "stop"):
                return 400, {"error": "mode must be 'drain' or 'stop'"}
            self.close_intake(stop=(mode == "stop"))
            return 200, {"closing": mode}
        return 404, {"error": f"no route {path}"}

    def _post_tasks(self, payload: dict) -> tuple[int, dict]:
        try:
            return 202, self.submit_tasks(payload)
        except IngestionOverflow as exc:
            return 503, {"error": str(exc)}
        except (TypeError, ValueError) as exc:
            status = 409 if "duplicate" in str(exc) else 400
            return status, {"error": str(exc)}
        except RuntimeError as exc:
            # IngestionClosed, or _require_serving: the campaign finished.
            return 409, {"error": str(exc)}

    def _post_vote(self, payload: dict) -> tuple[int, dict]:
        if self.campaign.engine.offers is None:
            return 409, {
                "error": "campaign simulates votes "
                "(vote_source='simulated'); external votes rejected"
            }
        task_id = payload.get("task_id")
        worker_id = payload.get("worker_id")
        vote = payload.get("vote")
        if not isinstance(task_id, str) or not task_id:
            return 400, {"error": "'task_id' must be a string"}
        if not isinstance(worker_id, str) or not worker_id:
            return 400, {"error": "'worker_id' must be a string"}
        if not _is_bit(vote):
            return 400, {"error": "'vote' must be 0 or 1"}
        try:
            return 200, self.apply_vote(task_id, worker_id, vote)
        except NoOpenOffer as exc:
            return 409, {"error": str(exc)}


def _response(
    status: int, body: bytes, content_type: str, keep_alive, headers=()
) -> bytes:
    """One response as one write.  Headers and body written separately
    stall every response on a kept-alive connection by ~40 ms: Nagle's
    algorithm holds the body until the client's delayed ACK of the
    headers arrives."""
    lines = [
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
        "Server: repro-serve/1.0",
        f"Date: {formatdate(usegmt=True)}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        *(f"{name}: {value}" for name, value in headers),
    ]
    if not keep_alive:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
