"""Pluggable persistent state backends for campaign checkpoints.

The DB-nets line of work (Montali & Rivkin) marries an event/net
execution layer to a relational token store, so processes survive
restarts and share state across executors.  This module is that store
for the campaign engine: a :class:`~repro.engine.campaign.Campaign`
serializes its engine's state — worker registry (vote histories,
drifted quality estimates, seats, spend), answer matrix, the
allocator ledger, shard membership, metrics, RNG state, the shards' JQ
caches and frontier memos, and every pending event — into a
*snapshot* dict, and a :class:`StateBackend` persists it.

A campaign only grows its votes, task records, task ids and JQ-cache
entries, so those four sections are *journals*: a snapshot carries
only the rows added since the backend's last save, and the backend
appends them.  Everything else is fixed-size and replaced whole on
every save.  The telemetry hub's metric state rides in ``campaign``;
its trace rings are per-process diagnostics and are not persisted.

Snapshot contract, version 3 (all values plain JSON types)::

    {
      "version":  3,
      "campaign": {...},   # config + event loop state (opaque JSON)
      "workers":  [row, ...],          # one dict per worker
      "ledger":   {scope: {...}, ...}, # allocator + per-shard ledgers
      "votes":    {"base": n, "rows": [[worker_id, task_id, label], ...]},
      "records":  {"base": n, "rows": [task_record, ...]},
      "task_ids": {"base": n, "rows": [task_id, ...]},
      "caches":   {cache_id: {"hits": .., "misses": .., "evictions": ..,
                              "base": n, "entries": [[key, value], ...]}},
    }

The ledger scopes are ``allocator``, ``migrations`` and one
``shard:<k>`` per shard (empty before the campaign first runs); cache
ids are ``shard:<k>``.

Journal semantics: ``base`` is the row count the store must already
hold before the new rows (votes in arrival order, records and task ids
in completion and submission order, cache entries in LRU order).
``base`` 0 replaces the journal (a first save, a foreign file, a
bounded cache that reordered or evicted).  A ``base`` that does not
match what the store holds raises :class:`BackendError` instead of
writing a gap.  :meth:`StateBackend.load` returns every journal whole,
at ``base`` 0.

Older snapshots still load, and :meth:`Campaign.resume
<repro.engine.campaign.Campaign.resume>` upgrades them; the first save
after it rewrites the store in the version-3 layout.  Older code also
journaled the telemetry event ring as an ``events`` section (an
``events`` table in SQLite) and kept the span ring in ``campaign``;
both are ignored on load.  Version 2 had the same sections, but a
one-shard campaign kept a single-scheduler ledger (``"mode":
"single"``) and a campaign-level cache (id ``"campaign"``).  Version 1
also had votes as ``[worker_id, task_id, label, wpos, tpos]`` rows;
records, task ids and events inside ``campaign``; no journals.

Two implementations:

* :class:`MemoryBackend` — the default; keeps the snapshot in-process.
  Checkpoints survive ``Campaign.close()`` but not the process, which
  is exactly the pre-facade behavior made explicit.
* :class:`SQLiteBackend` — a WAL-mode SQLite file with one table per
  section.  Campaigns survive restarts; the WAL journal lets a reader
  (dashboard, another engine process warming its cache) inspect the
  file while a writer checkpoints.

Both round-trip floats exactly: SQLite ``REAL`` columns are IEEE
doubles, and JSON-encoded floats use ``repr`` shortest round-trip —
which is what makes a resumed campaign's metrics fingerprint
byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import sqlite3
from contextlib import contextmanager
from typing import Protocol, runtime_checkable

from ..core.exceptions import ReproError

#: Current snapshot layout version.
SNAPSHOT_VERSION = 3

#: Sections appended to rather than replaced (``caches`` holds one
#: journal per cache id on top of these).
JOURNAL_SECTIONS = ("votes", "records", "task_ids")

#: Top-level sections every snapshot must carry.
SNAPSHOT_SECTIONS = ("campaign", "workers", "ledger", "caches") + JOURNAL_SECTIONS

#: The sections of a version-1 snapshot (the ones any older version
#: must carry).
V1_SECTIONS = ("campaign", "workers", "votes", "ledger", "caches")


class BackendError(ReproError, RuntimeError):
    """A state backend could not save or load a campaign snapshot."""


#: How long (ms) a writer waits on a locked database before sqlite
#: raises.  WAL keeps ordinary readers out of writers' way, but a
#: reader mid-transaction when the WAL needs checkpointing — or a
#: second writer (another engine process) — takes the lock briefly;
#: without a busy timeout a write would raise ``database is locked``
#: *immediately* instead of riding out a sub-second hold.
DEFAULT_BUSY_TIMEOUT_MS = 5_000


def connect(
    path: str, schema: str, busy_timeout_ms: int = DEFAULT_BUSY_TIMEOUT_MS
) -> sqlite3.Connection:
    """Open a WAL-mode connection to ``path`` and create ``schema`` in
    it (``;``-terminated ``CREATE TABLE IF NOT EXISTS`` statements).

    ``timeout`` installs the busy handler before the first statement
    runs (the WAL/schema setup already needs it under contention); the
    PRAGMA keeps the value explicit and introspectable on the live
    connection.  ``check_same_thread=False``: a connection may be
    opened on one thread (the serving loop) and closed on another (the
    main thread after the loop exits); its owner serializes every use,
    so only the same-thread assertion is waived.
    """
    conn = sqlite3.connect(
        path, timeout=busy_timeout_ms / 1000.0, check_same_thread=False
    )
    conn.execute(f"PRAGMA busy_timeout={busy_timeout_ms}")
    conn.execute("PRAGMA journal_mode=WAL")
    with conn:
        # One write transaction, taken up front so a racing opener
        # waits on the busy timeout: in autocommit mode every CREATE
        # would commit (and sync) on its own.
        conn.executescript(f"BEGIN IMMEDIATE;{schema}COMMIT;")
    return conn


@contextmanager
def immediate(conn: sqlite3.Connection):
    """One write transaction holding the lock from the first read, so a
    check-then-write inside it is atomic against every other process
    sharing the file."""
    if conn.in_transaction:  # pragma: no cover - defensive
        conn.commit()
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield conn
    except BaseException:
        conn.rollback()
        raise
    else:
        conn.commit()


@runtime_checkable
class StateBackend(Protocol):
    """What the :class:`~repro.engine.campaign.Campaign` facade needs
    from a persistence layer.  Implement these four methods to plug in
    any store (Redis, Postgres, an object store...)."""

    def save(self, snapshot: dict) -> None:
        """Persist a snapshot in one atomic step: replace its
        fixed-size sections, append its journal tails."""
        ...

    def load(self) -> dict:
        """Return the saved state with every journal whole (``base``
        0); raise :class:`BackendError` when none exists."""
        ...

    def exists(self) -> bool:
        """True when a snapshot is available to :meth:`load`."""
        ...

    def close(self) -> None:
        """Release any held resources (idempotent)."""
        ...


def _validate(snapshot: dict) -> None:
    required = (
        SNAPSHOT_SECTIONS
        if snapshot.get("version") == SNAPSHOT_VERSION
        else V1_SECTIONS
    )
    missing = [s for s in required if s not in snapshot]
    if missing:
        raise BackendError(f"snapshot is missing sections {missing}")


def _gap_error(name: str, base: int, held: int | None) -> BackendError:
    holds = "no such journal" if held is None else f"{held} rows"
    return BackendError(
        f"{name} journal tail starts at {base} but the store holds "
        f"{holds}; save a full snapshot (base 0) instead"
    )


class MemoryBackend:
    """In-process snapshot store (the default backend).

    Snapshots are stored through a JSON round trip, for two reasons:
    the held snapshot cannot alias live campaign state, and a restore
    sees *exactly* the value shapes (lists, not tuples) a disk backend
    would produce — so the memory and SQLite paths exercise identical
    restore code.  The fixed-size sections are held as one JSON text;
    each journal as the JSON texts of its tails, appended save by save
    (so the held state stays as compact as the text).  A snapshot of
    another layout version is held whole.
    """

    def __init__(self) -> None:
        self._payload: str | None = None
        # Journal key (a section name, or ("cache", cache_id)) ->
        # (rows held, JSON texts of the tails that hold them).
        self._journals: dict = {}

    def save(self, snapshot: dict) -> None:
        _validate(snapshot)
        if snapshot.get("version") != SNAPSHOT_VERSION:
            self._payload, self._journals = json.dumps(snapshot), {}
            return
        fixed = {k: v for k, v in snapshot.items() if k not in JOURNAL_SECTIONS}
        fixed["caches"] = {
            cache_id: {
                k: v for k, v in state.items() if k not in ("base", "entries")
            }
            for cache_id, state in snapshot["caches"].items()
        }
        tails = {name: snapshot[name] for name in JOURNAL_SECTIONS}
        for cache_id, state in snapshot["caches"].items():
            tails[("cache", cache_id)] = state
        # Built aside: a refused save leaves the held journals as they were.
        journals = {}
        for key, tail in tails.items():
            rows = tail.get("rows" if isinstance(key, str) else "entries", [])
            base = tail.get("base", 0)
            chunks = []
            if base:
                held = self._journals.get(key)
                if held is None or held[0] != base:
                    name = key if isinstance(key, str) else f"cache {key[1]}"
                    raise _gap_error(name, base, None if held is None else held[0])
                chunks = list(held[1])
            if rows:
                chunks.append(json.dumps(rows))
            journals[key] = (base + len(rows), chunks)
        self._payload, self._journals = json.dumps(fixed), journals

    def load(self) -> dict:
        if self._payload is None:
            raise BackendError("MemoryBackend holds no checkpoint")
        snapshot = json.loads(self._payload)
        for key, (_size, chunks) in self._journals.items():
            rows = [row for text in chunks for row in json.loads(text)]
            if isinstance(key, str):
                snapshot[key] = {"base": 0, "rows": rows}
            else:
                snapshot["caches"][key[1]].update(base=0, entries=rows)
        return snapshot

    def exists(self) -> bool:
        return self._payload is not None

    def close(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "empty" if self._payload is None else f"{len(self._payload)}B"
        return f"MemoryBackend({state})"


class SQLiteBackend:
    """Campaign state in a WAL-mode SQLite file.

    Schema, layout version 3 (one campaign per file; version 2 had the
    same tables)::

        campaign(key TEXT PRIMARY KEY, value TEXT)    -- version, config
                                                      --  + event-loop JSON
        workers(position INTEGER PRIMARY KEY, worker_id TEXT UNIQUE, ...)
        ledger(scope TEXT PRIMARY KEY, value TEXT)    -- allocator/shard
                                                      --  ledgers
        votes(pos INTEGER PRIMARY KEY, worker_id, task_id, label)
                                                      -- arrival order
        records(pos INTEGER PRIMARY KEY, task_id, answer, confidence,
                predicted_jq, reserved_cost, spent_cost, votes_used,
                reason, correct)                      -- completion order
        task_ids(pos INTEGER PRIMARY KEY, task_id)    -- submission order
        cache(cache_id TEXT, position INTEGER, key TEXT, value REAL,
              PRIMARY KEY(cache_id, position))        -- JQ-cache entries
                                                      --  in LRU order

    ``save`` runs in one transaction, so a reader never observes a
    half-written checkpoint.  It rewrites ``campaign``, ``workers`` and
    its own ledger scopes, and appends to the journal tables ``votes``,
    ``records``, ``task_ids`` and ``cache``: a tail whose
    ``base`` is not the journal's current size raises
    :class:`BackendError` and writes nothing, and ``base`` 0 empties the
    journal first.  A checkpoint therefore costs what changed since the
    last one, not what the campaign has accumulated.  Tables the
    backend does not define are never touched, so a file it shares
    with another store keeps that store's rows; so does the ``events``
    table (the telemetry event ring) older code kept in the same file.

    A file written by layout version 1 (``votes`` keyed by by-worker
    position ``wpos``, with a ``tpos`` column) loads as a version-1
    snapshot; the first save drops that table for the current one.
    """

    _WORKER_COLUMNS = (
        "position", "worker_id", "est_quality", "true_quality", "cost",
        "capacity", "active_tasks", "votes_cast", "agreements",
        "resolved_votes", "spend", "peak_load",
    )

    _RECORD_COLUMNS = (
        "task_id", "answer", "confidence", "predicted_jq", "reserved_cost",
        "spent_cost", "votes_used", "reason", "correct",
    )

    _VOTES_TABLE = """
        CREATE TABLE IF NOT EXISTS votes(
            pos INTEGER PRIMARY KEY,
            worker_id TEXT NOT NULL,
            task_id TEXT NOT NULL,
            label INTEGER NOT NULL)"""

    _SCHEMA = (
        """
        CREATE TABLE IF NOT EXISTS campaign(
            key TEXT PRIMARY KEY, value TEXT NOT NULL);
        CREATE TABLE IF NOT EXISTS workers(
            position INTEGER PRIMARY KEY,
            worker_id TEXT UNIQUE NOT NULL,
            est_quality REAL NOT NULL,
            true_quality REAL NOT NULL,
            cost REAL NOT NULL,
            capacity INTEGER NOT NULL,
            active_tasks TEXT NOT NULL,
            votes_cast INTEGER NOT NULL,
            agreements REAL NOT NULL,
            resolved_votes INTEGER NOT NULL,
            spend REAL NOT NULL,
            peak_load INTEGER NOT NULL);
        CREATE TABLE IF NOT EXISTS ledger(
            scope TEXT PRIMARY KEY, value TEXT NOT NULL);
        """
        + _VOTES_TABLE
        + """;
        -- Untyped numeric columns keep ints ints and floats
        -- floats, exactly as the JSON path does.
        CREATE TABLE IF NOT EXISTS records(
            pos INTEGER PRIMARY KEY,
            task_id TEXT NOT NULL,
            answer, confidence, predicted_jq, reserved_cost,
            spent_cost, votes_used,
            reason TEXT NOT NULL,
            correct);
        CREATE TABLE IF NOT EXISTS task_ids(
            pos INTEGER PRIMARY KEY, task_id TEXT NOT NULL);
        CREATE TABLE IF NOT EXISTS cache(
            cache_id TEXT NOT NULL,
            position INTEGER NOT NULL,
            key TEXT NOT NULL,
            value REAL NOT NULL,
            PRIMARY KEY(cache_id, position));
        """
    )

    def __init__(self, path, busy_timeout_ms: int | None = None) -> None:
        self.path = str(path)
        self.busy_timeout_ms = (
            DEFAULT_BUSY_TIMEOUT_MS
            if busy_timeout_ms is None
            else int(busy_timeout_ms)
        )
        self._conn: sqlite3.Connection | None = None

    def _connect(self) -> sqlite3.Connection:
        """Open (and initialize) the database on first real use.

        Connecting lazily keeps mistakes cheap: resuming from a
        mistyped path raises :class:`BackendError` without littering
        the directory with an empty ``.db`` (+ WAL sidecars) that a
        later resume could be pointed at by accident.
        """
        if self._conn is None:
            self._conn = connect(
                self.path, self._SCHEMA, self.busy_timeout_ms
            )
        return self._conn

    @staticmethod
    def _v1_votes(conn) -> bool:
        """True while the file still has the layout-1 ``votes`` table."""
        return any(
            row[1] == "wpos" for row in conn.execute("PRAGMA table_info(votes)")
        )

    # ------------------------------------------------------------------
    # StateBackend surface
    # ------------------------------------------------------------------
    def save(self, snapshot: dict) -> None:
        _validate(snapshot)
        with immediate(self._connect()) as conn:
            if self._v1_votes(conn):
                conn.execute("DROP TABLE votes")
                conn.execute(self._VOTES_TABLE)
            conn.execute("DELETE FROM campaign")
            conn.executemany(
                "INSERT INTO campaign VALUES (?, ?)",
                (
                    ("version", json.dumps(snapshot["version"])),
                    ("campaign", json.dumps(snapshot["campaign"])),
                ),
            )
            conn.execute("DELETE FROM workers")
            conn.executemany(
                "INSERT INTO workers VALUES (?,?,?,?,?,?,?,?,?,?,?,?)",
                (
                    tuple(
                        json.dumps(row[c]) if c == "active_tasks" else row[c]
                        for c in self._WORKER_COLUMNS
                    )
                    for row in snapshot["workers"]
                ),
            )
            caches = snapshot["caches"]
            conn.execute("DELETE FROM ledger")
            conn.executemany(
                "INSERT INTO ledger(scope, value) VALUES (?,?)",
                [
                    (scope, json.dumps(value))
                    for scope, value in snapshot["ledger"].items()
                ]
                + [
                    (
                        f"cache-meta:{cache_id}",
                        json.dumps(
                            {
                                k: state[k]
                                for k in ("hits", "misses", "evictions")
                            }
                        ),
                    )
                    for cache_id, state in caches.items()
                ],
            )

            votes = snapshot.get("votes") or {}
            self._append(
                conn, "votes", votes.get("base", 0), votes.get("rows", ())
            )
            records = snapshot.get("records") or {}
            self._append(
                conn,
                "records",
                records.get("base", 0),
                (
                    tuple(r[c] for c in self._RECORD_COLUMNS)
                    for r in records.get("rows", ())
                ),
            )
            task_ids = snapshot.get("task_ids") or {}
            self._append(
                conn,
                "task_ids",
                task_ids.get("base", 0),
                ((task_id,) for task_id in task_ids.get("rows", ())),
            )

            conn.execute(
                "DELETE FROM cache WHERE cache_id NOT IN "
                f"({', '.join('?' * len(caches))})",
                list(caches),
            )
            for cache_id, state in caches.items():
                self._append(
                    conn,
                    "cache",
                    state.get("base", 0),
                    (
                        (json.dumps(key), value)
                        for key, value in state["entries"]
                    ),
                    cache_id=cache_id,
                )

    @staticmethod
    def _append(conn, table, base, rows, cache_id=None) -> None:
        """Append ``rows`` to a journal table at positions ``base``,
        ``base + 1``, ...; ``base`` 0 empties the journal first, any
        other ``base`` must equal the journal's current size."""
        if cache_id is None:
            key, where, scope = "pos", "", ()
        else:
            key, where, scope = "position", " WHERE cache_id = ?", (cache_id,)
        if base:
            (last,) = conn.execute(
                f"SELECT MAX({key}) FROM {table}{where}", scope
            ).fetchone()
            held = 0 if last is None else last + 1
            if held != base:
                name = table if cache_id is None else f"cache {cache_id}"
                raise _gap_error(name, base, held)
        else:
            conn.execute(f"DELETE FROM {table}{where}", scope)
        rows = [(*scope, base + i, *row) for i, row in enumerate(rows)]
        if rows:
            conn.executemany(
                f"INSERT INTO {table} VALUES ({', '.join('?' * len(rows[0]))})",
                rows,
            )

    def load(self) -> dict:
        if not os.path.exists(self.path):
            raise BackendError(f"{self.path} holds no campaign checkpoint")
        conn = self._connect()
        rows = dict(conn.execute("SELECT key, value FROM campaign"))
        if "campaign" not in rows:
            raise BackendError(f"{self.path} holds no campaign checkpoint")
        snapshot: dict = {
            "version": json.loads(rows["version"]),
            "campaign": json.loads(rows["campaign"]),
            "workers": [],
            "ledger": {},
            "caches": {},
        }
        for row in conn.execute(
            f"SELECT {', '.join(self._WORKER_COLUMNS)} FROM workers "
            "ORDER BY position"
        ):
            record = dict(zip(self._WORKER_COLUMNS, row))
            record["active_tasks"] = json.loads(record["active_tasks"])
            snapshot["workers"].append(record)
        if self._v1_votes(conn):
            snapshot["votes"] = [
                [worker_id, task_id, label, wpos, tpos]
                for wpos, worker_id, task_id, label, tpos in conn.execute(
                    "SELECT wpos, worker_id, task_id, label, tpos FROM votes "
                    "ORDER BY wpos"
                )
            ]
        else:
            snapshot["votes"] = self._journal(
                list(row)
                for row in conn.execute(
                    "SELECT worker_id, task_id, label FROM votes ORDER BY pos"
                )
            )
            records = []
            for row in conn.execute(
                f"SELECT {', '.join(self._RECORD_COLUMNS)} FROM records "
                "ORDER BY pos"
            ):
                record = dict(zip(self._RECORD_COLUMNS, row))
                if record["correct"] is not None:
                    record["correct"] = bool(record["correct"])
                records.append(record)
            snapshot["records"] = self._journal(records)
            snapshot["task_ids"] = self._journal(
                task_id
                for (task_id,) in conn.execute(
                    "SELECT task_id FROM task_ids ORDER BY pos"
                )
            )
        cache_meta: dict[str, dict] = {}
        for scope, value in conn.execute(
            "SELECT scope, value FROM ledger"
        ):
            if scope.startswith("cache-meta:"):
                cache_meta[scope[len("cache-meta:"):]] = json.loads(value)
            else:
                snapshot["ledger"][scope] = json.loads(value)
        for cache_id, meta in cache_meta.items():
            entries = [
                [json.loads(key), value]
                for key, value in conn.execute(
                    "SELECT key, value FROM cache WHERE cache_id = ? "
                    "ORDER BY position",
                    (cache_id,),
                )
            ]
            snapshot["caches"][cache_id] = {
                **meta, "base": 0, "entries": entries
            }
        return snapshot

    @staticmethod
    def _journal(rows) -> dict:
        return {"base": 0, "rows": list(rows)}

    def exists(self) -> bool:
        if not os.path.exists(self.path):
            return False
        row = self._connect().execute(
            "SELECT 1 FROM campaign WHERE key = 'campaign'"
        ).fetchone()
        return row is not None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SQLiteBackend({self.path!r})"
