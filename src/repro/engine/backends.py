"""Pluggable persistent state backends for campaign checkpoints.

The DB-nets line of work (Montali & Rivkin) marries an event/net
execution layer to a relational token store, so processes survive
restarts and share state across executors.  This module is that store
for the campaign engine: a :class:`~repro.engine.campaign.Campaign`
serializes its serving state — worker registry (vote histories,
drifted quality estimates, seats, spend), answer matrix, the
allocator ledger, shard membership, metrics, RNG state, the shards' JQ
caches and frontier memos, and every pending event — into a
*snapshot* dict, and a :class:`StateBackend` persists it.

A campaign only grows its votes, task records, task ids, JQ-cache
entries and telemetry events, so those five sections are *journals*:
a snapshot carries only the rows added since the backend's last save,
and the backend appends them.  Everything else is fixed-size and
replaced whole on every save.

Snapshot contract, version 3 (all values plain JSON types)::

    {
      "version":  3,
      "campaign": {...},   # config + event loop state (opaque JSON)
      "workers":  [row, ...],          # one dict per worker
      "ledger":   {scope: {...}, ...}, # allocator + per-shard ledgers
      "votes":    {"base": n, "rows": [[worker_id, task_id, label], ...]},
      "records":  {"base": n, "rows": [task_record, ...]},
      "task_ids": {"base": n, "rows": [task_id, ...]},
      "events":   {"base": seq, "floor": seq,
                   "rows": [[seq, ts, kind, span_id, fields], ...]},
      "caches":   {cache_id: {"hits": .., "misses": .., "evictions": ..,
                              "base": n, "entries": [[key, value], ...]}},
    }

The ledger scopes are ``allocator``, ``migrations`` and one
``shard:<k>`` per shard (empty before the campaign first runs); cache
ids are ``shard:<k>``.

Journal semantics: ``base`` is what the store must already hold before
the new rows — the row count (votes in arrival order, records and task
ids in completion and submission order, cache entries in LRU order),
or for the event ring the highest ``seq`` held; the ring also drops
every held row below ``floor``, its oldest live ``seq``.  ``base`` 0
replaces the journal (a first save, a foreign file, a bounded cache
that reordered or evicted).  A ``base`` that does not match what the
store holds raises :class:`BackendError` instead of writing a gap.
:meth:`StateBackend.load` returns every journal whole, at ``base`` 0.

Older snapshots still load, and :meth:`Campaign.resume
<repro.engine.campaign.Campaign.resume>` upgrades them; the first save
after it rewrites the store in the version-3 layout.  Version 2 had the
same sections, but a one-shard campaign kept a single-scheduler ledger
(``"mode": "single"``) and a campaign-level cache (id ``"campaign"``).
Version 1 also had votes as ``[worker_id, task_id, label, wpos, tpos]``
rows; records, task ids and events inside ``campaign``; no journals.

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
import time
from contextlib import contextmanager
from typing import Protocol, runtime_checkable

from ..core.exceptions import ReproError

#: Current snapshot layout version.
SNAPSHOT_VERSION = 3

#: Sections appended to rather than replaced (``caches`` holds one
#: journal per cache id on top of these).
JOURNAL_SECTIONS = ("votes", "records", "task_ids", "events")

#: Top-level sections every snapshot must carry.
SNAPSHOT_SECTIONS = ("campaign", "workers", "ledger", "caches") + JOURNAL_SECTIONS

#: The sections of a version-1 snapshot (the ones any older version
#: must carry).
V1_SECTIONS = ("campaign", "workers", "votes", "ledger", "caches")


class BackendError(ReproError, RuntimeError):
    """A state backend could not save or load a campaign snapshot."""


class StaleEpochError(BackendError):
    """A lease operation carried a deposed registration epoch.

    Raised when an engine whose owner id has since re-registered (it
    crashed and restarted, or an operator replaced it) tries to touch
    leases under its old epoch — the fencing that keeps a zombie
    process from seating workers against leases it no longer owns.
    """


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
    if held is None:
        holds = "no such journal"
    elif name == "events":
        holds = f"events up to seq {held}"
    else:
        holds = f"{held} rows"
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
        # [size, floor, chunks]: what ``base`` must match (rows held,
        # or the event ring's highest seq), the ring's floor, and
        # (last seq, JSON rows) chunks.
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
            size, floor, chunks = (0, 0, [])
            if base:
                held = self._journals.get(key)
                if held is None or held[0] != base:
                    name = key if isinstance(key, str) else f"cache {key[1]}"
                    raise _gap_error(name, base, None if held is None else held[0])
                size, floor, chunks = held
            if key == "events":
                floor = tail.get("floor", 0)
                size = rows[-1][0] if rows else base
                chunks = [chunk for chunk in chunks if chunk[0] >= floor]
            else:
                size = base + len(rows)
                chunks = list(chunks)
            if rows:
                last = rows[-1][0] if key == "events" else 0
                chunks.append((last, json.dumps(rows)))
            journals[key] = [size, floor, chunks]
        self._payload, self._journals = json.dumps(fixed), journals

    def load(self) -> dict:
        if self._payload is None:
            raise BackendError("MemoryBackend holds no checkpoint")
        snapshot = json.loads(self._payload)
        for key, (_size, floor, chunks) in self._journals.items():
            rows = [row for _, text in chunks for row in json.loads(text)]
            if key == "events":
                rows = [row for row in rows if row[0] >= floor]
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
        events(seq INTEGER PRIMARY KEY, ts, kind, span_id,
               fields)                                -- telemetry ring
        cache(cache_id TEXT, position INTEGER, key TEXT, value REAL,
              PRIMARY KEY(cache_id, position))        -- JQ-cache entries
                                                      --  in LRU order
        leases(worker_id, task_id, owner, epoch, expires,
               PRIMARY KEY(worker_id, task_id))       -- cross-process
                                                      --  seat leases
        engines(owner TEXT PRIMARY KEY, epoch, registered)

    ``save`` runs in one transaction, so a reader never observes a
    half-written checkpoint.  It rewrites ``campaign``, ``workers`` and
    its own ledger scopes, and appends to the journal tables ``votes``,
    ``records``, ``task_ids``, ``events`` and ``cache``: a tail whose
    ``base`` is not the journal's current size raises
    :class:`BackendError` and writes nothing, and ``base`` 0 empties the
    journal first.  A checkpoint therefore costs what changed since the
    last one, not what the campaign has accumulated.

    The ``leases`` / ``engines`` tables belong to the cross-process
    coordination layer (:mod:`repro.engine.leases`) and ``save`` never
    touches them, so checkpointing one engine cannot clobber seats
    other engines hold in a shared coordination file.

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

    #: How long (ms) a writer waits on a locked database before
    #: sqlite raises.  WAL keeps ordinary readers out of writers' way,
    #: but a reader mid-transaction when the WAL needs checkpointing —
    #: or a second writer (another engine process warming its cache) —
    #: takes the lock briefly; without a busy timeout ``checkpoint()``
    #: would raise ``database is locked`` *immediately* instead of
    #: riding out a sub-second hold.
    DEFAULT_BUSY_TIMEOUT_MS = 5_000

    def __init__(
        self, path, busy_timeout_ms: int | None = None, clock=None
    ) -> None:
        self.path = str(path)
        self.busy_timeout_ms = (
            self.DEFAULT_BUSY_TIMEOUT_MS
            if busy_timeout_ms is None
            else int(busy_timeout_ms)
        )
        # Lease expiry runs on the wall clock (the only clock shared
        # across processes and hosts); ``clock`` is injectable so the
        # skewed-clock degradation contract is testable.
        self._clock = time.time if clock is None else clock
        self._conn: sqlite3.Connection | None = None

    def _connect(self) -> sqlite3.Connection:
        """Open (and initialize) the database on first real use.

        Connecting lazily keeps mistakes cheap: resuming from a
        mistyped path raises :class:`BackendError` without littering
        the directory with an empty ``.db`` (+ WAL sidecars) that a
        later resume could be pointed at by accident.
        """
        if self._conn is None:
            # ``timeout`` installs the busy handler before the first
            # statement runs (the WAL/schema setup below already needs
            # it under contention); the PRAGMA keeps the value explicit
            # and introspectable on the live connection.
            # ``check_same_thread=False``: under ``repro serve`` the
            # connection is created by a checkpoint on the serving-loop
            # thread but closed from the main thread after the loop
            # exits.  Accesses are never concurrent — every save/load
            # happens on whichever single thread owns the campaign at
            # that moment — so only the same-thread assertion, not
            # actual serialization, is being waived.
            self._conn = sqlite3.connect(
                self.path,
                timeout=self.busy_timeout_ms / 1000.0,
                check_same_thread=False,
            )
            self._conn.execute(
                f"PRAGMA busy_timeout={self.busy_timeout_ms}"
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._ensure_schema()
        return self._conn

    def _ensure_schema(self) -> None:
        with self._conn:
            # One write transaction, taken up front so a racing opener
            # waits on the busy timeout: in autocommit mode every CREATE
            # would commit (and sync) on its own.
            self._conn.executescript(
                """
                BEGIN IMMEDIATE;
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
                + self._VOTES_TABLE
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
                CREATE TABLE IF NOT EXISTS events(
                    seq INTEGER PRIMARY KEY,
                    ts REAL NOT NULL,
                    kind TEXT NOT NULL,
                    span_id INTEGER NOT NULL,
                    fields TEXT NOT NULL);
                CREATE TABLE IF NOT EXISTS cache(
                    cache_id TEXT NOT NULL,
                    position INTEGER NOT NULL,
                    key TEXT NOT NULL,
                    value REAL NOT NULL,
                    PRIMARY KEY(cache_id, position));
                CREATE TABLE IF NOT EXISTS leases(
                    worker_id TEXT NOT NULL,
                    task_id TEXT NOT NULL,
                    owner TEXT NOT NULL,
                    epoch INTEGER NOT NULL,
                    expires REAL NOT NULL,
                    PRIMARY KEY(worker_id, task_id));
                CREATE TABLE IF NOT EXISTS engines(
                    owner TEXT PRIMARY KEY,
                    epoch INTEGER NOT NULL,
                    registered REAL NOT NULL);
                COMMIT;
                """
            )

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
        with self._immediate() as conn:
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
            events = snapshot.get("events") or {}
            base = events.get("base", 0)
            if base:
                (held,) = conn.execute("SELECT MAX(seq) FROM events").fetchone()
                if (held or 0) != base:
                    raise _gap_error("events", base, held or 0)
                conn.execute(
                    "DELETE FROM events WHERE seq < ?", (events.get("floor", 0),)
                )
            else:
                conn.execute("DELETE FROM events")
            conn.executemany(
                "INSERT INTO events VALUES (?,?,?,?,?)",
                (
                    (seq, ts, kind, span_id, json.dumps(fields))
                    for seq, ts, kind, span_id, fields in events.get("rows", ())
                ),
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
            snapshot["events"] = self._journal(
                [seq, ts, kind, span_id, json.loads(fields)]
                for seq, ts, kind, span_id, fields in conn.execute(
                    "SELECT seq, ts, kind, span_id, fields FROM events "
                    "ORDER BY seq"
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

    # ------------------------------------------------------------------
    # Cross-process coordination: seat leases + epoch fencing
    # ------------------------------------------------------------------
    # These methods back repro.engine.leases.  Every
    # mutation runs inside one BEGIN IMMEDIATE transaction: the write
    # lock is taken up front, so a check-then-insert (count seats, then
    # lease one) is atomic against every other engine process sharing
    # the file — two engines racing a worker's last seat serialize on
    # the database and exactly one wins.

    @contextmanager
    def _immediate(self):
        """One write transaction holding the lock from the first read."""
        conn = self._connect()
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

    @staticmethod
    def _check_epoch(conn, owner: str, epoch: int) -> None:
        row = conn.execute(
            "SELECT epoch FROM engines WHERE owner = ?", (owner,)
        ).fetchone()
        if row is None or int(row[0]) != int(epoch):
            current = "unregistered" if row is None else f"epoch {row[0]}"
            raise StaleEpochError(
                f"engine {owner!r} holds stale epoch {epoch} ({current})"
            )

    @staticmethod
    def _purge_expired(conn, now: float) -> None:
        """Reclaim expired leases — and *depose* their owners.

        Expiry runs on the wall clock, which NTP can step under a live
        engine.  Deleting a lease without fencing its owner would let
        the (possibly still healthy) owner keep operating while a peer
        re-seats the same worker — double-seating, the exact failure
        the lease layer exists to prevent.  Bumping the owner's epoch
        here turns every later write from that incarnation into
        :class:`StaleEpochError`: a skewed clock degrades to a fenced
        engine, never to two engines on one seat.
        """
        owners = [
            row[0]
            for row in conn.execute(
                "SELECT DISTINCT owner FROM leases WHERE expires <= ?",
                (now,),
            )
        ]
        if not owners:
            return
        conn.execute("DELETE FROM leases WHERE expires <= ?", (now,))
        conn.executemany(
            "UPDATE engines SET epoch = epoch + 1 WHERE owner = ?",
            [(owner,) for owner in owners],
        )

    def register_engine(self, owner: str) -> int:
        """Register (or re-register) an engine owner; returns its epoch.

        Re-registration bumps the epoch, deposing any earlier
        incarnation of the same owner id: the zombie's subsequent lease
        calls fail with :class:`StaleEpochError`, and its leases —
        now unrenewable — expire back into the pool.
        """
        now = self._clock()
        with self._immediate() as conn:
            conn.execute(
                "INSERT INTO engines(owner, epoch, registered) "
                "VALUES (?, 1, ?) "
                "ON CONFLICT(owner) DO UPDATE SET "
                "epoch = epoch + 1, registered = excluded.registered",
                (owner, now),
            )
            (epoch,) = conn.execute(
                "SELECT epoch FROM engines WHERE owner = ?", (owner,)
            ).fetchone()
            return int(epoch)

    def acquire_lease(
        self,
        worker_id: str,
        task_id: str,
        owner: str,
        epoch: int,
        ttl: float,
        capacity: int,
    ) -> bool:
        """Atomically lease one ``(worker, task)`` seat.

        Inside a single immediate transaction: purge expired leases
        (a crashed engine's seats return to the pool here, and their
        owners are deposed — see :meth:`_purge_expired`), fence the
        caller's epoch, count the worker's live seats against
        ``capacity``, and insert.  Returns ``False`` when the worker is
        saturated across all engines or the seat is already leased.
        Purging before the fence means a caller whose *own* leases just
        expired (e.g. a forward clock step) gets
        :class:`StaleEpochError` instead of silently re-seating.
        """
        now = self._clock()
        with self._immediate() as conn:
            self._purge_expired(conn, now)
            self._check_epoch(conn, owner, epoch)
            (held,) = conn.execute(
                "SELECT COUNT(*) FROM leases WHERE worker_id = ?",
                (worker_id,),
            ).fetchone()
            if held >= capacity:
                return False
            try:
                conn.execute(
                    "INSERT INTO leases VALUES (?,?,?,?,?)",
                    (worker_id, task_id, owner, int(epoch), now + ttl),
                )
            except sqlite3.IntegrityError:
                return False
            return True

    def release_lease(
        self, worker_id: str, task_id: str, owner: str, epoch=None
    ) -> bool:
        """Drop one seat lease if this owner holds it (idempotent).

        With ``epoch`` given, only that incarnation's row is dropped —
        a deposed zombie releasing on shutdown cannot delete a seat its
        successor re-acquired under a newer epoch.
        """
        with self._immediate() as conn:
            query = (
                "DELETE FROM leases "
                "WHERE worker_id = ? AND task_id = ? AND owner = ?"
            )
            params = [worker_id, task_id, owner]
            if epoch is not None:
                query += " AND epoch = ?"
                params.append(int(epoch))
            cursor = conn.execute(query, params)
            return cursor.rowcount > 0

    def renew_leases(self, owner: str, epoch: int, ttl: float) -> int:
        """Extend every lease the owner still has on file; returns the
        count.

        Fences on epoch first — a deposed engine cannot keep its zombie
        leases alive by renewing them.  Two clock-skew safeties beyond
        the fence:

        * the new expiry is ``MAX(expires, now + ttl)`` — a backward
          clock step can never *shorten* a lease;
        * rows are renewed even when ``expires`` already passed, as
          long as no peer purged them yet (purging deposes the owner,
          which the fence above catches).  A briefly-late but healthy
          engine keeps its seats; one that actually lost them learns so
          via :class:`StaleEpochError`, not by silently renewing a seat
          someone else now holds.
        """
        now = self._clock()
        with self._immediate() as conn:
            self._check_epoch(conn, owner, epoch)
            cursor = conn.execute(
                "UPDATE leases SET expires = MAX(expires, ?) "
                "WHERE owner = ? AND epoch = ?",
                (now + ttl, owner, int(epoch)),
            )
            return cursor.rowcount

    def count_leases(self, worker_id: str) -> int:
        """The worker's live seat count across all engines (expired
        leases are purged first, deposing their owners)."""
        now = self._clock()
        with self._immediate() as conn:
            self._purge_expired(conn, now)
            (held,) = conn.execute(
                "SELECT COUNT(*) FROM leases WHERE worker_id = ?",
                (worker_id,),
            ).fetchone()
            return int(held)

    def release_owner(self, owner: str, epoch=None) -> int:
        """Drop every lease an owner holds (graceful shutdown);
        returns the number released.  With ``epoch`` given, only that
        incarnation's rows are dropped (zombie-shutdown safety, as in
        :meth:`release_lease`)."""
        with self._immediate() as conn:
            query = "DELETE FROM leases WHERE owner = ?"
            params = [owner]
            if epoch is not None:
                query += " AND epoch = ?"
                params.append(int(epoch))
            cursor = conn.execute(query, params)
            return cursor.rowcount

    def list_leases(self) -> list[tuple]:
        """Live ``(worker_id, task_id, owner, epoch, expires)`` rows —
        observability for tests and the ``/status`` endpoint."""
        now = self._clock()
        return list(
            self._connect().execute(
                "SELECT worker_id, task_id, owner, epoch, expires "
                "FROM leases WHERE expires > ? ORDER BY worker_id, task_id",
                (now,),
            )
        )

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SQLiteBackend({self.path!r})"
