"""Pluggable persistent state backends for campaign checkpoints.

The DB-nets line of work (Montali & Rivkin) marries an event/net
execution layer to a relational token store, so processes survive
restarts and share state across executors.  This module is that store
for the campaign engine: a :class:`~repro.engine.campaign.Campaign`
serializes its complete serving state — worker registry (vote
histories, drifted quality estimates, seats, spend), answer matrix,
budget/allocator ledgers, shard membership, metrics, RNG state, the JQ
caches and frontier memos, and every pending event — into one
*snapshot* dict, and a :class:`StateBackend` persists it.

Snapshot contract (all values plain JSON types)::

    {
      "version":  1,
      "campaign": {...},   # config + event loop state (opaque JSON)
      "workers":  [row, ...],          # one dict per worker
      "votes":    [[worker_id, task_id, label, wpos, tpos], ...],
      "ledger":   {scope: {...}, ...}, # budget/allocator/shard ledgers
      "caches":   {cache_id: {...}, ...},  # serialized JQCaches
    }

Two implementations:

* :class:`MemoryBackend` — the default; keeps the snapshot in-process.
  Checkpoints survive ``Campaign.close()`` but not the process, which
  is exactly the pre-facade behavior made explicit.
* :class:`SQLiteBackend` — a WAL-mode SQLite file with ``campaign`` /
  ``workers`` / ``votes`` / ``ledger`` / ``cache`` tables.  Campaigns
  survive restarts; the WAL journal lets a reader (dashboard, another
  engine process warming its cache) inspect the file while a writer
  checkpoints.

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
SNAPSHOT_VERSION = 1

#: Top-level sections every snapshot must carry.
SNAPSHOT_SECTIONS = ("campaign", "workers", "votes", "ledger", "caches")


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
        """Persist a snapshot, replacing any previous one."""
        ...

    def load(self) -> dict:
        """Return the last saved snapshot; raise :class:`BackendError`
        when none exists."""
        ...

    def exists(self) -> bool:
        """True when a snapshot is available to :meth:`load`."""
        ...

    def close(self) -> None:
        """Release any held resources (idempotent)."""
        ...


def _validate(snapshot: dict) -> None:
    missing = [s for s in SNAPSHOT_SECTIONS if s not in snapshot]
    if missing:
        raise BackendError(f"snapshot is missing sections {missing}")


class MemoryBackend:
    """In-process snapshot store (the default backend).

    Snapshots are stored through a JSON round trip, for two reasons:
    the held snapshot cannot alias live campaign state, and a restore
    sees *exactly* the value shapes (lists, not tuples) a disk backend
    would produce — so the memory and SQLite paths exercise identical
    restore code.
    """

    def __init__(self) -> None:
        self._payload: str | None = None

    def save(self, snapshot: dict) -> None:
        _validate(snapshot)
        self._payload = json.dumps(snapshot)

    def load(self) -> dict:
        if self._payload is None:
            raise BackendError("MemoryBackend holds no checkpoint")
        return json.loads(self._payload)

    def exists(self) -> bool:
        return self._payload is not None

    def close(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "empty" if self._payload is None else f"{len(self._payload)}B"
        return f"MemoryBackend({state})"


class SQLiteBackend:
    """Campaign state in a WAL-mode SQLite file.

    Schema (one campaign per file)::

        campaign(key TEXT PRIMARY KEY, value TEXT)    -- version, config
                                                      --  + event-loop JSON
        workers(position INTEGER PRIMARY KEY, worker_id TEXT UNIQUE, ...)
        votes(wpos INTEGER PRIMARY KEY, worker_id, task_id, label, tpos)
        ledger(scope TEXT PRIMARY KEY, value TEXT,
               version INTEGER)                       -- budget/allocator/
                                                      --  shard ledgers +
                                                      --  CAS version
        cache(cache_id TEXT, position INTEGER, key TEXT, value REAL,
              PRIMARY KEY(cache_id, position))        -- JQ-cache entries
                                                      --  in LRU order
        leases(worker_id, task_id, owner, epoch, expires,
               PRIMARY KEY(worker_id, task_id))       -- cross-process
                                                      --  seat leases
        engines(owner TEXT PRIMARY KEY, epoch, registered)

    ``save`` replaces the whole snapshot inside one transaction, so a
    reader never observes a half-written checkpoint.  The ``leases`` /
    ``engines`` tables (and the ledger ``version`` column) belong to the
    cross-process coordination layer
    (:mod:`repro.engine.leases`); ``save`` never touches
    them, so checkpointing one engine cannot clobber seats other engines
    hold in a shared coordination file.
    """

    _WORKER_COLUMNS = (
        "position", "worker_id", "est_quality", "true_quality", "cost",
        "capacity", "active_tasks", "votes_cast", "agreements",
        "resolved_votes", "spend", "peak_load",
    )

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
            self._conn.executescript(
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
                CREATE TABLE IF NOT EXISTS votes(
                    wpos INTEGER PRIMARY KEY,
                    worker_id TEXT NOT NULL,
                    task_id TEXT NOT NULL,
                    label INTEGER NOT NULL,
                    tpos INTEGER NOT NULL,
                    UNIQUE(worker_id, task_id));
                CREATE TABLE IF NOT EXISTS ledger(
                    scope TEXT PRIMARY KEY, value TEXT NOT NULL,
                    version INTEGER NOT NULL DEFAULT 0);
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
                """
            )
            # Files written before the lease layer predate the ledger's
            # optimistic-concurrency column; add it in place so old
            # checkpoints keep loading (rows default to version 0).
            columns = [
                row[1]
                for row in self._conn.execute("PRAGMA table_info(ledger)")
            ]
            if "version" not in columns:
                self._conn.execute(
                    "ALTER TABLE ledger "
                    "ADD COLUMN version INTEGER NOT NULL DEFAULT 0"
                )

    # ------------------------------------------------------------------
    # StateBackend surface
    # ------------------------------------------------------------------
    def save(self, snapshot: dict) -> None:
        _validate(snapshot)
        conn = self._connect()
        with conn:
            for table in ("campaign", "workers", "votes", "ledger", "cache"):
                conn.execute(f"DELETE FROM {table}")
            conn.execute(
                "INSERT INTO campaign VALUES ('version', ?)",
                (json.dumps(snapshot.get("version", SNAPSHOT_VERSION)),),
            )
            conn.execute(
                "INSERT INTO campaign VALUES ('campaign', ?)",
                (json.dumps(snapshot["campaign"]),),
            )
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
            conn.executemany(
                "INSERT INTO votes VALUES (?,?,?,?,?)",
                (
                    (wpos, worker_id, task_id, label, tpos)
                    for worker_id, task_id, label, wpos, tpos
                    in snapshot["votes"]
                ),
            )
            conn.executemany(
                "INSERT INTO ledger(scope, value) VALUES (?,?)",
                (
                    (scope, json.dumps(value))
                    for scope, value in snapshot["ledger"].items()
                ),
            )
            for cache_id, cache_state in snapshot["caches"].items():
                conn.execute(
                    "INSERT INTO ledger(scope, value) VALUES (?,?)",
                    (
                        f"cache-meta:{cache_id}",
                        json.dumps(
                            {
                                k: cache_state[k]
                                for k in ("hits", "misses", "evictions")
                            }
                        ),
                    ),
                )
                conn.executemany(
                    "INSERT INTO cache VALUES (?,?,?,?)",
                    (
                        (cache_id, position, json.dumps(key), value)
                        for position, (key, value)
                        in enumerate(cache_state["entries"])
                    ),
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
            "votes": [],
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
        snapshot["votes"] = [
            [worker_id, task_id, label, wpos, tpos]
            for wpos, worker_id, task_id, label, tpos in conn.execute(
                "SELECT wpos, worker_id, task_id, label, tpos FROM votes "
                "ORDER BY wpos"
            )
        ]
        cache_meta: dict[str, dict] = {}
        for scope, value in conn.execute("SELECT scope, value FROM ledger"):
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
            snapshot["caches"][cache_id] = {**meta, "entries": entries}
        return snapshot

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

    # ------------------------------------------------------------------
    # Optimistic concurrency on the ledger
    # ------------------------------------------------------------------
    def read_ledger(self, scope: str):
        """Return ``(value, version)`` for one ledger scope, or ``None``
        when the scope does not exist."""
        row = self._connect().execute(
            "SELECT value, version FROM ledger WHERE scope = ?", (scope,)
        ).fetchone()
        if row is None:
            return None
        return json.loads(row[0]), int(row[1])

    def cas_ledger(self, scope: str, value, expected_version=None) -> bool:
        """Compare-and-swap one ledger scope.

        With ``expected_version=None`` the scope must not exist yet
        (create); otherwise the write lands only if the stored version
        still matches, and bumps it.  Returns ``False`` on a lost race —
        the caller re-reads and retries (see
        ``LeaseCoordinator.update_shared_ledger``).
        """
        payload = json.dumps(value)
        with self._immediate() as conn:
            if expected_version is None:
                try:
                    conn.execute(
                        "INSERT INTO ledger(scope, value, version) "
                        "VALUES (?, ?, 1)",
                        (scope, payload),
                    )
                except sqlite3.IntegrityError:
                    return False
                return True
            cursor = conn.execute(
                "UPDATE ledger SET value = ?, version = version + 1 "
                "WHERE scope = ? AND version = ?",
                (payload, scope, int(expected_version)),
            )
            return cursor.rowcount == 1

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SQLiteBackend({self.path!r})"
