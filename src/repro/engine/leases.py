"""Cross-process seat coordination: leases over a shared SQLite file.

One engine process enforcing worker capacity in memory is easy; N
``repro serve`` processes sharing one worker pool is the DB-nets
problem — concurrent transitions (jury seatings) consuming and
producing rows (seats) in one relational store, where the store's
transactional guarantees *are* the conservation law.  This module owns
that store: its two tables, and the :class:`LeaseCoordinator` that is
each engine process's handle on them.

* **seat leases** — one row per occupied ``(worker, task)`` seat, with
  an owner, an expiry, and the owner's registration *epoch*.  Acquire
  is atomic check-then-insert inside one immediate transaction: purge
  expired rows, count the worker's live seats against capacity, insert.
  Two engines racing one remaining seat serialize on the database —
  exactly one wins.
* **expiry** — a crashed engine's leases outlive it only until their
  TTL passes; the next acquire (or load count) reclaims the seats, so
  capacity lost to a SIGKILL mid-admit returns to the pool without
  operator surgery.
* **epoch fencing** — every (re)registration of an owner bumps its
  epoch, and lease operations carry the epoch they were issued under.
  A process that lost its registration (crashed and restarted, or
  deposed by an operator re-registering the same owner id) holds a
  stale epoch and is rejected with :class:`StaleEpochError` instead of
  silently double-seating against its zombie leases.

Attach a coordinator to an engine's registry
(:meth:`~repro.engine.state.WorkerRegistry.attach_lease_coordinator`,
wired by ``CampaignConfig(coordinate_path=...)``) and every local seat
assignment acquires the shared lease first; a denial surfaces as
:class:`~repro.engine.state.CapacityError`, which the scheduler treats
exactly like a locally saturated worker — substitute or defer.

The coordination file may be a campaign's checkpoint file too: the
checkpoint store never touches these tables.
"""

from __future__ import annotations

import os
import socket
import sqlite3
import threading
import time

from .backends import BackendError, connect, immediate

_SCHEMA = """
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


class StaleEpochError(BackendError):
    """A lease operation carried a deposed registration epoch.

    Raised when an engine whose owner id has since re-registered (it
    crashed and restarted, or an operator replaced it) tries to touch
    leases under its old epoch — the fencing that keeps a zombie
    process from seating workers against leases it no longer owns.
    """


def default_owner() -> str:
    """A per-process owner id: host + pid is unique among live engines
    sharing one coordination file."""
    return f"{socket.gethostname()}:{os.getpid()}"


def _purge_expired(conn, now: float) -> None:
    """Reclaim expired leases — and *depose* their owners.

    Expiry runs on the wall clock, which NTP can step under a live
    engine.  Deleting a lease without fencing its owner would let the
    (possibly still healthy) owner keep operating while a peer re-seats
    the same worker — double-seating, the exact failure the lease layer
    exists to prevent.  Bumping the owner's epoch here turns every later
    write from that incarnation into :class:`StaleEpochError`: a skewed
    clock degrades to a fenced engine, never to two engines on one seat.
    """
    owners = [
        row[0]
        for row in conn.execute(
            "SELECT DISTINCT owner FROM leases WHERE expires <= ?", (now,)
        )
    ]
    if not owners:
        return
    conn.execute("DELETE FROM leases WHERE expires <= ?", (now,))
    conn.executemany(
        "UPDATE engines SET epoch = epoch + 1 WHERE owner = ?",
        [(owner,) for owner in owners],
    )


def _count(conn, worker_id: str) -> int:
    (held,) = conn.execute(
        "SELECT COUNT(*) FROM leases WHERE worker_id = ?", (worker_id,)
    ).fetchone()
    return int(held)


class LeaseCoordinator:
    """One engine process's handle on the shared seat-lease store.

    Parameters
    ----------
    path:
        The shared coordination database, typically *separate* from
        each engine's checkpoint file.  Its tables are created on open.
    ttl:
        Lease lifetime in seconds.  Live engines renew well inside it
        (``Campaign.serve`` renews at ``ttl / 3``); a crashed engine's
        seats return to the pool once it passes.
    owner:
        Stable identity for this engine process (default: host:pid).
        Opening registers it, which deposes any earlier incarnation.
    clock:
        Wall-clock source for lease expiry (default ``time.time``, the
        only clock shared across processes and hosts); injectable so
        the skewed-clock degradation contract is testable.
    """

    def __init__(
        self, path, ttl: float = 30.0, owner: str | None = None, clock=None
    ):
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.ttl = float(ttl)
        self.owner = owner or default_owner()
        self._clock = time.time if clock is None else clock
        self._conn = connect(str(path), _SCHEMA)
        # Serialize this process's lease traffic on the one connection:
        # the registry calls in from striped seat locks, and serve()
        # renews from the loop thread.
        self._mutex = threading.Lock()
        self._closed = False
        # Registration fences earlier incarnations of this owner id:
        # their later lease calls fail with StaleEpochError, and their
        # leases, now unrenewable, expire back into the pool.
        with immediate(self._conn) as conn:
            conn.execute(
                "INSERT INTO engines(owner, epoch, registered) "
                "VALUES (?, 1, ?) "
                "ON CONFLICT(owner) DO UPDATE SET "
                "epoch = epoch + 1, registered = excluded.registered",
                (self.owner, self._clock()),
            )
            (epoch,) = conn.execute(
                "SELECT epoch FROM engines WHERE owner = ?", (self.owner,)
            ).fetchone()
        self.epoch = int(epoch)

    def _check_epoch(self, conn) -> None:
        row = conn.execute(
            "SELECT epoch FROM engines WHERE owner = ?", (self.owner,)
        ).fetchone()
        if row is None or int(row[0]) != self.epoch:
            current = "unregistered" if row is None else f"epoch {row[0]}"
            raise StaleEpochError(
                f"engine {self.owner!r} holds stale epoch {self.epoch} "
                f"({current})"
            )

    # ------------------------------------------------------------------
    # The seat surface the registry drives
    # ------------------------------------------------------------------
    def acquire(self, worker_id: str, task_id: str, capacity: int) -> bool:
        """Try to lease one seat; ``False`` when the worker's shared
        seat count is already at capacity (someone else got there) or
        the seat is already leased.

        Expired leases are purged first (their owners deposed), then
        the epoch is fenced: a caller whose *own* leases just expired
        (e.g. a forward clock step) gets :class:`StaleEpochError`
        instead of silently re-seating.
        """
        with self._mutex, immediate(self._conn) as conn:
            now = self._clock()
            _purge_expired(conn, now)
            self._check_epoch(conn)
            if _count(conn, worker_id) >= capacity:
                return False
            try:
                conn.execute(
                    "INSERT INTO leases VALUES (?,?,?,?,?)",
                    (worker_id, task_id, self.owner, self.epoch,
                     now + self.ttl),
                )
            except sqlite3.IntegrityError:
                return False
            return True

    def release(self, worker_id: str, task_id: str) -> None:
        """Release this engine's lease on a seat (idempotent).  Scoped
        to this incarnation's epoch: a deposed zombie cannot delete a
        seat its successor re-acquired."""
        with self._mutex, immediate(self._conn) as conn:
            conn.execute(
                "DELETE FROM leases WHERE worker_id = ? AND task_id = ? "
                "AND owner = ? AND epoch = ?",
                (worker_id, task_id, self.owner, self.epoch),
            )

    def renew(self) -> int:
        """Extend every lease this engine holds by one TTL; returns the
        number renewed.  Raises :class:`StaleEpochError` once deposed.

        Two clock-skew safeties beyond the fence:

        * the new expiry is ``MAX(expires, now + ttl)`` — a backward
          clock step can never *shorten* a lease;
        * rows are renewed even when ``expires`` already passed, as
          long as no peer purged them yet (purging deposes the owner,
          which the fence catches).  A briefly-late but healthy engine
          keeps its seats; one that actually lost them learns so via
          :class:`StaleEpochError`, not by silently renewing a seat
          someone else now holds.
        """
        with self._mutex, immediate(self._conn) as conn:
            self._check_epoch(conn)
            return conn.execute(
                "UPDATE leases SET expires = MAX(expires, ?) "
                "WHERE owner = ? AND epoch = ?",
                (self._clock() + self.ttl, self.owner, self.epoch),
            ).rowcount

    def shared_load(self, worker_id: str) -> int:
        """The worker's live seat count across all engines (expired
        leases are purged first, deposing their owners)."""
        with self._mutex, immediate(self._conn) as conn:
            _purge_expired(conn, self._clock())
            return _count(conn, worker_id)

    def release_all(self) -> int:
        """Drop every lease this incarnation holds (graceful shutdown);
        returns the number released."""
        with self._mutex, immediate(self._conn) as conn:
            return conn.execute(
                "DELETE FROM leases WHERE owner = ? AND epoch = ?",
                (self.owner, self.epoch),
            ).rowcount

    def list_leases(self) -> list[tuple]:
        """Live ``(worker_id, task_id, owner, epoch, expires)`` rows of
        every engine, read-only (nothing is purged)."""
        with self._mutex:
            return self._conn.execute(
                "SELECT worker_id, task_id, owner, epoch, expires "
                "FROM leases WHERE expires > ? ORDER BY worker_id, task_id",
                (self._clock(),),
            ).fetchall()

    def close(self, release: bool = True) -> None:
        """Release held seats (unless ``release=False`` — e.g. tests
        simulating a crash) and close the connection."""
        if self._closed:
            return
        self._closed = True
        if release:
            try:
                self.release_all()
            except Exception:  # pragma: no cover - best-effort shutdown
                pass
        self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LeaseCoordinator(owner={self.owner!r}, epoch={self.epoch}, "
            f"ttl={self.ttl:g}s)"
        )
