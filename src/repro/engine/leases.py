"""Cross-process seat coordination: leases over a shared SQLite file.

One engine process enforcing worker capacity in memory is easy; N
``repro serve`` processes sharing one worker pool is the DB-nets
problem — concurrent transitions (jury seatings) consuming and
producing rows (seats) in one relational store, where the store's
transactional guarantees *are* the conservation law.  The
:class:`LeaseCoordinator` is the thin engine-side client for the lease
tables :class:`~repro.engine.backends.SQLiteBackend` carries:

* **seat leases** — one row per occupied ``(worker, task)`` seat, with
  an owner, an expiry, and the owner's registration *epoch*.  Acquire
  is atomic check-then-insert inside one immediate transaction: purge
  expired rows, count the worker's live seats against capacity, insert.
  Two engines racing one remaining seat serialize on the database —
  exactly one wins.
* **expiry** — a crashed engine's leases outlive it only until their
  TTL passes; the next acquire (or an explicit reap) reclaims the
  seats, so capacity lost to a SIGKILL mid-admit returns to the pool
  without operator surgery.
* **epoch fencing** — every (re)registration of an owner bumps its
  epoch, and lease operations carry the epoch they were issued under.
  A process that lost its registration (crashed and restarted, or
  deposed by an operator re-registering the same owner id) holds a
  stale epoch and is rejected with
  :class:`~repro.engine.backends.StaleEpochError` instead of silently
  double-seating against its zombie leases.

Attach a coordinator to an engine's registry
(:meth:`~repro.engine.state.WorkerRegistry.attach_lease_coordinator`,
wired by ``CampaignConfig(coordinate_path=...)``) and every local seat
assignment acquires the shared lease first; a denial surfaces as
:class:`~repro.engine.state.CapacityError`, which the scheduler treats
exactly like a locally saturated worker — substitute or defer.
"""

from __future__ import annotations

import os
import socket
import threading

from .backends import SQLiteBackend


def default_owner() -> str:
    """A per-process owner id: host + pid is unique among live engines
    sharing one coordination file."""
    return f"{socket.gethostname()}:{os.getpid()}"


class LeaseCoordinator:
    """One engine process's handle on the shared seat-lease store.

    Parameters
    ----------
    path:
        The shared coordination database (a
        :class:`~repro.engine.backends.SQLiteBackend` file, typically
        *separate* from each engine's checkpoint backend so per-engine
        snapshots never clobber the shared state).  An existing
        ``SQLiteBackend`` may be passed instead of a path.
    ttl:
        Lease lifetime in seconds.  Live engines renew well inside it
        (``Campaign.serve`` renews at ``ttl / 3``); a crashed engine's
        seats return to the pool once it passes.
    owner:
        Stable identity for this engine process (default: host:pid).
    """

    def __init__(self, path, ttl: float = 30.0, owner: str | None = None):
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        if isinstance(path, SQLiteBackend):
            self.backend = path
            self._owns_backend = False
        else:
            self.backend = SQLiteBackend(path)
            self._owns_backend = True
        self.ttl = float(ttl)
        self.owner = owner or default_owner()
        # Registration fences earlier incarnations of this owner id.
        self.epoch = self.backend.register_engine(self.owner)
        # Serialize this process's lease traffic: the registry calls in
        # from striped seat locks (and serve() renews from the loop
        # thread), but the backend holds a single SQLite connection.
        self._mutex = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # The seat surface the registry drives
    # ------------------------------------------------------------------
    def acquire(self, worker_id: str, task_id: str, capacity: int) -> bool:
        """Try to lease one seat; ``False`` when the worker's shared
        seat count is already at capacity (someone else got there)."""
        with self._mutex:
            return self.backend.acquire_lease(
                worker_id,
                task_id,
                owner=self.owner,
                epoch=self.epoch,
                ttl=self.ttl,
                capacity=capacity,
            )

    def release(self, worker_id: str, task_id: str) -> None:
        """Release this engine's lease on a seat (idempotent).  Scoped
        to this incarnation's epoch: a deposed zombie cannot delete a
        seat its successor re-acquired."""
        with self._mutex:
            self.backend.release_lease(
                worker_id, task_id, owner=self.owner, epoch=self.epoch
            )

    def renew(self) -> int:
        """Extend every lease this engine holds by one TTL; returns the
        number renewed.  Raises ``StaleEpochError`` once deposed."""
        with self._mutex:
            return self.backend.renew_leases(
                self.owner, epoch=self.epoch, ttl=self.ttl
            )

    def shared_load(self, worker_id: str) -> int:
        """The worker's live (unexpired) seat count across all engines."""
        with self._mutex:
            return self.backend.count_leases(worker_id)

    def release_all(self) -> int:
        """Drop every lease this incarnation holds (graceful shutdown);
        returns the number released."""
        with self._mutex:
            return self.backend.release_owner(self.owner, epoch=self.epoch)

    def close(self, release: bool = True) -> None:
        """Release held seats (unless ``release=False`` — e.g. tests
        simulating a crash) and close the backend if we opened it."""
        if self._closed:
            return
        self._closed = True
        if release:
            try:
                self.release_all()
            except Exception:  # pragma: no cover - best-effort shutdown
                pass
        if self._owns_backend:
            self.backend.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LeaseCoordinator(owner={self.owner!r}, epoch={self.epoch}, "
            f"ttl={self.ttl:g}s)"
        )
