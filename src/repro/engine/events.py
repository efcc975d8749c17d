"""Event model for the campaign engine.

The engine is a discrete-event system: everything that happens to the
shared worker/task state — a task arriving, a juror's vote landing, a
task finishing — is an :class:`Event` popped from one totally ordered
queue.  Ordering is ``(time, seq)`` where ``seq`` is the enqueue serial
number, so runs are deterministic even when many events share a
timestamp: same inputs + same seed => same pop order => same campaign.

Times are *logical* (dimensionless ticks), not wall-clock: the
simulators drive the clock, which is what makes load tests
reproducible.  The DB-nets line of work (Montali & Rivkin) couples a
persistent data layer to exactly this kind of event-driven process
model; here the "data layer" is the :class:`~repro.engine.state.WorkerRegistry`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

from ..core.task import UNINFORMATIVE_PRIOR, validate_prior


@dataclass(frozen=True)
class EngineTask:
    """One decision task submitted to the engine.

    Parameters
    ----------
    task_id:
        Unique identifier within the campaign.
    prior:
        ``alpha = Pr(t = 0)`` for this task.
    ground_truth:
        Latent true answer, known only in simulations; ``None`` in
        production (the engine then scores accuracy only on tasks whose
        truth is known).
    """

    task_id: str
    prior: float = UNINFORMATIVE_PRIOR
    ground_truth: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.task_id, str) or not self.task_id:
            raise ValueError("task_id must be a non-empty string")
        object.__setattr__(self, "prior", validate_prior(self.prior))
        if self.ground_truth is not None and self.ground_truth not in (0, 1):
            raise ValueError(
                f"ground_truth must be 0, 1 or None, got {self.ground_truth!r}"
            )

    def state_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "prior": self.prior,
            "ground_truth": self.ground_truth,
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "EngineTask":
        truth = state["ground_truth"]
        return cls(
            task_id=state["task_id"],
            prior=float(state["prior"]),
            ground_truth=None if truth is None else int(truth),
        )


@dataclass(frozen=True)
class Event:
    """Base event; subclasses carry the payload."""

    time: float


@dataclass(frozen=True)
class TaskArrival(Event):
    """A new task enters the campaign."""

    task: EngineTask


@dataclass(frozen=True)
class VoteArrival(Event):
    """One assigned juror's vote lands for one task."""

    task_id: str
    worker_id: str


@dataclass(frozen=True)
class TaskComplete(Event):
    """A task reached a verdict (normally, by early stop, or unfunded)."""

    task_id: str
    reason: str  # "all-votes" | "early-stop" | "unfunded"


def event_to_state(event: Event) -> dict:
    """Serialize one event to a plain-JSON dict."""
    if isinstance(event, TaskArrival):
        return {
            "kind": "task-arrival",
            "time": event.time,
            "task": event.task.state_dict(),
        }
    if isinstance(event, VoteArrival):
        return {
            "kind": "vote-arrival",
            "time": event.time,
            "task_id": event.task_id,
            "worker_id": event.worker_id,
        }
    if isinstance(event, TaskComplete):
        return {
            "kind": "task-complete",
            "time": event.time,
            "task_id": event.task_id,
            "reason": event.reason,
        }
    raise TypeError(f"unknown event {type(event).__name__}")


def event_from_state(state: Mapping) -> Event:
    """Inverse of :func:`event_to_state`."""
    kind = state["kind"]
    time = float(state["time"])
    if kind == "task-arrival":
        return TaskArrival(time, EngineTask.from_state(state["task"]))
    if kind == "vote-arrival":
        return VoteArrival(time, state["task_id"], state["worker_id"])
    if kind == "task-complete":
        return TaskComplete(time, state["task_id"], state["reason"])
    raise ValueError(f"unknown event kind {kind!r}")


class EventQueue:
    """A deterministic priority queue of engine events.

    Pops in ``(time, enqueue-order)`` order.  Heap entries are plain
    ``(time, seq, event)`` tuples: ``(time, seq)`` is unique, so the
    tuple comparison never reaches the event.  ``pending`` counts per
    event type let the engine decide when an arrival batch is complete
    without peeking into the heap.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._pending: dict[type, int] = {}

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.time, self._seq, event))
        self._seq += 1
        self._pending[type(event)] = self._pending.get(type(event), 0) + 1

    def pop(self) -> Event:
        event = heapq.heappop(self._heap)[2]
        self._pending[type(event)] -= 1
        return event

    def peek(self) -> Event | None:
        """The event :meth:`pop` would return next, without removing it
        (``None`` on an empty queue)."""
        return self._heap[0][2] if self._heap else None

    def pending(self, event_type: type) -> int:
        """Number of queued events of exactly ``event_type``."""
        return self._pending.get(event_type, 0)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Pending events (in pop order, with their enqueue serials) and
        the serial counter — everything replay identity needs."""
        return {
            "next_seq": self._seq,
            "entries": [
                [time, seq, event_to_state(event)]
                for time, seq, event in sorted(self._heap)
            ],
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "EventQueue":
        """Rebuild a queue whose pops replay the captured order exactly
        (``(time, seq)`` keys are unique, so heap layout is
        irrelevant)."""
        queue = cls()
        for time, seq, event_state in state["entries"]:
            event = event_from_state(event_state)
            heapq.heappush(queue._heap, (float(time), int(seq), event))
            queue._pending[type(event)] = (
                queue._pending.get(type(event), 0) + 1
            )
        queue._seq = int(state["next_seq"])
        return queue
