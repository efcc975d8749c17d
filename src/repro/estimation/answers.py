"""Answer matrices: the raw material of worker-quality estimation.

An :class:`AnswerMatrix` stores which worker answered which task with
which label, in a sparse (dict-of-dicts) layout: real crowdsourcing
campaigns are heavily incomplete (in the paper's AMT campaign, half the
workers answered a single 20-question HIT).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..core.exceptions import InvalidVoteError


@dataclass(frozen=True)
class Answer:
    """One worker's label for one task."""

    worker_id: str
    task_id: str
    label: int

    def __post_init__(self) -> None:
        if self.label < 0:
            raise InvalidVoteError(f"label {self.label} must be >= 0")


class AnswerMatrix:
    """A sparse worker x task answer store.

    Duplicate (worker, task) pairs are rejected: one vote per worker
    per task, as in the paper's model.

    The matrix only grows, so it keeps an arrival log: replaying the
    log through :meth:`add` rebuilds both views in their exact
    iteration orders, which is what lets a checkpoint append the votes
    that arrived since the last one instead of rewriting all of them.
    """

    def __init__(self, num_labels: int = 2, answers: Iterable[Answer] = ()) -> None:
        if num_labels < 2:
            raise ValueError("num_labels must be >= 2")
        self.num_labels = num_labels
        self._by_worker: dict[str, dict[str, int]] = {}
        self._by_task: dict[str, dict[str, int]] = {}
        # (worker_id, task_id, label) in arrival order; ``None`` for a
        # matrix rebuilt view by view (from_vote_rows) until the log is
        # first asked for.
        self._log: list[tuple[str, str, int]] | None = []
        for answer in answers:
            self.add(answer)

    def add(self, answer: Answer) -> None:
        self.record(answer.worker_id, answer.task_id, answer.label)

    def record(self, worker_id: str, task_id: str, label: int) -> None:
        """:meth:`add` without building the :class:`Answer` (the engine
        records one vote per call, and the arrival log keeps a plain
        tuple)."""
        if label < 0:
            raise InvalidVoteError(f"label {label} must be >= 0")
        if label >= self.num_labels:
            raise InvalidVoteError(
                f"label {label} outside 0..{self.num_labels - 1}"
            )
        worker_answers = self._by_worker.setdefault(worker_id, {})
        if task_id in worker_answers:
            raise ValueError(
                f"worker {worker_id!r} already answered task {task_id!r}"
            )
        worker_answers[task_id] = label
        self._by_task.setdefault(task_id, {})[worker_id] = label
        if self._log is not None:
            self._log.append((worker_id, task_id, label))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def worker_ids(self) -> tuple[str, ...]:
        return tuple(self._by_worker)

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(self._by_task)

    @property
    def num_answers(self) -> int:
        return sum(len(a) for a in self._by_worker.values())

    def answers_by(self, worker_id: str) -> dict[str, int]:
        """task_id -> label for one worker (copy)."""
        return dict(self._by_worker.get(worker_id, {}))

    def answers_for(self, task_id: str) -> dict[str, int]:
        """worker_id -> label for one task (copy)."""
        return dict(self._by_task.get(task_id, {}))

    def __iter__(self) -> Iterator[Answer]:
        for worker_id, tasks in self._by_worker.items():
            for task_id, label in tasks.items():
                yield Answer(worker_id, task_id, label)

    def __len__(self) -> int:
        return self.num_answers

    def participation_counts(self) -> dict[str, int]:
        """worker_id -> number of tasks answered."""
        return {w: len(tasks) for w, tasks in self._by_worker.items()}

    def index_arrays(
        self, by: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(task, worker, label)`` integer arrays, one entry per vote.

        Task and worker entries are positions in :attr:`task_ids` and
        :attr:`worker_ids`.  ``by="task"`` lists the votes in the by-task
        view's iteration order (what :meth:`answers_for` walks task after
        task), ``by="worker"`` in the by-worker view's order.
        """
        if by == "task":
            outer, inner = self._by_task, self._by_worker
        elif by == "worker":
            outer, inner = self._by_worker, self._by_task
        else:
            raise ValueError(f"by must be 'task' or 'worker', not {by!r}")
        position = {key: i for i, key in enumerate(inner)}
        groups = outer.values()
        outer_idx = np.repeat(
            np.arange(len(outer)), [len(votes) for votes in groups]
        )
        inner_idx = np.array(
            [position[key] for votes in groups for key in votes], dtype=np.intp
        )
        labels = np.array(
            [label for votes in groups for label in votes.values()],
            dtype=np.intp,
        )
        if by == "task":
            return outer_idx, inner_idx, labels
        return inner_idx, outer_idx, labels

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @property
    def num_arrivals(self) -> int:
        """Length of the arrival log (= :attr:`num_answers`)."""
        return len(self._arrival_log())

    def arrival_rows(self, since: int = 0) -> list[list]:
        """``[worker_id, task_id, label]`` rows of the votes that
        arrived after the first ``since``, in arrival order — the tail
        a checkpoint appends to its vote journal."""
        return [list(vote) for vote in self._arrival_log()[since:]]

    @classmethod
    def from_arrival_rows(cls, rows, num_labels: int = 2) -> "AnswerMatrix":
        """Replay :meth:`arrival_rows` output: both views come back in
        their original orders, and so does the log."""
        matrix = cls(num_labels=num_labels)
        for worker_id, task_id, label in rows:
            matrix.record(worker_id, task_id, int(label))
        return matrix

    def _arrival_log(self) -> list[tuple[str, str, int]]:
        if self._log is None:
            self._log = self._merge_views()
        return self._log

    def _merge_views(self) -> list[tuple[str, str, int]]:
        """An arrival order that replays to both current views.

        Replaying through :meth:`add` must keep each worker's votes and
        each task's votes in their view orders, and must meet the
        workers (and the tasks) in view order — so every vote waits for
        its predecessor in both inner orders, and the first vote of
        each worker (task) waits for the previous worker's (task's)
        first vote.  A topological merge of those edges, ties broken by
        by-worker position, is such an order; a cycle means no arrival
        sequence built these views.
        """
        wpos: dict[tuple[str, str], int] = {}
        for worker_id, tasks in self._by_worker.items():
            for task_id in tasks:
                wpos[(worker_id, task_id)] = len(wpos)
        waits = dict.fromkeys(wpos, 0)
        after: dict[tuple[str, str], list] = {key: [] for key in wpos}
        for chains in (
            [[(w, t) for t in tasks] for w, tasks in self._by_worker.items()],
            [[(w, t) for w in workers] for t, workers in self._by_task.items()],
        ):
            firsts = [chain[0] for chain in chains if chain]
            for chain in (*chains, firsts):
                for prev, nxt in zip(chain, chain[1:]):
                    after[prev].append(nxt)
                    waits[nxt] += 1
        ready = [(pos, key) for key, pos in wpos.items() if waits[key] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            _, key = heapq.heappop(ready)
            order.append((key[0], key[1], self._by_worker[key[0]][key[1]]))
            for nxt in after[key]:
                waits[nxt] -= 1
                if waits[nxt] == 0:
                    heapq.heappush(ready, (wpos[nxt], nxt))
        if len(order) != len(wpos):
            raise ValueError(
                "the by-worker and by-task orders admit no common arrival "
                "order"
            )
        return order

    def vote_rows(self) -> list[tuple[str, str, int, int, int]]:
        """Flatten to ``(worker_id, task_id, label, wpos, tpos)`` rows
        (the version-1 checkpoint layout).

        ``wpos``/``tpos`` record each vote's position in the by-worker
        and by-task insertion orders.  Downstream estimators iterate
        both views, and float accumulation is order-sensitive at the
        last ulp — a checkpoint/restore round trip must preserve the
        exact iteration orders, not just the contents.
        """
        counter = 0
        tpos = {}
        for task_id, workers in self._by_task.items():
            for worker_id in workers:
                tpos[(worker_id, task_id)] = counter
                counter += 1
        rows = []
        wpos = 0
        for worker_id, tasks in self._by_worker.items():
            for task_id, label in tasks.items():
                rows.append(
                    (worker_id, task_id, label, wpos, tpos[(worker_id, task_id)])
                )
                wpos += 1
        return rows

    @classmethod
    def from_vote_rows(cls, rows, num_labels: int = 2) -> "AnswerMatrix":
        """Rebuild a matrix with both views in their original orders
        (version-1 rows; the arrival log is merged from the two views
        when first needed)."""
        matrix = cls(num_labels=num_labels)
        matrix._log = None
        for worker_id, task_id, label, _wpos, _tpos in sorted(
            rows, key=lambda r: r[3]
        ):
            matrix._by_worker.setdefault(worker_id, {})[task_id] = int(label)
        for worker_id, task_id, label, _wpos, _tpos in sorted(
            rows, key=lambda r: r[4]
        ):
            matrix._by_task.setdefault(task_id, {})[worker_id] = int(label)
        return matrix
