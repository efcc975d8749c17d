"""Campaign observability: throughput, accuracy, spend, cache stats.

A serving layer is only trustworthy if its promises are measurable.
:class:`EngineMetrics` accumulates per-task records as the event loop
runs and renders one report answering the questions a campaign
operator actually asks:

* **throughput** — tasks completed per wall-clock second;
* **realized accuracy vs predicted JQ** — does the frontier's promise
  (mean predicted JQ at assignment time) match the fraction of tasks
  answered correctly?  (The Figure-10(d) validation, now continuous.)
* **spend** — gross reservations, refunds from early stops, and net
  spend against the campaign budget;
* **cache** — hit rate and entry count of the shards' JQ caches.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Mapping

import numpy as np

from .cache import CacheStats


def _cache_stats(state: Mapping) -> CacheStats:
    """Stored cache counters; the ``evictions`` counter older snapshots
    carry is dropped."""
    return CacheStats(state["hits"], state["misses"], state["entries"])


@dataclass(frozen=True)
class ShardSnapshot:
    """End-of-run summary of one shard."""

    shard_id: int
    workers: int
    admitted: int
    unfunded: int
    deferred: int
    substitutions: int
    reserved: float
    migrations_in: int
    migrations_out: int
    cache: CacheStats
    # Added with the telemetry subsystem; defaults keep snapshots taken
    # before these fields existed loadable.
    seats: int = 0
    capacity: int = 0
    granted: float = 0.0

    def render(self) -> str:
        return (
            f"shard {self.shard_id}: {self.workers} workers, "
            f"seats {self.seats}/{self.capacity}, "
            f"{self.admitted} admitted ({self.unfunded} unfunded, "
            f"{self.deferred} deferrals, {self.substitutions} subs), "
            f"granted {self.granted:.4g}, reserved {self.reserved:.4g}, "
            f"migrations +{self.migrations_in}/-{self.migrations_out}, "
            f"cache {self.cache.hit_rate:.0%} hit"
        )


@dataclass(frozen=True)
class AllocatorSnapshot:
    """End-of-run ledger of the top-level budget allocator."""

    budget: float
    entitled: float
    granted: float
    reserved: float
    refunded: float
    reabsorbed: float
    rounds: int

    def render(self) -> str:
        return (
            f"allocator: {self.rounds} rounds, "
            f"granted {self.granted:.4g}, reserved {self.reserved:.4g}, "
            f"re-absorbed {self.reabsorbed:.4g} unspent "
            f"+ {self.refunded:.4g} refunds"
        )


@dataclass(frozen=True)
class TaskRecord:
    """Outcome of one completed task."""

    task_id: str
    answer: int
    confidence: float
    predicted_jq: float
    reserved_cost: float
    spent_cost: float
    votes_used: int
    reason: str  # "all-votes" | "early-stop" | "unfunded"
    correct: bool | None  # None when ground truth is unknown

    @property
    def refund(self) -> float:
        return self.reserved_cost - self.spent_cost

    def state_dict(self) -> dict:
        """``dataclasses.asdict(self)`` without its recursive deep copy
        (every field is a flat scalar); same keys, order and values."""
        return {
            "task_id": self.task_id,
            "answer": self.answer,
            "confidence": self.confidence,
            "predicted_jq": self.predicted_jq,
            "reserved_cost": self.reserved_cost,
            "spent_cost": self.spent_cost,
            "votes_used": self.votes_used,
            "reason": self.reason,
            "correct": self.correct,
        }


@dataclass
class EngineMetrics:
    """Mutable accumulator the engine feeds while running."""

    records: list[TaskRecord] = field(default_factory=list)
    submitted: int = 0
    votes_cast: int = 0
    votes_cancelled: int = 0
    wall_seconds: float = 0.0
    peak_worker_load: int = 0
    cache_stats: CacheStats | None = None
    reestimations: int = 0
    quality_estimation_error: float | None = None
    shard_snapshots: tuple[ShardSnapshot, ...] | None = None
    allocator_snapshot: AllocatorSnapshot | None = None
    # Intake totals (an IngestStats.state_dict() dict), folded in when
    # run() or serve() returns; the report shows them once anything was
    # submitted.  Render-only (refused chunks depend on request timing),
    # so the fingerprint excludes it.
    intake_stats: dict | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_task(self, record: TaskRecord) -> None:
        self.records.append(record)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        return len(self.records)

    @property
    def early_stopped(self) -> int:
        return sum(1 for r in self.records if r.reason == "early-stop")

    @property
    def unfunded(self) -> int:
        return sum(1 for r in self.records if r.reason == "unfunded")

    @property
    def total_spend(self) -> float:
        """Net spend: what the campaign actually paid workers."""
        return float(sum(r.spent_cost for r in self.records))

    @property
    def total_refunded(self) -> float:
        return float(sum(r.refund for r in self.records))

    @property
    def throughput(self) -> float:
        """Completed tasks per wall-clock second (0 before any run)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.completed / self.wall_seconds

    @property
    def mean_predicted_jq(self) -> float | None:
        funded = [r.predicted_jq for r in self.records if r.reason != "unfunded"]
        if not funded:
            return None
        return float(np.mean(funded))

    @property
    def realized_accuracy(self) -> float | None:
        """Fraction correct among scored (truth-known, funded) tasks."""
        scored = [
            r.correct
            for r in self.records
            if r.correct is not None and r.reason != "unfunded"
        ]
        if not scored:
            return None
        return float(np.mean(scored))

    @property
    def mean_votes_per_task(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.votes_used for r in self.records]))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything the fingerprint covers plus the render-only
        snapshot fields (so a resumed *finished* campaign still renders
        its full report)."""
        return {"records": self.record_rows(), **self.aggregate_state()}

    def record_rows(self, since: int = 0) -> list[dict]:
        """State of the records after the first ``since`` (records only
        append, so a checkpoint journals this tail)."""
        return [r.state_dict() for r in self.records[since:]]

    def aggregate_state(self) -> dict:
        """:meth:`state_dict` without the records: the fixed-size part a
        checkpoint rewrites whole."""
        return {
            "submitted": self.submitted,
            "votes_cast": self.votes_cast,
            "votes_cancelled": self.votes_cancelled,
            "wall_seconds": self.wall_seconds,
            "peak_worker_load": self.peak_worker_load,
            "reestimations": self.reestimations,
            "quality_estimation_error": self.quality_estimation_error,
            "cache_stats": (
                None if self.cache_stats is None else asdict(self.cache_stats)
            ),
            "shard_snapshots": (
                None
                if self.shard_snapshots is None
                else [asdict(s) for s in self.shard_snapshots]
            ),
            "allocator_snapshot": (
                None
                if self.allocator_snapshot is None
                else asdict(self.allocator_snapshot)
            ),
            "intake_stats": self.intake_stats,
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "EngineMetrics":
        metrics = cls()
        for record in state["records"]:
            metrics.records.append(TaskRecord(**record))
        metrics.submitted = int(state["submitted"])
        metrics.votes_cast = int(state["votes_cast"])
        metrics.votes_cancelled = int(state["votes_cancelled"])
        metrics.wall_seconds = float(state["wall_seconds"])
        metrics.peak_worker_load = int(state["peak_worker_load"])
        metrics.reestimations = int(state["reestimations"])
        qerr = state["quality_estimation_error"]
        metrics.quality_estimation_error = None if qerr is None else float(qerr)
        if state["cache_stats"] is not None:
            metrics.cache_stats = _cache_stats(state["cache_stats"])
        if state["shard_snapshots"] is not None:
            metrics.shard_snapshots = tuple(
                ShardSnapshot(**{**s, "cache": _cache_stats(s["cache"])})
                for s in state["shard_snapshots"]
            )
        if state["allocator_snapshot"] is not None:
            metrics.allocator_snapshot = AllocatorSnapshot(
                **state["allocator_snapshot"]
            )
        metrics.intake_stats = state.get("intake_stats")
        return metrics

    # ------------------------------------------------------------------
    # Replay identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Deterministic digest of everything a replay must reproduce.

        Covers every task record (full float precision) and the
        campaign counters, and deliberately excludes wall-clock-derived
        values (``wall_seconds``, throughput) and the shard/allocator
        snapshots — so two runs of the same seeded campaign, or a
        resumed run vs. an uninterrupted one, compare byte-identical
        exactly when their *decisions* were identical.
        """
        lines = [
            f"{r.task_id}|{r.answer}|{r.confidence!r}|{r.predicted_jq!r}"
            f"|{r.reserved_cost!r}|{r.spent_cost!r}|{r.votes_used}"
            f"|{r.reason}|{r.correct}"
            for r in self.records
        ]
        lines.append(
            f"submitted={self.submitted}|votes={self.votes_cast}"
            f"|cancelled={self.votes_cancelled}"
            f"|peak={self.peak_worker_load}"
            f"|reestimations={self.reestimations}"
            f"|qerr={self.quality_estimation_error!r}"
        )
        if self.cache_stats is not None:
            lines.append(
                f"cache={self.cache_stats.hits}/{self.cache_stats.misses}"
                f"/{self.cache_stats.entries}"
            )
        digest = hashlib.sha256("\n".join(lines).encode("utf-8"))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def render(self, budget: float | None = None) -> str:
        def pct(x: float | None) -> str:
            return "n/a" if x is None else f"{x:.2%}"

        lines = [
            "Campaign engine report",
            "----------------------",
            f"tasks        : {self.completed}/{self.submitted} completed "
            f"({self.early_stopped} early-stopped, {self.unfunded} unfunded)",
            f"votes        : {self.votes_cast} cast, "
            f"{self.votes_cancelled} cancelled by early stop "
            f"({self.mean_votes_per_task:.2f}/task)",
            f"throughput   : {self.throughput:,.0f} tasks/s "
            f"({self.wall_seconds:.3f}s wall)",
            f"accuracy     : realized {pct(self.realized_accuracy)} "
            f"vs predicted JQ {pct(self.mean_predicted_jq)}",
        ]
        spend_line = (
            f"spend        : {self.total_spend:.4g} net "
            f"(refunded {self.total_refunded:.4g})"
        )
        if budget is not None:
            spend_line += f" / budget {budget:g}"
        lines.append(spend_line)
        lines.append(f"peak load    : {self.peak_worker_load} concurrent seats")
        if self.reestimations:
            err = self.quality_estimation_error
            err_txt = "n/a" if err is None else f"{err:.4f}"
            lines.append(
                f"re-estimation: {self.reestimations} passes, "
                f"mean |q_est - q_true| = {err_txt}"
            )
        if self.cache_stats is not None:
            lines.append(f"cache        : {self.cache_stats.render()}")
        if self.intake_stats and self.intake_stats.get("submitted"):
            stats = self.intake_stats
            lines.append(
                f"intake       : {stats['submitted']} submitted, "
                f"{stats.get('overflows', 0)} chunks refused"
            )
        if self.allocator_snapshot is not None:
            lines.append(f"sharding     : {self.allocator_snapshot.render()}")
        if self.shard_snapshots:
            for snapshot in self.shard_snapshots:
                lines.append(f"  {snapshot.render()}")
        return "\n".join(lines)
