"""One configuration for a campaign's whole serving stack.

:class:`CampaignConfig` holds every engine, cache, sharding, serving
and coordination knob in one frozen dataclass, validated in one
place.  Shard count is an ordinary field: every campaign serves
through a :class:`~repro.engine.sharding.ShardedScheduler` of
``num_shards`` shards (one by default) under its one budget allocator.

There is no intake mode: every campaign has one intake, and
:meth:`~repro.engine.campaign.Campaign.serve` is its one concurrent
loop.  ``ingestion`` survives only as a retired init-only argument.

The config round-trips through :meth:`to_dict` / :meth:`from_dict`, so
state backends persist it alongside the campaign and
``Campaign.resume`` rebuilds the exact serving stack.  Checkpoints
written before a field was retired still resume: ``from_dict`` drops
the retired fields that never shaped a decision and holds each
decision-affecting one to the constant that replaced it.
"""

from __future__ import annotations

from dataclasses import InitVar, asdict, dataclass, fields
from typing import Mapping

from ..core.task import UNINFORMATIVE_PRIOR, validate_prior

#: Retired fields that checkpoints written before their removal still
#: carry and that never shaped a decision (the retired modes were pinned
#: fingerprint-neutral; the intake grace, the per-producer intake quota
#: and ``trace_path`` only shaped wall-clock waiting, blocking and
#: output).  :meth:`CampaignConfig.from_dict` drops them whatever their
#: value.
_RETIRED_FIELDS = frozenset(
    {
        "jq_kernel",
        "vote_fanout",
        "parallel_shards",
        "dispatch",
        "ingestion",
        "ingest_grace",
        "ingest_producer_quota",
        "trace_path",
    }
)


def _retired_constants() -> dict:
    """Retired decision-affecting fields and the constant each became.
    A checkpoint may carry one only at that value: any other value made
    decisions a resumed campaign cannot replay.  The JQ cache's key grid
    (``quantization``) is always derived from ``num_buckets`` and the
    cache is never bounded (``cache_max_entries``): both shaped the
    cache counters the metrics fingerprint covers."""
    from .engine import VOTE_LATENCY
    from .sharding import REBALANCE_MAX_MOVES, REBALANCE_THRESHOLD
    from .state import REESTIMATE_RATE

    return {
        "routing_policy": "hash",
        "reestimate_method": "one-coin",
        "reestimate_rate": REESTIMATE_RATE,
        "vote_latency": VOTE_LATENCY,
        "rebalance_threshold": REBALANCE_THRESHOLD,
        "rebalance_max_moves": REBALANCE_MAX_MOVES,
        "quantization": "auto",
        "cache_max_entries": None,
    }


@dataclass(frozen=True)
class CampaignConfig:
    """Tunables of one campaign, across every serving layer.

    Parameters
    ----------
    budget:
        Total campaign budget across all tasks.
    expected_tasks:
        Expected campaign size, for budget pacing.  ``None`` means "the
        tasks submitted before the campaign first runs", so a campaign
        that starts serving before any task arrives must set it
        (:meth:`~repro.engine.campaign.Campaign.serve` refuses to start
        otherwise).
    capacity:
        Max concurrent jury seats per worker.
    batch_size:
        Arrivals buffered before the scheduler runs.
    alpha:
        Selection prior ``Pr(t = 0)`` used by the JQ cache and
        scheduler.  Per-task priors (``EngineTask.prior``) govern the
        *aggregation* posterior of each task.
    confidence_target:
        Early-stop threshold for the per-task online session.
    num_buckets:
        JQ bucket resolution for large juries.  It also fixes the
        JQ-cache key grid (:func:`~repro.engine.cache.adaptive_quantization`:
        4 steps per log-odds bucket, 200 at the default 50 buckets).
    frontier_pool_size:
        Per-batch candidate pool size (exact frontier; up to
        ``scheduler.MAX_FRONTIER_POOL`` — pools past ``ALL_SUBSETS_MAX``
        build through the streamed lattice sweep).
    reestimate_every:
        Re-fit worker qualities after every N completed tasks
        (0 disables).
    checkpoint_every:
        Under the :class:`~repro.engine.campaign.Campaign` facade,
        checkpoint the campaign to its backend after every N completed
        tasks (0 disables) — bounds data loss on long runs without
        manual :meth:`~repro.engine.campaign.Campaign.checkpoint`
        calls.  Ignored by the bare engine (no backend to write to).
    ingestion / parallel_shards / dispatch:
        Retired init-only arguments, not stored.  Every campaign has
        one intake and shard admits always run in-loop, so only
        ``"sync"`` or ``"async"`` / ``0`` / ``"threads"`` are accepted.
    ingest_max_pending:
        Intake backpressure bound: while
        :meth:`~repro.engine.campaign.Campaign.serve` runs, a submit
        that would push the arrivals not yet dispatched past it is
        refused whole (``POST /tasks`` answers 503).  Submits outside
        ``serve()`` are not bounded.
    telemetry:
        ``"off"`` (default) serves with the no-op
        :data:`~repro.engine.telemetry.NULL_TELEMETRY`; ``"on"`` attaches
        a live :class:`~repro.engine.telemetry.Telemetry` hub (counters,
        histograms, event trace, profiling spans).  Telemetry only
        *observes* — decisions, RNG draws, and fingerprints are
        byte-identical either way (pinned by the telemetry suite).
    metrics_interval:
        Width (seconds) of the windowed intake/throughput rate buckets
        in the telemetry snapshot.
    vote_source:
        ``"simulated"`` (default) draws every vote from the engine's
        seeded RNG against each worker's true quality — the closed-loop
        simulation mode.  ``"external"`` publishes seated juries as
        open *offers* on an :class:`~repro.engine.ingest.AssignmentBook`
        and applies only votes delivered explicitly through
        :meth:`~repro.engine.engine.CampaignEngine.deliver_vote` — the
        mode behind the HTTP serving layer, where a real crowd is on
        the other end.  The latent-truth draw for unlabeled tasks is
        identical in both modes, so accuracy scoring works the same way.
    seed:
        Seed for the engine's single random generator (vote simulation
        and latent-truth draws).
    num_shards:
        Number of shards (>= 1; at most the pool size).  Tasks route to
        shards by a stable hash of their id.
    serve_host / serve_port:
        Bind address of ``repro serve`` /
        :class:`~repro.engine.server.CampaignServer`.
    coordinate_path:
        A shared SQLite file through which N engine processes lease
        worker seats (``None`` = this engine owns its pool outright).
        Keep it separate from any per-engine checkpoint path:
        checkpoints replace whole tables and must not clobber shared
        leases.
    lease_ttl:
        Seat-lease lifetime in seconds under ``coordinate_path``.
    """

    budget: float
    expected_tasks: int | None = None
    capacity: int = 4
    batch_size: int = 25
    alpha: float = UNINFORMATIVE_PRIOR
    confidence_target: float = 0.97
    num_buckets: int = 50
    frontier_pool_size: int = 10
    reestimate_every: int = 0
    checkpoint_every: int = 0
    ingestion: InitVar[str] = "sync"
    parallel_shards: InitVar[int] = 0
    dispatch: InitVar[str] = "threads"
    ingest_max_pending: int = 10_000
    telemetry: str = "off"
    metrics_interval: float = 1.0
    vote_source: str = "simulated"
    seed: int | None = None
    # -- sharding ------------------------------------------------------
    num_shards: int = 1
    # -- network serving (repro serve / CampaignServer) ----------------
    serve_host: str = "127.0.0.1"
    serve_port: int = 8765
    # -- cross-process coordination (repro.engine.leases) --------------
    coordinate_path: str | None = None
    lease_ttl: float = 30.0

    def __post_init__(
        self, ingestion: str, parallel_shards: int, dispatch: str
    ) -> None:
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.reestimate_every < 0:
            raise ValueError("reestimate_every must be >= 0")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if ingestion not in ("sync", "async"):
            raise ValueError(
                "ingestion is retired: every campaign has one intake "
                "(only ingestion='sync' or 'async' is accepted)"
            )
        if parallel_shards != 0 or dispatch != "threads":
            raise ValueError(
                "parallel_shards and dispatch are retired: shard admits "
                "now always run in-loop (only parallel_shards=0, "
                "dispatch='threads' are accepted)"
            )
        if self.ingest_max_pending < 1:
            raise ValueError("ingest_max_pending must be >= 1")
        if self.telemetry not in ("off", "on"):
            raise ValueError("telemetry must be 'off' or 'on'")
        if self.vote_source not in ("simulated", "external"):
            raise ValueError("vote_source must be 'simulated' or 'external'")
        if self.metrics_interval <= 0:
            raise ValueError("metrics_interval must be positive")
        if not 0.5 <= self.confidence_target <= 1.0:
            raise ValueError("confidence_target must lie in [0.5, 1]")
        validate_prior(self.alpha)
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not 0 <= self.serve_port <= 65535:
            raise ValueError("serve_port must lie in [0, 65535]")
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, state: Mapping) -> "CampaignConfig":
        """Rebuild a stored config.  Retired fields that never shaped a
        decision are dropped; a retired decision-affecting field must
        hold the constant that replaced it, or this raises
        :class:`ValueError` naming the field."""
        state = dict(state)
        for name, constant in _retired_constants().items():
            value = state.pop(name, constant)
            if value != constant:
                raise ValueError(
                    f"stored {name}={value!r} is retired; only "
                    f"{name}={constant!r} can be resumed"
                )
        known = {f.name for f in fields(cls)}
        unknown = set(state) - known - _RETIRED_FIELDS
        if unknown:
            raise ValueError(
                f"unknown CampaignConfig fields {sorted(unknown)}"
            )
        return cls(**{k: v for k, v in state.items() if k in known})
