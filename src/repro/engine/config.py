"""One configuration for a campaign's whole serving stack.

:class:`CampaignConfig` holds every engine, cache, routing, rebalancing,
serving and coordination knob in one frozen dataclass, validated in one
place.  Shard count is an ordinary field: ``num_shards=1`` serves
through the single :class:`~repro.engine.scheduler.CampaignScheduler`,
``>1`` through the :class:`~repro.engine.sharding.ShardedScheduler`
(the two are byte-identical at one shard, pinned by regression tests).

The config round-trips through :meth:`to_dict` / :meth:`from_dict`, so
state backends persist it alongside the campaign and
``Campaign.resume`` rebuilds the exact serving stack.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Mapping

from ..core.task import UNINFORMATIVE_PRIOR, validate_prior

#: Task-routing policies of the sharded scheduler.
ROUTING_POLICIES = ("hash", "least-loaded", "quality-balanced")

#: Fields of retired modes that checkpoints written before their removal
#: still carry.  Both modes were pinned fingerprint-neutral, so
#: :meth:`CampaignConfig.from_dict` drops them without changing any
#: decision.
_RETIRED_FIELDS = frozenset({"jq_kernel", "vote_fanout"})


@dataclass(frozen=True)
class CampaignConfig:
    """Tunables of one campaign, across every serving layer.

    Parameters
    ----------
    budget:
        Total campaign budget across all tasks.
    expected_tasks:
        Expected campaign size, for budget pacing.  ``None`` means "the
        tasks submitted before the campaign first runs".
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
        JQ bucket resolution for large juries.
    quantization:
        JQ-cache key grid: ``None`` = exact keys, an int = grid steps
        per unit, or ``"auto"`` (the default) to derive the grid from
        ``num_buckets`` via
        :func:`~repro.engine.cache.adaptive_quantization` (4 steps per
        log-odds bucket — 200 at the default 50-bucket resolution).
    cache_max_entries:
        LRU bound on each JQ cache (``None`` = unbounded).  Applies to
        the campaign cache, and per shard when sharded.
    frontier_pool_size:
        Per-batch candidate pool size (exact frontier; up to
        ``scheduler.MAX_FRONTIER_POOL`` — pools past ``ALL_SUBSETS_MAX``
        build through the streamed lattice sweep).
    reestimate_every:
        Re-fit worker qualities after every N completed tasks
        (0 disables).
    reestimate_method / reestimate_rate:
        Forwarded to :meth:`WorkerRegistry.reestimate`.
    checkpoint_every:
        Under the :class:`~repro.engine.campaign.Campaign` facade,
        checkpoint the campaign to its backend after every N completed
        tasks (0 disables) — bounds data loss on long runs without
        manual :meth:`~repro.engine.campaign.Campaign.checkpoint`
        calls.  Ignored by the bare engine (no backend to write to).
    vote_latency:
        Logical ticks between consecutive jurors' votes.
    ingestion:
        ``"sync"`` (default) is the classic pre-loaded event loop;
        ``"async"`` serves through a thread-safe
        :class:`~repro.engine.ingest.IntakeQueue`, so live traffic can
        stream in (``submit`` from any thread, bounded backpressure)
        while batches are being seated.  A campaign whose tasks are all
        submitted before ``run`` is fingerprint-byte-identical either
        way (pinned by the invariant harness).
    parallel_shards:
        Dispatch the sharded scheduler's per-shard admits to a thread
        pool of this many workers (0 = the sequential in-loop
        dispatch).  Decisions are byte-identical to sequential dispatch
        — shards only touch their own members and results merge in
        shard-id order — so the toggle is purely a throughput lever.
        Ignored at one shard.
    dispatch:
        ``"threads"`` (default) runs sharded per-shard admits inline or
        on the ``parallel_shards`` thread pool; ``"processes"`` routes
        them to a persistent
        :class:`~repro.engine.procpool.ShardProcessPool` — one sticky
        worker *process* per shard, breaking the GIL limit on the
        envelope-walking DP.  Decisions and fingerprints stay
        byte-identical (the parent replays worker decisions in shard-id
        order); env var ``REPRO_ENGINE_FORCE_DISPATCH`` overrides the
        setting under the Campaign facade.  Ignored at one shard.
    ingest_max_pending:
        Async backpressure bound: producers block once this many
        submitted tasks await intake draining.
    ingest_grace:
        Async coalescing deadline (seconds): how long an idle serving
        loop waits for straggler producers before finishing (or
        returning from a paused run).  ``"auto"`` derives the deadline
        from the engine's observed admit latency (EWMA) — slow admits
        earn producers a longer window — falling back to 50 ms until
        the first batch lands.
    ingest_producer_quota:
        Per-producer share of ``ingest_max_pending`` a single named
        producer may occupy (a fraction in ``(0, 1]``; 0 disables).
        Producers over their share block in ``submit`` until their own
        staged tasks drain — per-producer backpressure, so one runaway
        client cannot starve the rest of the intake queue.
    telemetry:
        ``"off"`` (default) serves with the no-op
        :data:`~repro.engine.telemetry.NULL_TELEMETRY`; ``"on"`` attaches
        a live :class:`~repro.engine.telemetry.Telemetry` hub (counters,
        histograms, event trace, profiling spans).  Telemetry only
        *observes* — decisions, RNG draws, and fingerprints are
        byte-identical either way (pinned by the telemetry suite).
    trace_path:
        Under the Campaign facade, write a Chrome trace-event JSON file
        here after every ``run()`` (requires ``telemetry="on"``; open it
        in Perfetto).  Ignored by the bare engine.
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
        Number of shards (>= 1; at most the pool size).  1 serves
        through the single scheduler.
    routing_policy:
        Task-routing policy: ``"hash"`` (stable id hash — sticky and
        stateless), ``"least-loaded"`` (lowest seat-utilisation shard),
        or ``"quality-balanced"`` (highest available quality mass per
        in-flight task).
    rebalance_threshold:
        Migrate idle workers when the gap between the most- and
        least-utilised shard's seat ratio exceeds this (``1.0``
        effectively disables rebalancing — the gap never exceeds 1).
    rebalance_max_moves:
        Max workers migrated per scheduling round (0 disables).
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
    quantization: int | str | None = "auto"
    cache_max_entries: int | None = None
    frontier_pool_size: int = 10
    reestimate_every: int = 0
    reestimate_method: str = "one-coin"
    reestimate_rate: float = 0.3
    checkpoint_every: int = 0
    vote_latency: float = 1.0
    ingestion: str = "sync"
    parallel_shards: int = 0
    dispatch: str = "threads"
    ingest_max_pending: int = 10_000
    ingest_grace: float | str = 0.05
    ingest_producer_quota: float = 0.0
    telemetry: str = "off"
    trace_path: str | None = None
    metrics_interval: float = 1.0
    vote_source: str = "simulated"
    seed: int | None = None
    # -- sharding / routing --------------------------------------------
    num_shards: int = 1
    routing_policy: str = "hash"
    rebalance_threshold: float = 0.25
    rebalance_max_moves: int = 2
    # -- network serving (repro serve / CampaignServer) ----------------
    serve_host: str = "127.0.0.1"
    serve_port: int = 8765
    # -- cross-process coordination (repro.engine.procpool) ------------
    coordinate_path: str | None = None
    lease_ttl: float = 30.0

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.reestimate_every < 0:
            raise ValueError("reestimate_every must be >= 0")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.vote_latency <= 0:
            raise ValueError("vote_latency must be positive")
        if self.ingestion not in ("sync", "async"):
            raise ValueError("ingestion must be 'sync' or 'async'")
        if self.parallel_shards < 0:
            raise ValueError("parallel_shards must be >= 0")
        if self.dispatch not in ("threads", "processes"):
            raise ValueError("dispatch must be 'threads' or 'processes'")
        if self.ingest_max_pending < 1:
            raise ValueError("ingest_max_pending must be >= 1")
        if self.ingest_grace != "auto":
            if isinstance(self.ingest_grace, str) or self.ingest_grace <= 0:
                raise ValueError(
                    "ingest_grace must be positive (seconds) or 'auto'"
                )
        if not 0.0 <= self.ingest_producer_quota <= 1.0:
            raise ValueError(
                "ingest_producer_quota must lie in [0, 1] (0 disables)"
            )
        if self.telemetry not in ("off", "on"):
            raise ValueError("telemetry must be 'off' or 'on'")
        if self.vote_source not in ("simulated", "external"):
            raise ValueError("vote_source must be 'simulated' or 'external'")
        if self.metrics_interval <= 0:
            raise ValueError("metrics_interval must be positive")
        if not 0.5 <= self.confidence_target <= 1.0:
            raise ValueError("confidence_target must lie in [0.5, 1]")
        if self.cache_max_entries is not None and self.cache_max_entries < 1:
            raise ValueError("cache_max_entries must be >= 1 (or None)")
        if self.quantization is not None and self.quantization != "auto":
            if not isinstance(self.quantization, int) or self.quantization < 1:
                raise ValueError(
                    "quantization must be >= 1 grid steps, 'auto', or None"
                )
        validate_prior(self.alpha)
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.routing_policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {self.routing_policy!r} "
                f"(expected one of {', '.join(ROUTING_POLICIES)})"
            )
        if not 0.0 < self.rebalance_threshold <= 1.0:
            raise ValueError("rebalance_threshold must lie in (0, 1]")
        if self.rebalance_max_moves < 0:
            raise ValueError("rebalance_max_moves must be >= 0")
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
        known = {f.name for f in fields(cls)}
        unknown = set(state) - known - _RETIRED_FIELDS
        if unknown:
            raise ValueError(
                f"unknown CampaignConfig fields {sorted(unknown)}"
            )
        return cls(**{k: v for k, v in state.items() if k in known})
