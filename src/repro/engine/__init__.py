"""Campaign engine: event-driven, capacity-aware jury-selection serving.

The paper answers "which jury for *one* task with a known pool"; this
package answers "which juries for a *stream* of tasks sharing one pool,
one budget, and finite worker attention".  See the module docstrings:

``events``
    The deterministic event algebra and queue.
``state``
    :class:`WorkerRegistry` — capacity, load, spend, vote history, and
    EM-backed quality drift.
``cache``
    :class:`JQCache` / :class:`CachedJQObjective` — campaign-wide JQ
    memoization.
``scheduler``
    :class:`CampaignScheduler` — batch admission, budget pacing,
    capacity-aware seating over the portfolio/frontier machinery.
``sharding``
    :class:`ShardedScheduler` / :class:`BudgetAllocator` — K shard
    schedulers (each inside the exact-frontier cap) under one
    quality-mass-proportional budget allocator, with task routing and
    idle-worker rebalancing (``CampaignConfig(num_shards=K)``).
``engine``
    :class:`CampaignEngine` — the event loop, over either scheduler.
``ingest``
    :class:`IntakeQueue` / :class:`AsyncIngestLoop` /
    :class:`InterleavingSchedule` — thread-safe live intake with
    bounded backpressure, the drain-before-step async serving loop,
    and seeded replayable interleavings
    (``CampaignConfig(ingestion="async")``).
``metrics``
    :class:`EngineMetrics` — throughput, realized-vs-predicted
    accuracy, spend, cache stats, per-shard/allocator snapshots.
``procpool``
    :class:`ShardProcessPool` / :class:`LeaseCoordinator` — multi-process
    campaign pools: shard admit rounds shipped to persistent worker
    processes (``CampaignConfig(dispatch="processes")``,
    byte-identical to threads), and cross-process seat leases over a
    shared SQLite file so N serving engines share one worker pool
    without double-seating (``coordinate_path=...``).
``server``
    :class:`CampaignServer` — the HTTP serving layer: task intake,
    vote-offer assignments, synchronous vote delivery, status/metrics
    endpoints, and admin checkpoint/close over a live campaign in
    serve-forever daemon mode (``repro serve``).
``telemetry``
    :class:`Telemetry` / :data:`NULL_TELEMETRY` — thread-safe metrics
    registry (counters, gauges, latency histograms), bounded structured
    event trace with profiling spans, windowed intake/throughput rates,
    and JSON / Prometheus / Chrome-trace exports
    (``CampaignConfig(telemetry="on")``).
``campaign`` / ``config`` / ``backends``
    :class:`Campaign` — the public serving facade: explicit lifecycle
    (``open`` / ``submit`` / ``run(until=...)`` / ``checkpoint`` /
    ``resume`` / ``close``) over one unified :class:`CampaignConfig`,
    with pluggable persistent state (:class:`StateBackend` —
    :class:`MemoryBackend`, :class:`SQLiteBackend`).
"""

from .backends import (
    BackendError,
    MemoryBackend,
    SQLiteBackend,
    StaleEpochError,
    StateBackend,
)
from .cache import (
    CachedJQObjective,
    CacheStats,
    JQCache,
    adaptive_quantization,
    load_cache_file,
    save_cache_file,
)
from .campaign import Campaign
from .config import ROUTING_POLICIES, CampaignConfig
from .engine import CampaignEngine
from .events import (
    EngineTask,
    Event,
    EventQueue,
    TaskArrival,
    TaskComplete,
    VoteArrival,
)
from .ingest import (
    AssignmentBook,
    AsyncIngestLoop,
    IngestionClosed,
    IngestionError,
    IngestionOverflow,
    IngestStats,
    IntakeQueue,
    InterleavingSchedule,
    NoOpenOffer,
)
from .procpool import (
    AdmitResult,
    LeaseCoordinator,
    ProcPoolError,
    ShardProcessPool,
    ShardWorkState,
)
from .metrics import (
    AllocatorSnapshot,
    EngineMetrics,
    ShardSnapshot,
    TaskRecord,
)
from .server import (
    CampaignServer,
    LoopMailbox,
    ServerError,
)
from .scheduler import (
    Assignment,
    CampaignScheduler,
    SchedulerStats,
    SubstituteIndex,
    linear_best_substitute,
)
from .sharding import (
    BudgetAllocator,
    Shard,
    ShardedScheduler,
    ShardRegistryView,
    partition_members,
)
from .state import (
    CapacityError,
    WorkerRegistry,
    WorkerState,
    informativeness,
    quality_mass,
)
from .telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    SpanRecord,
    Telemetry,
    TraceEvent,
)

__all__ = [
    "AdmitResult",
    "AllocatorSnapshot",
    "Assignment",
    "AssignmentBook",
    "AsyncIngestLoop",
    "BackendError",
    "BudgetAllocator",
    "CachedJQObjective",
    "CacheStats",
    "Campaign",
    "CampaignConfig",
    "CampaignEngine",
    "CampaignScheduler",
    "CampaignServer",
    "CapacityError",
    "EngineMetrics",
    "EngineTask",
    "Event",
    "EventQueue",
    "IngestStats",
    "IngestionClosed",
    "IngestionError",
    "IngestionOverflow",
    "IntakeQueue",
    "InterleavingSchedule",
    "LeaseCoordinator",
    "LoopMailbox",
    "MemoryBackend",
    "NULL_TELEMETRY",
    "NoOpenOffer",
    "NullTelemetry",
    "ProcPoolError",
    "ROUTING_POLICIES",
    "SQLiteBackend",
    "SchedulerStats",
    "ServerError",
    "Shard",
    "ShardProcessPool",
    "ShardRegistryView",
    "ShardWorkState",
    "SpanRecord",
    "ShardSnapshot",
    "ShardedScheduler",
    "StaleEpochError",
    "StateBackend",
    "SubstituteIndex",
    "TaskArrival",
    "TaskComplete",
    "TaskRecord",
    "Telemetry",
    "TraceEvent",
    "VoteArrival",
    "WorkerRegistry",
    "WorkerState",
    "adaptive_quantization",
    "informativeness",
    "linear_best_substitute",
    "load_cache_file",
    "partition_members",
    "quality_mass",
    "save_cache_file",
]
