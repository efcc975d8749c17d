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
    :class:`JQCache` / :class:`CachedJQObjective` — per-shard JQ
    memoization.
``scheduler``
    :class:`CampaignScheduler` — one shard's batch admission inside its
    budget grant: capacity-aware seating over the portfolio/frontier
    machinery.
``sharding``
    :class:`ShardedScheduler` / :class:`BudgetAllocator` — K >= 1 shard
    schedulers (each inside the exact-frontier cap) under the one
    quality-mass-proportional budget allocator that paces the campaign,
    with hash task routing and idle-worker rebalancing
    (``CampaignConfig(num_shards=K)``).
``engine``
    :class:`CampaignEngine` — the event loop and the one owner of its
    state: one stepping primitive (``advance``) and its snapshot layout.
``ingest``
    :class:`AsyncIngestLoop` — every campaign's one intake: one submit
    route straight into the event queue, bounded while serving, and the
    ``serve()`` loop, the only concurrent one, an ``asyncio`` coroutine
    the HTTP layer shares its thread with.
``metrics``
    :class:`EngineMetrics` — throughput, realized-vs-predicted
    accuracy, spend, cache stats, per-shard/allocator snapshots.
``leases``
    :class:`LeaseCoordinator` — cross-process seat leases in a
    shared SQLite file (the module owns its tables), so N serving
    engines share one worker pool without double-seating
    (``coordinate_path=...``).
``server``
    :class:`CampaignServer` — the HTTP serving layer, answered on the
    serve loop's own thread: task intake, vote-offer assignments, vote
    delivery, status/metrics endpoints, and admin checkpoint/close over
    a live campaign in serve-forever daemon mode (``repro serve``).
``telemetry``
    :class:`Telemetry` / :data:`NULL_TELEMETRY` — metrics registry
    (counters, gauges, latency histograms), bounded structured event
    trace with profiling spans, windowed intake/throughput rates, and
    JSON / Prometheus / Chrome-trace exports
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
    StateBackend,
)
from .cache import (
    CachedJQObjective,
    CacheStats,
    JQCache,
    adaptive_quantization,
)
from .campaign import Campaign
from .config import CampaignConfig
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
    NoOpenOffer,
)
from .leases import LeaseCoordinator, StaleEpochError
from .metrics import (
    AllocatorSnapshot,
    EngineMetrics,
    ShardSnapshot,
    TaskRecord,
)
from .server import CampaignServer
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
    "LeaseCoordinator",
    "MemoryBackend",
    "NULL_TELEMETRY",
    "NoOpenOffer",
    "NullTelemetry",
    "SQLiteBackend",
    "SchedulerStats",
    "Shard",
    "ShardRegistryView",
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
    "partition_members",
    "quality_mass",
]
