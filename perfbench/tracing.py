"""Outside-in layer tracing: wrap the engine's public calls, keep spans.

The traced run attributes wall time to the engine's layers without
touching the engine: before a campaign opens, :class:`Tracer.install`
replaces each layer's entry point with a wrapper that records a span
``(id, layer, start, end, parent, thread)``, and :meth:`Tracer.uninstall`
puts the originals back.  Untraced runs never call ``install``.

Two rules decide what a wrapper can see:

- a module-level function is patched where it is *called*
  (``repro.engine.scheduler.allocate_budget``), because the caller
  looked the name up in its own module at import time;
- ``Campaign.open`` binds ``campaign.checkpoint`` as the auto-checkpoint
  hook, so wrappers go in before the campaign opens.

A span's parent is the innermost open span on the same thread, so a
layer's *self* time is its duration minus the time of the spans it
directly contains.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .stats import percentile


@dataclass(frozen=True)
class Target:
    """One patched entry point: ``owner`` is a dotted path inside
    ``module`` (``"Campaign.run"`` for a method, ``"allocate_budget"``
    for a module-level function)."""

    layer: str
    module: str
    owner: str
    #: Optional ``args -> float`` summed into the layer's work counter.
    work: Callable | None = None


def _first_len(args, kwargs) -> float:
    return float(len(args[0]))


#: Every layer the benchmark attributes time to, outermost first.
TARGETS = (
    Target("engine.run", "repro.engine.campaign", "Campaign.run"),
    Target("engine.run", "repro.engine.campaign", "Campaign.serve"),
    Target("sharding.admit", "repro.engine.sharding", "ShardedScheduler.admit"),
    Target("scheduler.admit", "repro.engine.scheduler", "CampaignScheduler.admit"),
    Target(
        "scheduler.candidate_pool",
        "repro.engine.scheduler",
        "CampaignScheduler._candidate_pool",
    ),
    Target("frontier.build", "repro.engine.scheduler", "exact_frontier"),
    Target(
        "portfolio.allocate",
        "repro.engine.scheduler",
        "allocate_budget",
        work=_first_len,
    ),
    Target("scheduler.substitute", "repro.engine.scheduler", "SubstituteIndex.best"),
    Target("online.posterior", "repro.online", "posterior_zero"),
    Target("state.reestimate", "repro.engine.state", "WorkerRegistry.reestimate"),
    Target("estimation.em", "repro.engine.state", "one_coin_em", work=_first_len),
    Target("checkpoint", "repro.engine.campaign", "Campaign.checkpoint"),
    Target("backends.save", "repro.engine.backends", "SQLiteBackend.save"),
    Target("backends.save", "repro.engine.backends", "MemoryBackend.save"),
    Target("engine.deliver_vote", "repro.engine.engine", "CampaignEngine.deliver_vote"),
    Target("server.apply_vote", "repro.engine.server", "CampaignServer.apply_vote"),
    Target("server.submit_tasks", "repro.engine.server", "CampaignServer.submit_tasks"),
    Target("ingest.submit", "repro.engine.ingest", "AsyncIngestLoop.submit"),
    Target("telemetry.render", "repro.engine.telemetry", "Telemetry.render_prometheus"),
)

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))

#: Spans kept in memory; later spans only feed the per-layer totals.
MAX_SPANS = 400_000


def resolve(target: Target):
    """``(owner object, attribute name)`` of a target."""
    obj = importlib.import_module(target.module)
    *path, attr = target.owner.split(".")
    for name in path:
        obj = getattr(obj, name)
    return obj, attr


@dataclass
class LayerTotals:
    """Aggregates of one layer's spans."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0


class Tracer:
    """Records spans around the :data:`TARGETS` while installed.

    Spans stay in memory (one short list each) until :meth:`write`;
    past :data:`MAX_SPANS` new spans still feed the per-layer totals but
    are not kept, and :attr:`dropped` counts them.
    """

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.dropped = 0
        self.totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self._local = threading.local()
        self._ids = itertools.count()
        self._mutex = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching
    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            owner, attr = resolve(target)
            # Read the raw attribute so restoring puts back exactly the
            # object that was there (a plain function, not a bound one).
            original = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(target, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _wrap(self, target: Target, fn):
        layer = target.layer
        work = target.work
        local = self._local
        ids = self._ids
        finish = self._finish

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            # [id, layer, start, end, parent id, child seconds, thread]
            span = [
                next(ids),
                layer,
                0.0,
                0.0,
                -1 if parent is None else parent[0],
                0.0,
                threading.get_ident(),
            ]
            amount = 0.0 if work is None else work(args, kwargs)
            stack.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[5] += end - span[2]
                finish(span, amount)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__qualname__ = getattr(fn, "__qualname__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _finish(self, span: list, amount: float) -> None:
        duration = span[3] - span[2]
        with self._mutex:
            totals = self.totals[span[1]]
            totals.calls += 1
            totals.busy_s += duration
            totals.self_s += duration - span[5]
            totals.work += amount
            self.durations[span[1]].append(duration)
            if len(self.spans) < MAX_SPANS:
                self.spans.append(span)
            else:
                self.dropped += 1

    # ------------------------------------------------------------- reports
    def layer(self, name: str) -> LayerTotals:
        return self.totals.get(name, LayerTotals())

    def p99_ms(self, name: str) -> float:
        durations = self.durations.get(name)
        if not durations:
            return 0.0
        return 1000.0 * percentile(durations, 99.0)

    def write(self, path: Path) -> None:
        """Dump the kept spans as JSON (``columns`` names each field)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "columns": ["id", "layer", "start", "end", "parent", "thread"],
            "dropped": self.dropped,
            "spans": [
                [s[0], s[1], s[2], s[3], s[4], s[6]] for s in self.spans
            ],
        }
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)
