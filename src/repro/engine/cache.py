"""A memoized Jury Quality oracle shared across all selections.

Heavy traffic re-evaluates near-identical juries constantly: every
batch the scheduler admits rebuilds a frontier over (mostly) the same
available workers, and the annealer/exhaustive enumeration revisits
the same subsets thousands of times.  JQ depends only on the *multiset*
of member qualities (plus ``alpha`` and the bucket resolution), not on
worker identity or order, so one cache per shard keyed on the
canonically sorted quality vector collapses all of that repeated work.

Three key modes:

* ``quantization=None`` — keys are the exact sorted qualities.  A hit
  returns the **bitwise-identical** value the uncached objective would
  compute (the cache evaluates misses through a stock
  :class:`~repro.selection.base.JQObjective` on the same canonical
  ordering).
* ``quantization=k`` — qualities are snapped to a ``1/k`` grid *before*
  keying and evaluating.  Juries whose qualities differ by less than
  half a grid step share an entry, trading a bounded JQ perturbation
  (the bucket estimator itself discretizes log-odds far more coarsely
  at the default 50 buckets) for a much higher hit rate once
  re-estimation makes qualities drift continuously.
* ``quantization="auto"`` (the default) — the ``quantization=k`` grid
  with ``k`` derived from the bucket resolution by
  :func:`adaptive_quantization` (200 steps at the default 50 buckets).

perfbench's ``steady`` and ``churn`` workloads report the hit rate
under load (``cache.hit_ratio``, with ``--trace 1``).  The tier-1
engine tests pin it above 50% on a churning 60-worker pool, and grid
keys above exact keys under re-estimation.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.jury import Jury
from ..core.task import UNINFORMATIVE_PRIOR
from ..quality import (
    ALL_SUBSETS_MAX,
    DEFAULT_NUM_BUCKETS,
    all_subsets_jq_bv,
    estimate_jq_batch,
    exact_jq_bv_batch,
)
from ..selection.base import JQObjective

#: Key-grid steps per log-odds bucket used by :func:`adaptive_quantization`.
ADAPTIVE_STEPS_PER_BUCKET = 4


def adaptive_quantization(num_buckets: int) -> int:
    """Key-grid resolution derived from the bucket estimator's resolution.

    The bucket estimator discretizes the log-odds axis into
    ``num_buckets`` buckets, so JQ itself cannot distinguish juries
    whose qualities differ by much less than one bucket.  Keying the
    cache at :data:`ADAPTIVE_STEPS_PER_BUCKET` grid steps per bucket
    keeps the key-snapping perturbation well inside the estimator's own
    discretization while still merging re-estimation drift into shared
    entries.  At the paper's default resolution (50 buckets) this
    reproduces the historical fixed grid of 200.
    """
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")
    return ADAPTIVE_STEPS_PER_BUCKET * num_buckets


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time cache counters."""

    hits: int
    misses: int
    entries: int
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Pool counters from another cache (e.g. per-shard caches)."""
        return CacheStats(
            self.hits + other.hits,
            self.misses + other.misses,
            self.entries + other.entries,
            self.evictions + other.evictions,
        )

    def render(self) -> str:
        text = (
            f"JQ cache: {self.lookups} lookups, {self.hits} hits "
            f"({self.hit_rate:.1%}), {self.entries} entries"
        )
        if self.evictions:
            text += f", {self.evictions} evicted"
        return text

    def telemetry_gauges(self, **labels):
        """``(name, labels, value)`` gauge triples for a
        :meth:`~repro.engine.telemetry.Telemetry.add_collector`
        callable — the uniform shape the engine and sharded-scheduler
        collectors report cache health through."""
        yield "cache.hits", labels, float(self.hits)
        yield "cache.misses", labels, float(self.misses)
        yield "cache.entries", labels, float(self.entries)
        yield "cache.evictions", labels, float(self.evictions)
        yield "cache.hit_rate", labels, self.hit_rate


class JQCache:
    """Shared memoization of ``qualities -> JQ(BV, alpha)``.

    Parameters
    ----------
    alpha:
        The task prior baked into every cached evaluation.  Campaigns
        mixing priors need one cache per distinct alpha (the engine
        keys its cache on its configured alpha).
    num_buckets:
        Bucket resolution forwarded to the underlying objective.
    quantization:
        ``None`` for exact keys, the number of quality grid steps per
        unit (e.g. 200 snaps qualities to the nearest 0.005), or
        ``"auto"`` to derive the grid from ``num_buckets`` via
        :func:`adaptive_quantization`.
    exact_cutoff:
        Forwarded to :class:`JQObjective`: juries at or below this size
        are evaluated exactly, larger ones with the bucket estimator.
    max_entries:
        LRU bound on stored entries (``None`` = unbounded).  When the
        store is full the least-recently-*used* key is evicted; hits
        refresh recency.  Eviction only forgets memoized values — a
        re-miss recomputes the identical JQ — so bounding the cache
        never changes any returned value.
    """

    def __init__(
        self,
        alpha: float = UNINFORMATIVE_PRIOR,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
        quantization: int | str | None = None,
        exact_cutoff: int = 12,
        max_entries: int | None = None,
    ) -> None:
        if quantization == "auto":
            quantization = adaptive_quantization(num_buckets)
        if quantization is not None and (
            not isinstance(quantization, int) or quantization < 1
        ):
            raise ValueError(
                "quantization must be >= 1 grid steps, 'auto', or None"
            )
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self.alpha = float(alpha)
        self.num_buckets = num_buckets
        self.quantization = quantization
        self.max_entries = max_entries
        self._objective = JQObjective(
            alpha=alpha, num_buckets=num_buckets, exact_cutoff=exact_cutoff
        )
        self._store: dict[tuple[float, ...], float] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # A fresh token whenever the store changes other than by
        # appending (see journal_mark).
        self._generation = object()

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    def _snap(self, arr: np.ndarray) -> np.ndarray:
        """Element-wise key-grid snap — the one definition both the
        scalar keying and the batch replay must share, or kernel-path
        keys silently stop matching scalar keys."""
        if self.quantization is None:
            return arr
        return np.clip(
            np.round(arr * self.quantization) / self.quantization, 0.0, 1.0
        )

    def canonicalize(self, qualities: Sequence[float] | np.ndarray) -> tuple[float, ...]:
        """The cache key: sorted (and optionally grid-snapped) qualities."""
        arr = self._snap(np.asarray(qualities, dtype=float))
        return tuple(np.sort(arr).tolist())

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _lookup(self, key: tuple[float, ...], value_fn) -> float:
        """One store access: hit (with LRU recency refresh) or miss
        (compute via ``value_fn``, insert, evict at the bound).  Every
        lookup path funnels through here so the hit/miss/eviction
        sequence — which the metrics fingerprint covers — is identical
        whether values come from the scalar objective or a batched
        kernel."""
        cached = self._store.get(key)
        if cached is not None:
            self._hits += 1
            if self.max_entries is not None:
                # Refresh recency: dict order is the LRU order.
                del self._store[key]
                self._store[key] = cached
                self._generation = object()
            return cached
        self._misses += 1
        value = value_fn()
        self._store[key] = value
        if self.max_entries is not None and len(self._store) > self.max_entries:
            del self._store[next(iter(self._store))]
            self._evictions += 1
            self._generation = object()
        return value

    def jq(self, qualities: Sequence[float] | np.ndarray) -> float:
        """JQ of a quality multiset under BV at the cache's alpha."""
        key = self.canonicalize(qualities)
        return self._lookup(key, lambda: self._compute(key))

    def _compute(self, key: tuple[float, ...]) -> float:
        if len(key) == 0:
            return max(self.alpha, 1.0 - self.alpha)
        return self._objective(Jury(_quality_jury_workers(key)))

    def jq_jury(self, jury: Jury) -> float:
        return self.jq(jury.qualities)

    # ------------------------------------------------------------------
    # Batched lookup (kernel-computed misses, scalar-identical replay)
    # ------------------------------------------------------------------
    def jq_batch(self, rows: Sequence[Sequence[float]]) -> np.ndarray:
        """JQ of many quality multisets in one kernel sweep.

        Values for prospective misses are computed upfront through the
        batched kernels, then the store is *replayed* row by row in
        order — the same hits, misses, LRU refreshes and evictions as
        the equivalent sequence of :meth:`jq` calls, with bit-identical
        values (the kernels reproduce the scalar objective exactly).
        """
        keys = [self.canonicalize(row) for row in rows]
        computed = self._compute_missing(keys)
        out = np.empty(len(keys))
        for i, key in enumerate(keys):
            out[i] = self._lookup(key, lambda k=key: self._from_kernel(k, computed))
        return out

    def jq_all_subsets(self, qualities: Sequence[float] | np.ndarray) -> np.ndarray:
        """JQ of every subset of a candidate pool (indexed by bitmask).

        The subset values are computed in one shared-prefix lattice
        sweep (:func:`repro.quality.all_subsets_jq_bv` on the snapped,
        sorted pool), then replayed through the store in ascending-mask
        order — exactly the enumeration order
        :func:`repro.frontier.exact_frontier` uses, so the cache
        counters evolve identically to the scalar frontier build.
        Entry 0 (the empty jury) scores the prior's mode without
        touching the store, which no scalar caller queries either.
        """
        arr = self._snap(np.asarray(qualities, dtype=float))
        n = arr.size
        order = np.argsort(arr, kind="stable")
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        sorted_q = arr[order]
        # Python floats, as canonicalize() produces — numpy scalars in
        # keys would poison JSON-serialized checkpoints.
        sorted_list = sorted_q.tolist()
        kernel = all_subsets_jq_bv(
            sorted_q,
            alpha=self.alpha,
            exact_cutoff=self._objective.exact_cutoff,
            num_buckets=self.num_buckets,
        )
        out = np.empty(1 << n)
        out[0] = max(self.alpha, 1.0 - self.alpha)
        for mask in range(1, 1 << n):
            # Translate the pool-order mask into sorted-pool space: the
            # cache key is the subset's qualities ascending, which is
            # exactly the sorted-space members in index order.
            smask = 0
            remaining = mask
            while remaining:
                low = remaining & -remaining
                smask |= 1 << int(position[low.bit_length() - 1])
                remaining ^= low
            key = tuple(
                sorted_list[i] for i in range(n) if smask >> i & 1
            )
            value = float(kernel[smask])

            def compute(value=value):
                self._objective.evaluations += 1
                return value

            out[mask] = self._lookup(key, compute)
        return out

    def _compute_missing(
        self, keys: Sequence[tuple[float, ...]]
    ) -> dict[tuple[float, ...], float]:
        """Kernel-evaluate every distinct key not currently stored.

        A superset of the keys the replay will actually miss (duplicates
        hit after their first insertion) — computing them in one batch is
        the point, and values are deterministic so over-computing never
        changes an outcome.
        """
        missing = [
            key
            for key in dict.fromkeys(keys)
            if key not in self._store and len(key) > 0
        ]
        computed: dict[tuple[float, ...], float] = {}
        cutoff = self._objective.exact_cutoff
        exact = [k for k in missing if len(k) <= cutoff]
        bucket = [k for k in missing if len(k) > cutoff]
        if exact:
            values = exact_jq_bv_batch(
                [np.array(k) for k in exact], self.alpha
            )
            computed.update(zip(exact, (float(v) for v in values)))
        if bucket:
            values = estimate_jq_batch(
                [np.array(k) for k in bucket],
                alpha=self.alpha,
                num_buckets=self.num_buckets,
            )
            computed.update(zip(bucket, (float(v) for v in values)))
        return computed

    def _from_kernel(
        self,
        key: tuple[float, ...],
        computed: dict[tuple[float, ...], float],
    ) -> float:
        if len(key) == 0:
            return max(self.alpha, 1.0 - self.alpha)
        value = computed.get(key)
        if value is None:
            # The key was stored when the batch started, then evicted by
            # the replay itself before this row re-missed it: recompute
            # the (deterministic, hence identical) value scalar-side.
            return self._compute(key)
        self._objective.evaluations += 1
        return value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            self._hits, self._misses, len(self._store), self._evictions
        )

    @property
    def underlying_evaluations(self) -> int:
        """JQ computations actually performed (the misses' work)."""
        return self._objective.evaluations

    def clear(self) -> None:
        self._store.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._generation = object()
        self._objective.reset_counter()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @property
    def journal_mark(self) -> tuple[object, int]:
        """``(generation, entries)`` now; :meth:`state_dict` takes it
        back as ``since``.  The generation is a fresh token whenever the
        store changes other than by appending a miss (an LRU refresh,
        an eviction, :meth:`clear`, :meth:`load_state`), so the same
        token means the first ``entries`` entries are exactly the ones
        present at the mark."""
        return self._generation, len(self._store)

    def state_dict(self, since: tuple[object, int] | None = None) -> dict:
        """Cache state for checkpointing.

        Entries are listed in LRU order (the store's dict order), so a
        restored cache evicts in exactly the sequence the original
        would have — required for byte-identical resumed campaigns.
        With ``since`` (an earlier :attr:`journal_mark`), ``entries``
        holds only what was appended after the mark and ``base`` counts
        the entries before it; a store that changed otherwise since the
        mark lists every entry, with ``base`` 0.
        """
        base = 0
        if since is not None and since[0] is self._generation:
            base = since[1]
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "base": base,
            "entries": [
                [list(k), v]
                for k, v in itertools.islice(self._store.items(), base, None)
            ],
        }

    def load_state(self, state: Mapping) -> None:
        """Restore counters and entries captured by :meth:`state_dict`
        (a full one: ``base`` 0)."""
        self._store = {
            tuple(float(q) for q in key): float(value)
            for key, value in state["entries"]
        }
        self._hits = int(state["hits"])
        self._misses = int(state["misses"])
        self._evictions = int(state["evictions"])
        self._generation = object()

    def warm(self, entries) -> int:
        """Pre-populate from ``(qualities, value)`` pairs (e.g. a cache
        shipped from an earlier campaign).  Keys are re-canonicalized
        under *this* cache's grid; existing entries win, so warming
        never changes a value a lookup would already return.  Returns
        the number of entries added."""
        added = 0
        for qualities, value in entries:
            key = self.canonicalize(qualities)
            if key not in self._store:
                self._store[key] = float(value)
                added += 1
        if self.max_entries is not None:
            while len(self._store) > self.max_entries:
                del self._store[next(iter(self._store))]
                self._evictions += 1
                self._generation = object()
        return added

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JQCache(alpha={self.alpha}, {self.stats.render()})"


def save_cache_file(path, caches: Sequence[JQCache]) -> int:
    """Export the union of several caches' entries as a JSON warm file.

    All caches must share alpha/num_buckets/quantization (one campaign's
    per-shard caches do by construction).  Returns the
    number of exported entries.
    """
    if not caches:
        raise ValueError("need at least one cache to export")
    first = caches[0]
    for cache in caches[1:]:
        if (
            cache.alpha != first.alpha
            or cache.num_buckets != first.num_buckets
            or cache.quantization != first.quantization
        ):
            raise ValueError("caches to export must share their parameters")
    entries: dict[tuple[float, ...], float] = {}
    for cache in caches:
        for key, value in cache._store.items():
            entries.setdefault(key, value)
    payload = {
        "alpha": first.alpha,
        "num_buckets": first.num_buckets,
        "quantization": first.quantization,
        "entries": [[list(k), v] for k, v in entries.items()],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return len(entries)


def load_cache_file(path, caches: Sequence[JQCache]) -> int:
    """Warm caches from a JSON file written by :func:`save_cache_file`.

    The file's alpha and bucket resolution must match the target caches
    — a JQ value computed under a different prior is simply a different
    number.  Returns entries added to the *first* cache (all caches
    receive the same entries).
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    added = 0
    for i, cache in enumerate(caches):
        if (
            payload["alpha"] != cache.alpha
            or payload["num_buckets"] != cache.num_buckets
            or payload["quantization"] != cache.quantization
        ):
            raise ValueError(
                f"cache file {path!s} was built for alpha="
                f"{payload['alpha']}, num_buckets={payload['num_buckets']}, "
                f"quantization={payload['quantization']}; target cache has "
                f"alpha={cache.alpha}, num_buckets={cache.num_buckets}, "
                f"quantization={cache.quantization}"
            )
        count = cache.warm(payload["entries"])
        if i == 0:
            added = count
    return added


def _quality_jury_workers(qualities: tuple[float, ...]):
    """Anonymous single-use workers carrying a quality vector.

    The objective only reads ``jury.qualities``; ids exist solely to
    satisfy the distinctness invariant.
    """
    from ..core.worker import Worker

    return (Worker(f"q{i}", q) for i, q in enumerate(qualities))


class CachedJQObjective(JQObjective):
    """A drop-in :class:`JQObjective` that answers through a shared
    :class:`JQCache`.

    Anything that accepts a ``JQObjective`` — selectors, frontiers, the
    portfolio planner — can be pointed at a shard's cache by passing
    one of these instead.  ``evaluations`` still counts *calls* (so
    selector work accounting is unchanged); the cache's own stats
    report how many calls were served without recomputation.
    """

    def __init__(self, cache: JQCache) -> None:
        super().__init__(
            alpha=cache.alpha,
            num_buckets=cache.num_buckets,
            exact_cutoff=cache._objective.exact_cutoff,
        )
        self.cache = cache

    def __call__(self, jury: Jury) -> float:
        self.evaluations += 1
        return self.cache.jq(jury.qualities)

    def batch_qualities(self, rows) -> np.ndarray:
        """Batched evaluation *through the cache*: kernel-computed
        misses, with the store replayed row by row so hits/misses/LRU
        evolve exactly as the equivalent scalar call sequence."""
        self.evaluations += len(rows)
        return self.cache.jq_batch(rows)

    def all_subsets(self, qualities) -> np.ndarray | None:
        arr = np.asarray(qualities, dtype=float)
        if arr.size > ALL_SUBSETS_MAX:
            return None
        return self.cache.jq_all_subsets(arr)
