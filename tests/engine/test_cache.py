"""JQ cache: identity with the uncached objective, keying, stats."""

import numpy as np
import pytest

from repro.core import Jury, Worker
from repro.engine import (
    CachedJQObjective,
    JQCache,
    adaptive_quantization,
)
from repro.selection import JQObjective


def jury_of(qualities):
    return Jury(Worker(f"w{i}", q, 1.0) for i, q in enumerate(qualities))


class TestKeys:
    def test_bitwise_identical_to_uncached_objective(self):
        """The cache must return exactly the float the stock objective
        computes on the snapped qualities (same canonical evaluation
        order)."""
        cache = JQCache(alpha=0.3, num_buckets=50)
        uncached = JQObjective(alpha=0.3, num_buckets=50)
        rng = np.random.default_rng(42)
        for n in (1, 3, 5, 13, 17):  # spans exact and bucket paths
            qualities = rng.uniform(0.05, 0.98, size=n)
            snapped = np.sort(cache.snap(qualities))
            assert cache.jq(qualities) == uncached(jury_of(snapped))

    def test_hit_returns_same_float(self):
        cache = JQCache()
        q = [0.8, 0.7, 0.65]
        first = cache.jq(q)
        second = cache.jq(q)
        assert first == second
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_order_invariance_shares_one_entry(self):
        """JQ depends on the quality multiset, so permutations must hit
        the same entry (and agree to float tolerance with the uncached
        objective applied to any ordering)."""
        cache = JQCache()
        uncached = JQObjective()
        qualities = [0.9, 0.6, 0.75, 0.55]
        value = cache.jq(qualities)
        permuted = cache.jq(list(reversed(qualities)))
        assert value == permuted
        assert cache.stats.entries == 1
        assert value == pytest.approx(uncached(jury_of(qualities)), abs=1e-12)

    def test_empty_jury_scores_prior_mode(self):
        cache = JQCache(alpha=0.8)
        assert cache.jq([]) == 0.8

    def test_nearby_qualities_share_an_entry(self):
        cache = JQCache()  # 0.005 grid at 50 buckets
        a = cache.jq([0.7001, 0.8002])
        b = cache.jq([0.6999, 0.7998])
        assert a == b
        assert cache.stats.entries == 1
        assert cache.stats.hits == 1

    def test_value_matches_objective_on_snapped_qualities(self):
        cache = JQCache()
        uncached = JQObjective()
        value = cache.jq([0.7002, 0.8004])
        assert value == uncached(jury_of([0.70, 0.80]))

    def test_distant_qualities_do_not_collide(self):
        cache = JQCache()
        cache.jq([0.7])
        cache.jq([0.75])
        assert cache.stats.entries == 2


class TestAdaptiveQuantization:
    def test_derived_from_bucket_resolution(self):
        assert adaptive_quantization(50) == 200
        assert adaptive_quantization(100) == 400
        assert adaptive_quantization(25) == 100
        with pytest.raises(ValueError):
            adaptive_quantization(0)

    def test_snap_is_the_historical_round_grid(self):
        """At the paper's 50-bucket default the grid is the old fixed
        200, and snapping equals ``round(q * 200) / 200`` — the
        expression frontier-memo keys were built with — ties
        included."""
        cache = JQCache()
        assert cache.grid == 200
        rng = np.random.default_rng(11)
        ties = (np.arange(400) + 0.5) / 400
        for qualities in (rng.uniform(0.0, 1.0, size=5000), ties):
            assert cache.snap(qualities) == [
                round(q * 200) / 200 for q in qualities.tolist()
            ]

    def test_grid_tracks_num_buckets(self):
        coarse = JQCache(num_buckets=10)
        assert coarse.grid == adaptive_quantization(10) == 40
        # A coarser estimator gets a coarser key grid: qualities one
        # fine-grid step apart now share an entry.
        coarse.jq([0.701])
        coarse.jq([0.699])
        assert coarse.stats.entries == 1


class TestCachePersistence:
    def test_state_round_trip_preserves_values_counters_and_order(self):
        cache = JQCache()
        for q in ([0.6], [0.7], [0.8], [0.6]):
            cache.jq(q)
        restored = JQCache()
        restored.load_state(cache.state_dict())
        assert restored.stats == cache.stats
        assert restored.state_dict() == cache.state_dict()
        restored.jq([0.9])
        cache.jq([0.9])
        assert cache.stats == restored.stats
        assert cache.jq([0.6]) == restored.jq([0.6])

    def test_state_since_a_mark_lists_only_appended_entries(self):
        cache = JQCache()
        cache.jq([0.6])
        cache.jq([0.7])
        mark = cache.journal_mark
        assert mark == 2
        cache.jq([0.6])  # a hit appends nothing
        cache.jq([0.8])
        tail = cache.state_dict(since=mark)
        assert tail["base"] == 2
        assert tail["entries"] == [[[0.8], cache.jq([0.8])]]
        assert "evictions" not in tail

    def test_load_ignores_an_older_evictions_counter(self):
        cache = JQCache()
        cache.jq([0.6])
        state = {**cache.state_dict(), "evictions": 0}
        restored = JQCache()
        restored.load_state(state)
        assert restored.stats == cache.stats


class TestCachedObjective:
    def test_drop_in_for_jq_objective(self):
        """Selectors and frontiers accept the cached objective and get
        the same answers."""
        from repro.frontier import exact_frontier
        from repro.core import WorkerPool

        pool = WorkerPool(
            [Worker("a", 0.8, 2.0), Worker("b", 0.7, 1.0), Worker("c", 0.6, 0.5)]
        )
        cache = JQCache()
        cached = exact_frontier(pool, CachedJQObjective(cache))
        plain = exact_frontier(pool, JQObjective())
        assert [(p.cost, p.jq) for p in cached.points] == [
            (p.cost, p.jq) for p in plain.points
        ]
        assert cache.stats.lookups == 7  # 2^3 - 1 juries

    def test_evaluations_counter_still_counts_calls(self):
        cache = JQCache()
        objective = CachedJQObjective(cache)
        jury = jury_of([0.7, 0.8])
        objective(jury)
        objective(jury)
        assert objective.evaluations == 2
        assert cache.stats.hits == 1

class TestCacheStats:
    def test_unbounded(self):
        """Every distinct key stays: the memo never drops an entry."""
        cache = JQCache()
        for i in range(1, 201):
            cache.jq([i / 200, (i % 7) / 7])
        for i in range(1, 201):
            cache.jq([i / 200, (i % 7) / 7])
        assert cache.stats.entries == len(cache) == 200
        assert cache.stats.hits == 200

    def test_cache_stats_merge_pools_counters(self):
        a = JQCache()
        a.jq([0.6]); a.jq([0.7]); a.jq([0.7])
        b = JQCache()
        b.jq([0.8])
        merged = a.stats.merge(b.stats)
        assert merged.lookups == 4
        assert merged.hits == 1
        assert merged.entries == 3
        assert merged.render() == (
            "JQ cache: 4 lookups, 1 hits (25.0%), 3 entries"
        )
