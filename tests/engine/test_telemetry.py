"""Telemetry subsystem: hub semantics, observation-only discipline,
persistence, intake accounting, exports, CLI surface.

The load-bearing law is *observation only*: enabling telemetry must not
change a single campaign decision.  The parity matrix pins
:meth:`EngineMetrics.fingerprint` byte-identical with telemetry on vs
off across seeds x shard counts; everything else
here checks that what the hub records is internally consistent
(histogram bucket conservation, ring bounds, resume-monotonic clocks)
and reaches every export surface (JSON snapshot, Prometheus text,
Chrome trace, ``repro trace summarize``).
"""

import importlib.util
import json
import re
import shutil
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.engine import (
    NULL_TELEMETRY,
    Campaign,
    CampaignConfig,
    EngineTask,
    IngestionOverflow,
    IngestStats,
    MemoryBackend,
    NullTelemetry,
    SQLiteBackend,
    Telemetry,
)
from repro.engine.campaign import FORCE_TELEMETRY_ENV
from repro.engine.telemetry import DEFAULT_LATENCY_BUCKETS, _Histogram
from repro.simulation import SyntheticPoolConfig, generate_pool

SEEDS = (3, 11, 2015)

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
BENCHMARKS = HERE.parents[1] / "benchmarks"

#: The counters the hub pulls from the engine's own tallies
#: (``EngineMetrics`` and each shard's ``SchedulerStats``).
PULLED = (
    "engine.tasks_submitted",
    "engine.votes_cast",
    "engine.votes_cancelled",
    "engine.tasks_completed",
    "scheduler.admitted",
    "scheduler.unfunded",
    "scheduler.deferred",
)


@pytest.fixture(autouse=True)
def _unforced_telemetry(monkeypatch):
    """This module tests the *config-level* on/off switch, so the CI
    job's REPRO_ENGINE_FORCE_TELEMETRY override must not leak in —
    tests that want the env toggle set it explicitly."""
    monkeypatch.delenv(FORCE_TELEMETRY_ENV, raising=False)


def make_campaign(seed=7, shards=1, num_tasks=60, **overrides):
    rng = np.random.default_rng(seed)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=8 * shards, quality_ceiling=0.95),
        rng,
    )
    defaults = dict(
        budget=0.3 * num_tasks,
        capacity=3,
        batch_size=20,
        confidence_target=0.95,
        seed=seed,
        num_shards=shards,
    )
    defaults.update(overrides)
    campaign = Campaign.open(pool, CampaignConfig(**defaults))
    truths = rng.integers(0, 2, size=num_tasks)
    campaign.submit(
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(truths)
    )
    return campaign


class TestHub:
    def test_counters_accumulate_per_label_set(self):
        hub = Telemetry()
        hub.inc("votes")
        hub.inc("votes", 2)
        hub.inc("votes", shard=0)
        hub.inc("votes", shard=1)
        hub.inc("votes", shard=1)
        snap = hub.snapshot()
        rows = {
            (r["name"], tuple(sorted(r["labels"].items()))): r["value"]
            for r in snap["counters"]
        }
        assert rows[("votes", ())] == 3
        assert rows[("votes", (("shard", "0"),))] == 1
        assert rows[("votes", (("shard", "1"),))] == 2

    def test_gauges_overwrite(self):
        hub = Telemetry()
        hub.set_gauge("load", 3)
        hub.set_gauge("load", 5)
        (row,) = hub.snapshot()["gauges"]
        assert row["value"] == 5

    def test_label_order_is_canonical(self):
        hub = Telemetry()
        hub.inc("x", shard=1, stage="admit")
        hub.inc("x", stage="admit", shard=1)
        (row,) = hub.snapshot()["counters"]
        assert row["value"] == 2

    def test_collectors_are_pull_based(self):
        hub = Telemetry()
        pulls = []

        def collector():
            pulls.append(1)
            yield ("cache.hits", {}, 9)

        hub.add_collector(collector)
        assert pulls == []
        snap = hub.snapshot()
        assert pulls == [1]
        assert {r["name"]: r["value"] for r in snap["gauges"]} == {
            "cache.hits": 9
        }

    def test_now_is_monotonic(self):
        hub = Telemetry()
        stamps = [hub.now() for _ in range(100)]
        assert stamps == sorted(stamps)
        assert stamps[0] >= 0.0

    def test_span_records_histogram_and_span(self):
        hub = Telemetry()
        with hub.span("admit", shard=2):
            pass
        (span,) = hub.completed_spans()
        assert span.name == "admit"
        assert span.labels == {"shard": "2"}
        assert span.duration >= 0.0
        (hist,) = hub.snapshot()["histograms"]
        assert hist["name"] == "admit_seconds"
        assert hist["count"] == 1

    def test_event_ring_is_bounded(self):
        hub = Telemetry(trace_capacity=16)
        for i in range(50):
            hub.event("vote", task=i)
        events = hub.trace_events()
        assert len(events) == 16
        assert [e.fields["task"] for e in events] == list(range(34, 50))
        # Sequence numbers keep counting past the ring bound.
        assert events[-1].seq == 50

    def test_mark_windows_by_interval(self):
        hub = Telemetry(interval=1000.0)  # everything lands in window 0
        hub.mark("intake", 3)
        hub.mark("intake", 2)
        (window,) = hub.rates()["intake"]
        assert window["count"] == 5
        assert window["rate"] == pytest.approx(5 / 1000.0)

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            Telemetry(interval=0)


class TestHistogram:
    def test_bucket_conservation(self):
        hist = _Histogram()
        values = [0.00005, 0.0003, 0.004, 0.09, 7.0, 0.004]
        for v in values:
            hist.observe(v)
        assert hist.count == len(values)
        assert hist.total == pytest.approx(sum(values))
        # Internal counts are non-cumulative and conserve the count.
        assert sum(hist.counts) == hist.count
        cumulative = hist.cumulative()
        # Cumulative export is monotone and ends at the total count
        # with a +Inf bound.
        counts = [n for _, n in cumulative]
        assert counts == sorted(counts)
        assert cumulative[-1] == (float("inf"), len(values))
        assert len(cumulative) == len(DEFAULT_LATENCY_BUCKETS) + 1

    def test_boundary_values_land_in_their_bucket(self):
        hist = _Histogram(bounds=(0.1, 1.0))
        hist.observe(0.1)  # le is inclusive
        hist.observe(1.0)
        hist.observe(1.0000001)
        assert hist.counts == [1, 1, 1]

    def test_state_round_trip(self):
        hist = _Histogram()
        for v in (0.002, 0.3, 12.0):
            hist.observe(v)
        clone = _Histogram.from_state(
            json.loads(json.dumps(hist.state_dict()))
        )
        assert clone.counts == hist.counts
        assert clone.total == pytest.approx(hist.total)
        assert clone.cumulative() == hist.cumulative()


class TestNullTelemetry:
    def test_full_surface_is_noop(self):
        hub = NullTelemetry()
        assert hub.enabled is False
        hub.inc("x")
        hub.set_gauge("y", 1)
        hub.observe("z", 0.5)
        hub.mark("intake")
        hub.event("vote", task="t1")
        hub.add_collector(lambda: [("a", {}, 1)])
        with hub.span("admit"):
            with hub.span("drain"):
                pass
        assert hub.snapshot() == {"enabled": False}
        assert hub.trace_events() == []
        assert hub.completed_spans() == []
        assert hub.chrome_trace() == {"traceEvents": []}
        assert hub.state_dict() is None
        assert NULL_TELEMETRY.enabled is False

    def test_write_trace_writes_nothing(self, tmp_path):
        path = tmp_path / "trace.json"
        assert NullTelemetry().write_trace(str(path)) == 0


class TestPersistence:
    def test_state_round_trip_through_json(self):
        hub = Telemetry(interval=0.5)
        hub.inc("votes", 3, shard=1)
        hub.set_gauge("load", 7)
        hub.observe("admit_seconds", 0.002, shard=1)
        hub.mark("intake", 4)
        hub.event("vote", task="t0")
        with hub.span("admit"):
            pass
        state = json.loads(json.dumps(hub.state_dict()))

        clone = Telemetry(interval=0.5)
        clone.load_state(state)
        a, b = hub.snapshot(), clone.snapshot()
        for key in ("counters", "gauges", "histograms", "rates"):
            assert a[key] == b[key]
        # The rings are per-process diagnostics: they do not persist.
        assert "events" not in state and "spans" not in state
        assert b["trace"] == {"events": 0, "spans": 0}

    def test_clock_and_sequences_resume_monotonic(self):
        hub = Telemetry()
        hub.event("vote")
        hub.event("vote")
        with hub.span("admit"):
            pass
        state = hub.state_dict()

        clone = Telemetry()
        clone.load_state(state)
        assert clone.now() >= state["elapsed"]
        clone.event("checkpoint")
        seqs = [e.seq for e in clone.trace_events()]
        assert seqs == sorted(seqs)
        with clone.span("admit"):
            pass
        span_ids = [s.span_id for s in clone.completed_spans()]
        assert span_ids == sorted(span_ids)

    def test_load_state_none_is_noop(self):
        hub = Telemetry()
        hub.inc("x")
        hub.load_state(None)
        assert len(hub.snapshot()["counters"]) == 1


class TestObservationOnly:
    """Telemetry never feeds back into campaign decisions."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shards", (1, 4))
    def test_fingerprint_identical_on_vs_off(self, seed, shards):
        off = make_campaign(seed, shards, telemetry="off")
        on = make_campaign(seed, shards, telemetry="on")
        assert off.run().fingerprint() == on.run().fingerprint()
        assert on.telemetry.enabled
        assert not off.telemetry.enabled

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shards", (1, 4))
    def test_served_fingerprint_identical_on_vs_off(self, seed, shards):
        """The same law on the concurrent loop: a campaign fed up front
        and served lands on the stepping loop's fingerprint whether the
        hub records or not."""
        reference = make_campaign(seed, shards).run().fingerprint()
        for telemetry in ("off", "on"):
            campaign = make_campaign(seed, shards, telemetry=telemetry)
            campaign.close_intake()
            assert campaign.serve().fingerprint() == reference
            assert campaign.telemetry.enabled == (telemetry == "on")

    def test_force_env_toggle_is_observation_only(self, monkeypatch):
        reference = make_campaign(11, 4).run().fingerprint()
        monkeypatch.setenv(FORCE_TELEMETRY_ENV, "1")
        forced = make_campaign(11, 4)
        assert forced.config.telemetry == "on"
        assert forced.run().fingerprint() == reference

    def test_reestimation_spans_do_not_perturb(self):
        kwargs = dict(num_tasks=80, reestimate_every=25)
        off = make_campaign(13, 4, telemetry="off", **kwargs)
        on = make_campaign(13, 4, telemetry="on", **kwargs)
        assert off.run().fingerprint() == on.run().fingerprint()
        assert on.metrics.reestimations > 0
        kinds = {e.kind for e in on.telemetry.trace_events()}
        assert "re-estimation" in kinds


class TestCampaignIntegration:
    def test_trace_covers_the_serving_stack(self):
        campaign = make_campaign(7, 4, telemetry="on")
        campaign.run()
        kinds = {e.kind for e in campaign.telemetry.trace_events()}
        assert "admit" in kinds
        # Votes are journaled by the checkpoint, not traced one by one.
        assert not kinds & {"vote", "cancel"}
        span_names = {
            s.name for s in campaign.telemetry.completed_spans()
        }
        counters = {
            r["name"]
            for r in campaign.telemetry.snapshot()["counters"]
        }
        assert "engine.tasks_submitted" in counters
        assert {"admit", "frontier_build", "dispatch_merge"} <= span_names
        assert "scheduler.admitted" in counters

    def test_windowed_rates_exist_for_both_series(self):
        campaign = make_campaign(7, 1, telemetry="on")
        campaign.run()
        rates = campaign.telemetry.rates()
        assert sum(w["count"] for w in rates["intake"]) == 60
        assert sum(w["count"] for w in rates["throughput"]) == 60

    def test_snapshot_metrics_shape(self):
        campaign = make_campaign(7, 1, telemetry="on")
        campaign.run()
        snap = campaign.snapshot_metrics()
        json.dumps(snap)  # JSON-serialisable end to end
        assert snap["completed"] == 60
        assert snap["telemetry"]["enabled"] is True
        campaign_off = make_campaign(7, 1)
        campaign_off.run()
        assert campaign_off.snapshot_metrics()["telemetry"] == {
            "enabled": False
        }

    def test_prometheus_exposition(self):
        campaign = make_campaign(7, 4, telemetry="on")
        campaign.run()
        text = campaign.telemetry.render_prometheus()
        assert "# TYPE repro_engine_tasks_submitted_total counter" in text
        histogram = "repro_admit_seconds"
        assert f"# TYPE {histogram} histogram" in text
        assert 'le="+Inf"' in text
        assert f"{histogram}_bucket" in text
        assert f"{histogram}_count" in text

    def test_per_shard_labels_reach_exports(self):
        campaign = make_campaign(7, 4, telemetry="on")
        campaign.run()
        rows = [
            r
            for r in campaign.telemetry.snapshot()["counters"]
            if r["name"] == "scheduler.admitted"
        ]
        shards = {r["labels"].get("shard") for r in rows}
        assert len(shards) > 1

    @pytest.mark.parametrize("shards", [1, 2])
    def test_open_offers_gauge_tracks_the_offer_book(self, shards):
        """External-vote campaigns export ``engine.open_offers`` at any
        shard count (sharded campaigns used to drop the gauge)."""
        campaign = make_campaign(
            7, shards, vote_source="external", telemetry="on"
        )
        worker_id = campaign.registry.worker_ids[0]
        campaign.assignments(worker_id)  # pumps: juries seat, offers open
        rows = [
            r
            for r in campaign.telemetry.snapshot()["gauges"]
            if r["name"] == "engine.open_offers"
        ]
        assert len(rows) == 1
        assert campaign.offers.open_count > 0
        assert rows[0]["value"] == campaign.offers.open_count
        assert "repro_engine_open_offers" in (
            campaign.telemetry.render_prometheus()
        )

    @pytest.mark.parametrize("shards", [1, 2])
    def test_cache_gauges_come_from_the_caches_in_use(self, shards):
        """One shard reports the campaign cache (unlabeled); a sharded
        campaign leaves that cache idle and reports one labeled series
        per shard cache instead."""
        campaign = make_campaign(7, shards, telemetry="on")
        campaign.run()
        labels = [
            r["labels"]
            for r in campaign.telemetry.snapshot()["gauges"]
            if r["name"] == "cache.hits"
        ]
        if shards == 1:
            assert labels == [{}]
        else:
            assert sorted(l["shard"] for l in labels) == ["0", "1"]

    def test_cache_gauges_are_the_memo_counters(self):
        """A JQ cache only appends, so it exports hits, misses, entries
        and the hit rate, and nothing about evictions."""
        campaign = make_campaign(7, 1, telemetry="on")
        campaign.run()
        names = {
            r["name"]
            for r in campaign.telemetry.snapshot()["gauges"]
            if r["name"].startswith("cache.")
        }
        assert names == {
            "cache.hits", "cache.misses", "cache.entries", "cache.hit_rate"
        }

    @pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
    def test_telemetry_survives_checkpoint_resume(
        self, backend_kind, tmp_path
    ):
        if backend_kind == "memory":
            backend = MemoryBackend()
        else:
            backend = SQLiteBackend(tmp_path / "telemetry.db")
        rng = np.random.default_rng(21)
        pool = generate_pool(
            SyntheticPoolConfig(num_workers=16, quality_ceiling=0.95), rng
        )
        config = CampaignConfig(
            budget=18.0,
            confidence_target=0.95,
            seed=21,
            telemetry="on",
        )
        campaign = Campaign.open(pool, config, backend=backend)
        truths = rng.integers(0, 2, size=60)
        campaign.submit(
            EngineTask(f"t{i}", ground_truth=int(t))
            for i, t in enumerate(truths)
        )
        campaign.run(until=20)
        campaign.checkpoint()
        before = campaign.telemetry.snapshot()
        kinds_before = [e.kind for e in campaign.telemetry.trace_events()]
        assert "checkpoint" in kinds_before
        if backend_kind == "sqlite":
            campaign.close()
            backend = SQLiteBackend(tmp_path / "telemetry.db")

        resumed = Campaign.resume(backend)
        assert resumed.telemetry.enabled
        after = resumed.telemetry.snapshot()
        assert after["counters"] == before["counters"]
        assert after["histograms"] == before["histograms"]
        # The trace covers one process: the resumed hub starts empty.
        assert resumed.telemetry.trace_events() == []
        # The resumed clock continues past every pre-checkpoint
        # timestamp (the hub folds the checkpointed elapsed into an
        # offset).
        last_ts = max(e.ts for e in campaign.telemetry.trace_events())
        assert after["elapsed"] >= last_ts
        resumed.run()
        assert resumed.done
        # Post-resume activity lands on top of the restored counters.
        completed = {
            r["name"]: r["value"]
            for r in resumed.telemetry.snapshot()["counters"]
        }
        submitted_before = {
            r["name"]: r["value"] for r in before["counters"]
        }
        assert (
            sum(
                v
                for k, v in completed.items()
                if k == "engine.tasks_completed"
            )
            >= sum(
                v
                for k, v in submitted_before.items()
                if k == "engine.tasks_completed"
            )
        )


def engine_tallies(campaign):
    """The pulled series as the engine itself counts them, keyed
    ``(name, sorted label pairs)``; zero counts have no series."""
    metrics = campaign.metrics
    series = {
        ("engine.tasks_submitted", ()): metrics.submitted,
        ("engine.votes_cast", ()): metrics.votes_cast,
        ("engine.votes_cancelled", ()): metrics.votes_cancelled,
    }
    for reason, count in Counter(r.reason for r in metrics.records).items():
        series[("engine.tasks_completed", (("reason", reason),))] = count
    shards = campaign.engine.scheduler.shards
    for shard in shards:
        labels = (("shard", str(shard.shard_id)),) if len(shards) > 1 else ()
        for field in ("admitted", "unfunded", "deferred"):
            series[(f"scheduler.{field}", labels)] = getattr(
                shard.scheduler.stats, field
            )
    return {key: value for key, value in series.items() if value}


def exported_tallies(campaign):
    """The pulled series as ``snapshot()["counters"]`` exports them."""
    return {
        (row["name"], tuple(sorted(row["labels"].items()))): row["value"]
        for row in campaign.telemetry.snapshot()["counters"]
        if row["name"] in PULLED
    }


def prometheus_samples(text):
    """``[(series, value)]`` of every sample line in an exposition."""
    return [
        tuple(line.rsplit(" ", 1))
        for line in text.splitlines()
        if line and not line.startswith("#")
    ]


class TestPulledCounters:
    """The seven counters that duplicate engine tallies are read from
    those tallies at export time, never pushed."""

    @pytest.mark.parametrize("shards", (1, 3))
    def test_series_are_the_engines_own_tallies(self, shards):
        campaign = make_campaign(5, shards, num_tasks=120, telemetry="on")
        campaign.run(until=50)
        before = engine_tallies(campaign)
        assert exported_tallies(campaign) == before
        assert sum(
            v for (name, _), v in before.items()
            if name == "engine.tasks_completed"
        ) == campaign.metrics.completed
        campaign.checkpoint()

        resumed = Campaign.resume(campaign.backend)
        assert exported_tallies(resumed) == engine_tallies(resumed) == before
        resumed.run()
        after = engine_tallies(resumed)
        assert exported_tallies(resumed) == after
        assert after[("engine.tasks_submitted", ())] == 120
        text = resumed.telemetry.render_prometheus()
        assert "# TYPE repro_engine_votes_cast_total counter" in text
        assert (
            f"repro_engine_votes_cast_total {resumed.metrics.votes_cast}"
            in text.splitlines()
        )

    @pytest.mark.parametrize("version", (2, 3))
    def test_resumed_old_checkpoint_exports_each_series_once(
        self, version, tmp_path
    ):
        """Checkpoints of older code carry the pushed counters in the
        hub's stored state; the pulled series replace them, so
        ``/metrics`` shows each name and label set once, with the
        engine's values."""
        path = tmp_path / f"v{version}.db"
        shutil.copyfile(FIXTURES / f"v{version}_checkpoint.db", path)
        stored = SQLiteBackend(path).load()["campaign"]["telemetry"]
        assert {row[0] for row in stored["counters"]} & set(PULLED)
        resumed = Campaign.resume(SQLiteBackend(path))
        samples = prometheus_samples(resumed.telemetry.render_prometheus())
        series = [name for name, _ in samples]
        assert len(series) == len(set(series))
        tallies = engine_tallies(resumed)
        assert exported_tallies(resumed) == tallies
        values = dict(samples)
        for (name, labels), value in tallies.items():
            key = (
                Telemetry._prom_name(name)
                + "_total"
                + Telemetry._prom_labels(labels)
            )
            assert float(values[key]) == value
        resumed.close()


def _load_module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestHubCallsPerCampaign:
    def test_no_hub_call_scales_with_votes(self, monkeypatch):
        """On the overhead benchmark's campaign the counters and trace
        events the hub receives scale with scheduler batches (plus
        checkpoints), not with votes: the engine's per-vote and
        per-task tallies are pulled at export time."""
        calls = Counter()
        for method in ("inc", "event"):
            original = getattr(Telemetry, method)

            def counting(self, *args, _original=original, _name=method,
                         **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(Telemetry, method, counting)
        bench = _load_module(BENCHMARKS / "bench_telemetry_overhead.py")
        campaign = bench.open_campaign("on")
        assert not campaign.config.checkpoint_every  # no checkpoints
        metrics = campaign.run()
        assert metrics.completed == bench.NUM_TASKS
        budget = 4 * campaign.engine.scheduler.stats.batches
        # Votes outnumber that budget many times over, so one call per
        # vote (or per task) could not fit under it.
        assert metrics.votes_cast > 10 * budget
        assert calls["inc"] + calls["event"] <= budget, dict(calls)


class TestIntakeAccounting:
    """IngestStats counters, their persistence, and the report line."""

    def test_overflow_is_counted_and_traced(self):
        campaign = make_campaign(
            num_tasks=0, expected_tasks=3, ingest_max_pending=2,
            telemetry="on",
        )

        def job():
            if campaign.intake_stats.submitted:
                return
            campaign.submit([EngineTask("a"), EngineTask("b")])
            with pytest.raises(IngestionOverflow):
                campaign.submit([EngineTask("c")])
            campaign.close_intake()

        campaign.serve(periodic=((1e-9, job),))
        assert campaign.intake_stats == IngestStats(submitted=2, overflows=1)
        hub = campaign.telemetry
        kinds = [e.kind for e in hub.trace_events()]
        assert "intake-overflow" in kinds
        counters = {
            r["name"]: r["value"] for r in hub.snapshot()["counters"]
        }
        assert counters["intake.overflows"] == 1
        assert counters["intake.submitted"] == 2

    def test_ingest_stats_state_round_trip(self):
        stats = IngestStats(submitted=9, overflows=2)
        clone = IngestStats.from_state(
            json.loads(json.dumps(stats.state_dict()))
        )
        assert clone == stats

    def test_intake_stats_survive_checkpoint_resume(self):
        """Tasks submitted to the intake are counted; the counters ride
        the checkpoint and keep accumulating after a resume."""
        backend = MemoryBackend()
        rng = np.random.default_rng(31)
        pool = generate_pool(
            SyntheticPoolConfig(num_workers=16, quality_ceiling=0.95), rng
        )
        campaign = Campaign.open(
            pool,
            CampaignConfig(budget=18.0, confidence_target=0.95, seed=31),
            backend=backend,
        )
        truths = rng.integers(0, 2, size=60)
        campaign.submit(
            EngineTask(f"t{i}", ground_truth=int(t))
            for i, t in enumerate(truths[:40])
        )
        campaign.run(until=20)
        campaign.checkpoint()
        assert campaign.intake_stats.submitted == 40

        resumed = Campaign.resume(backend)
        assert resumed.intake_stats.submitted == 40
        resumed.submit(
            EngineTask(f"t{i}", ground_truth=int(t))
            for i, t in enumerate(truths[40:], start=40)
        )
        resumed.run()
        assert resumed.done
        # The finished run folds intake totals into the report.
        assert resumed.metrics.intake_stats["submitted"] == 60
        assert "intake" in resumed.metrics.render()


class TestRenderExtensions:
    def test_render_shows_intake_and_shard_lines(self):
        campaign = make_campaign(7, 4)
        campaign.run()
        report = campaign.metrics.render()
        assert "intake       : 60 submitted, 0 chunks refused" in report
        assert "seats" in report
        assert "granted" in report
        assert "cache" in report
        assert "% hit" in report


class TestCLI:
    @pytest.fixture
    def engine_args(self, tmp_path):
        return [
            "engine",
            "--budget", "15",
            "--num-tasks", "60",
            "--num-workers", "16",
            "--seed", "9",
        ]

    def test_trace_round_trip_through_cli(
        self, engine_args, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        assert main(engine_args + ["--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "wrote trace" in out
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"M", "X", "i"} <= phases

        assert main(["trace", "summarize", str(trace)]) == 0
        summary = capsys.readouterr().out
        assert "spans (ms):" in summary
        assert "admit" in summary
        assert "events:" in summary

    def test_metrics_out_writes_snapshot(self, engine_args, tmp_path):
        metrics = tmp_path / "metrics.json"
        assert main(engine_args + ["--metrics-out", str(metrics)]) == 0
        payload = json.loads(metrics.read_text())
        assert payload["completed"] == 60
        assert payload["telemetry"]["enabled"] is True
        assert payload["telemetry"]["counters"]

    def test_telemetry_flag_without_outputs(self, engine_args, capsys):
        assert main(engine_args + ["--telemetry", "on"]) == 0
        assert "Campaign engine report" in capsys.readouterr().out

    def test_explicit_off_beats_implied_on(
        self, engine_args, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        code = main(
            engine_args
            + ["--telemetry", "off", "--trace-out", str(trace)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "--trace-out ignored" in err
        assert not trace.exists()

    def test_summarize_rejects_missing_and_bad_files(
        self, tmp_path, capsys
    ):
        assert main(["trace", "summarize", str(tmp_path / "nope")]) == 2
        assert "cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["trace", "summarize", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        scalar = tmp_path / "scalar.json"
        scalar.write_text("42")
        assert main(["trace", "summarize", str(scalar)]) == 2
        assert "no traceEvents" in capsys.readouterr().err

    def test_summarize_accepts_bare_event_array(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([
            {"name": "admit", "ph": "X", "ts": 0, "dur": 1500},
            {"name": "vote", "ph": "i", "ts": 2},
        ]))
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 spans, 1 instant events" in out


class TestPrometheusLabelEscaping:
    """Label values reaching the exporter can be client-controlled
    (request routes); per the text-format v0.0.4 spec,
    backslash, double-quote, and newline must be escaped or the
    exposition is unparseable."""

    def test_escape_covers_the_three_special_characters(self):
        assert Telemetry._prom_escape('a"b') == 'a\\"b'
        assert Telemetry._prom_escape("a\\b") == "a\\\\b"
        assert Telemetry._prom_escape("a\nb") == "a\\nb"
        assert Telemetry._prom_escape('\\"\n') == '\\\\\\"\\n'
        assert Telemetry._prom_escape("plain") == "plain"

    def test_hostile_label_values_render_single_line(self):
        telemetry = Telemetry()
        telemetry.inc("requests", producer='evil"name\nwith\\stuff')
        text = telemetry.render_prometheus()
        line = next(
            l for l in text.splitlines() if l.startswith("repro_requests")
        )
        assert line == (
            'repro_requests_total{producer="evil\\"name\\nwith\\\\stuff"} 1'
        )

    def test_producer_thread_name_never_becomes_a_label(self):
        """The intake keys nothing on the submitting thread: a producer
        thread per submit must not mint a series per submit."""
        campaign = make_campaign(num_tasks=0, telemetry="on")
        thread = threading.Thread(
            target=campaign.submit,
            args=([EngineTask("t0"), EngineTask("t1")],),
            name='prod"uc\ner\\1',
        )
        thread.start()
        thread.join(timeout=10)
        text = campaign.telemetry.render_prometheus()
        assert "producer" not in text
        assert "repro_intake_submitted_total 2" in text
        # One sample per line: no raw newline/quote survived into a
        # label value, so every line parses under the v0.0.4 grammar.
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*")*\})?'
            r' \S+$'
        )
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert sample.match(line), f"unparseable line: {line!r}"

    def test_gauge_and_histogram_labels_are_escaped_too(self):
        telemetry = Telemetry()
        telemetry.set_gauge("depth", 3, queue='q"1')
        telemetry.observe("lat", 0.5, route="a\\b")
        text = telemetry.render_prometheus()
        assert 'queue="q\\"1"' in text
        assert 'route="a\\\\b"' in text
