"""State backends: snapshot round trips, the SQLite schema, and error
paths.  Fingerprint-level resume identity lives in test_invariants.py;
these are the unit-level contracts."""

import importlib.util
import json
import shutil
import sqlite3
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    BackendError,
    Campaign,
    CampaignConfig,
    EngineTask,
    MemoryBackend,
    SQLiteBackend,
)
from repro.engine import campaign as campaign_module
from repro.engine.backends import (
    DEFAULT_BUSY_TIMEOUT_MS,
    SNAPSHOT_SECTIONS,
    SNAPSHOT_VERSION,
)
from repro.simulation import SyntheticPoolConfig, generate_pool


def checkpointed_snapshot(num_shards=1, seed=5):
    rng = np.random.default_rng(1)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=24, quality_ceiling=0.95), rng
    )
    campaign = Campaign.open(
        pool,
        CampaignConfig(
            budget=30.0, confidence_target=0.95, seed=seed,
            num_shards=num_shards,
        ),
    )
    task_rng = np.random.default_rng(seed)
    campaign.submit(
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(task_rng.integers(0, 2, size=80))
    )
    campaign.run(until=30)
    campaign.checkpoint()
    return campaign.backend.load()


class TestMemoryBackend:
    def test_empty_backend_raises(self):
        backend = MemoryBackend()
        assert not backend.exists()
        with pytest.raises(BackendError, match="no checkpoint"):
            backend.load()

    def test_round_trip_is_value_identical(self):
        snapshot = checkpointed_snapshot()
        backend = MemoryBackend()
        backend.save(snapshot)
        assert backend.exists()
        assert backend.load() == snapshot

    def test_load_never_aliases_the_stored_snapshot(self):
        backend = MemoryBackend()
        backend.save(checkpointed_snapshot())
        first = backend.load()
        first["campaign"]["clock"] = -1.0
        assert backend.load()["campaign"]["clock"] != -1.0

    def test_rejects_malformed_snapshot(self):
        with pytest.raises(BackendError, match="missing sections"):
            MemoryBackend().save({"version": SNAPSHOT_VERSION})


class TestSQLiteBackend:
    def test_empty_file_raises(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "empty.db")
        assert not backend.exists()
        with pytest.raises(BackendError, match="no campaign checkpoint"):
            backend.load()

    def test_mistyped_resume_path_leaves_no_stray_files(self, tmp_path):
        """Resuming from a path that never held a campaign must fail
        without creating an empty .db (+ WAL sidecars) a later resume
        could be pointed at by accident."""
        path = tmp_path / "typo.db"
        backend = SQLiteBackend(path)
        with pytest.raises(BackendError):
            Campaign.resume(backend)
        backend.close()
        assert list(tmp_path.iterdir()) == []

    def test_round_trip_matches_memory_backend(self, tmp_path):
        """Both backends must surface the identical snapshot — that is
        what lets one restore code path serve both."""
        snapshot = checkpointed_snapshot(num_shards=2)
        memory = MemoryBackend()
        memory.save(snapshot)
        sqlite_backend = SQLiteBackend(tmp_path / "c.db")
        sqlite_backend.save(snapshot)
        assert sqlite_backend.exists()
        assert sqlite_backend.load() == memory.load()

    def test_save_replaces_previous_checkpoint(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        first = checkpointed_snapshot()
        second = checkpointed_snapshot(seed=9)
        backend.save(first)
        backend.save(second)
        assert backend.load() == MemoryBackend_normalize(second)

    def test_schema_has_the_five_tables_and_wal(self, tmp_path):
        path = tmp_path / "c.db"
        backend = SQLiteBackend(path)
        backend.save(checkpointed_snapshot(num_shards=2))
        backend.close()
        conn = sqlite3.connect(path)
        tables = {
            name
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        assert {"campaign", "workers", "votes", "ledger", "cache"} <= tables
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        # Relational content spot-checks: every vote row references a
        # known worker; per-shard caches landed as distinct cache ids.
        workers = {
            w for (w,) in conn.execute("SELECT worker_id FROM workers")
        }
        vote_workers = {
            w for (w,) in conn.execute("SELECT DISTINCT worker_id FROM votes")
        }
        assert vote_workers <= workers
        # Per-shard caches landed as distinct cache ids, each with its
        # counters in a ledger meta row; there is no other cache.
        cache_ids = {
            c for (c,) in conn.execute("SELECT DISTINCT cache_id FROM cache")
        }
        assert cache_ids == {"shard:0", "shard:1"}
        meta_scopes = {
            s for (s,) in conn.execute(
                "SELECT scope FROM ledger WHERE scope LIKE 'cache-meta:%'"
            )
        }
        assert meta_scopes == {"cache-meta:shard:0", "cache-meta:shard:1"}
        conn.close()

    def test_floats_survive_exactly(self, tmp_path):
        snapshot = checkpointed_snapshot()
        backend = SQLiteBackend(tmp_path / "c.db")
        backend.save(snapshot)
        loaded = backend.load()
        for original, restored in zip(
            snapshot["workers"], loaded["workers"]
        ):
            assert restored["est_quality"] == original["est_quality"]
            assert restored["spend"] == original["spend"]
        for (key_a, value_a), (key_b, value_b) in zip(
            snapshot["caches"]["shard:0"]["entries"],
            loaded["caches"]["shard:0"]["entries"],
        ):
            assert list(key_a) == list(key_b)
            assert value_a == value_b

    def test_restore_rejects_shard_count_mismatch(self, tmp_path):
        """A checkpoint from a 2-shard campaign must not silently load
        into a differently sharded one."""
        snapshot = checkpointed_snapshot(num_shards=2)
        snapshot["campaign"]["config"]["num_shards"] = 4
        # Forge matching shard ledgers so only the structural check at
        # the scheduler layer can catch the mismatch.
        backend = MemoryBackend()
        backend.save(snapshot)
        with pytest.raises((ValueError, KeyError)):
            Campaign.resume(backend)

    def test_resume_rejects_unknown_version(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        snapshot = checkpointed_snapshot()
        snapshot["version"] = 99
        backend.save(snapshot)
        with pytest.raises(BackendError, match="version"):
            Campaign.resume(backend)

    def test_all_sections_present_in_round_trip(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        backend.save(checkpointed_snapshot())
        loaded = backend.load()
        for section in SNAPSHOT_SECTIONS:
            assert section in loaded

    def test_busy_timeout_pragma_is_set(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "c.db")
        backend.save(checkpointed_snapshot())
        assert (
            backend._conn.execute("PRAGMA busy_timeout").fetchone()[0]
            == DEFAULT_BUSY_TIMEOUT_MS
        )
        custom = SQLiteBackend(tmp_path / "d.db", busy_timeout_ms=123)
        custom.save(checkpointed_snapshot())
        assert (
            custom._conn.execute("PRAGMA busy_timeout").fetchone()[0] == 123
        )

    def test_checkpoint_while_reader_holds_the_file(self, tmp_path):
        """A dashboard/cache-warming reader sitting in an open read
        transaction must not make ``checkpoint()`` raise ``database is
        locked`` — WAL plus the busy timeout ride it out."""
        path = tmp_path / "c.db"
        backend = SQLiteBackend(path)
        backend.save(checkpointed_snapshot())

        reader = sqlite3.connect(path)
        reader.execute("BEGIN")
        assert reader.execute("SELECT COUNT(*) FROM workers").fetchone()[0]
        try:
            backend.save(checkpointed_snapshot(seed=9))  # must not raise
        finally:
            reader.rollback()
            reader.close()
        assert backend.exists()

    def test_checkpoint_waits_out_a_transient_write_lock(self, tmp_path):
        """A second writer (another engine process exporting its cache)
        briefly holds the write lock mid-checkpoint; the busy timeout
        must absorb the hold instead of surfacing ``database is
        locked``.  A zero-timeout backend on the same file proves the
        pragma is what makes the difference."""
        path = tmp_path / "c.db"
        backend = SQLiteBackend(path)
        backend.save(checkpointed_snapshot())

        locker = sqlite3.connect(path, check_same_thread=False)
        locker.execute("BEGIN IMMEDIATE")
        try:
            impatient = SQLiteBackend(path, busy_timeout_ms=0)
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                impatient.save(checkpointed_snapshot(seed=9))
            impatient.close()

            release = threading.Timer(0.25, locker.commit)
            release.start()
            start = time.monotonic()
            backend.save(checkpointed_snapshot(seed=11))  # waits, succeeds
            assert time.monotonic() - start >= 0.2
            release.join()
        finally:
            locker.close()
        loaded = backend.load()
        for section in SNAPSHOT_SECTIONS:
            assert section in loaded


def MemoryBackend_normalize(snapshot):
    """A snapshot as any backend returns it (JSON value shapes)."""
    return json.loads(json.dumps(snapshot))


# ----------------------------------------------------------------------
# Journals: incremental saves
# ----------------------------------------------------------------------
def journal_campaign(backend, seed, num_shards=1, num_tasks=80, **config):
    rng = np.random.default_rng(seed)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=24, quality_ceiling=0.95), rng
    )
    campaign = Campaign.open(
        pool,
        CampaignConfig(
            budget=0.4 * num_tasks,
            confidence_target=0.95,
            seed=seed,
            num_shards=num_shards,
            **config,
        ),
        backend=backend,
    )
    campaign.submit(
        EngineTask(f"t{i}", ground_truth=int(t))
        for i, t in enumerate(rng.integers(0, 2, size=num_tasks))
    )
    return campaign


def make_backend(kind, path):
    return MemoryBackend() if kind == "memory" else SQLiteBackend(path)


def loaded(backend):
    """``backend.load()`` minus the telemetry clock (each save reads
    the wall clock)."""
    snapshot = backend.load()
    telemetry = snapshot["campaign"].get("telemetry")
    if telemetry:
        del telemetry["elapsed"]
    return snapshot


def full_save(campaign, backend):
    """Save the campaign's current state to another ``backend`` whole
    (every journal at base 0), as a first checkpoint would."""
    marks = campaign._marks
    campaign._marks = campaign_module._NO_MARKS
    try:
        backend.save(campaign._snapshot()[0])
    finally:
        campaign._marks = marks


JOURNAL_CONFIGS = {
    "plain": {},
    "coarse-grid": {"num_buckets": 10},
    "telemetry": {"telemetry": "on", "reestimate_every": 15},
}


class TestJournalEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("num_shards", [1, 4])
    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    @pytest.mark.parametrize("config", sorted(JOURNAL_CONFIGS))
    def test_chain_of_incremental_saves_equals_one_full_save(
        self, seed, num_shards, kind, config, tmp_path
    ):
        """Checkpoints every 10 completions journal only their tails;
        the store they build must load exactly what one base-0 save of
        the final state loads, and resume to the uninterrupted run."""
        extra = JOURNAL_CONFIGS[config]
        reference = journal_campaign(
            None, seed, num_shards, **extra
        ).run().fingerprint()

        chained = make_backend(kind, tmp_path / "chain.db")
        campaign = journal_campaign(chained, seed, num_shards, **extra)
        target = 0
        while not campaign.done and target < 60:
            target += 10
            campaign.run(until=target)
            campaign.checkpoint()
        whole = make_backend(kind, tmp_path / "whole.db")
        full_save(campaign, whole)
        assert loaded(chained) == loaded(whole)

        resumed = Campaign.resume(chained)
        assert resumed.run().fingerprint() == reference

    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    def test_journals_append_past_a_resume(self, kind, tmp_path):
        """A resumed campaign knows what its backend holds: its next
        checkpoint appends instead of rewriting."""
        backend = make_backend(kind, tmp_path / "c.db")
        campaign = journal_campaign(backend, 3)
        campaign.run(until=20)
        campaign.checkpoint()
        resumed = Campaign.resume(backend)
        resumed.run(until=40)
        snapshot, _ = resumed._snapshot()
        assert snapshot["records"]["base"] >= 20
        assert snapshot["votes"]["base"] > 0
        resumed.checkpoint()
        whole = make_backend(kind, tmp_path / "whole.db")
        full_save(resumed, whole)
        assert loaded(backend) == loaded(whole)


class TestJournalTails:
    def test_cache_journal_only_appends(self):
        """The JQ cache only appends, so a checkpoint's cache tail
        starts where the backend's copy ends."""
        campaign = journal_campaign(MemoryBackend(), 1)
        campaign.run(until=20)
        campaign.checkpoint()
        cache = campaign.engine.scheduler.shards[0].cache
        held = len(cache)
        campaign.run(until=40)
        snapshot, _ = campaign._snapshot()
        state = snapshot["caches"]["shard:0"]
        assert state["base"] == held > 0
        assert len(state["entries"]) == len(cache) - held


def rows_written_by_second_checkpoint(num_tasks, tmp_path):
    backend = SQLiteBackend(tmp_path / f"{num_tasks}.db")
    campaign = journal_campaign(backend, 1, num_tasks=num_tasks)
    campaign.run()
    campaign.checkpoint()
    conn = backend._conn
    before = conn.total_changes
    campaign.checkpoint()
    return conn.total_changes - before


def test_checkpoint_rows_do_not_grow_with_the_campaign(tmp_path):
    """O(delta): back to back, the second checkpoint writes only the
    fixed-size state, so a campaign ten times longer writes exactly as
    many rows (SQLite's own change counter, not a timing)."""
    short = rows_written_by_second_checkpoint(200, tmp_path)
    long = rows_written_by_second_checkpoint(2000, tmp_path)
    assert short == long
    # Two campaign rows, the 24 workers, a handful of ledger scopes —
    # each deleted and inserted — and no journal row.
    assert short < 2 * (2 + 24 + 8)


class TestFailedSave:
    def test_failed_save_keeps_the_marks_and_the_file(
        self, tmp_path, monkeypatch
    ):
        backend = SQLiteBackend(tmp_path / "c.db")
        campaign = journal_campaign(backend, 2)
        campaign.run(until=20)
        campaign.checkpoint()
        first = backend.load()
        marks = campaign._marks
        campaign.run(until=40)

        original = SQLiteBackend._append

        def failing(conn, table, *args, **kwargs):
            original(conn, table, *args, **kwargs)
            if table == "records":  # after votes and records landed
                raise RuntimeError("injected mid-transaction")

        monkeypatch.setattr(SQLiteBackend, "_append", staticmethod(failing))
        with pytest.raises(RuntimeError, match="injected"):
            campaign.checkpoint()
        assert campaign._marks is marks
        assert backend.load() == first

        monkeypatch.setattr(SQLiteBackend, "_append", staticmethod(original))
        campaign.checkpoint()  # re-sends the same tails
        whole = SQLiteBackend(tmp_path / "whole.db")
        full_save(campaign, whole)
        assert loaded(backend) == loaded(whole)

    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    def test_a_tail_that_leaves_a_gap_is_refused(self, kind, tmp_path):
        """Two campaigns checkpointing into one store: the one that fell
        behind must fail loudly rather than write a gap."""
        backend = make_backend(kind, tmp_path / "c.db")
        campaign = journal_campaign(backend, 4)
        campaign.run(until=20)
        campaign.checkpoint()
        other = Campaign.resume(backend)
        other.run(until=40)
        other.checkpoint()
        stored = backend.load()
        campaign.run(until=30)
        with pytest.raises(BackendError, match="journal tail starts at"):
            campaign.checkpoint()
        assert backend.load() == stored


# ----------------------------------------------------------------------
# Older checkpoint versions
# ----------------------------------------------------------------------
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _fixture_recipe(version=1):
    name = f"make_v{version}_checkpoint"
    spec = importlib.util.spec_from_file_location(
        name, FIXTURES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_current_layout(path):
    """The file holds a current-version checkpoint with nothing left of
    the retired single-scheduler layout: no ``"mode"`` ledger scope and
    no rows under the retired ``"campaign"`` cache id."""
    conn = sqlite3.connect(path)
    assert json.loads(
        conn.execute(
            "SELECT value FROM campaign WHERE key = 'version'"
        ).fetchone()[0]
    ) == SNAPSHOT_VERSION
    scopes = {
        scope for (scope,) in conn.execute("SELECT scope FROM ledger")
    }
    assert "mode" not in scopes and "scheduler" not in scopes
    assert "cache-meta:campaign" not in scopes
    assert {"allocator", "migrations", "shard:0"} <= scopes
    (retired,) = conn.execute(
        "SELECT COUNT(*) FROM cache WHERE cache_id = 'campaign'"
    ).fetchone()
    assert retired == 0
    conn.close()


@pytest.mark.parametrize("version", [1, 2, 3])
def test_cache_meta_drops_the_evictions_counter(version, tmp_path):
    """Older files store an ``evictions`` counter beside each cache's
    hits and misses.  A resume ignores it, and the next save writes
    only the two counters a JQ cache keeps."""
    path = tmp_path / "fixture.db"
    shutil.copyfile(FIXTURES / f"v{version}_checkpoint.db", path)

    def cache_meta():
        conn = sqlite3.connect(path)
        rows = conn.execute(
            "SELECT value FROM ledger WHERE scope LIKE 'cache-meta:%'"
        ).fetchall()
        conn.close()
        return [json.loads(value) for (value,) in rows]

    assert all("evictions" in meta for meta in cache_meta())
    backend = SQLiteBackend(path)
    resumed = Campaign.resume(backend)
    resumed.checkpoint()
    backend.close()
    metas = cache_meta()
    assert metas and all(set(meta) == {"hits", "misses"} for meta in metas)


class TestVersion1Checkpoints:
    @pytest.fixture(scope="class")
    def reference(self):
        return _fixture_recipe().open_campaign().run().fingerprint()

    def test_v1_sqlite_file_resumes_and_is_rewritten_in_current_layout(
        self, reference, tmp_path
    ):
        path = tmp_path / "v1.db"
        shutil.copyfile(FIXTURES / "v1_checkpoint.db", path)
        backend = SQLiteBackend(path)
        assert backend.load()["version"] == 1
        resumed = Campaign.resume(backend)
        assert resumed.metrics.completed == _fixture_recipe().PAUSE_AT
        resumed.checkpoint()
        backend.close()

        conn = sqlite3.connect(path)
        columns = [row[1] for row in conn.execute("PRAGMA table_info(votes)")]
        assert columns == ["pos", "worker_id", "task_id", "label"]
        (records,) = conn.execute("SELECT COUNT(*) FROM records").fetchone()
        assert records == _fixture_recipe().PAUSE_AT
        conn.close()
        _assert_current_layout(path)

        again = Campaign.resume(SQLiteBackend(path))
        assert again.run().fingerprint() == reference
        assert resumed.run().fingerprint() == reference

    def test_v1_memory_snapshot_resumes(self, reference):
        v1 = json.loads((FIXTURES / "v1_checkpoint.json").read_text())
        assert v1["version"] == 1
        backend = MemoryBackend()
        backend.save(v1)
        resumed = Campaign.resume(backend)
        resumed.checkpoint()
        rewritten = backend.load()
        assert rewritten["version"] == SNAPSHOT_VERSION
        assert len(rewritten["votes"]["rows"]) == len(v1["votes"])
        assert set(rewritten["caches"]) == {"shard:0", "shard:1"}
        assert Campaign.resume(backend).run().fingerprint() == reference
        assert resumed.run().fingerprint() == reference

    def test_both_v1_fixtures_hold_the_same_state(self, tmp_path):
        v1 = json.loads((FIXTURES / "v1_checkpoint.json").read_text())
        # A copy: even a reader of a WAL-mode file leaves sidecars.
        path = tmp_path / "v1.db"
        shutil.copyfile(FIXTURES / "v1_checkpoint.db", path)
        conn = sqlite3.connect(path)
        votes = [
            list(row)
            for row in conn.execute(
                "SELECT worker_id, task_id, label, wpos, tpos FROM votes "
                "ORDER BY wpos"
            )
        ]
        conn.close()
        assert votes == v1["votes"]


class TestVersion2Checkpoints:
    """A version-2 one-shard checkpoint carries the single scheduler's
    own pacing ledger and the campaign-level cache; it resumes as shard
    0 under the allocator, to the uninterrupted fingerprint."""

    @pytest.fixture(scope="class")
    def reference(self):
        return _fixture_recipe(2).open_campaign().run().fingerprint()

    def test_v2_sqlite_file_resumes_and_is_rewritten_in_current_layout(
        self, reference, tmp_path
    ):
        path = tmp_path / "v2.db"
        shutil.copyfile(FIXTURES / "v2_checkpoint.db", path)
        backend = SQLiteBackend(path)
        stored = backend.load()
        assert stored["version"] == 2
        assert stored["ledger"]["mode"] == "single"
        assert stored["caches"]["campaign"]["entries"]
        resumed = Campaign.resume(backend)
        assert resumed.metrics.completed == _fixture_recipe(2).PAUSE_AT
        resumed.checkpoint()
        backend.close()
        _assert_current_layout(path)

        again = Campaign.resume(SQLiteBackend(path))
        assert again.run().fingerprint() == reference
        assert resumed.run().fingerprint() == reference

    def test_v2_memory_snapshot_resumes(self, reference):
        v2 = json.loads((FIXTURES / "v2_checkpoint.json").read_text())
        assert v2["version"] == 2
        backend = MemoryBackend()
        backend.save(v2)
        resumed = Campaign.resume(backend)
        resumed.checkpoint()
        rewritten = backend.load()
        assert rewritten["version"] == SNAPSHOT_VERSION
        assert set(rewritten["caches"]) == {"shard:0"}
        assert (
            rewritten["caches"]["shard:0"]["entries"][: len(
                v2["caches"]["campaign"]["entries"]
            )]
            == v2["caches"]["campaign"]["entries"]
        )
        assert "mode" not in rewritten["ledger"]
        assert Campaign.resume(backend).run().fingerprint() == reference
        assert resumed.run().fingerprint() == reference

    def test_v2_pacing_ledger_becomes_the_allocators(self):
        v2 = json.loads((FIXTURES / "v2_checkpoint.json").read_text())
        paced = v2["ledger"]["scheduler"]
        backend = MemoryBackend()
        backend.save(v2)
        scheduler = Campaign.resume(backend).engine.scheduler
        allocator = scheduler.allocator
        assert allocator.entitled == paced["entitled"]
        assert allocator.reserved == paced["reserved"]
        assert allocator.refunded == paced["refunded"]
        assert allocator.granted == paced["reserved"]
        assert allocator.reabsorbed == 0.0
        assert allocator.rounds == paced["stats"]["batches"]
        (shard,) = scheduler.shards
        assert len(shard.view) == len(v2["workers"])
        assert shard.scheduler.reserved == paced["reserved"]
        assert shard.granted == paced["reserved"]

    def test_both_v2_fixtures_hold_the_same_state(self, tmp_path):
        v2 = json.loads((FIXTURES / "v2_checkpoint.json").read_text())
        path = tmp_path / "v2.db"
        shutil.copyfile(FIXTURES / "v2_checkpoint.db", path)
        stored = SQLiteBackend(path).load()
        for section in ("ledger", "votes", "records", "task_ids", "caches"):
            assert stored[section] == v2[section], section


class TestTraceRingCheckpoints:
    """Older code journaled the telemetry event ring as an ``events``
    table and kept the span ring in the campaign section.  Such a
    version-3 file resumes to the uninterrupted fingerprint; the table
    stays as it was, and later saves write neither ring."""

    @pytest.fixture(scope="class")
    def reference(self):
        return _fixture_recipe(3).open_campaign().run().fingerprint()

    @staticmethod
    def _events_table(path):
        conn = sqlite3.connect(path)
        rows = conn.execute("SELECT * FROM events ORDER BY seq").fetchall()
        (section,) = conn.execute(
            "SELECT value FROM campaign WHERE key = 'campaign'"
        ).fetchone()
        conn.close()
        return rows, json.loads(section)["telemetry"]

    def test_v3_file_with_trace_rings_resumes_and_saves_no_ring(
        self, reference, tmp_path
    ):
        path = tmp_path / "v3.db"
        shutil.copyfile(FIXTURES / "v3_checkpoint.db", path)
        events_before, telemetry = self._events_table(path)
        assert events_before and telemetry["spans"]
        backend = SQLiteBackend(path)
        stored = backend.load()
        assert stored["version"] == SNAPSHOT_VERSION
        assert "events" not in stored
        resumed = Campaign.resume(backend)
        assert resumed.metrics.completed == _fixture_recipe(3).PAUSE_AT
        assert resumed.telemetry.trace_events() == []
        resumed.run(until=25)
        resumed.checkpoint()
        backend.close()

        events_after, telemetry = self._events_table(path)
        assert events_after == events_before
        assert "spans" not in telemetry and "events" not in telemetry

        again = Campaign.resume(SQLiteBackend(path))
        assert again.run().fingerprint() == reference
        assert resumed.run().fingerprint() == reference


class TestStagingCounterCheckpoints:
    """Code that staged submits on an intake queue saved four more
    intake counters (``drained``, ``drains``, ``peak_pending``,
    ``blocked_submits``).  Checkpoints carrying them resume, the keys
    are dropped, and the fixtures still reach their uninterrupted
    fingerprints."""

    RETIRED = {"drained", "drains", "peak_pending", "blocked_submits"}

    def test_v3_file_with_staging_counters_resumes(self, tmp_path):
        reference = _fixture_recipe(3).open_campaign().run().fingerprint()
        path = tmp_path / "v3.db"
        shutil.copyfile(FIXTURES / "v3_checkpoint.db", path)
        backend = SQLiteBackend(path)
        stored = backend.load()["campaign"]
        assert self.RETIRED <= set(stored["intake_stats"])
        assert self.RETIRED <= set(stored["metrics"]["intake_stats"])
        resumed = Campaign.resume(backend)
        assert resumed.intake_stats.state_dict() == {
            "submitted": 0, "overflows": 0,
        }
        resumed.checkpoint()
        saved = backend.load()["campaign"]["intake_stats"]
        assert set(saved) == {"submitted", "overflows"}
        backend.close()
        assert Campaign.resume(SQLiteBackend(path)).run().fingerprint() == (
            reference
        )
        assert resumed.run().fingerprint() == reference

    def test_v2_snapshot_with_staging_counters_resumes(self):
        """The v2 fixtures were saved with no intake counters (null), so
        the counters (nonzero here) are laid into a copy of the JSON
        snapshot."""
        reference = _fixture_recipe(2).open_campaign().run().fingerprint()
        v2 = json.loads((FIXTURES / "v2_checkpoint.json").read_text())
        assert v2["campaign"]["intake_stats"] is None
        v2["campaign"]["intake_stats"] = {
            "submitted": 12, "overflows": 1, "drained": 12, "drains": 3,
            "peak_pending": 5, "blocked_submits": 2,
        }
        backend = MemoryBackend()
        backend.save(v2)
        resumed = Campaign.resume(backend)
        assert resumed.intake_stats.state_dict() == {
            "submitted": 12, "overflows": 1,
        }
        metrics = resumed.run()
        assert metrics.fingerprint() == reference
        assert metrics.intake_stats == {"submitted": 12, "overflows": 1}
