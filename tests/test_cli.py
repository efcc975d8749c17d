"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.io import save_pool_csv


@pytest.fixture
def pool_csv(figure1_pool, tmp_path):
    path = tmp_path / "pool.csv"
    save_pool_csv(figure1_pool, path)
    return str(path)


class TestJQCommand:
    def test_bv_default(self, capsys):
        assert main(["jq", "--qualities", "0.9,0.6,0.6"]) == 0
        out = capsys.readouterr().out
        assert "0.900000" in out

    def test_mv(self, capsys):
        assert main(["jq", "--qualities", "0.9,0.6,0.6", "--strategy", "MV"]) == 0
        assert "0.792000" in capsys.readouterr().out

    def test_with_prior(self, capsys):
        assert main(["jq", "--qualities", "0.8", "--alpha", "0.9"]) == 0
        assert "0.900000" in capsys.readouterr().out

    def test_bad_quality_list(self):
        with pytest.raises(SystemExit):
            main(["jq", "--qualities", "a,b"])


class TestSelectCommand:
    def test_exhaustive(self, pool_csv, capsys):
        code = main([
            "select", "--pool", pool_csv, "--budget", "15",
            "--selector", "exhaustive",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.845000" in out
        assert "B" in out and "C" in out and "G" in out

    def test_annealing_seeded(self, pool_csv, capsys):
        code = main([
            "select", "--pool", pool_csv, "--budget", "15",
            "--selector", "annealing", "--seed", "7",
        ])
        assert code == 0
        assert "jq:" in capsys.readouterr().out


class TestTableCommand:
    def test_figure1(self, pool_csv, capsys):
        code = main([
            "table", "--pool", pool_csv, "--budgets", "5,10,15,20",
            "--selector", "exhaustive",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "75.00%" in out and "86.95%" in out


class TestFrontierCommand:
    def test_exact(self, pool_csv, capsys):
        assert main(["frontier", "--pool", pool_csv]) == 0
        out = capsys.readouterr().out
        assert "exact frontier" in out
        assert "knee" in out

    def test_sampled(self, pool_csv, capsys):
        code = main([
            "frontier", "--pool", pool_csv, "--budgets", "5,15",
            "--seed", "1",
        ])
        assert code == 0
        assert "sampled frontier" in capsys.readouterr().out


class TestSimulateAndExperiment:
    def test_simulate_pool_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "generated.csv"
        code = main([
            "simulate-pool", "--out", str(out_path),
            "--num-workers", "10", "--seed", "1",
        ])
        assert code == 0
        from repro.io import load_pool_csv

        assert len(load_pool_csv(out_path)) == 10

    def test_experiment_fig1(self, capsys):
        assert main(["experiment", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "84.50%" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestEngineCommand:
    ARGS = [
        "engine", "--budget", "20", "--num-tasks", "40",
        "--num-workers", "24", "--seed", "11",
    ]

    @staticmethod
    def stable_lines(output):
        """Report lines minus the wall-clock-derived one."""
        return [
            line for line in output.splitlines() if "throughput" not in line
        ]

    def test_unsharded_run(self, capsys):
        """The default run is one shard under the budget allocator, so
        the report carries the allocator line and one shard line."""
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Campaign engine report" in out
        assert "sharding     : allocator:" in out
        assert "shard 0:" in out
        assert "shard 1:" not in out

    def test_sharded_run_reports_shards(self, capsys):
        assert main(self.ARGS + ["--num-shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "sharding     : allocator:" in out
        assert "shard 3:" in out

    def test_shards_one_is_byte_identical_to_presharding(self, capsys):
        """The CLI output contract: --num-shards 1 is the default run,
        report line for line (modulo wall clock).  The engine-level
        one-shard fingerprint pin lives in
        tests/engine/test_invariants.py."""
        assert main(self.ARGS) == 0
        plain = self.stable_lines(capsys.readouterr().out)
        assert main(self.ARGS + ["--num-shards", "1"]) == 0
        sharded = self.stable_lines(capsys.readouterr().out)
        assert plain == sharded

    def test_routing_policy_flag_is_gone(self):
        """Hash routing is the one rule: the flag no longer parses."""
        for policy in ("hash", "least-loaded"):
            with pytest.raises(SystemExit):
                main(self.ARGS + ["--num-shards", "2",
                                  "--routing-policy", policy])

    def test_ingestion_flag_is_gone(self):
        """Every campaign has one intake: the flag no longer parses."""
        for mode in ("sync", "async"):
            with pytest.raises(SystemExit):
                main(self.ARGS + ["--ingestion", mode])

    def test_nonpositive_shard_count_rejected(self):
        """--num-shards 0 must fail loudly, not silently run unsharded."""
        for bad in ("0", "-4"):
            with pytest.raises(SystemExit):
                main(self.ARGS + ["--num-shards", bad])

    @pytest.mark.parametrize("flag,value", [
        ("--quantization", "auto"),
        ("--cache-max-entries", "8"),
        ("--cache-file", "warm.json"),
    ])
    def test_retired_cache_flags_are_gone(self, flag, value):
        """The JQ cache has one key grid and lives as long as its
        campaign: its tuning and warm-file flags no longer parse."""
        with pytest.raises(SystemExit):
            main(self.ARGS + [flag, value])


class TestEngineLifecycleFlags:
    ARGS = TestEngineCommand.ARGS

    def test_num_shards_is_the_canonical_spelling(self, capsys):
        assert main(self.ARGS + ["--num-shards", "4"]) == 0
        captured = capsys.readouterr()
        assert "shard 3:" in captured.out
        assert "deprecated" not in captured.err

    @pytest.mark.parametrize("flag,value", [
        ("--shards", "2"),
        ("--shard-policy", "hash"),
        ("--jq-kernel", "scalar"),
        ("--vote-fanout", "2"),
    ])
    def test_removed_flags_are_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit):
            main(self.ARGS + [flag, value])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_rejects_vote_fanout(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--budget", "5", "--vote-fanout", "2"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sqlite_backend_requires_state_file(self, capsys):
        assert main(self.ARGS + ["--backend", "sqlite"]) == 2
        assert "--state-file" in capsys.readouterr().err

    def test_resume_requires_sqlite_backend(self, capsys):
        assert main(self.ARGS + ["--resume"]) == 2
        assert "--resume requires" in capsys.readouterr().err

    def test_checkpoint_and_resume_round_trip(self, tmp_path, capsys):
        """Pause a campaign mid-run into SQLite, then finish it from a
        fresh CLI invocation: the union must serve every task exactly
        once."""
        state = str(tmp_path / "campaign.db")
        args = self.ARGS + ["--backend", "sqlite", "--state-file", state]
        assert main(args + ["--run-until", "20"]) == 0
        paused = capsys.readouterr().out
        assert "# paused at" in paused
        assert "--resume to continue" in paused

        assert main(["engine", "--budget", "20", "--backend", "sqlite",
                     "--state-file", state, "--resume"]) == 0
        finished = capsys.readouterr().out
        assert "# paused" not in finished
        assert "40/40 completed" in finished

    def test_fresh_run_refuses_to_clobber_a_checkpoint(self, tmp_path, capsys):
        """Forgetting --resume must not silently overwrite a paused
        campaign's state file."""
        state = str(tmp_path / "campaign.db")
        args = self.ARGS + ["--backend", "sqlite", "--state-file", state]
        assert main(args + ["--run-until", "20"]) == 0
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "already holds a campaign checkpoint" in err
        # The paused campaign is still resumable.
        assert main(["engine", "--budget", "20", "--backend", "sqlite",
                     "--state-file", state, "--resume"]) == 0
        assert "40/40 completed" in capsys.readouterr().out

    def test_resume_needs_no_budget(self, tmp_path, capsys):
        """The checkpoint carries the budget, so --resume without
        --budget continues the paused campaign."""
        state = str(tmp_path / "campaign.db")
        args = self.ARGS + ["--backend", "sqlite", "--state-file", state]
        assert main(args + ["--run-until", "20"]) == 0
        capsys.readouterr()
        assert main(["engine", "--backend", "sqlite", "--state-file", state,
                     "--resume"]) == 0
        assert "40/40 completed" in capsys.readouterr().out

    def test_fresh_run_requires_budget(self, capsys):
        assert main(["engine", "--num-tasks", "5"]) == 2
        assert "--budget is required" in capsys.readouterr().err

    def test_resume_finished_campaign_reprints_report(self, tmp_path, capsys):
        state = str(tmp_path / "campaign.db")
        args = self.ARGS + ["--backend", "sqlite", "--state-file", state]
        assert main(args) == 0
        first = TestEngineCommand.stable_lines(capsys.readouterr().out)
        assert main(["engine", "--budget", "20", "--backend", "sqlite",
                     "--state-file", state, "--resume"]) == 0
        second = TestEngineCommand.stable_lines(capsys.readouterr().out)
        assert first == second


class TestEngineKernelAndCheckpointFlags:
    ARGS = TestEngineCommand.ARGS

    def test_checkpoint_every_persists_mid_run(self, tmp_path, capsys):
        """An auto-checkpointing run killed mid-campaign resumes from
        the last scheduled checkpoint — no manual checkpoint needed."""
        state = str(tmp_path / "campaign.db")
        args = self.ARGS + [
            "--backend", "sqlite", "--state-file", state,
            "--checkpoint-every", "10", "--run-until", "25",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["engine", "--budget", "20", "--backend", "sqlite",
                     "--state-file", state, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "40/40 completed" in out

    def test_paused_report_shows_live_gauges(self, tmp_path, capsys):
        """The ROADMAP bug: paused reports used to render 'peak load 0'
        because gauges were folded in only at finish."""
        state = str(tmp_path / "campaign.db")
        args = self.ARGS + ["--backend", "sqlite", "--state-file", state]
        assert main(args + ["--run-until", "20"]) == 0
        out = capsys.readouterr().out
        assert "# paused at" in out
        assert "peak load    : 0 concurrent seats" not in out
        assert "cache        : " in out


class TestServeCommand:
    """The `repro serve` daemon: flag validation in-process; signal
    handling, checkpoint-on-shutdown, and SQLite durability against a
    real subprocess."""

    def test_sqlite_requires_state_file(self, capsys):
        assert main(["serve", "--budget", "5", "--backend", "sqlite"]) == 2
        assert "--state-file" in capsys.readouterr().err

    def test_fresh_serve_requires_budget(self, capsys):
        # --budget is only optional with --resume (the checkpoint
        # carries it); a fresh serve without it must fail cleanly.
        assert main(["serve"]) == 2
        assert "--budget is required" in capsys.readouterr().err

    def test_fresh_serve_requires_expected_tasks(self, capsys):
        # Serving starts before any task arrives, so budget pacing
        # needs the campaign size up front.
        assert main(["serve", "--budget", "5"]) == 2
        assert "--expected-tasks is required" in capsys.readouterr().err

    def test_ingestion_flag_is_gone(self):
        """Serving needs no mode switch: the flag no longer parses."""
        for mode in ("sync", "async"):
            with pytest.raises(SystemExit):
                main(["serve", "--budget", "5", "--expected-tasks", "5",
                      "--ingestion", mode])

    def test_resume_requires_sqlite_backend(self, capsys):
        assert main(["serve", "--budget", "5", "--resume"]) == 2
        assert "--resume requires" in capsys.readouterr().err

    def test_fresh_serve_refuses_to_clobber_a_checkpoint(
        self, tmp_path, capsys
    ):
        state = tmp_path / "campaign.db"
        assert main([
            "engine", "--budget", "3", "--num-tasks", "5",
            "--num-workers", "8", "--seed", "1",
            "--backend", "sqlite", "--state-file", str(state),
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", "--budget", "3", "--expected-tasks", "5",
            "--backend", "sqlite", "--state-file", str(state),
        ]) == 2
        assert "already holds" in capsys.readouterr().err

    # -- subprocess lifecycle ------------------------------------------

    @staticmethod
    def _spawn(tmp_path, *extra, budget="20", expected_tasks="10"):
        import os
        import re
        import subprocess
        import sys
        import time
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        log = tmp_path / "serve.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # The daemon writes through its own copy of the descriptor, so
        # the test's handle closes as soon as the process is started.
        with open(log, "w") as out:
            process = subprocess.Popen(
                [
                    sys.executable, "-u", "-m", "repro", "serve",
                    "--budget", budget, "--expected-tasks", expected_tasks,
                    "--num-workers", "8", "--seed", "3", "--port", "0",
                    *extra,
                ],
                stdout=out,
                stderr=subprocess.STDOUT,
                env=env,
            )
        url = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            text = log.read_text() if log.exists() else ""
            match = re.search(r"http://[0-9.:]+", text)
            if match:
                url = match.group()
                break
            if process.poll() is not None:
                raise AssertionError(f"serve died at startup:\n{text}")
            time.sleep(0.05)
        assert url, "serve never printed its URL"
        return process, url, log

    @staticmethod
    def _post(url, payload):
        import json
        import urllib.request

        request = urllib.request.Request(
            url, data=json.dumps(payload).encode(), method="POST"
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())

    def test_sigint_checkpoints_and_exits_cleanly(self, tmp_path):
        import json
        import signal

        from repro.engine import Campaign, SQLiteBackend

        state = tmp_path / "campaign.db"
        metrics_out = tmp_path / "metrics.json"
        process, url, log = self._spawn(
            tmp_path,
            "--backend", "sqlite", "--state-file", str(state),
            "--vote-source", "simulated",
            "--metrics-out", str(metrics_out),
            "--metrics-interval", "0.1",
        )
        try:
            staged = self._post(url + "/tasks", {"tasks": [
                {"task_id": f"t{i}", "ground_truth": i % 2}
                for i in range(3)
            ]})
            assert staged == {"staged": 3}
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=30) == 0
        finally:
            process.kill()
        text = log.read_text()
        assert "rerun with --resume" in text
        # The periodic + shutdown flush left valid JSON behind.
        snapshot = json.loads(metrics_out.read_text())
        assert snapshot["submitted"] == 3
        # The checkpoint is durable and resumable.
        campaign = Campaign.resume(SQLiteBackend(state))
        assert campaign.metrics.submitted == 3
        campaign.close()

    def test_served_campaign_with_binding_budget_matches_in_process(
        self, tmp_path
    ):
        """`repro serve` starts before any task is POSTed; with
        --expected-tasks it paces the budget exactly like an in-process
        campaign pacing over its submitted tasks.  The budget binds and
        the batches are small, so a first round granted the whole budget
        would fund different juries."""
        import numpy as np

        from repro.engine import Campaign, CampaignConfig, EngineTask
        from repro.engine import SQLiteBackend
        from repro.simulation import SyntheticPoolConfig, generate_pool

        state = tmp_path / "campaign.db"
        rows = [{"task_id": f"t{i}", "ground_truth": i % 2} for i in range(12)]
        process, url, log = self._spawn(
            tmp_path,
            "--backend", "sqlite", "--state-file", str(state),
            "--vote-source", "simulated", "--batch-size", "4",
            budget="1.0", expected_tasks="12",
        )
        try:
            assert self._post(url + "/tasks", {"tasks": rows}) == {
                "staged": 12
            }
            self._post(url + "/admin/close", {"mode": "drain"})
            assert process.wait(timeout=30) == 0
        finally:
            process.kill()
        assert "12/12 completed" in log.read_text()

        pool = generate_pool(
            SyntheticPoolConfig(num_workers=8, quality_ceiling=0.95),
            np.random.default_rng(3),
        )
        reference = Campaign.open(pool, CampaignConfig(
            budget=1.0, batch_size=4, seed=3, vote_source="simulated"
        ))
        reference.submit(EngineTask(**row) for row in rows)
        expected = reference.run()
        assert expected.total_spend > 0.8
        served = Campaign.resume(SQLiteBackend(state))
        assert served.metrics.fingerprint() == expected.fingerprint()
        served.close()

    def test_serve_resumes_a_campaign_checkpointed_by_engine(self, tmp_path):
        """A campaign paused and checkpointed by `repro engine` is served
        to completion by `repro serve --resume`, landing on the
        fingerprint of an uninterrupted `repro engine` run."""
        from repro.engine import Campaign, SQLiteBackend

        flags = ["--budget", "20", "--num-tasks", "60", "--num-workers", "8",
                 "--seed", "3", "--backend", "sqlite"]
        state = tmp_path / "campaign.db"
        assert main(["engine", *flags, "--state-file", str(state),
                     "--run-until", "30"]) == 0
        whole = tmp_path / "whole.db"
        assert main(["engine", *flags, "--state-file", str(whole)]) == 0

        process, url, log = self._spawn(
            tmp_path, "--backend", "sqlite", "--state-file", str(state),
            "--resume",
        )
        try:
            assert self._post(url + "/admin/close", {"mode": "drain"}) == {
                "closing": "drain"
            }
            assert process.wait(timeout=30) == 0
        finally:
            process.kill()
        assert "60/60 completed" in log.read_text()

        served = Campaign.resume(SQLiteBackend(state))
        reference = Campaign.resume(SQLiteBackend(whole))
        assert served.done and reference.done
        assert served.metrics.fingerprint() == reference.metrics.fingerprint()
        served.close()
        reference.close()

    def test_double_signal_force_exits_without_corrupting_sqlite(
        self, tmp_path
    ):
        import signal
        import sqlite3
        import time

        from repro.engine import Campaign, SQLiteBackend

        state = tmp_path / "campaign.db"
        process, url, log = self._spawn(
            tmp_path, "--backend", "sqlite", "--state-file", str(state)
        )
        try:
            self._post(url + "/tasks", {"tasks": [
                {"task_id": f"t{i}"} for i in range(3)
            ]})
            self._post(url + "/admin/checkpoint", {})
            process.send_signal(signal.SIGINT)
            time.sleep(0.05)
            process.send_signal(signal.SIGINT)
            returncode = process.wait(timeout=30)
        finally:
            process.kill()
        # Either the graceful path won the race (0) or the second
        # signal force-exited (130) — both must leave the durable
        # checkpoint loadable and the database physically intact.
        assert returncode in (0, 130)
        connection = sqlite3.connect(state)
        assert connection.execute(
            "PRAGMA integrity_check"
        ).fetchone()[0] == "ok"
        connection.close()
        campaign = Campaign.resume(SQLiteBackend(state))
        assert campaign.metrics.submitted == 3
        assert campaign.offers is not None
        campaign.close()
