"""Tests for the benchmark's own helpers: order statistics, sample
counts, the tracer's patching discipline and the fleet's vote draw."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import run as bench  # noqa: E402
from perfbench import hostspeed, stats, tracing, workloads  # noqa: E402


@pytest.fixture(autouse=True)
def _no_recorded_baseline(tmp_path, monkeypatch):
    """The recorded fingerprints belong to the full-size workloads; the
    shrunken ones here must not be checked against them."""
    monkeypatch.setattr(bench, "BASELINE", tmp_path / "no-baseline.json")


# ----------------------------------------------------------------------
# Order statistics and sample counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", [1, 2, 5, 10, 101])
@pytest.mark.parametrize("q", [0.0, 25.0, 50.0, 90.0, 99.0, 100.0])
def test_percentile_matches_numpy_linear(size, q):
    values = list(np.random.default_rng(size).normal(size=size))
    assert stats.percentile(values, q) == pytest.approx(
        float(np.percentile(values, q)), rel=1e-12, abs=1e-12
    )


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101.0)


def _result(k, run_s, samples):
    return workloads.CampaignResult(
        workload="steady",
        subseed=k,
        tasks=100,
        run_s=run_s,
        raw_run_s=run_s,
        attempted=100,
        failed=0,
        requests=400,
        fingerprint="x",
        completed=100,
        correct=80,
        scored=100,
        spend=10.0,
        votes=300,
        samples=samples,
    )


def test_end_to_end_reports_sample_counts_and_medians():
    samples = {
        "submit": [0.001] * 4,
        "vote": [0.002] * 10,
        "assign": [0.003] * 3,
        "checkpoint": [0.004],
    }
    # Two sub-seeds over three cycles; each campaign is timed by its
    # median across cycles (1.0 s and 3.0 s), outliers ignored.
    cycles = [
        [_result(0, t0, samples), _result(1, t1, samples)]
        for t0, t1 in ((1.0, 3.0), (9.0, 3.0), (1.0, 2.0))
    ]
    metrics = bench.end_to_end(cycles, [], [0.5, 0.7, 0.6], attempted=10, failed=1)
    assert metrics["tasks_per_s"] == (200 / 4.0, "1/s", 6)
    assert metrics["requests_per_s"][0] == pytest.approx(800 / 4.0)
    assert metrics["setup_s"] == (0.6, "s", 3)
    # One sample per operation: 10 votes in each of the 2 campaigns.
    assert metrics["vote_p50_ms"] == (pytest.approx(2.0), "ms", 20)
    assert metrics["checkpoint_p50_ms"][2] == 2
    assert metrics["accuracy"] == (0.8, "ratio", 200)
    assert metrics["spend_per_task"][0] == pytest.approx(0.1)
    assert metrics["ok_ratio"] == (0.9, "ratio", 10)


def test_latency_runs_give_the_vote_and_assign_samples():
    plain = {"submit": [0.001] * 4, "checkpoint": [0.004]}
    cycles = [[_result(0, 1.0, plain)] for _ in range(3)]
    latency = [
        _result(k, 1.2, {"submit": [0.001] * 4, "vote": [0.005] * 7, "assign": [a]})
        for k, a in enumerate((0.003, 0.009))
    ]
    metrics = bench.end_to_end(cycles, [latency], [0.5], attempted=10, failed=0)
    # Throughput comes from the plain runs only.
    assert metrics["tasks_per_s"] == (100 / 1.0, "1/s", 3)
    # The latency runs' operations are pooled across their campaigns.
    assert metrics["vote_p50_ms"] == (pytest.approx(5.0), "ms", 14)
    assert metrics["assign_p50_ms"] == (pytest.approx(6.0), "ms", 2)
    # A second pass: each operation keeps its fastest repeat.
    slower = [
        _result(k, 1.2, {"vote": [0.007] * 7, "assign": [a]})
        for k, a in enumerate((0.001, 0.011))
    ]
    metrics = bench.end_to_end(
        cycles, [latency, slower], [0.5], attempted=10, failed=0
    )
    assert metrics["vote_p50_ms"][0] == pytest.approx(5.0)
    assert metrics["assign_p50_ms"][0] == pytest.approx((1.0 + 9.0) / 2)
    assert metrics["submit_p50_ms"] == (pytest.approx(1.0), "ms", 4)


def test_op_samples_take_each_operations_fastest_repeat():
    cycles = [
        [_result(0, 1.0, {"vote": [1.0, 5.0, 2.0]})],
        [_result(0, 1.0, {"vote": [9.0, 4.0, 2.0]})],
        [_result(0, 1.0, {"vote": [1.0, 6.0, 3.0]})],
    ]
    assert bench.op_samples(cycles, "vote") == [1.0, 4.0, 2.0]
    # Repeats of unequal length cannot be aligned and are pooled.
    cycles[1][0].samples["vote"] = [7.0]
    assert sorted(bench.op_samples(cycles, "vote")) == [1, 1, 2, 3, 5, 6, 7]


def test_report_prints_units_and_sample_counts(capsys):
    run = bench.Run.__new__(bench.Run)
    run.all_results, run.latency_runs, run.reference = [], [], {0: "ab" * 32}
    args = dataclasses.make_dataclass("A", ["workload", "seed", "trace"])(
        "steady", 3, 0
    )
    bench.print_report(args, run, {"vote_p99_ms": (1.5, "ms", 1234)})
    line = next(l for l in capsys.readouterr().out.splitlines() if "vote_p99" in l)
    assert line.split()[-2:] == ["ms", "1234"]


class _FixedSpeed:
    def __init__(self, rates):
        self.rates = iter(rates)

    def rate(self):
        return next(self.rates)


def test_meter_scales_each_interval_by_the_probes_around_it():
    nominal = hostspeed.NOMINAL_RATE
    meter = hostspeed.Meter(_FixedSpeed([nominal, nominal / 2, nominal / 4]))
    meter.add("slice", 2.0)
    meter.flush()  # factor (1 + 1/2) / 2
    meter.add("slice", 4.0)
    meter.add("vote", 1.0)
    meter.flush()  # factor (1/2 + 1/4) / 2
    assert meter.scaled["slice"] == [1.5, 1.5]
    assert meter.raw["slice"] == [2.0, 4.0]
    assert meter.scaled["vote"] == [0.375]
    assert meter.factors == [0.75, 0.375]
    assert meter.total("slice") == 3.0 and meter.raw_total("slice") == 6.0
    assert len(meter.scaled["wall"]) == 2


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def _inner(x):
    return x + 1 if not isinstance(x, list) else len(x)


def _outer(x):
    return _inner(x) * 2


def _list_len(args, kwargs):
    return float(len(args[0])) if isinstance(args[0], list) else 0.0


_TOY_TARGETS = (
    tracing.Target("toy.outer", __name__, "_outer"),
    tracing.Target("toy.inner", __name__, "_inner", work=_list_len),
)


def _current(targets):
    return [getattr(*tracing.resolve(t)) for t in targets]


def test_tracer_restores_every_original():
    before = [
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr in map(tracing.resolve, tracing.TARGETS)
    ]
    tracer = tracing.Tracer()
    with tracer:
        for owner, attr in map(tracing.resolve, tracing.TARGETS):
            assert hasattr(getattr(owner, attr), "__wrapped__"), attr
        with pytest.raises(RuntimeError):
            tracer.install()
    after = [
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr in map(tracing.resolve, tracing.TARGETS)
    ]
    assert all(a is b for a, b in zip(after, before))
    assert not tracer.installed


def test_tracer_restores_after_an_exception():
    originals = _current(_TOY_TARGETS)
    with pytest.raises(TypeError):
        with tracing.Tracer(_TOY_TARGETS):
            _outer(None)
    assert _current(_TOY_TARGETS) == originals


def test_tracer_spans_nest_and_self_time_excludes_children():
    tracer = tracing.Tracer(_TOY_TARGETS)
    with tracer:
        assert _outer(1) == 4
        _inner([1, 2, 3])
    outer, inner = tracer.layer("toy.outer"), tracer.layer("toy.inner")
    assert (outer.calls, inner.calls) == (1, 2)
    assert inner.work == 3  # only the list argument has a length
    inner_under_outer = next(s for s in tracer.spans if s[1] == "toy.inner")
    outer_span = next(s for s in tracer.spans if s[1] == "toy.outer")
    assert inner_under_outer[4] == outer_span[0]
    assert outer.self_s == pytest.approx(
        outer.busy_s - (inner_under_outer[3] - inner_under_outer[2])
    )
    assert tracer.spans[-1][4] == -1  # the second inner call is top-level


def test_tracer_write_round_trips(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "MAX_SPANS", 1)
    tracer = tracing.Tracer(_TOY_TARGETS)
    with tracer:
        _outer(1)
    path = tmp_path / "spans.json"
    tracer.write(path)
    import json

    payload = json.loads(path.read_text())
    assert payload["dropped"] == 1 and len(payload["spans"]) == 1


def _tiny(name, **changes):
    base = dict(tasks=60, subseeds=1)
    return dataclasses.replace(workloads.WORKLOADS[name], **{**base, **changes})


def test_untraced_campaign_installs_no_wrapper(monkeypatch, tmp_path):
    import repro.engine.scheduler as scheduler

    expected = _current(tracing.TARGETS)
    original = scheduler.allocate_budget
    seen = []

    def spy(*args, **kwargs):
        live = _current(tracing.TARGETS)
        seen.append(
            all(
                now is before or now is spy
                for now, before in zip(live, expected)
            )
        )
        return original(*args, **kwargs)

    monkeypatch.setattr(scheduler, "allocate_budget", spy)
    monkeypatch.setattr(bench, "OUT", tmp_path)
    run = bench.Run(_tiny("steady", checkpoint_every=20), seed=5)
    result = run.campaign(0)
    assert seen and all(seen)
    assert not result.failed_checks
    assert not any(p.suffix == ".db" for p in tmp_path.iterdir())


def test_traced_latency_and_plain_campaigns_agree(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    run = bench.Run(_tiny("burst", tasks=400), seed=2)
    tracer = tracing.Tracer()
    plain = run.campaign(0)
    traced = run.campaign(0, tracer)
    sliced = run.campaign(0, latency=True)
    assert plain.fingerprint == traced.fingerprint == sliced.fingerprint
    assert not traced.failed_checks and not sliced.failed_checks
    assert "vote" not in plain.samples and sliced.samples["vote"]
    assert tracer.layer("portfolio.allocate").calls > 0
    assert tracer.layer("sharding.admit").calls == traced.layer["rounds"]
    assert not tracer.installed


def test_recorded_fingerprints_are_checked(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    workload = _tiny("steady", subseeds=2, backend="memory", checkpoint_every=0)
    fresh = bench.Run(workload, seed=4)
    assert fresh.recorded is None
    first = [fresh.campaign(k).fingerprint for k in range(2)]
    record = {"workloads": {"steady": {"fingerprints": {"4": [first[0], "0" * 64]}}}}
    monkeypatch.setattr(bench, "BASELINE", tmp_path / "baseline.json")
    bench.BASELINE.write_text(__import__("json").dumps(record))
    run = bench.Run(workload, seed=4)
    check = "fingerprint matches the baseline record"
    assert run.campaign(0).checks[check] is True
    assert run.campaign(1).checks[check] is False
    assert run.failed_checks() == [check]
    # A seed without a record is only checked within the run.
    assert bench.Run(workload, seed=5).recorded is None


# ----------------------------------------------------------------------
# The serve fleet
# ----------------------------------------------------------------------
def test_vote_draw_is_process_stable():
    votes = [workloads.vote_for(7, f"t{i}", "w3", 0.7, 1) for i in range(64)]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from perfbench.workloads import vote_for;"
        "print(''.join(str(vote_for(7, f't{i}', 'w3', 0.7, 1))"
        " for i in range(64)))"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.strip()
    assert out == "".join(map(str, votes))
    assert 0 < sum(votes) < 64


def test_serve_fleet_replays_the_same_campaign(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    workload = _tiny("serve", tasks=50, checkpoint_every=20, scrape_every=20)
    run = bench.Run(workload, seed=3)
    first, second = run.campaign(0), run.campaign(0)
    assert first.fingerprint == second.fingerprint
    assert first.requests == second.requests
    assert first.failed == second.failed == 0
    assert not second.failed_checks
    assert first.layer["statuses"]["checkpoint"] == {200: 2}
