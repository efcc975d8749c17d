"""Run one workload of the canonical benchmark and print its metrics.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

Workloads: ``steady``, ``burst``, ``churn`` and ``serve`` (see
``perfbench/workloads.py``).  A run times :data:`SETUP_REPEATS` fresh
processes up to "ready to submit", runs the first campaign once as a
warm-up, times single engine events in a latency pass (simulated
workloads), then repeats the seed's campaigns in cycles for
``--seconds`` seconds; every repeat of a campaign must reproduce its
metrics fingerprint, and so must every campaign of a seed that
``perfbench/baseline.json`` recorded.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles and prints the per-layer metrics, including
the tracing overhead, and writes the spans to ``perfbench/out/``.
``--profile`` runs the seed's campaigns once under cProfile and prints
the top functions by cumulative time (a cross-check of the wrapper
attribution, not a source of numbers).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BASELINE = ROOT / "perfbench" / "baseline.json"

#: Fresh processes timed for ``setup_s``.
SETUP_REPEATS = 7

#: Campaigns of a simulated workload that get latency runs, for the
#: vote and assign samples, and back-to-back repeats of each.  The tail
#: of ~50 us vote events follows the host's moment-to-moment
#: interference, which the speed probe does not capture; an operation's
#: fastest of two close repeats cut the per-campaign p99's swing from
#: ~2x to ~5%.
LATENCY_CAMPAIGNS = 2
LATENCY_REPEATS = 2

#: Environment toggles that would silently change the load shape.
FORCE_ENV = (
    "REPRO_ENGINE_FORCE_INGESTION",
    "REPRO_ENGINE_FORCE_PARALLEL_SHARDS",
    "REPRO_ENGINE_FORCE_TELEMETRY",
    "REPRO_ENGINE_FORCE_DISPATCH",
)


def _import_path() -> None:
    """Serve the checkout's own sources, never an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program sources at {SRC / 'repro'}; run from the "
            "root of a full checkout"
        )
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    for name in FORCE_ENV:
        os.environ.pop(name, None)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true")
    # Internal: one set-up probe (see measure_setup).
    parser.add_argument("--setup-probe", type=float, default=None)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def setup_probe(workload_name: str, seed: int, spawned_at: float) -> None:
    """Child side: import the program, build the first campaign's inputs
    and open it (serve: listening), then report the seconds since the
    parent spawned this process."""
    _import_path()
    from perfbench import workloads as wl
    from repro.engine import Campaign, CampaignServer

    workload = wl.WORKLOADS[workload_name]
    inputs = wl.make_inputs(workload, seed, 0)
    OUT.mkdir(parents=True, exist_ok=True)
    db_path = OUT / f"setup-{workload.name}-{os.getpid()}.db"
    campaign = Campaign.open(
        inputs.pool,
        wl.make_config(workload, inputs),
        wl.open_backend(workload, db_path),
    )
    server = None
    if workload.serve:
        server = CampaignServer(campaign, host="127.0.0.1", port=0)
        server.start_listener()
    ready = time.monotonic() - spawned_at
    if server is not None:
        server.shutdown()
    campaign.close()
    wl.remove_db(db_path)
    print(f"READY {ready!r}", flush=True)


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Parent side: spawn ``repeats`` probes one after another; each
    time is scaled by the host speed measured around it."""
    from perfbench.hostspeed import NOMINAL_RATE, HostSpeed

    speed = HostSpeed()
    times = []
    for _ in range(repeats):
        before = speed.rate()
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(seed),
                "--setup-probe", repr(spawned_at),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        lines = [l for l in out.splitlines() if l.startswith("READY ")]
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        factor = (before + speed.rate()) / 2.0 / NOMINAL_RATE
        times.append(float(lines[-1].split()[1]) * factor)
    return times


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def recorded_fingerprints(workload: str, seed: int) -> list[str] | None:
    """The fingerprints :data:`BASELINE` recorded for each campaign of
    ``(workload, seed)``, or ``None`` when it has none."""
    import json

    if not BASELINE.is_file():
        return None
    record = json.loads(BASELINE.read_text())
    entry = record.get("workloads", {}).get(workload, {})
    return entry.get("fingerprints", {}).get(str(seed))


class Run:
    """The campaigns of one benchmark run and what they measured."""

    def __init__(self, workload, seed: int) -> None:
        from perfbench import workloads as wl

        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.inputs = [
            wl.make_inputs(workload, seed, k) for k in range(workload.subseeds)
        ]
        OUT.mkdir(parents=True, exist_ok=True)
        self.db_path = OUT / f"{workload.name}-{os.getpid()}.db"
        self.reference: dict[int, str] = {}
        self.recorded = recorded_fingerprints(workload.name, seed)
        self.all_results = []
        #: Passes of latency runs over the first campaigns (simulated
        #: workloads), shaped like ``cycles``.
        self.latency_runs: list[list] = []

    def campaign(self, k: int, tracer=None, latency: bool = False):
        with tracer if tracer is not None else contextlib.nullcontext():
            result = self.wl.run_campaign(
                self.workload,
                self.inputs[k],
                self.db_path,
                probe_checkpoint=tracer is None and not latency,
                latency=latency,
            )
        expected = self.reference.setdefault(k, result.fingerprint)
        result.checks["fingerprint identical across runs"] = (
            result.fingerprint == expected
        )
        if self.recorded is not None:
            # Across processes and commits: the decisions this seed made
            # when the baseline was recorded.
            result.checks["fingerprint matches the baseline record"] = (
                k < len(self.recorded) and result.fingerprint == self.recorded[k]
            )
        self.all_results.append(result)
        return result

    def cycle(self, tracer=None) -> list:
        """One throughput run of every campaign."""
        return [self.campaign(k, tracer) for k in range(self.workload.subseeds)]

    def latency_pass(self) -> None:
        """:data:`LATENCY_REPEATS` latency runs of each of the first
        :data:`LATENCY_CAMPAIGNS` campaigns, in turn (simulated
        workloads; ``serve`` times its requests in every run)."""
        if self.workload.serve:
            return
        campaigns = range(min(LATENCY_CAMPAIGNS, self.workload.subseeds))
        for _ in range(LATENCY_REPEATS):
            self.latency_runs.append(
                [self.campaign(k, latency=True) for k in campaigns]
            )

    @property
    def attempted(self) -> int:
        return sum(r.attempted + len(r.checks) for r in self.all_results)

    @property
    def failed(self) -> int:
        return sum(r.failed + len(r.failed_checks) for r in self.all_results)

    def failed_checks(self) -> list[str]:
        return sorted({c for r in self.all_results for c in r.failed_checks})


def served_rate(cycles: list[list], attr: str) -> float:
    """``attr`` per served second over one cycle of the seed's
    campaigns, each campaign timed by its median across cycles."""
    from perfbench.stats import median

    total = sum(getattr(r, attr) for r in cycles[0])
    seconds = sum(
        median([cycle[k].run_s for cycle in cycles])
        for k in range(len(cycles[0]))
    )
    return total / seconds


def op_samples(cycles: list[list], op: str) -> list[float]:
    """One latency per operation of the seed's campaigns.

    A campaign replays the same operations in the same order every
    cycle, so each operation's latency is its fastest repeat; a
    momentary stall (a preempted CPU, a collection) then moves the tail
    only if it recurs in every repeat.  With two repeats a median would
    still average a stall in.  (Samples of a campaign whose operation
    count varied are pooled as-is.)
    """
    values: list[float] = []
    for k in range(len(cycles[0])):
        repeats = [cycle[k].samples.get(op, []) for cycle in cycles]
        if len({len(r) for r in repeats}) == 1:
            values.extend(min(column) for column in zip(*repeats))
        else:
            values.extend(v for r in repeats for v in r)
    return values


def end_to_end(
    cycles: list[list],
    latency_runs: list,
    setup_times: list[float],
    attempted: int,
    failed: int,
):
    """``{name: (value, unit, samples)}`` of every end-to-end metric.

    ``cycles`` are the measured passes over the seed's campaigns; the
    first one also gives the seed-determined accuracy and spend.
    ``latency_runs`` (simulated workloads) are the passes of latency
    runs that give the vote and assign samples; without them the cycles
    give every sample.
    """
    from perfbench.stats import median, percentile

    reference = cycles[0]

    def latency(op: str, q: float):
        source = latency_runs if latency_runs and op in ("vote", "assign") else cycles
        values = op_samples(source, op)
        if not values:
            raise RuntimeError(f"no {op} samples measured")
        return 1000.0 * percentile(values, q), "ms", len(values)

    completed = sum(r.completed for r in reference)
    scored = sum(r.scored for r in reference)
    n_runs = sum(len(c) for c in cycles)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "tasks_per_s": (served_rate(cycles, "tasks"), "1/s", n_runs),
        "setup_s": (median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
        "accuracy": (
            sum(r.correct for r in reference) / scored, "ratio", scored
        ),
        "spend_per_task": (
            sum(r.spend for r in reference) / completed, "budget", completed
        ),
        "ok_ratio": (1.0 - failed / attempted, "ratio", attempted),
        "requests_per_s": (served_rate(cycles, "requests"), "1/s", n_runs),
        "vote_p50_ms": latency("vote", 50.0),
        "vote_p99_ms": latency("vote", 99.0),
        "assign_p50_ms": latency("assign", 50.0),
        "submit_p50_ms": latency("submit", 50.0),
        "checkpoint_p50_ms": latency("checkpoint", 50.0),
    }


#: Busy / self / share metric names of every layer.
def layer_names(layer: str) -> tuple[str, str, str]:
    prefix = {"engine.run": "engine", "sharding.admit": "sharding"}.get(
        layer, layer
    )
    busy = "checkpoint.s" if layer == "checkpoint" else f"{layer}_s"
    return busy, f"{prefix}.self_s", f"{prefix}.share"


def per_layer(tracer, traced: list[list], untraced: list[list]):
    """``{name: (value, unit, samples)}`` of every per-layer metric.

    Times and counts are per cycle (one pass over the seed's
    campaigns); shares are of the time spent in ``Campaign.run`` (or
    ``Campaign.serve``) during the traced cycles.
    """
    from perfbench.stats import median
    from perfbench.tracing import LAYERS

    n = len(traced)
    results = [r for cycle in traced for r in cycle]
    layer = tracer.layer
    # Shares divide by the traced loop's own (unscaled) span time.
    wall = layer("engine.run").busy_s

    def total(key):
        return sum(r.layer[key] for r in results)

    metrics = {}
    for name in LAYERS:
        totals = layer(name)
        busy, self_name, share = layer_names(name)
        metrics[busy] = (totals.busy_s / n, "s", totals.calls)
        metrics[self_name] = (totals.self_s / n, "s", totals.calls)
        metrics[share] = (totals.busy_s / wall, "ratio", totals.calls)

    def per_call(numerator, calls):
        return numerator / calls if calls else 0.0

    allocate = layer("portfolio.allocate")
    admit = layer("scheduler.admit")
    builds = layer("frontier.build").calls
    votes = sum(r.votes for r in results)
    admitted, deferred = total("admitted"), total("deferred")
    granted = total("granted")
    lookups = total("cache_lookups")
    untraced_rate = served_rate(untraced, "tasks")
    traced_rate = served_rate(traced, "tasks")
    plain = [r for cycle in untraced for r in cycle]
    unscaled_rate = sum(r.tasks for r in plain) / sum(r.raw_run_s for r in plain)
    metrics.update(
        {
            "portfolio.allocate_calls": (allocate.calls / n, "count", n),
            "portfolio.tasks_per_call": (
                per_call(allocate.work, allocate.calls), "count", allocate.calls
            ),
            "scheduler.admit_calls": (admit.calls / n, "count", n),
            "scheduler.admit_p99_ms": (
                tracer.p99_ms("scheduler.admit"), "ms", admit.calls
            ),
            "scheduler.substitute_calls": (
                layer("scheduler.substitute").calls / n, "count", n
            ),
            "scheduler.deferred_ratio": (
                per_call(deferred, admitted + deferred), "ratio",
                admitted + deferred,
            ),
            "online.posterior_calls": (
                layer("online.posterior").calls / n, "count", n
            ),
            "online.posterior_per_vote": (
                per_call(layer("online.posterior").calls, votes), "ratio", votes
            ),
            "estimation.em_calls": (layer("estimation.em").calls / n, "count", n),
            "estimation.em_answers": (
                layer("estimation.em").work / n, "count", n
            ),
            "frontier.builds": (builds / n, "count", n),
            "frontier.memo_hit_ratio": (
                1.0 - per_call(builds, admit.calls) if admit.calls else 0.0,
                "ratio",
                admit.calls,
            ),
            "cache.hit_ratio": (
                per_call(total("cache_hits"), lookups), "ratio", lookups
            ),
            "cache.evaluations": (total("cache_evaluations") / n, "count", n),
            "sharding.rounds": (total("rounds") / n, "count", n),
            "sharding.reabsorbed_ratio": (
                per_call(total("reabsorbed"), granted), "ratio", n
            ),
            "checkpoint.calls": (layer("checkpoint").calls / n, "count", n),
            "checkpoint.p99_ms": (
                tracer.p99_ms("checkpoint"), "ms", layer("checkpoint").calls
            ),
            "backends.db_bytes": (
                total("db_bytes") / len(results), "bytes", len(results)
            ),
            "server.mailbox_wait_s": (
                (layer("server.apply_vote").busy_s
                 - layer("engine.deliver_vote").busy_s) / n,
                "s",
                layer("server.apply_vote").calls,
            ),
            "trace.tasks_per_s_traced": (traced_rate, "1/s", len(results)),
            "trace.tasks_per_s_untraced": (
                untraced_rate, "1/s", sum(len(c) for c in untraced)
            ),
            "trace.overhead_ratio": (
                untraced_rate / traced_rate, "ratio", len(results)
            ),
            # As read off the clock, before host-speed scaling.
            "trace.tasks_per_s_unscaled": (unscaled_rate, "1/s", len(plain)),
            "trace.wall_s": (wall / n, "s", len(results)),
            "host.speed_factor": (
                median([f for r in plain for f in r.speed]), "ratio",
                sum(len(r.speed) for r in plain),
            ),
            "trace.spans": (
                float(len(tracer.spans) + tracer.dropped) / n, "count", n
            ),
        }
    )
    return metrics


def measure(args) -> tuple[Run, dict]:
    from perfbench import workloads as wl
    from perfbench.tracing import Tracer

    workload = wl.WORKLOADS[args.workload]
    setup_times = (
        measure_setup(workload.name, args.seed, SETUP_REPEATS)
        if not args.trace
        else []
    )
    run = Run(workload, args.seed)
    # Warm-up: the first campaign once, unmeasured.
    run.campaign(0)
    if not args.trace:
        run.latency_pass()
    tracer = Tracer() if args.trace else None
    traced, untraced = [], []
    need_untraced = 1 if tracer is not None else 2
    start = time.perf_counter()
    last = 0.0
    while (
        len(untraced) < need_untraced
        or (tracer is not None and not traced)
        or time.perf_counter() - start + last <= args.seconds
    ):
        began = time.perf_counter()
        if tracer is not None and len(untraced) > len(traced):
            traced.append(run.cycle(tracer))
        else:
            untraced.append(run.cycle())
        last = time.perf_counter() - began
    if tracer is None:
        metrics = end_to_end(
            untraced, run.latency_runs, setup_times, run.attempted, run.failed
        )
    else:
        metrics = per_layer(tracer, traced, untraced)
        tracer.write(OUT / f"trace-{workload.name}-{args.seed}.json")
    return run, metrics


def print_report(args, run: Run, metrics: dict) -> None:
    kind = "per-layer" if args.trace else "end-to-end"
    print(f"# {args.workload} seed={args.seed} {kind} metrics")
    print(f"# {'metric':<34} {'value':>14}  {'unit':<7} samples")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:<34} {value:>14.6g}  {unit:<7} {count}")
    sliced = {id(r) for p in run.latency_runs for r in p}
    served = [r for r in run.all_results if id(r) not in sliced]
    if served:
        factors = sorted(f for r in served for f in r.speed)
        raw_rate = sum(r.tasks for r in served) / sum(r.raw_run_s for r in served)
        print(
            f"# host speed factor median {factors[len(factors) // 2]:.3f} "
            f"(times are scaled to factor 1); unscaled {raw_rate:.1f} "
            "tasks/s over all throughput runs"
        )
    if run.failed_checks():
        print(f"# FAILED CHECKS: {', '.join(run.failed_checks())}")
    # Full fingerprints, for comparing runs across processes (the result
    # line below may carry only its four keys).
    print(
        "# fingerprints "
        + " ".join(f"{k}:{fp}" for k, fp in sorted(run.reference.items()))
    )


def result_line(run: Run, metrics: dict) -> str:
    import json

    return json.dumps(
        {
            "correct": not run.failed_checks(),
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _) in metrics.items()
            },
        }
    )


def profile(args) -> None:
    import cProfile
    import pstats

    from perfbench import workloads as wl

    run = Run(wl.WORKLOADS[args.workload], args.seed)
    run.cycle()  # warm-up, so the profile shows the steady state
    profiler = cProfile.Profile()
    profiler.enable()
    run.cycle()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(30)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_path()
    from perfbench import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(wl.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    if args.setup_probe is not None:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    if args.profile:
        profile(args)
        return 0
    if hasattr(os, "sched_setaffinity"):
        # One CPU for every thread of the run, so the host-speed probe
        # measures the CPU the measured work runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run, metrics = measure(args)
    print_report(args, run, metrics)
    print(result_line(run, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
