"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``jq``             compute Jury Quality for a quality vector
``select``         solve JSP over a pool CSV under a budget
``table``          budget-quality table (Figure 1 style) for a pool CSV
``frontier``       cost-JQ Pareto frontier for a pool CSV
``simulate-pool``  generate a synthetic Section-6.1.1 pool CSV
``experiment``     run one of the paper's figure/table drivers
``engine``         run a simulated campaign through the serving engine
``serve``          serve a campaign over HTTP (tasks and votes on the wire)
``trace``          inspect Chrome-trace files written by ``engine``

Every command reads/writes plain CSV/JSON (see :mod:`repro.io`), so the
CLI composes with shell pipelines and spreadsheets.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

import numpy as np

from .experiments import (
    run_fig1,
    run_fig6a,
    run_fig6b,
    run_fig6c,
    run_fig6d,
    run_fig7a,
    run_fig7b,
    run_fig8a,
    run_fig8b,
    run_fig9a,
    run_fig9b,
    run_fig9c,
    run_fig9d,
    run_table3,
)
from .engine import (
    Campaign,
    CampaignConfig,
    CampaignServer,
    EngineTask,
    SQLiteBackend,
)
from .frontier import exact_frontier, sampled_frontier
from .io import load_pool_csv, save_pool_csv
from .quality import jury_quality
from .selection import (
    AnnealingSelector,
    ExhaustiveSelector,
    GreedyQualitySelector,
    GreedyRatioSelector,
    JQObjective,
    MVJSSelector,
    budget_quality_table,
)
from .simulation import SyntheticPoolConfig, generate_pool
from .voting import make_strategy

_EXPERIMENTS = {
    "fig1": lambda: run_fig1(),
    "fig6a": lambda: run_fig6a(reps=3, epsilon=1e-6),
    "fig6b": lambda: run_fig6b(reps=3, epsilon=1e-6),
    "fig6c": lambda: run_fig6c(reps=3, epsilon=1e-6),
    "fig6d": lambda: run_fig6d(reps=3, epsilon=1e-6),
    "fig7a": lambda: run_fig7a(reps=3),
    "fig7b": lambda: run_fig7b(),
    "table3": lambda: run_table3(reps=10),
    "fig8a": lambda: run_fig8a(reps=10),
    "fig8b": lambda: run_fig8b(reps=10),
    "fig9a": lambda: run_fig9a(reps=10),
    "fig9b": lambda: run_fig9b(reps=20),
    "fig9c": lambda: run_fig9c(reps=100),
    "fig9d": lambda: run_fig9d(),
}

_SELECTORS = {
    "annealing": lambda obj: AnnealingSelector(obj, restarts=3),
    "exhaustive": ExhaustiveSelector,
    "mvjs": lambda obj: MVJSSelector(),
    "greedy-quality": GreedyQualitySelector,
    "greedy-ratio": GreedyRatioSelector,
}


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal jury selection in crowdsourcing (EDBT 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_jq = sub.add_parser("jq", help="compute Jury Quality")
    p_jq.add_argument("--qualities", type=_parse_floats, required=True,
                      help="comma-separated worker qualities")
    p_jq.add_argument("--alpha", type=float, default=0.5,
                      help="prior Pr(t=0), default 0.5")
    p_jq.add_argument("--strategy", default="BV",
                      help="voting strategy name (default BV)")
    p_jq.add_argument("--method", default="auto",
                      choices=["auto", "exact", "bucket"])
    p_jq.add_argument("--num-buckets", type=int, default=50)

    p_select = sub.add_parser("select", help="solve JSP over a pool CSV")
    p_select.add_argument("--pool", required=True, help="pool CSV path")
    p_select.add_argument("--budget", type=float, required=True)
    p_select.add_argument("--alpha", type=float, default=0.5)
    p_select.add_argument("--selector", default="annealing",
                          choices=sorted(_SELECTORS))
    p_select.add_argument("--seed", type=int, default=None)

    p_table = sub.add_parser("table", help="budget-quality table")
    p_table.add_argument("--pool", required=True)
    p_table.add_argument("--budgets", type=_parse_floats, required=True)
    p_table.add_argument("--alpha", type=float, default=0.5)
    p_table.add_argument("--selector", default="annealing",
                         choices=sorted(_SELECTORS))
    p_table.add_argument("--seed", type=int, default=None)

    p_frontier = sub.add_parser("frontier", help="cost-JQ Pareto frontier")
    p_frontier.add_argument("--pool", required=True)
    p_frontier.add_argument("--alpha", type=float, default=0.5)
    p_frontier.add_argument(
        "--budgets", type=_parse_floats, default=None,
        help="sample at these budgets (default: exact for small pools)")
    p_frontier.add_argument("--seed", type=int, default=None)

    p_sim = sub.add_parser("simulate-pool", help="generate a synthetic pool")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--num-workers", type=int, default=50)
    p_sim.add_argument("--quality-mean", type=float, default=0.7)
    p_sim.add_argument("--quality-var", type=float, default=0.05)
    p_sim.add_argument("--cost-mean", type=float, default=0.05)
    p_sim.add_argument("--cost-sd", type=float, default=0.2)
    p_sim.add_argument("--seed", type=int, default=None)

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("name", choices=sorted(_EXPERIMENTS))

    # Flags shared by `repro engine` and `repro serve`, defined once.
    campaign = argparse.ArgumentParser(add_help=False)
    campaign.add_argument("--pool", default=None,
                          help="pool CSV (default: synthetic pool)")
    campaign.add_argument("--num-workers", type=int, default=50,
                          help="synthetic pool size when --pool is omitted")
    campaign.add_argument("--budget", type=float, default=None,
                          help="total campaign budget (required unless "
                               "--resume, which restores it from the "
                               "checkpoint)")
    campaign.add_argument("--capacity", type=int, default=4,
                          help="max concurrent jury seats per worker")
    campaign.add_argument("--batch-size", type=int, default=25)
    campaign.add_argument("--frontier-pool-size", type=_positive_int,
                          default=None,
                          help="per-batch candidate pool for the exact "
                               "frontier (default 10, max 20; >14 builds "
                               "through the streamed lattice sweep)")
    campaign.add_argument("--alpha", type=float, default=0.5)
    campaign.add_argument("--confidence", type=float, default=0.97,
                          help="early-stop confidence target")
    campaign.add_argument("--num-shards", type=_positive_int, default=1,
                          help="worker-pool shards (tasks route by id "
                               "hash)")
    campaign.add_argument("--coordinate", default=None, metavar="PATH",
                          help="shared seat-lease SQLite file: engines "
                               "pointing at the same file share one worker "
                               "pool without double-seating (keep it "
                               "separate from --state-file)")
    campaign.add_argument("--lease-ttl", type=_positive_float, default=30.0,
                          help="seat-lease lifetime in seconds under "
                               "--coordinate; a crashed engine's seats "
                               "return after one TTL (serve renews at "
                               "ttl/3)")
    campaign.add_argument("--backend", default="memory",
                          choices=("memory", "sqlite"),
                          help="campaign state backend (sqlite persists "
                               "the campaign to --state-file)")
    campaign.add_argument("--state-file", default=None,
                          help="SQLite state file (required with "
                               "--backend sqlite)")
    campaign.add_argument("--resume", action="store_true",
                          help="resume the campaign checkpointed in "
                               "--state-file instead of starting fresh")
    campaign.add_argument("--checkpoint-every", type=_nonnegative_int,
                          default=0,
                          help="checkpoint the campaign to its backend "
                               "after every N completed tasks (0 = only "
                               "the final checkpoint; needs --backend "
                               "sqlite to survive the process)")
    campaign.add_argument("--telemetry", default=None,
                          choices=("off", "on"),
                          help="enable the telemetry hub (counters, spans, "
                               "trace); implied by --trace-out/"
                               "--metrics-out (serve's GET /metrics answers "
                               "either way)")
    campaign.add_argument("--trace-out", default=None,
                          help="write a Chrome trace-event JSON here at "
                               "exit (atomic tmp+rename; open in Perfetto "
                               "or chrome://tracing)")
    campaign.add_argument("--metrics-out", default=None,
                          help="write a telemetry metrics snapshot (JSON) "
                               "here at exit, and every --metrics-interval "
                               "while serving (atomic tmp+rename)")
    campaign.add_argument("--metrics-interval", type=_positive_float,
                          default=None,
                          help="windowed-rate interval in seconds for "
                               "intake/throughput series, and serve's "
                               "--metrics-out flush period (default 1.0)")
    campaign.add_argument("--seed", type=int, default=None)

    p_eng = sub.add_parser(
        "engine", parents=[campaign],
        help="run a simulated campaign through the serving engine")
    p_eng.add_argument("--num-tasks", type=int, default=1000)
    p_eng.add_argument("--reestimate-every", type=int, default=0,
                       help="re-fit worker qualities every N completions "
                            "(0 = off)")
    p_eng.add_argument("--run-until", type=_positive_int, default=None,
                       help="pause after N completed tasks (with a sqlite "
                            "backend the paused state is checkpointed, so "
                            "--resume continues it)")

    p_srv = sub.add_parser(
        "serve", parents=[campaign],
        help="serve a campaign over HTTP (daemon mode: tasks, "
             "assignments, and votes arrive on the wire)")
    p_srv.add_argument("--expected-tasks", type=_positive_int, default=None,
                       help="expected campaign size: budget pacing grants "
                            "each round budget * tasks / expected "
                            "(required unless --resume)")
    p_srv.add_argument("--vote-source", default="external",
                       choices=("external", "simulated"),
                       help="'external' publishes vote offers and takes "
                            "votes via POST /votes; 'simulated' draws "
                            "votes from worker qualities (tasks still "
                            "arrive via POST /tasks)")
    p_srv.add_argument("--host", default=None,
                       help="bind address (default: config serve_host, "
                            "127.0.0.1)")
    p_srv.add_argument("--port", type=_nonnegative_int, default=None,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: config serve_port, 8765)")

    p_trace = sub.add_parser(
        "trace", help="inspect Chrome-trace files written by the engine")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tsum = trace_sub.add_parser(
        "summarize",
        help="per-span duration stats and event counts for a trace file")
    p_tsum.add_argument("file", help="Chrome trace-event JSON path")
    p_tsum.add_argument("--top", type=_positive_int, default=20,
                        help="show at most this many span rows")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "jq":
        strategy = make_strategy(args.strategy)
        jq = jury_quality(
            args.qualities,
            strategy,
            alpha=args.alpha,
            method=args.method,
            num_buckets=args.num_buckets,
        )
        print(f"JQ({args.strategy.upper()}, alpha={args.alpha:g}) = {jq:.6f}")
        return 0

    if args.command == "select":
        pool = load_pool_csv(args.pool)
        objective = JQObjective(alpha=args.alpha)
        selector = _SELECTORS[args.selector](objective)
        result = selector.select(
            pool, args.budget, rng=np.random.default_rng(args.seed)
        )
        ids = ", ".join(result.worker_ids) or "(empty)"
        print(f"jury: {{{ids}}}")
        print(f"jq: {result.jq:.6f}")
        print(f"cost: {result.cost:g} / budget {args.budget:g}")
        print(f"selector: {result.selector} "
              f"({result.evaluations} JQ evaluations, "
              f"{result.elapsed_seconds:.3f}s)")
        return 0

    if args.command == "table":
        pool = load_pool_csv(args.pool)
        objective = JQObjective(alpha=args.alpha)
        selector = _SELECTORS[args.selector](objective)
        table = budget_quality_table(
            pool, args.budgets, selector,
            rng=np.random.default_rng(args.seed),
        )
        print(table.render())
        return 0

    if args.command == "frontier":
        pool = load_pool_csv(args.pool)
        objective = JQObjective(alpha=args.alpha)
        if args.budgets is None:
            frontier = exact_frontier(pool, objective)
        else:
            frontier = sampled_frontier(
                pool, args.budgets, objective,
                rng=np.random.default_rng(args.seed),
            )
        kind = "exact" if frontier.exact else "sampled"
        print(f"# {kind} frontier, {len(frontier.points)} points")
        print(frontier.render())
        knee = frontier.knee()
        print(f"# knee: cost {knee.cost:g} at JQ {knee.jq:.2%}")
        return 0

    if args.command == "simulate-pool":
        config = SyntheticPoolConfig(
            num_workers=args.num_workers,
            quality_mean=args.quality_mean,
            quality_var=args.quality_var,
            cost_mean=args.cost_mean,
            cost_sd=args.cost_sd,
        )
        pool = generate_pool(config, np.random.default_rng(args.seed))
        save_pool_csv(pool, args.out)
        print(f"wrote {len(pool)} workers to {args.out}")
        return 0

    if args.command == "experiment":
        result = _EXPERIMENTS[args.name]()
        print(result.render())
        return 0

    if args.command in ("engine", "serve"):
        run = (
            _run_engine_command if args.command == "engine"
            else _run_serve_command
        )
        try:
            return run(args)
        except _UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "trace":
        return _run_trace_summarize(args)

    raise AssertionError(f"unhandled command {args.command!r}")


class _UsageError(Exception):
    """A flag combination ``repro engine``/``repro serve`` cannot run
    (exit status 2)."""


def _open_campaign(args, required=("budget",), **fields):
    """Validate the backend and resume flags, then resume the
    checkpointed campaign or open a fresh one from the shared flags plus
    the command's own config ``fields``.  ``required`` names the flags a
    fresh campaign cannot do without.  Returns ``(campaign, backend,
    rng)``; ``rng`` (the seeded generator that drew the synthetic pool)
    is ``None`` for a resumed campaign."""
    if args.backend == "sqlite" and args.state_file is None:
        raise _UsageError("--backend sqlite requires --state-file")
    if args.resume and args.backend != "sqlite":
        raise _UsageError("--resume requires --backend sqlite --state-file")
    missing = [name for name in required if getattr(args, name) is None]
    if missing and not args.resume:
        flag = "--" + missing[0].replace("_", "-")
        raise _UsageError(
            f"{flag} is required (omit it only with --resume, which "
            "restores it from the checkpoint)"
        )
    backend = (
        SQLiteBackend(args.state_file) if args.backend == "sqlite" else None
    )
    if args.resume:
        return Campaign.resume(backend), backend, None
    if backend is not None and backend.exists():
        backend.close()
        raise _UsageError(
            f"{args.state_file} already holds a campaign checkpoint; pass "
            "--resume to continue it, or point --state-file at a new file"
        )
    rng = np.random.default_rng(args.seed)
    if args.pool is not None:
        pool = load_pool_csv(args.pool)
    else:
        # Cap qualities below 1: the clipped Gaussian otherwise mints
        # perfect workers and trivial single-vote juries.
        pool = generate_pool(
            SyntheticPoolConfig(
                num_workers=args.num_workers, quality_ceiling=0.95
            ),
            rng,
        )
    # --trace-out / --metrics-out are useless without the hub, so they
    # imply telemetry unless the user said "off" explicitly.
    telemetry = args.telemetry
    if telemetry is None:
        telemetry = "on" if (args.trace_out or args.metrics_out) else "off"
    config = CampaignConfig(
        budget=args.budget,
        capacity=args.capacity,
        batch_size=args.batch_size,
        frontier_pool_size=args.frontier_pool_size or 10,
        alpha=args.alpha,
        confidence_target=args.confidence,
        checkpoint_every=args.checkpoint_every,
        coordinate_path=args.coordinate,
        lease_ttl=args.lease_ttl,
        telemetry=telemetry,
        metrics_interval=args.metrics_interval or 1.0,
        seed=args.seed,
        num_shards=args.num_shards,
        **fields,
    )
    return Campaign.open(pool, config, backend=backend), backend, rng


def _report(campaign, backend, metrics) -> int:
    """Print the end-of-run report and close the campaign."""
    if not campaign.done:
        note = (
            "checkpointed; rerun with --resume to continue"
            if backend is not None
            else "memory backend: paused state dies with this process"
        )
        print(f"# paused at {metrics.completed} completed tasks ({note})")
    print(metrics.render(budget=campaign.config.budget))
    campaign.close()
    return 0


def _run_engine_command(args) -> int:
    campaign, backend, rng = _open_campaign(
        args, reestimate_every=args.reestimate_every
    )
    if rng is not None:
        # Truths must follow the declared prior, or the report's
        # realized-vs-predicted comparison is miscalibrated.
        truths = (rng.random(args.num_tasks) >= args.alpha).astype(int)
        campaign.submit(
            EngineTask(f"task-{i}", prior=args.alpha, ground_truth=int(t))
            for i, t in enumerate(truths)
        )
    try:
        metrics = campaign.run(until=args.run_until)
        if backend is not None:
            campaign.checkpoint()
    finally:
        # Observability must survive a failed run: flush trace/metrics
        # from here so a crash mid-campaign still leaves the files
        # behind (atomic tmp+rename, so they are valid or absent —
        # never truncated).
        _write_observability(campaign, args.trace_out, args.metrics_out)
    return _report(campaign, backend, metrics)


def _atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as JSON via tmp file + rename, so readers (and
    crashes) never observe a partially written file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_observability(campaign, trace_out, metrics_out,
                         quiet: bool = False) -> None:
    """Flush --trace-out / --metrics-out.  Runs from ``finally`` blocks
    and signal-shutdown paths, so it must never raise: a broken flush
    is reported to stderr, not allowed to mask the original error."""
    if trace_out is not None:
        try:
            if campaign.telemetry.enabled:
                count = campaign.write_trace(trace_out)
                if not quiet:
                    print(f"# wrote trace: {count} events to {trace_out}")
            else:
                print(
                    "warning: --trace-out ignored: campaign was opened "
                    "with telemetry off (resumed checkpoint?)",
                    file=sys.stderr,
                )
        except Exception as exc:
            print(f"warning: could not write {trace_out}: {exc}",
                  file=sys.stderr)
    if metrics_out is not None:
        try:
            _atomic_write_json(metrics_out, campaign.snapshot_metrics())
            if not quiet:
                print(f"# wrote metrics snapshot to {metrics_out}")
        except Exception as exc:
            print(f"warning: could not write {metrics_out}: {exc}",
                  file=sys.stderr)


def _run_serve_command(args) -> int:
    import signal

    campaign, backend, _ = _open_campaign(
        args,
        required=("budget", "expected_tasks"),
        expected_tasks=args.expected_tasks,
        vote_source=args.vote_source,
        serve_host=args.host if args.host is not None else "127.0.0.1",
        serve_port=args.port if args.port is not None else 8765,
    )
    server = CampaignServer(campaign, host=args.host, port=args.port)

    # Graceful shutdown: the first SIGINT/SIGTERM pauses the serving
    # loop (serve() returns, we checkpoint and flush observability,
    # exit 0 — --resume continues the campaign).  A second signal
    # force-exits immediately: the last checkpoint is already durable
    # (SQLite WAL), so impatience cannot corrupt state, only lose
    # whatever happened since.
    signal_count = {"n": 0}

    def _on_signal(signum, frame):
        signal_count["n"] += 1
        if signal_count["n"] >= 2:
            os._exit(130)
        # Lock-free: wakes the serve loop, which runs on this same
        # thread, through call_soon_threadsafe.
        server.stop()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }

    periodic = ()
    if args.metrics_out is not None:
        periodic = ((
            args.metrics_interval or 1.0,
            lambda: _write_observability(campaign, None, args.metrics_out,
                                         quiet=True),
        ),)

    print(f"# serving campaign on {server.url} "
          f"(vote_source={campaign.config.vote_source}, "
          f"num_shards={campaign.config.num_shards})")
    print("# POST /tasks, GET /assignments?worker=, POST /votes, "
          "GET /status, GET /metrics, POST /admin/checkpoint, "
          "POST /admin/close")
    try:
        try:
            with server:
                metrics = server.serve(periodic=periodic)
            # Shutdown in one order, with the listener already down:
            # count every acknowledged task, checkpoint, then flush.
            campaign.fold_intake()
            if backend is not None:
                campaign.checkpoint()
        finally:
            _write_observability(campaign, args.trace_out, args.metrics_out)
        return _report(campaign, backend, metrics)
    finally:
        # After a shutdown signal the process is about to exit, and the
        # interpreter resets a Python handler to the default (die by
        # the signal) mid-teardown: ignore further signals instead.
        for sig, handler in previous.items():
            signal.signal(sig, signal.SIG_IGN if signal_count["n"] else handler)


def _run_trace_summarize(args) -> int:
    """Digest a Chrome trace-event file: per-span duration stats
    (count / total / mean / max, in ms) and instant-event counts."""
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.file} is not valid JSON: {exc}",
              file=sys.stderr)
        return 2
    # Both container shapes Chrome accepts: the object form (what the
    # engine writes) and the bare event array.
    events = data.get("traceEvents") if isinstance(data, dict) else data
    if not isinstance(events, list):
        print(f"error: {args.file} has no traceEvents list",
              file=sys.stderr)
        return 2

    spans: dict[str, list[float]] = {}
    instants: dict[str, int] = {}
    skipped = 0
    for event in events:
        if not isinstance(event, dict):
            skipped += 1
            continue
        phase = event.get("ph")
        name = str(event.get("name", "?"))
        if phase == "X":
            spans.setdefault(name, []).append(
                float(event.get("dur", 0)) / 1000.0
            )
        elif phase == "i" or phase == "I":
            instants[name] = instants.get(name, 0) + 1
        elif phase != "M":  # metadata rows are expected, not "skipped"
            skipped += 1

    total_spans = sum(len(v) for v in spans.values())
    print(f"trace: {args.file}")
    print(f"  {total_spans} spans, {sum(instants.values())} instant "
          f"events" + (f", {skipped} unrecognized" if skipped else ""))
    if spans:
        print("spans (ms):")
        header = (f"  {'name':<24} {'count':>6} {'total':>10} "
                  f"{'mean':>9} {'max':>9}")
        print(header)
        ranked = sorted(
            spans.items(), key=lambda kv: -sum(kv[1])
        )[: args.top]
        for name, durations in ranked:
            total = sum(durations)
            print(f"  {name:<24} {len(durations):>6} {total:>10.3f} "
                  f"{total / len(durations):>9.4f} "
                  f"{max(durations):>9.4f}")
        if len(spans) > args.top:
            print(f"  ... {len(spans) - args.top} more span names "
                  f"(--top to widen)")
    if instants:
        print("events:")
        for name, count in sorted(
            instants.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            print(f"  {name:<24} {count:>6}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
