"""Record the benchmark's baseline: every workload over several seeds.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 20 \\
        --out perfbench/baseline.json

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
then one traced run per workload.  For each end-to-end metric it
records the median, the quartiles and their spread (interquartile range
over median, the quartiles as ``statistics.quantiles(n=4)`` gives them)
with the number of runs; for each workload, the per-layer metrics of
the traced run and every campaign's metrics fingerprint per seed (the
traced run must reproduce the untraced one's).  ``run.py`` checks later
runs of a recorded seed against those fingerprints.  Host core count,
Python and numpy versions and the git revision (when the tree is a git
checkout) go alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(RUN),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The report's table lines read "  <name> <value> <unit> <samples>".
    result["samples"] = {
        parts[0]: int(parts[-1])
        for parts in (line.split() for line in lines[:-1])
        if len(parts) == 4 and parts[0] in result["metrics"]
    }
    # "# fingerprints 0:<hex> 1:<hex> ...", one per campaign.
    pairs = next(l for l in lines if l.startswith("# fingerprints ")).split()[2:]
    result["fingerprints"] = [
        fp for _, fp in sorted((int(k), fp) for k, fp in (p.split(":") for p in pairs))
    ]
    return result


def spread_summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "n": len(values),
        "median": median,
        "p25": q1,
        "p75": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="steady,burst,churn,serve")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    import numpy

    seeds = parse_seeds(args.seeds)
    record = {
        "host": {
            "cores": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "git_sha": git_sha(),
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, trace=0)
            runs.append(result)
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}",
                flush=True,
            )
        names = list(runs[0]["metrics"])
        traced = run_once(workload, seeds[0], args.seconds, trace=1)
        if traced["fingerprints"] != runs[0]["fingerprints"]:
            raise RuntimeError(f"{workload} seed {seeds[0]}: fingerprints differ")
        entry = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs),
            # Every campaign's fingerprint per seed; run.py fails a run
            # whose campaigns decide differently.
            "fingerprints": {
                str(seed): r["fingerprints"] for seed, r in zip(seeds, runs)
            },
            "end_to_end": {
                name: {
                    **spread_summary([r["metrics"][name]["value"] for r in runs]),
                    "unit": runs[0]["metrics"][name]["unit"],
                    "samples_per_run": min(r["samples"][name] for r in runs),
                    "values": [r["metrics"][name]["value"] for r in runs],
                }
                for name in names
            },
            "per_layer": {
                name: m["value"] for name, m in traced["metrics"].items()
            },
        }
        record["workloads"][workload] = entry
        print(f"== {workload}: spread of each end-to-end metric")
        for name, summary in entry["end_to_end"].items():
            print(
                f"  {name:<20} median {summary['median']:<12.6g} "
                f"spread {summary['spread']:7.2%}  (n={summary['n']})"
            )
    text = json.dumps(record, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
