"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables/figures at a
scaled-down repetition count (wall-clock sanity) and *emits the
rendered series* through the ``emit`` fixture: the table is printed
through capture (visible with ``pytest -s`` and in piped output) and
merged into ``benchmarks/results.txt`` (keyed per table header) so a
``pytest benchmarks/bench_*.py`` run leaves the reproduced numbers on
disk and partial runs refresh only their own tables.

Engine benchmarks additionally record a machine-readable trajectory
through ``emit_json``: one entry per benchmark id in
``benchmarks/BENCH_engine.json`` (frontier build times and memory,
checkpoint timings, telemetry overhead), so CI — and anyone bisecting a
regression —
can diff performance numbers without parsing the rendered tables.
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_PATH = pathlib.Path(__file__).parent / "results.txt"
JSON_PATH = pathlib.Path(__file__).parent / "BENCH_engine.json"


@pytest.fixture
def emit(capsys):
    """Emit a rendered experiment table to terminal + results file.

    Like ``emit_json``, blocks merge rather than clobber: each emitted
    table is keyed by its first line (the ``== id: ...`` header), and
    re-emitting a block replaces the old copy in place while leaving
    every other committed table untouched — so a single-benchmark run
    (CI's kernel smoke step, or a bisection) refreshes only its own
    tables instead of wiping the rest of ``results.txt``.
    """

    def _emit(rendered: str) -> None:
        with capsys.disabled():
            print()
            print(rendered)
        blocks = []
        if RESULTS_PATH.exists():
            blocks = [
                b for b in RESULTS_PATH.read_text().split("\n\n") if b.strip()
            ]
        header = rendered.splitlines()[0]
        replaced = False
        for i, block in enumerate(blocks):
            if block.splitlines()[0] == header:
                blocks[i] = rendered
                replaced = True
                break
        if not replaced:
            blocks.append(rendered)
        RESULTS_PATH.write_text("\n\n".join(blocks) + "\n\n")

    return _emit


@pytest.fixture
def emit_json():
    """Merge one benchmark's metrics into ``BENCH_engine.json``.

    ``emit_json("checkpoint-scaling", {"time_ratio": ...})`` — values
    must be JSON-serializable scalars/lists; keys are overwritten per
    benchmark id, so re-running a single benchmark refreshes only its
    own entry.
    """

    def _emit_json(benchmark_id: str, payload: dict) -> None:
        existing = {}
        if JSON_PATH.exists():
            try:
                existing = json.loads(JSON_PATH.read_text() or "{}")
            except json.JSONDecodeError:
                existing = {}
        existing[benchmark_id] = payload
        JSON_PATH.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")

    return _emit_json
