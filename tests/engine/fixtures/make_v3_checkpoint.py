"""Write the version-3 checkpoint fixture ``v3_checkpoint.db`` next to
this file.

The committed file was written by the last code that journaled the
telemetry event ring (git ``e4c65fe``), from the repository root of
that checkout::

    PYTHONPATH=src python tests/engine/fixtures/make_v3_checkpoint.py

It has the current layout version, 3, plus what later code no longer
writes: an ``events`` table holding the trace ring, and the span ring
inside the campaign section's telemetry state.  Running this script
against a later checkout writes that checkout's layout instead, which
defeats the fixture; keep the committed file.  The resume tests import
:func:`open_campaign` from here, so the uninterrupted reference run is
the same campaign the fixture paused.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.engine import Campaign, CampaignConfig, EngineTask, SQLiteBackend
from repro.simulation import SyntheticPoolConfig, generate_pool

HERE = Path(__file__).resolve().parent
DB_PATH = HERE / "v3_checkpoint.db"

#: Completions before the fixture's checkpoint.
PAUSE_AT = 15


def open_campaign(backend=None) -> Campaign:
    """Two shards, re-estimation every 10 completions and telemetry on:
    the event ring, the span ring and the pushed counters all hold
    state at the pause."""
    rng = np.random.default_rng(3)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=12, quality_ceiling=0.95), rng
    )
    config = CampaignConfig(
        budget=16.0,
        confidence_target=0.95,
        seed=9,
        num_shards=2,
        reestimate_every=10,
        telemetry="on",
    )
    campaign = Campaign.open(pool, config, backend=backend)
    truths = np.random.default_rng(9).integers(0, 2, size=40)
    campaign.submit(
        EngineTask(f"t{i}", ground_truth=int(t)) for i, t in enumerate(truths)
    )
    return campaign


def main() -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{DB_PATH}{suffix}").unlink(missing_ok=True)
    campaign = open_campaign(SQLiteBackend(DB_PATH))
    campaign.run(until=PAUSE_AT)
    campaign.checkpoint()
    campaign.close()  # the last connection folds the WAL into the file


if __name__ == "__main__":
    main()
