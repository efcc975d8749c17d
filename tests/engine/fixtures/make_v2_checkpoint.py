"""Write the version-2 checkpoint fixtures ``v2_checkpoint.db`` and
``v2_checkpoint.json`` next to this file.

The committed files were written by the last version-2 code (git
``c1808d5``), from the repository root of that checkout::

    PYTHONPATH=src python tests/engine/fixtures/make_v2_checkpoint.py

Version 2 served a one-shard campaign through a single scheduler with
its own pacing ledger (``"mode": "single"``) and a campaign-level JQ
cache (cache id ``"campaign"``); version 3 serves it as shard 0 under
the budget allocator.  Running this script against a later checkout
writes that checkout's layout instead, which defeats the fixture; keep
the committed files.  The resume tests import :func:`open_campaign`
from here, so the uninterrupted reference run is the same campaign the
fixture paused.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.engine import (
    Campaign,
    CampaignConfig,
    EngineTask,
    MemoryBackend,
    SQLiteBackend,
)
from repro.simulation import SyntheticPoolConfig, generate_pool

HERE = Path(__file__).resolve().parent
DB_PATH = HERE / "v2_checkpoint.db"
JSON_PATH = HERE / "v2_checkpoint.json"

#: Completions before the fixture's checkpoint.
PAUSE_AT = 15


def open_campaign(backend=None) -> Campaign:
    """One shard, re-estimation every 10 completions and telemetry on:
    the single scheduler's pacing ledger, its frontier memo, the
    campaign cache and every journal hold state at the pause."""
    rng = np.random.default_rng(2)
    pool = generate_pool(
        SyntheticPoolConfig(num_workers=10, quality_ceiling=0.95), rng
    )
    config = CampaignConfig(
        budget=16.0,
        confidence_target=0.95,
        seed=8,
        reestimate_every=10,
        telemetry="on",
    )
    campaign = Campaign.open(pool, config, backend=backend)
    truths = np.random.default_rng(8).integers(0, 2, size=40)
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

    campaign = open_campaign(MemoryBackend())
    campaign.run(until=PAUSE_AT)
    campaign.checkpoint()
    JSON_PATH.write_text(json.dumps(campaign.backend.load()) + "\n")
    campaign.close()


if __name__ == "__main__":
    main()
