"""Determinism guarantees: same seed, same result, everywhere.

Reproducibility is a first-class requirement for a paper-reproduction
library: every stochastic entry point must be a pure function of its
seed.
"""

import numpy as np
import pytest

from repro import OptimalJurySelectionSystem
from repro.experiments import run_fig6a, run_fig8a, run_table3
from repro.frontier import sampled_frontier
from repro.multiclass import MultiClassWorker, select_multiclass_jury
from repro.selection import AnnealingSelector, JQObjective, MVJSSelector
from repro.simulation import AMTConfig, AMTSimulator, generate_pool


class TestSelectionDeterminism:
    def test_annealer(self, figure1_pool):
        results = [
            AnnealingSelector(JQObjective()).select(
                figure1_pool, 12, rng=np.random.default_rng(9)
            )
            for _ in range(2)
        ]
        assert results[0].worker_ids == results[1].worker_ids
        assert results[0].jq == results[1].jq

    def test_mvjs(self, figure1_pool):
        results = [
            MVJSSelector().select(
                figure1_pool, 12, rng=np.random.default_rng(9)
            )
            for _ in range(2)
        ]
        assert results[0].worker_ids == results[1].worker_ids

    def test_system_facade(self, figure1_pool):
        tables = [
            OptimalJurySelectionSystem(figure1_pool, seed=5)
            .budget_quality_table([5, 15])
            .rows
            for _ in range(2)
        ]
        assert tables[0] == tables[1]

    def test_multiclass_selection(self):
        workers = [
            MultiClassWorker.from_quality(f"w{i}", q, 3, cost=1.0)
            for i, q in enumerate([0.8, 0.7, 0.9, 0.6])
        ]
        a = select_multiclass_jury(
            workers, 2.0, rng=np.random.default_rng(4), epsilon=1e-4
        )
        b = select_multiclass_jury(
            workers, 2.0, rng=np.random.default_rng(4), epsilon=1e-4
        )
        assert a.indices == b.indices

    def test_sampled_frontier(self, figure1_pool):
        a = sampled_frontier(
            figure1_pool, [5, 15], rng=np.random.default_rng(2)
        )
        b = sampled_frontier(
            figure1_pool, [5, 15], rng=np.random.default_rng(2)
        )
        assert a.points == b.points


class TestSimulationDeterminism:
    def test_pool_generation(self):
        a = generate_pool(rng=np.random.default_rng(11))
        b = generate_pool(rng=np.random.default_rng(11))
        assert a == b

    def test_amt_campaign(self):
        config = AMTConfig(
            num_workers=16, num_tasks=40, questions_per_hit=10,
            assignments_per_hit=8,
        )
        a = AMTSimulator(config, np.random.default_rng(1)).run()
        b = AMTSimulator(config, np.random.default_rng(1)).run()
        assert a.latent_qualities == b.latent_qualities
        assert a.vote_order == b.vote_order


class TestExperimentDeterminism:
    def test_fig6a(self):
        a = run_fig6a(mus=(0.7,), reps=2, seed=3, epsilon=1e-3)
        b = run_fig6a(mus=(0.7,), reps=2, seed=3, epsilon=1e-3)
        assert a.series == b.series

    def test_fig8a(self):
        a = run_fig8a(mus=(0.6,), reps=3, seed=3)
        b = run_fig8a(mus=(0.6,), reps=3, seed=3)
        assert a.series == b.series

    def test_table3(self):
        a = run_table3(budgets=(0.3,), reps=3, seed=3)
        b = run_table3(budgets=(0.3,), reps=3, seed=3)
        assert a.counts == b.counts

    def test_seed_none_varies(self):
        """Seedless runs must actually vary (no hidden global seed).

        BV's JQ is exactly 1.0 whenever a clipped quality lands on 0 or
        1 (about a third of 11-juror juries at mu = 0.6), so a draw
        averages enough juries that three saturated draws cannot tie by
        chance (with 2 juries that tie happened about once in 800 runs).
        """
        draws = {
            tuple(run_fig8a(mus=(0.6,), reps=8, seed=None).series[1].values)
            for _ in range(3)
        }
        assert len(draws) > 1
