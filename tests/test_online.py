"""Tests for repro.online (sequential voting with stopping rule)."""

import numpy as np
import pytest

from repro.core import Worker
from repro.online import OnlineDecisionSession, run_online
from repro.voting import posterior_zero


class TestOnlineDecisionSession:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OnlineDecisionSession(confidence_target=0.4)
        with pytest.raises(ValueError):
            OnlineDecisionSession(budget=-1)

    def test_initial_state_is_prior(self):
        session = OnlineDecisionSession(alpha=0.7)
        assert session.posterior_zero == pytest.approx(0.7)
        assert session.answer == 0
        assert session.confidence == pytest.approx(0.7)
        assert session.votes_used == 0

    def test_incremental_matches_batch_posterior(self, rng):
        session = OnlineDecisionSession(alpha=0.3)
        qualities = [0.8, 0.65, 0.7, 0.55]
        votes = [1, 0, 1, 1]
        for q, v in zip(qualities, votes):
            session.add_vote(Worker(f"w{q}", q), v)
        batch = posterior_zero(votes, qualities, 0.3)
        assert session.posterior_zero == pytest.approx(batch, abs=1e-12)

    def test_confidence_target_stops(self):
        session = OnlineDecisionSession(confidence_target=0.9)
        assert not session.should_stop
        session.add_vote(Worker("strong", 0.95), 1)
        assert session.confidence == pytest.approx(0.95)
        assert session.should_stop

    def test_budget_enforced(self):
        session = OnlineDecisionSession(budget=1.0)
        session.add_vote(Worker("a", 0.7, 0.8), 1)
        expensive = Worker("b", 0.9, 0.5)
        assert not session.can_afford(expensive)
        with pytest.raises(ValueError, match="exceeds remaining budget"):
            session.add_vote(expensive, 0)

    def test_invalid_vote(self):
        session = OnlineDecisionSession()
        with pytest.raises(ValueError):
            session.add_vote(Worker("a", 0.7), 2)

    def test_outcome_snapshot(self):
        session = OnlineDecisionSession()
        session.add_vote(Worker("a", 0.8, 1.0), 0)
        outcome = session.outcome(stopped_early=True)
        assert outcome.answer == 0
        assert outcome.votes_used == 1
        assert outcome.cost == 1.0
        assert outcome.stopped_early
        assert len(outcome.history) == 1

    def test_cached_posterior_equals_a_fresh_one(self):
        """Every read between votes, and after a resume, returns exactly
        the posterior a fresh BV run over the votes so far gives."""
        rng = np.random.default_rng(11)
        session = OnlineDecisionSession(alpha=0.35, confidence_target=0.99)
        qualities: list[float] = []
        votes: list[int] = []

        def check(s):
            fresh = posterior_zero(votes, qualities, 0.35)
            answer = 0 if fresh >= 0.5 else 1
            confidence = max(fresh, 1.0 - fresh)
            for _ in range(2):  # the second read hits the cache
                assert s.posterior_zero == fresh
                assert s.confidence == confidence
                assert s.answer == answer
                assert s.should_stop == (confidence >= 0.99)

        for k in range(12):
            q = float(rng.uniform(0.55, 0.95))
            v = int(rng.integers(0, 2))
            qualities.append(q)
            votes.append(v)
            fresh = posterior_zero(votes, qualities, 0.35)
            confidence = session.add_vote(Worker(f"w{k}", q), v)
            assert confidence == max(fresh, 1.0 - fresh)
            check(session)
            resumed = OnlineDecisionSession.from_state(session.state_dict())
            check(resumed)
            assert resumed.state_dict() == session.state_dict()


class TestRunOnline:
    def workers(self):
        return [
            Worker("w1", 0.9, 1.0),
            Worker("w2", 0.8, 1.0),
            Worker("w3", 0.7, 1.0),
            Worker("w4", 0.6, 1.0),
        ]

    def test_stops_early_on_agreement(self):
        outcome = run_online(
            self.workers(), lambda w: 1, confidence_target=0.95
        )
        assert outcome.answer == 1
        assert outcome.stopped_early
        assert outcome.votes_used < 4  # two agreeing strong votes suffice

    def test_exhausts_queue_when_uncertain(self):
        # Alternating votes keep the posterior near 0.5.
        votes = iter([1, 0, 1, 0])
        outcome = run_online(
            self.workers(), lambda w: next(votes), confidence_target=0.99
        )
        assert outcome.votes_used == 4
        assert not outcome.stopped_early

    def test_budget_skips_unaffordable_workers(self):
        workers = [
            Worker("pricey", 0.9, 5.0),
            Worker("cheap1", 0.7, 1.0),
            Worker("cheap2", 0.7, 1.0),
        ]
        outcome = run_online(
            workers, lambda w: 1, confidence_target=0.999, budget=2.0
        )
        assert outcome.cost <= 2.0
        assert outcome.votes_used == 2  # both cheap workers, not pricey

    def test_online_saves_votes_vs_fixed_jury(self, rng):
        """The CDAS-style motivation: on easy tasks (high-quality,
        agreeing workers) the stopping rule uses far fewer votes than
        asking everyone."""
        workers = [Worker(f"w{i}", 0.85, 1.0) for i in range(10)]
        truth = 1
        used = []
        for _ in range(50):
            outcome = run_online(
                workers,
                lambda w: truth if rng.random() < w.quality else 1 - truth,
                confidence_target=0.95,
            )
            used.append(outcome.votes_used)
        assert np.mean(used) < 6  # well under the 10-vote fixed jury

    def test_confidence_controls_accuracy(self, rng):
        """Stopping at confidence tau should deliver accuracy >= tau
        (the posterior is exact under the model)."""
        workers = [Worker(f"w{i}", 0.75, 0.0) for i in range(15)]
        target = 0.9
        correct = 0
        trials = 200
        for _ in range(trials):
            truth = int(rng.random() < 0.5)
            outcome = run_online(
                workers,
                lambda w: truth if rng.random() < w.quality else 1 - truth,
                confidence_target=target,
            )
            correct += int(outcome.answer == truth)
        assert correct / trials >= target - 0.05
