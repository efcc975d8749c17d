"""Tests for one-coin EM and Dawid-Skene EM."""

import numpy as np
import pytest

from repro.core import EstimationError
from repro.estimation import AnswerMatrix, dawid_skene, one_coin_em
from repro.multiclass import ConfusionMatrix


def simulate_binary_campaign(rng, num_workers=15, num_tasks=120):
    """Workers with known qualities answer binary tasks."""
    qualities = rng.uniform(0.55, 0.95, size=num_workers)
    truths = rng.integers(0, 2, size=num_tasks)
    answers = AnswerMatrix()
    for w in range(num_workers):
        for t in range(num_tasks):
            correct = rng.random() < qualities[w]
            label = truths[t] if correct else 1 - truths[t]
            answers.record(f"w{w}", f"t{t}", int(label))
    return qualities, truths, answers


def simulate_multiclass_campaign(rng, num_workers=10, num_tasks=150, labels=3):
    matrices = []
    for _ in range(num_workers):
        raw = rng.uniform(0.05, 0.4, size=(labels, labels)) + 2.5 * np.eye(labels)
        matrices.append(raw / raw.sum(axis=1, keepdims=True))
    truths = rng.integers(0, labels, size=num_tasks)
    answers = AnswerMatrix(num_labels=labels)
    for w, matrix in enumerate(matrices):
        for t in range(num_tasks):
            vote = rng.choice(labels, p=matrix[truths[t]])
            answers.record(f"w{w}", f"t{t}", int(vote))
    return matrices, truths, answers


class TestOneCoinEM:
    def test_recovers_truths_and_qualities(self, rng):
        qualities, truths, answers = simulate_binary_campaign(rng)
        result = one_coin_em(answers)
        assert result.converged
        recovered = result.map_truths()
        accuracy = np.mean(
            [recovered[f"t{t}"] == truths[t] for t in range(len(truths))]
        )
        assert accuracy > 0.95
        errors = [
            abs(result.qualities[f"w{w}"] - qualities[w])
            for w in range(len(qualities))
        ]
        assert float(np.mean(errors)) < 0.08

    def test_empty_matrix_rejected(self):
        with pytest.raises(EstimationError):
            one_coin_em(AnswerMatrix())

    def test_multiclass_matrix_rejected(self):
        m = AnswerMatrix(num_labels=3)
        m.record("w", "t", 2)
        with pytest.raises(EstimationError):
            one_coin_em(m)

    def test_prior_validation(self):
        # initial_quality=1.0 on this matrix used to return NaN
        # qualities marked converged (``max(0.0, nan)`` is ``0.0``).
        m = AnswerMatrix()
        m.record("a", "t", 1)
        m.record("b", "t", 0)
        m.record("a", "u", 1)
        for kwargs in [
            dict(prior_one=0.0),
            dict(prior_one=1.0),
            dict(initial_quality=0.0),
            dict(initial_quality=1.0),
            dict(initial_quality=-0.2),
            dict(initial_quality=1.5),
            dict(max_iterations=0),
            dict(max_iterations=-1),
        ]:
            with pytest.raises(ValueError):
                one_coin_em(m, **kwargs)

    def test_qualities_stay_in_unit_interval(self, rng):
        _, _, answers = simulate_binary_campaign(rng, num_workers=5, num_tasks=30)
        result = one_coin_em(answers)
        for q in result.qualities.values():
            assert 0.0 < q < 1.0

    def test_sparse_answers(self, rng):
        """Workers answering disjoint task subsets still get estimates."""
        answers = AnswerMatrix()
        truths = rng.integers(0, 2, size=40)
        for w in range(6):
            tasks = range(w * 5, w * 5 + 15)  # overlapping windows
            for t in tasks:
                if t >= 40:
                    continue
                label = truths[t] if rng.random() < 0.8 else 1 - truths[t]
                answers.record(f"w{w}", f"t{t}", int(label))
        result = one_coin_em(answers)
        assert set(result.qualities) == {f"w{w}" for w in range(6)}


class TestDawidSkene:
    def test_recovers_truths(self, rng):
        matrices, truths, answers = simulate_multiclass_campaign(rng)
        result = dawid_skene(answers)
        recovered = result.map_truths()
        accuracy = np.mean(
            [recovered[f"t{t}"] == truths[t] for t in range(len(truths))]
        )
        assert accuracy > 0.9

    def test_recovers_confusion_matrices(self, rng):
        matrices, truths, answers = simulate_multiclass_campaign(
            rng, num_tasks=400
        )
        result = dawid_skene(answers)
        errors = []
        for w, true_matrix in enumerate(matrices):
            est = result.confusions[f"w{w}"].matrix
            errors.append(float(np.abs(est - true_matrix).mean()))
        assert float(np.mean(errors)) < 0.06

    def test_returns_valid_confusion_matrices(self, rng):
        _, _, answers = simulate_multiclass_campaign(
            rng, num_workers=4, num_tasks=30
        )
        result = dawid_skene(answers)
        for cm in result.confusions.values():
            assert isinstance(cm, ConfusionMatrix)
            assert cm.min_entry > 0.0  # smoothing keeps entries positive

    def test_class_prior_normalized(self, rng):
        _, _, answers = simulate_multiclass_campaign(
            rng, num_workers=4, num_tasks=30
        )
        result = dawid_skene(answers)
        assert result.class_prior.sum() == pytest.approx(1.0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(EstimationError):
            dawid_skene(AnswerMatrix(num_labels=3))

    def test_smoothing_validation(self, rng):
        _, _, answers = simulate_multiclass_campaign(
            rng, num_workers=3, num_tasks=10
        )
        with pytest.raises(ValueError):
            dawid_skene(answers, smoothing=0.0)

    def test_binary_agreement_with_one_coin(self, rng):
        """On binary data the two EMs should broadly agree on truths."""
        _, truths, answers = simulate_binary_campaign(
            rng, num_workers=10, num_tasks=80
        )
        ds = dawid_skene(answers).map_truths()
        oc = one_coin_em(answers).map_truths()
        agreement = np.mean([ds[t] == oc[t] for t in ds])
        assert agreement > 0.95
