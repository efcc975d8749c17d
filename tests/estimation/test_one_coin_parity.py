"""Bit-parity of the vectorised one-coin EM against the scalar loop.

:func:`one_coin_loop` below is the pure-Python EM that
:func:`repro.estimation.one_coin_em` replaced, kept verbatim as the
oracle.  The kernel must reproduce it exactly: every quality and
posterior compared with ``==``, the same dict key orders, the same
iteration count and the same ``converged`` flag.  Engine fingerprints
hash the fitted qualities at full precision, so a one-ulp drift here
would change campaign decisions downstream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EstimationError
from repro.estimation import AnswerMatrix, OneCoinResult, one_coin_em

_CLAMP = 1e-6


def one_coin_loop(
    answers: AnswerMatrix,
    prior_one: float = 0.5,
    initial_quality: float = 0.7,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
) -> OneCoinResult:
    """The scalar one-coin EM: a Python loop over every answer."""
    if answers.num_labels != 2:
        raise EstimationError("one-coin EM handles binary answers only")
    if answers.num_answers == 0:
        raise EstimationError("empty answer matrix")
    if not 0.0 < prior_one < 1.0:
        raise ValueError("prior_one must lie strictly inside (0, 1)")

    workers = answers.worker_ids
    tasks = answers.task_ids
    quality = {w: float(initial_quality) for w in workers}
    posterior = {t: prior_one for t in tasks}

    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        # E-step: task posteriors under current qualities.
        for task in tasks:
            log_one = np.log(prior_one)
            log_zero = np.log(1.0 - prior_one)
            for worker, label in answers.answers_for(task).items():
                q = quality[worker]
                if label == 1:
                    log_one += np.log(q)
                    log_zero += np.log(1.0 - q)
                else:
                    log_one += np.log(1.0 - q)
                    log_zero += np.log(q)
            m = max(log_one, log_zero)
            p1 = np.exp(log_one - m)
            p0 = np.exp(log_zero - m)
            posterior[task] = float(p1 / (p0 + p1))

        # M-step: expected agreement per worker.
        max_change = 0.0
        for worker in workers:
            history = answers.answers_by(worker)
            agreement = 0.0
            for task, label in history.items():
                p1 = posterior[task]
                agreement += p1 if label == 1 else (1.0 - p1)
            new_q = float(np.clip(agreement / len(history), _CLAMP, 1 - _CLAMP))
            max_change = max(max_change, abs(new_q - quality[worker]))
            quality[worker] = new_q

        if max_change < tolerance:
            converged = True
            break

    return OneCoinResult(
        qualities=dict(quality),
        truth_posteriors=dict(posterior),
        iterations=iterations,
        converged=converged,
    )


def assert_identical(got: OneCoinResult, expected: OneCoinResult) -> None:
    assert list(got.qualities) == list(expected.qualities)
    assert list(got.truth_posteriors) == list(expected.truth_posteriors)
    for key, value in expected.qualities.items():
        assert type(got.qualities[key]) is float
        assert got.qualities[key] == value, key
    for key, value in expected.truth_posteriors.items():
        assert type(got.truth_posteriors[key]) is float
        assert got.truth_posteriors[key] == value, key
    assert got.iterations == expected.iterations
    assert got.converged is expected.converged


def random_sparse_matrix(rng: np.random.Generator) -> AnswerMatrix:
    """Workers of random skill answer a random sparse subset of tasks,
    recorded in a shuffled order so neither view is sorted."""
    num_workers = int(rng.integers(1, 13))
    num_tasks = int(rng.integers(1, 40))
    density = float(rng.uniform(0.05, 0.9))
    skill = rng.uniform(0.3, 0.95, size=num_workers)
    truths = rng.integers(0, 2, size=num_tasks)
    pairs = [
        (w, t)
        for w in range(num_workers)
        for t in range(num_tasks)
        if rng.random() < density
    ]
    if not pairs:
        pairs = [(0, 0)]
    answers = AnswerMatrix()
    for i in rng.permutation(len(pairs)):
        w, t = pairs[i]
        right = rng.random() < skill[w]
        label = int(truths[t]) if right else 1 - int(truths[t])
        answers.record(f"w{w}", f"t{t}", label)
    return answers


PARAMETERS = [
    (prior_one, initial_quality, max_iterations)
    for prior_one in (0.5, 0.3, 0.85)
    for initial_quality in (0.7, 0.55, 0.9)
    for max_iterations in (1, 3, 100)
]


class TestKernelMatchesLoop:
    def test_random_sparse_matrices(self):
        rng = np.random.default_rng(20240612)
        capped = converged = 0
        for i in range(216):
            answers = random_sparse_matrix(rng)
            prior_one, initial_quality, max_iterations = PARAMETERS[
                i % len(PARAMETERS)
            ]
            kwargs = dict(
                prior_one=prior_one,
                initial_quality=initial_quality,
                max_iterations=max_iterations,
            )
            expected = one_coin_loop(answers, **kwargs)
            assert_identical(one_coin_em(answers, **kwargs), expected)
            converged += expected.converged
            capped += not expected.converged
        # Both exits of the loop are exercised.
        assert converged > 20 and capped > 20

    def test_restored_matrix_keeps_both_view_orders(self):
        """A checkpoint round trip rebuilds each view in its own order,
        which then differs from the order the votes arrived in."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            original = random_sparse_matrix(rng)
            restored = AnswerMatrix.from_vote_rows(original.vote_rows())
            assert [(a.worker_id, a.task_id) for a in restored] == [
                (a.worker_id, a.task_id) for a in original
            ]
            expected = one_coin_loop(restored)
            assert_identical(one_coin_em(restored), expected)
            assert_identical(one_coin_em(original), expected)

    def test_arrival_log_replays_both_view_orders(self):
        """The arrival log a checkpoint journals — recorded by add(), or
        merged from the two views of a version-1 restore — replays
        through add() to both view orders exactly."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            original = random_sparse_matrix(rng)
            restored = AnswerMatrix.from_vote_rows(original.vote_rows())
            for source in (original, restored):
                replayed = AnswerMatrix.from_arrival_rows(source.arrival_rows())
                assert replayed.vote_rows() == original.vote_rows()
            half = original.num_arrivals // 2
            assert original.arrival_rows(half) == original.arrival_rows()[half:]

    def test_views_no_arrival_order_built_have_no_arrival_log(self):
        # Worker c voted on v before t, but task t was seen before v.
        rows = [("c", "v", 1, 0, 1), ("c", "t", 0, 1, 0)]
        with pytest.raises(ValueError, match="no common arrival order"):
            AnswerMatrix.from_vote_rows(rows).arrival_rows()

    def test_from_vote_rows_with_independent_orders(self):
        """Rows whose by-task order is not the by-worker order."""
        rows = []
        tpos = {("b", "u"): 0, ("a", "u"): 1, ("c", "t"): 2, ("a", "t"): 3,
                ("b", "t"): 4, ("c", "v"): 5}
        labels = {("a", "t"): 1, ("a", "u"): 0, ("b", "t"): 1,
                  ("b", "u"): 0, ("c", "t"): 0, ("c", "v"): 1}
        for wpos, key in enumerate(
            [("c", "v"), ("c", "t"), ("a", "u"), ("a", "t"), ("b", "t"),
             ("b", "u")]
        ):
            rows.append((key[0], key[1], labels[key], wpos, tpos[key]))
        answers = AnswerMatrix.from_vote_rows(rows)
        assert answers.task_ids == ("u", "t", "v")
        assert answers.worker_ids == ("c", "a", "b")
        for max_iterations in (1, 3, 100):
            assert_identical(
                one_coin_em(answers, max_iterations=max_iterations),
                one_coin_loop(answers, max_iterations=max_iterations),
            )

    @pytest.mark.parametrize(
        "votes",
        [
            [("w", "t", 1)],  # one task, one worker
            [("w", "t", 0)],
            [("a", "t", 1), ("b", "t", 0), ("c", "t", 1)],  # one task
            [("w", f"t{i}", i % 2) for i in range(9)],  # one worker
            [(f"w{i}", f"t{j}", 1) for i in range(4) for j in range(5)],
            [(f"w{i}", f"t{j}", 0) for i in range(4) for j in range(5)],
        ],
        ids=[
            "single-vote-1",
            "single-vote-0",
            "one-task",
            "one-worker",
            "all-ones",
            "all-zeros",
        ],
    )
    @pytest.mark.parametrize("max_iterations", [1, 3, 100])
    def test_edge_cases(self, votes, max_iterations):
        answers = AnswerMatrix()
        for worker, task, label in votes:
            answers.record(worker, task, label)
        for initial_quality in (0.7, 0.3, 1e-9, 1 - 1e-9):
            kwargs = dict(
                initial_quality=initial_quality, max_iterations=max_iterations
            )
            assert_identical(
                one_coin_em(answers, **kwargs),
                one_coin_loop(answers, **kwargs),
            )


class TestIndexArrays:
    def test_orders_follow_the_two_views(self):
        answers = AnswerMatrix()
        for worker, task, label in [
            ("a", "t", 1), ("b", "u", 0), ("b", "t", 0), ("a", "u", 1),
        ]:
            answers.record(worker, task, label)
        # Tasks (t, u), workers (a, b).
        task, worker, label = answers.index_arrays("task")
        assert task.tolist() == [0, 0, 1, 1]
        assert worker.tolist() == [0, 1, 1, 0]
        assert label.tolist() == [1, 0, 0, 1]
        task, worker, label = answers.index_arrays("worker")
        assert worker.tolist() == [0, 0, 1, 1]
        assert task.tolist() == [0, 1, 1, 0]
        assert label.tolist() == [1, 1, 0, 0]

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            AnswerMatrix().index_arrays("label")
