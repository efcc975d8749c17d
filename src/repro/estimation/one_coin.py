"""One-coin EM: jointly estimate binary truths and scalar qualities.

When no gold questions exist, worker quality and task truth must be
estimated together.  The *one-coin* model (each worker is correct with
a single probability ``q_i`` regardless of the true label) admits the
classic EM scheme the paper cites for CDAS-style systems:

* E-step: posterior over each task's truth from current qualities
  (exactly the Bayesian-Voting posterior);
* M-step: each worker's quality becomes her expected fraction of
  agreements with the posterior truths.

Qualities are clamped away from {0, 1} to keep the E-step's
log-likelihoods finite and EM from locking in.

Votes are conditionally independent given the truth, so the E-step is
a sum of per-vote log-terms per task and the M-step a sum of per-vote
agreements per worker: each iteration is a gather of per-worker (or
per-task) values onto the votes and a scatter-add back.  The kernel
does both with ``np.add.at`` over integer index arrays built once per
call, listing the votes in the answer matrix's by-task order (E-step)
and by-worker order (M-step).  ``np.add.at`` is unbuffered and adds in
index order, so every per-task and per-worker total is the same
left-to-right float sum that a Python loop over
``answers_for(task)`` / ``answers_by(worker)`` computes, seeded with
the same ``log(prior)`` or ``0.0``.  The element-wise steps (``log``,
``exp``, ``maximum``, the division and ``clip``) round each element
alone, so the results are bit-identical to that loop, not merely close:
engine decisions and fingerprints depend on the fitted qualities down
to the last bit.
(``np.add.reduceat`` would not do: it sums long segments pairwise.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.exceptions import EstimationError
from .answers import AnswerMatrix

_CLAMP = 1e-6


@dataclass(frozen=True)
class OneCoinResult:
    """EM output: qualities, truth posteriors, and diagnostics."""

    qualities: dict[str, float]
    truth_posteriors: dict[str, float]  # task_id -> Pr(t = 1 | answers)
    iterations: int
    converged: bool

    def map_truths(self) -> dict[str, int]:
        """Maximum-a-posteriori truth per task (ties to 0)."""
        return {
            task: 1 if p > 0.5 else 0
            for task, p in self.truth_posteriors.items()
        }


def one_coin_em(
    answers: AnswerMatrix,
    prior_one: float = 0.5,
    initial_quality: float = 0.7,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
) -> OneCoinResult:
    """Run one-coin EM on a binary answer matrix.

    Parameters
    ----------
    answers:
        Binary campaign answers (``num_labels`` must be 2).
    prior_one:
        ``Pr(t = 1)`` prior shared by all tasks.
    initial_quality:
        Starting quality for every worker (0.7 mirrors the synthetic
        default; anything in (0.5, 1) breaks the label-switching
        symmetry toward "workers are mostly right").
    max_iterations / tolerance:
        Stop when the largest quality change falls below ``tolerance``
        or after ``max_iterations``.
    """
    if answers.num_labels != 2:
        raise EstimationError("one-coin EM handles binary answers only")
    if answers.num_answers == 0:
        raise EstimationError("empty answer matrix")
    if not 0.0 < prior_one < 1.0:
        raise ValueError("prior_one must lie strictly inside (0, 1)")
    if not 0.0 < initial_quality < 1.0:
        # At 0 or 1 the first E-step takes log(0), and the NaN that
        # follows would compare as "no change" and end the run as
        # converged.
        raise ValueError("initial_quality must lie strictly inside (0, 1)")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")

    workers = answers.worker_ids
    tasks = answers.task_ids
    num_workers, num_tasks = len(workers), len(tasks)
    # E-step indices, in by-task order.  ``logs`` below holds log q of
    # every worker followed by log(1 - q); ``log_joint`` holds every
    # task's log Pr(t = 1, votes) followed by its log Pr(t = 0, votes).
    # A 1-vote adds log q to the first and log(1 - q) to the second, a
    # 0-vote the reverse.
    e_task, e_worker, e_label = answers.index_arrays("task")
    e_flip = np.where(e_label == 1, 0, num_workers)
    e_gather = np.concatenate(
        [e_worker + e_flip, e_worker + num_workers - e_flip]
    )
    e_scatter = np.concatenate([e_task, e_task + num_tasks])
    log_prior = np.repeat(
        [np.log(prior_one), np.log(1.0 - prior_one)], num_tasks
    )
    # M-step indices, in by-worker order, into the posteriors of every
    # task followed by their complements: a vote agrees with the truth
    # with probability p1 if it is a 1, else 1 - p1.
    m_task, m_worker, m_label = answers.index_arrays("worker")
    m_gather = np.where(m_label == 1, m_task, m_task + num_tasks)
    counts = np.bincount(m_worker, minlength=num_workers).astype(float)
    quality = np.full(num_workers, float(initial_quality))

    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        # E-step: task posteriors under current qualities.
        logs = np.log(np.concatenate([quality, 1.0 - quality]))
        log_joint = log_prior.copy()
        np.add.at(log_joint, e_scatter, logs[e_gather])
        log_one, log_zero = log_joint[:num_tasks], log_joint[num_tasks:]
        m = np.maximum(log_one, log_zero)
        p1 = np.exp(log_one - m)
        p0 = np.exp(log_zero - m)
        posterior = p1 / (p0 + p1)

        # M-step: expected agreement per worker.
        agreement = np.zeros(num_workers)
        np.add.at(
            agreement,
            m_worker,
            np.concatenate([posterior, 1.0 - posterior])[m_gather],
        )
        new_quality = np.clip(agreement / counts, _CLAMP, 1 - _CLAMP)
        max_change = float(np.max(np.abs(new_quality - quality)))
        quality = new_quality

        if max_change < tolerance:
            converged = True
            break

    return OneCoinResult(
        qualities=dict(zip(workers, quality.tolist())),
        truth_posteriors=dict(zip(tasks, posterior.tolist())),
        iterations=iterations,
        converged=converged,
    )
