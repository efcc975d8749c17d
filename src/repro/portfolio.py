"""Budget allocation across a *set* of decision tasks.

The paper's introduction poses JSP for "a set of decision-making
tasks", then solves the single-task problem; production campaigns must
also decide *how to split one budget across many questions*.  This
module closes that gap on top of the frontier machinery:

1. each task gets a cost-JQ frontier over its own candidate pool
   (exact for small pools, annealed otherwise);
2. each frontier is reduced to its *upper concave envelope* — the
   points reachable by any rational spender;
3. a global greedy walk repeatedly buys the envelope step with the
   best marginal JQ-per-unit-cost anywhere in the campaign, until the
   budget is exhausted.

Greedy-by-slope on concave envelopes is the classic multiple-choice
knapsack relaxation: it is optimal whenever the budget lands exactly
on a chosen step boundary, and within one step's JQ gain of optimal in
general.

The walk costs O(D*E + (T + P) log T) for T tasks, D distinct frontier
objects with E envelope steps each, and P purchased steps: each
distinct frontier's envelope is built once, and a lazy max-heap keyed
``(-slope, task order)`` replaces the per-step rescan of every task.
It buys exactly the steps the rescan would; when two distinct slopes
lie within ``1e-15`` of each other (where the rescan's first-beat rule
can differ from a plain maximum) the call falls back to the rescan.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core.worker import WorkerPool
from .frontier import Frontier, FrontierPoint, exact_frontier, sampled_frontier
from .selection.base import JQObjective


@dataclass(frozen=True)
class TaskAllocation:
    """The plan for one task: which frontier point to buy."""

    task_id: str
    point: FrontierPoint | None  # None = ask nobody, answer the prior

    @property
    def cost(self) -> float:
        return 0.0 if self.point is None else self.point.cost

    def jq(self, baseline: float) -> float:
        return baseline if self.point is None else self.point.jq


@dataclass(frozen=True)
class CampaignPlan:
    """A full allocation across tasks."""

    allocations: tuple[TaskAllocation, ...]
    budget: float
    baseline_jq: float  # JQ of an unfunded task (the prior's mode)

    @property
    def total_cost(self) -> float:
        return float(sum(a.cost for a in self.allocations))

    @property
    def total_jq(self) -> float:
        """Sum of per-task JQs (expected number of correct answers)."""
        return float(sum(a.jq(self.baseline_jq) for a in self.allocations))

    @property
    def mean_jq(self) -> float:
        return self.total_jq / len(self.allocations)

    def allocation_for(self, task_id: str) -> TaskAllocation:
        for allocation in self.allocations:
            if allocation.task_id == task_id:
                return allocation
        raise KeyError(task_id)

    def render(self) -> str:
        header = f"{'Task':<14} | {'Spend':>8} | {'JQ':>8} | Jury"
        lines = [header, "-" * len(header)]
        for a in sorted(self.allocations, key=lambda x: x.task_id):
            jury = "-" if a.point is None else "{" + ", ".join(a.point.worker_ids) + "}"
            lines.append(
                f"{a.task_id:<14} | {a.cost:>8.4g} | "
                f"{a.jq(self.baseline_jq):>7.2%} | {jury}"
            )
        lines.append(
            f"total spend {self.total_cost:.4g} / {self.budget:g}, "
            f"mean JQ {self.mean_jq:.2%}"
        )
        return "\n".join(lines)


def concave_envelope(
    points: Sequence[FrontierPoint], baseline: float
) -> list[FrontierPoint]:
    """Upper concave envelope of a frontier, anchored at (0, baseline).

    Points below the running hull (diminishing-then-increasing
    returns) are removed so successive slopes strictly decrease —
    the precondition for the greedy walk's near-optimality.
    """
    anchored = [FrontierPoint(0.0, baseline, ())] + [
        p for p in sorted(points, key=lambda p: p.cost) if p.jq > baseline
    ]
    hull: list[FrontierPoint] = []
    for point in anchored:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            slope_ab = (b.jq - a.jq) / max(b.cost - a.cost, 1e-15)
            slope_ap = (point.jq - a.jq) / max(point.cost - a.cost, 1e-15)
            if slope_ap >= slope_ab:
                hull.pop()  # b lies under the chord a->point
            else:
                break
        if hull and point.cost <= hull[-1].cost + 1e-15:
            if point.jq > hull[-1].jq:
                hull[-1] = point
            continue
        hull.append(point)
    return hull


def _envelope_steps(
    envelope: Sequence[FrontierPoint],
) -> list[tuple[float, float]]:
    """``(step_cost, slope)`` of each envelope step, in the scan's own
    float expressions (so both walks compare identical numbers)."""
    steps = []
    for a, b in zip(envelope, envelope[1:]):
        step_cost = b.cost - a.cost
        step_gain = b.jq - a.jq
        steps.append((step_cost, step_gain / max(step_cost, 1e-15)))
    return steps


def _scan_levels(
    steps: Sequence[Sequence[tuple[float, float]]], remaining: float
) -> list[int]:
    """The O(picks x tasks) scan: every greedy step rescans every task
    and buys the first step (in task order) whose slope beats the best
    so far by more than ``1e-15``.  Used only when near-tied slopes
    make that first-beat rule differ from a plain maximum."""
    level = [0] * len(steps)
    while True:
        best_task = None
        best_slope = 0.0
        for task, task_steps in enumerate(steps):
            i = level[task]
            if i >= len(task_steps):
                continue
            step_cost, slope = task_steps[i]
            if step_cost > remaining + 1e-12:
                continue
            if slope > best_slope + 1e-15:
                best_slope = slope
                best_task = task
        if best_task is None:
            return level
        remaining -= steps[best_task][level[best_task]][0]
        level[best_task] += 1


def _heap_levels(
    steps: Sequence[Sequence[tuple[float, float]]], remaining: float
) -> list[int]:
    """The scan's picks from a lazy max-heap keyed ``(-slope, task)``.

    Without near-ties the scan buys the first task (in order) holding
    the largest affordable slope, provided that slope beats the scan's
    ``0.0`` start by more than ``1e-15`` — exactly the heap's top.  A
    top whose step is unaffordable is dropped for good: ``remaining``
    only shrinks and the task's next step changes only when it is
    bought.
    """
    level = [0] * len(steps)
    heap = [(-s[0][1], task) for task, s in enumerate(steps) if s]
    heapq.heapify(heap)
    while heap:
        neg_slope, task = heap[0]
        i = level[task]
        step_cost = steps[task][i][0]
        if step_cost > remaining + 1e-12:
            heapq.heappop(heap)
            continue
        if not -neg_slope > 1e-15:
            break
        remaining -= step_cost
        level[task] = i + 1
        if i + 1 < len(steps[task]):
            heapq.heapreplace(heap, (-steps[task][i + 1][1], task))
        else:
            heapq.heappop(heap)
    return level


def allocate_budget(
    frontiers: Mapping[str, Frontier],
    budget: float,
    baseline_jq: float = 0.5,
) -> CampaignPlan:
    """Greedy-by-slope allocation of one budget across task frontiers.

    Parameters
    ----------
    frontiers:
        task_id -> that task's cost-JQ frontier.
    budget:
        Total campaign budget.
    baseline_jq:
        JQ of an unfunded task (``max(alpha, 1-alpha)``; 0.5 for flat
        priors).
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    # One envelope per distinct frontier object: the engine hands every
    # task of a batch the same frontier.
    envelopes: dict[int, tuple[list[FrontierPoint], list]] = {}
    task_envelopes = []
    for frontier in frontiers.values():
        key = id(frontier)
        if key not in envelopes:
            envelope = concave_envelope(frontier.points, baseline_jq)
            envelopes[key] = (envelope, _envelope_steps(envelope))
        task_envelopes.append(envelopes[key])
    steps = [task_steps for _, task_steps in task_envelopes]

    slopes = sorted({slope for _, s in envelopes.values() for _, slope in s})
    near_tie = any(not hi > lo + 1e-15 for lo, hi in zip(slopes, slopes[1:]))
    walk = _scan_levels if near_tie else _heap_levels
    level = walk(steps, float(budget))

    allocations = []
    for task, (envelope, _), i in zip(frontiers, task_envelopes, level):
        # Index 0 is the (0, baseline) anchor: ask nobody.
        chosen = envelope[i] if i > 0 else None
        allocations.append(TaskAllocation(task, chosen))
    return CampaignPlan(tuple(allocations), float(budget), baseline_jq)


def plan_campaign(
    pools: Mapping[str, WorkerPool],
    budget: float,
    alpha: float = 0.5,
    exact_pool_cutoff: int = 12,
    sample_budgets: Sequence[float] | None = None,
    rng: np.random.Generator | None = None,
) -> CampaignPlan:
    """Build frontiers for every task's pool, then allocate the budget.

    Pools at or below ``exact_pool_cutoff`` workers get exact
    frontiers; larger ones get annealed frontiers sampled at
    ``sample_budgets`` (default: eight log-spaced budgets up to the
    pool's total cost).
    """
    if rng is None:
        rng = np.random.default_rng()
    objective = JQObjective(alpha=alpha)
    frontiers: dict[str, Frontier] = {}
    for task, pool in pools.items():
        if len(pool) <= exact_pool_cutoff:
            frontiers[task] = exact_frontier(pool, objective)
        else:
            budgets = sample_budgets
            if budgets is None:
                top = max(pool.total_cost, 1e-9)
                budgets = list(np.geomspace(top / 50, top, 8))
            frontiers[task] = sampled_frontier(
                pool, budgets, objective, rng=rng
            )
    baseline = max(alpha, 1.0 - alpha)
    return allocate_budget(frontiers, budget, baseline)
