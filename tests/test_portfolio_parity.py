"""Pick-parity of the lazy-heap budget allocator against the scan.

:func:`scan_allocate` below is the greedy scan that
:func:`repro.portfolio.allocate_budget` replaced, kept verbatim as the
oracle: every greedy step rescans every task and buys the first step
(in task order) whose slope beats the best so far by more than
``1e-15``.  The heap walk must make exactly the same picks — the same
task order, the same :class:`FrontierPoint` objects (``is``), the same
``total_cost`` — because the engine seats the chosen points and its
fingerprints hash the reserved costs at full precision.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import portfolio
from repro.frontier import Frontier, FrontierPoint
from repro.portfolio import (
    CampaignPlan,
    TaskAllocation,
    allocate_budget,
    concave_envelope,
)


def scan_allocate(frontiers, budget, baseline_jq=0.5):
    """The O(steps x tasks) scan allocator."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    envelopes = {
        task: concave_envelope(frontier.points, baseline_jq)
        for task, frontier in frontiers.items()
    }
    # Current envelope index per task; index 0 is the (0, baseline) anchor.
    level = {task: 0 for task in frontiers}
    remaining = float(budget)

    while True:
        best_task = None
        best_slope = 0.0
        for task, envelope in envelopes.items():
            i = level[task]
            if i + 1 >= len(envelope):
                continue
            step_cost = envelope[i + 1].cost - envelope[i].cost
            if step_cost > remaining + 1e-12:
                continue
            step_gain = envelope[i + 1].jq - envelope[i].jq
            slope = step_gain / max(step_cost, 1e-15)
            if slope > best_slope + 1e-15:
                best_slope = slope
                best_task = task
        if best_task is None:
            break
        step = (
            envelopes[best_task][level[best_task] + 1].cost
            - envelopes[best_task][level[best_task]].cost
        )
        remaining -= step
        level[best_task] += 1

    allocations = []
    for task in frontiers:
        i = level[task]
        chosen = envelopes[task][i] if i > 0 else None
        allocations.append(TaskAllocation(task, chosen))
    return CampaignPlan(tuple(allocations), float(budget), baseline_jq)


def assert_same_plan(frontiers, budget, baseline):
    got = allocate_budget(frontiers, budget, baseline)
    want = scan_allocate(frontiers, budget, baseline)
    assert [a.task_id for a in got.allocations] == [
        a.task_id for a in want.allocations
    ]
    for g, w in zip(got.allocations, want.allocations):
        assert g.point is w.point, g.task_id
    assert got.total_cost == want.total_cost
    assert got.budget == want.budget
    assert got.baseline_jq == want.baseline_jq
    return want


@pytest.fixture
def walks(monkeypatch):
    """Counts how often each walk ran."""
    counts = {"heap": 0, "scan": 0}

    def counted(name, walk):
        def wrapper(*args):
            counts[name] += 1
            return walk(*args)

        return wrapper

    monkeypatch.setattr(
        portfolio, "_heap_levels", counted("heap", portfolio._heap_levels)
    )
    monkeypatch.setattr(
        portfolio, "_scan_levels", counted("scan", portfolio._scan_levels)
    )
    return counts


def line(*points):
    """A frontier of ``(cost, jq)`` points."""
    return Frontier(
        tuple(
            FrontierPoint(float(c), float(j), (f"w{k}",))
            for k, (c, j) in enumerate(points)
        ),
        exact=True,
    )


def random_frontier(rng, grid):
    """A frontier with 0-8 points; ``grid`` snaps costs and JQs so
    distinct frontiers share exact (and one-ulp-apart) slopes."""
    n = int(rng.integers(0, 9))
    if grid:
        costs = np.sort(rng.integers(1, 12, size=n) * 0.25)
        jqs = np.sort(rng.integers(6, 21, size=n) * 0.05)
    else:
        costs = np.sort(rng.uniform(0.05, 3.0, size=n))
        jqs = np.sort(rng.uniform(0.3, 1.0, size=n))
    return line(*zip(costs, jqs))


def random_tasks(rng, grid):
    """Task ids in a scrambled (non-lexical) order, each with either a
    shared frontier object or its own."""
    num_tasks = int(rng.integers(1, 30))
    distinct = int(rng.integers(1, 5))
    pool = [random_frontier(rng, grid) for _ in range(distinct)]
    ids = rng.permutation(10 * num_tasks)[:num_tasks]
    return {f"t{i}": pool[int(rng.integers(distinct))] for i in ids}


def boundary_budgets(rng, frontiers, baseline):
    """Budgets on, and within 1e-12 of, sums of envelope step costs."""
    steps = [
        b.cost - a.cost
        for f in {id(f): f for f in frontiers.values()}.values()
        for env in [concave_envelope(f.points, baseline)]
        for a, b in zip(env, env[1:])
    ]
    budgets = [0.0]
    for _ in range(3):
        if not steps:
            break
        k = int(rng.integers(1, 2 * len(steps) + 1))
        total = 0.0
        for step in rng.choice(steps, size=k):
            total += step
        for delta in (-2e-12, -1e-12, -0.5e-12, 0.0, 0.5e-12, 1e-12, 2e-12):
            budgets.append(max(total + delta, 0.0))
    budgets.append(float(rng.uniform(0, 40)))
    return budgets


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("baseline", [0.5, 0.7])
def test_random_campaigns_match_the_scan(grid, baseline, walks):
    rng = np.random.default_rng([2015, grid, int(baseline * 10)])
    cases = 0
    for _ in range(60):
        frontiers = random_tasks(rng, grid)
        for budget in boundary_budgets(rng, frontiers, baseline):
            assert_same_plan(frontiers, budget, baseline)
            cases += 1
    assert cases > 600
    assert walks["heap"] > 0
    if grid:
        # Snapped values give one-ulp-apart slopes across frontiers.
        assert walks["scan"] > 0


def test_engine_shape_one_shared_frontier(walks):
    """The scheduler's case: every task of the batch holds one frontier
    object, so every tie is exact and the task order breaks it."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        shared = random_frontier(rng, grid=False)
        ids = rng.permutation(400)[: int(rng.integers(1, 120))]
        frontiers = {f"task-{i}": shared for i in ids}
        for budget in boundary_budgets(rng, frontiers, 0.5):
            assert_same_plan(frontiers, budget, 0.5)
    assert walks["scan"] == 0


def test_empty_and_below_baseline_frontiers():
    empty = Frontier((), exact=True)
    below = line((1.0, 0.3), (2.0, 0.45))
    useful = line((1.0, 0.8))
    frontiers = {"e": empty, "b": below, "u": useful, "e2": empty}
    for budget in (0.0, 0.5, 1.0, 1.0 - 1e-12, 1.0 + 1e-12, 5.0):
        plan = assert_same_plan(frontiers, budget, 0.5)
        assert plan.allocation_for("e").point is None
        assert plan.allocation_for("b").point is None
    assert_same_plan({}, 3.0, 0.5)
    assert_same_plan({"e": empty}, 3.0, 0.5)


def test_budget_within_1e12_of_a_step():
    shared = line((1.0, 0.8), (3.0, 0.9))
    frontiers = {t: shared for t in ("c", "a", "b")}
    for budget in (2.0 - 2e-12, 2.0 - 1e-12, 2.0, 2.0 + 1e-12, 3.0 - 1e-12):
        assert_same_plan(frontiers, budget, 0.5)
    plan = allocate_budget(frontiers, 2.0 - 0.5e-12, 0.5)
    # Steps within 1e-12 of the remaining budget are affordable.
    assert [a.task_id for a in plan.allocations if a.point] == ["c", "a"]


def test_slopes_at_or_below_1e15_are_never_bought(walks):
    flat = line((1.0, 1e-15))
    tiny = line((1e13, 1e-3))
    just_above = line((1.0, 1.0000001e-15))
    steep = line((1.0, 0.5))
    for small in (flat, tiny):
        # Alone, or beside a far steeper slope: the heap's stop rule.
        for frontiers in ({"s": small}, {"s": small, "x": steep}):
            plan = assert_same_plan(frontiers, 1e14, 0.0)
            assert plan.allocation_for("s").point is None
    plan = assert_same_plan({"a": just_above, "x": steep}, 1e14, 0.0)
    assert plan.allocation_for("a").point is just_above.points[0]
    assert walks == {"heap": 5, "scan": 0}
    # All three together are within 1e-15 of each other: the scan.
    frontiers = {"flat": flat, "tiny": tiny, "above": just_above}
    plan = assert_same_plan(frontiers, 1e14, 0.0)
    assert plan.allocation_for("above").point is just_above.points[0]
    assert walks["scan"] == 1


def unit_slopes(*slopes):
    """One single-step frontier per slope (cost 1 over baseline 0, so
    each step's slope is its JQ exactly)."""
    return {f"t{k}": line((1.0, s)) for k, s in enumerate(slopes)}


@pytest.mark.parametrize(
    "gap,walk", [(0.5e-15, "scan"), (1.5e-15, "heap")]
)
def test_hand_built_gaps_either_side_of_1e15(gap, walk, walks):
    """Slopes less than 1e-15 apart take the scan; 1.5e-15 apart they
    are separated enough for the heap.  Both must match the oracle."""
    x = 0.5
    for slopes in ((x, x + gap), (x + gap, x), (x, x + gap, x)):
        for budget in (1.0, 2.0, 3.0):
            assert_same_plan(unit_slopes(*slopes), budget, 0.0)
    assert walks[walk] == 9
    assert sum(walks.values()) == 9


def test_near_tie_where_the_scan_keeps_a_lower_earlier_slope(walks):
    x = 0.5
    # The later slope beats the earlier one by less than 1e-15, so the
    # scan keeps the earlier, lower one; a plain maximum would not.
    plan = assert_same_plan(unit_slopes(x, x + 0.5e-15), 1.0, 0.0)
    assert plan.allocation_for("t0").point is not None
    assert plan.allocation_for("t1").point is None
    assert walks["scan"] == 1


def test_near_tie_chain_where_a_lower_slope_changes_the_winner(walks):
    x = 0.5
    chain = (x + 0.9e-15, x + 1.5e-15)
    # Alone, the first slope holds: the second beats it by only 0.6e-15.
    plan = assert_same_plan(unit_slopes(*chain), 1.0, 0.0)
    assert plan.allocation_for("t0").point is not None
    # A lower, earlier slope x becomes the scan's best first; the last
    # slope beats x by 1.5e-15 and wins, the middle one does not.
    plan = assert_same_plan(unit_slopes(x, *chain), 1.0, 0.0)
    assert plan.allocation_for("t0").point is None
    assert plan.allocation_for("t1").point is None
    assert plan.allocation_for("t2").point is not None
    assert walks == {"heap": 0, "scan": 2}
