"""repro — reproduction of "On Optimality of Jury Selection in
Crowdsourcing" (Zheng, Cheng, Maniu, Mo; EDBT 2015).

The library answers the paper's central question — *which workers
should a budget buy?* — with the paper's answer: select the jury that
maximizes Jury Quality under Bayesian Voting, the provably optimal
voting strategy.

Quick start
-----------
>>> from repro import Worker, WorkerPool, OptimalJurySelectionSystem
>>> pool = WorkerPool(
...     [
...         Worker("A", 0.77, 9), Worker("B", 0.70, 5),
...         Worker("C", 0.80, 6), Worker("D", 0.65, 7),
...         Worker("E", 0.60, 5), Worker("F", 0.60, 2),
...         Worker("G", 0.75, 3),
...     ]
... )
>>> system = OptimalJurySelectionSystem(pool, seed=42)
>>> print(system.budget_quality_table([5, 10, 15, 20]).render())

Subpackages
-----------
``repro.core``
    Workers, juries, tasks, priors.
``repro.voting``
    The strategy zoo (MV, BV, RMV, RBV, WMV, ...).
``repro.quality``
    Exact and approximate Jury Quality (Algorithms 1–2, Theorem 3).
``repro.selection``
    JSP solvers (Algorithms 3–4, exhaustive, baselines).
``repro.multiclass``
    Section-7 extension: multi-choice tasks, confusion matrices.
``repro.estimation``
    Worker-quality estimation (empirical, one-coin EM, Dawid–Skene).
``repro.simulation``
    Synthetic pools (Section 6.1.1) and the simulated AMT platform.
``repro.experiments``
    Drivers that regenerate every table and figure of Section 6.
``repro.engine``
    Event-driven, capacity-aware campaign serving behind the
    ``Campaign`` facade: resumable lifecycle, unified
    ``CampaignConfig``, pluggable persistent state backends, worker
    registry, shared JQ caches, budget-paced scheduler, metrics.
"""

from .core import (
    DecisionTask,
    Jury,
    MultiChoiceTask,
    ReproError,
    Voting,
    Worker,
    WorkerPool,
)
from .quality import (
    estimate_jq,
    exact_jq,
    exact_jq_bv,
    exact_jq_mv,
    jury_quality,
)
from .selection import (
    AnnealingSelector,
    ExhaustiveSelector,
    JQObjective,
    MVJSSelector,
    SelectionResult,
    budget_quality_table,
)
from .engine import (
    Campaign,
    CampaignConfig,
    CampaignEngine,
    EngineMetrics,
    EngineTask,
    JQCache,
    MemoryBackend,
    SQLiteBackend,
    StateBackend,
    WorkerRegistry,
)
from .frontier import Frontier, FrontierPoint, exact_frontier, sampled_frontier
from .online import OnlineDecisionSession, OnlineOutcome, run_online
from .portfolio import CampaignPlan, allocate_budget, plan_campaign
from .system import OptimalJurySelectionSystem, Verdict
from .voting import (
    BayesianVoting,
    MajorityVoting,
    VotingStrategy,
    make_strategy,
)

__version__ = "1.0.0"

__all__ = [
    "AnnealingSelector",
    "BayesianVoting",
    "Campaign",
    "CampaignConfig",
    "CampaignEngine",
    "CampaignPlan",
    "DecisionTask",
    "EngineMetrics",
    "EngineTask",
    "ExhaustiveSelector",
    "Frontier",
    "FrontierPoint",
    "JQCache",
    "JQObjective",
    "Jury",
    "MVJSSelector",
    "MajorityVoting",
    "MemoryBackend",
    "MultiChoiceTask",
    "OnlineDecisionSession",
    "OnlineOutcome",
    "OptimalJurySelectionSystem",
    "ReproError",
    "SQLiteBackend",
    "SelectionResult",
    "StateBackend",
    "Verdict",
    "Voting",
    "VotingStrategy",
    "Worker",
    "WorkerPool",
    "WorkerRegistry",
    "__version__",
    "allocate_budget",
    "budget_quality_table",
    "estimate_jq",
    "exact_frontier",
    "exact_jq",
    "exact_jq_bv",
    "exact_jq_mv",
    "jury_quality",
    "make_strategy",
    "plan_campaign",
    "run_online",
    "sampled_frontier",
]
