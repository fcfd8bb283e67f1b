"""Extension: incremental design with modification of existing applications.

The paper's stated future work (slide 18, developed in the authors'
CODES 2001 follow-up) drops the hard form of requirement (a): when the
current application cannot be mapped without touching anything -- or
only with a poor design -- a *subset* of the existing applications may
be remapped and rescheduled, at a per-application **modification cost**
capturing the re-design and re-testing effort.  The goal is a valid,
metric-optimized design whose total modification cost is minimal.

This module implements the subset-selection flow:

1. try the pure incremental design (nothing modified);
2. otherwise unfreeze existing applications in ascending cost order
   (cheapest-first greedy, the natural "minimize modification cost"
   heuristic) -- the still-frozen remainder is rebuilt into a base
   schedule, and the unfrozen applications are redesigned *together
   with* the current application by the chosen strategy;
3. return the first valid design found, with the modified subset and
   its total cost.

The unfrozen applications participate fully in the optimization: their
processes may move to different nodes and different slacks, exactly
like current-application processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.future import FutureCharacterization
from repro.core.initial_mapping import InitialMapper
from repro.core.metrics import ObjectiveWeights
from repro.core.strategy import DesignResult, DesignSpec, make_strategy
from repro.model.application import Application, merge_applications
from repro.model.architecture import Architecture
from repro.sched.schedule import SystemSchedule
from repro.search.budget import Budget
from repro.search.portfolio import first_valid
from repro.utils.errors import InvalidModelError
from repro.utils.timemath import hyperperiod


@dataclass(frozen=True)
class ExistingApplication:
    """An already-running application with its modification cost.

    Attributes
    ----------
    application:
        The application as originally designed.
    modification_cost:
        Engineering cost of remapping/rescheduling it (re-validation,
        re-testing); non-negative, in arbitrary consistent units.
    """

    application: Application
    modification_cost: float

    def __post_init__(self) -> None:
        if self.modification_cost < 0:
            raise InvalidModelError(
                f"modification cost of {self.application.name!r} must be "
                f"non-negative, got {self.modification_cost}"
            )

    @property
    def name(self) -> str:
        return self.application.name


@dataclass
class ModificationResult:
    """Outcome of the modification-aware design flow.

    Attributes
    ----------
    valid:
        Whether any subset yielded a valid design.
    modified:
        Names of the existing applications that were remapped.
    total_cost:
        Sum of their modification costs (0.0 when nothing moved).
    design:
        The strategy's result for the movable set (current application
        plus the modified existing applications).
    attempts:
        Number of subsets tried.
    """

    valid: bool
    modified: List[str] = field(default_factory=list)
    total_cost: float = 0.0
    design: Optional[DesignResult] = None
    attempts: int = 0
    #: Why the subset scan ended: ``valid``, ``exhausted``, or the
    #: budget reason that cut it (``budget:steps``/``budget:seconds``).
    stop_reason: str = ""


def design_with_modifications(
    architecture: Architecture,
    existing: Sequence[ExistingApplication],
    current: Application,
    future: FutureCharacterization,
    weights: Optional[ObjectiveWeights] = None,
    strategy: str = "MH",
    horizon: Optional[int] = None,
    max_modified: Optional[int] = None,
    cache_store: str = "memory",
    cache_path: Optional[str] = None,
    budget: Optional[Budget] = None,
    attempt_budget: Optional[Budget] = None,
    **strategy_kwargs,
) -> ModificationResult:
    """Design ``current``, modifying existing applications only if needed.

    Parameters
    ----------
    architecture:
        The platform.
    existing:
        The running applications with their modification costs.
    current:
        The application to integrate now.
    future:
        Future-family characterization driving the objective.
    weights:
        Objective weights (defaults to the balanced slide-14 weights).
    strategy:
        Which mapping strategy redesigns the movable set (``MH`` by
        default; ``AH``/``SA`` accepted).
    horizon:
        Schedule horizon; defaults to the hyperperiod of all
        applications involved.
    max_modified:
        Upper bound on how many existing applications may be modified
        (``None`` = all of them, i.e. full redesign as last resort).
    cache_store / cache_path:
        Result-store backend of every subset attempt's evaluation
        engine (``"memory"`` or ``"sqlite"`` at ``cache_path``); the
        attempts share one database, so a re-run of the scan is served
        warm.
    budget:
        Per-strategy search budget, forwarded to every subset
        attempt's strategy run (see the strategies' ``budget`` field).
    attempt_budget:
        Budget of the subset scan itself: ``max_steps`` caps how many
        subsets are tried, ``max_seconds`` the total wall-clock across
        attempts.  A cut scan returns ``valid=False`` with the budget
        reason in ``stop_reason``.
    strategy_kwargs:
        Forwarded to the strategy constructor (e.g. SA iterations).

    Returns
    -------
    ModificationResult
        The cheapest-first greedy outcome; ``valid`` is False only when
        even modifying every allowed application fails.
    """
    if weights is None:
        weights = ObjectiveWeights()
    if horizon is None:
        periods: List[int] = list(current.periods)
        for item in existing:
            periods.extend(item.application.periods)
        horizon = hyperperiod(periods)
    if max_modified is None:
        max_modified = len(existing)
    strategy_kwargs.setdefault("cache_store", cache_store)
    strategy_kwargs.setdefault("cache_path", cache_path)
    if budget is not None:
        strategy_kwargs.setdefault("budget", budget)

    by_cost = sorted(existing, key=lambda e: (e.modification_cost, e.name))
    mapper = InitialMapper(architecture)

    def attempt_for(k: int):
        """Thunk trying the cheapest-k unfrozen subset."""

        def attempt() -> ModificationResult:
            unfrozen = by_cost[:k]
            frozen = by_cost[k:]
            base = _frozen_base(mapper, architecture, frozen, horizon)
            if base is None:
                return ModificationResult(valid=False)
            movable = _movable_application(current, unfrozen)
            spec = DesignSpec(
                architecture=architecture,
                current=movable,
                future=future,
                base_schedule=base,
                weights=weights,
            )
            result = make_strategy(strategy, **strategy_kwargs).design(spec)
            return ModificationResult(
                valid=result.valid,
                modified=[e.name for e in unfrozen],
                total_cost=sum(e.modification_cost for e in unfrozen),
                design=result,
            )

        return attempt

    outcome, attempts, stop_reason = first_valid(
        (attempt_for(k) for k in range(0, max_modified + 1)),
        budget=attempt_budget,
    )
    if outcome is None:
        return ModificationResult(
            valid=False, attempts=attempts, stop_reason=stop_reason
        )
    outcome.attempts = attempts
    outcome.stop_reason = stop_reason
    return outcome


def _frozen_base(
    mapper: InitialMapper,
    architecture: Architecture,
    frozen: Sequence[ExistingApplication],
    horizon: int,
) -> Optional[SystemSchedule]:
    """Schedule the still-frozen applications into a frozen base."""
    if not frozen:
        return SystemSchedule(architecture, horizon)
    merged = merge_applications(
        "frozen", [item.application for item in frozen]
    )
    outcome = mapper.try_map_and_schedule(
        merged, horizon=horizon, frozen=True
    )
    if outcome is None:
        return None
    return outcome[1]


def _movable_application(
    current: Application, unfrozen: Sequence[ExistingApplication]
) -> Application:
    """The joint application the strategy redesigns.

    When nothing is unfrozen this is the current application itself,
    so the k=0 iteration is exactly the paper's original flow.
    """
    if not unfrozen:
        return current
    return merge_applications(
        "movable", [item.application for item in unfrozen] + [current]
    )
