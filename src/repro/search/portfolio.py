"""Deterministic racing of a strategy portfolio over one shared engine.

Algorithm portfolios hedge: instead of committing the whole evaluation
budget to one search, several configured strategies race for it, and
the best incumbent any of them finds wins.  The
:class:`PortfolioRunner` here races *search programs* (the generator
form every kernel-backed strategy exposes via ``search_program``) in
deterministic lockstep over one shared
:class:`~repro.engine.engine.EvaluationEngine`:

* **one engine** -- all members share the compiled problem and the
  evaluation cache (a design priced for member A is a cache hit for
  member B);
* **lockstep rounds** -- each round serves at most one evaluation
  request per still-running member, in configured member order.  The
  interleaving is a pure function of the configuration, never of
  thread timing, so seeded portfolio results are byte-identical for
  any racing order;
* **shared budget** -- an optional portfolio-level
  :class:`~repro.search.budget.Budget` (evaluations / wall-clock) is
  charged as requests are served; a member whose next neighbourhood no
  longer fits is cut via :class:`SharedBudgetExhausted` and finishes
  with its incumbent-so-far.  Members that terminate naturally free
  the remaining budget for the others -- that is the race;
* **deterministic tie-breaking** -- the winner is the valid member
  result with the strictly smallest objective; exact objective ties
  are broken by the canonical design identity (so the winning design
  does not depend on the racing order), and only identical designs
  fall back to the earliest configured member.  Completion order
  never matters.

Per-member engine attribution: each member's ``DesignResult`` reports
the evaluations served on its behalf, its own ``SearchStats``, and the
runtime, cache/store counters and stage timers of the engine
work done during its own turns (:class:`MemberMeter`).  The
:class:`PortfolioResult` carries the race totals; the members' counters
sum to them.  A member's cache hits may land on entries another member
priced -- that is the point of sharing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.cache import DEFAULT_MAX_ENTRIES
from repro.engine.engine import EngineCounters, EvaluationEngine
from repro.search.budget import Budget, BudgetProgress, SharedBudgetExhausted
from repro.search.loop import EvalRequest, execute_request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import DesignResult, DesignSpec


@dataclass
class PortfolioMemberOutcome:
    """One racing member's result and its portfolio accounting."""

    name: str
    index: int
    result: "DesignResult"
    evaluations_served: int = 0
    rounds: int = 0

    @property
    def objective(self) -> float:
        return self.result.objective


@dataclass
class PortfolioResult:
    """Outcome of one portfolio race.

    ``best`` is the winning member's :class:`DesignResult` (``None``
    when no member found a valid design); engine statistics are
    portfolio-level totals over the shared engine.
    """

    members: List[PortfolioMemberOutcome]
    winner_index: Optional[int] = None
    evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    delta_hits: int = 0
    delta_fallbacks: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    sched_ns: int = 0
    metrics_ns: int = 0
    decode_ns: int = 0
    runtime_seconds: float = 0.0
    budget_cut: bool = False

    @property
    def winner(self) -> Optional[PortfolioMemberOutcome]:
        if self.winner_index is None:
            return None
        return self.members[self.winner_index]

    @property
    def best(self) -> Optional["DesignResult"]:
        member = self.winner
        return member.result if member is not None else None

    @property
    def valid(self) -> bool:
        return self.winner_index is not None

    @property
    def objective(self) -> float:
        return self.best.objective if self.best is not None else float("inf")


class MemberMeter:
    """Attributes a shared engine's work to racing members, turn by turn.

    Every piece of member work -- priming its program, serving its
    request, cutting or checkpointing it -- runs inside
    :meth:`turn`, which charges the engine-counter difference (cache
    and store counters and the stage timers) and the wall time of
    the turn to that member.  Work done outside turns is charged to no
    member, so when every engine call happens in a turn the members'
    counters sum to the engine's totals.
    """

    def __init__(self, evaluator: EvaluationEngine) -> None:
        self.evaluator = evaluator
        self.work: Dict[int, EngineCounters] = {}
        self.seconds: Dict[int, float] = {}
        self._open: Optional[Tuple[int, EngineCounters, float]] = None

    @contextmanager
    def turn(self, member: int) -> Iterator[None]:
        """Charge the engine work done inside the block to ``member``."""
        self._open = (member, self.evaluator.counters(), time.perf_counter())
        try:
            yield
        finally:
            work, seconds = self.charged(member)
            self.work[member] = work
            self.seconds[member] = seconds
            self._open = None

    def charged(self, member: int) -> Tuple[EngineCounters, float]:
        """``member``'s counters and seconds so far, open turn included."""
        work = self.work.get(member, EngineCounters(0, 0, 0, 0, 0))
        seconds = self.seconds.get(member, 0.0)
        if self._open is not None and self._open[0] == member:
            _, before, started = self._open
            work = work + (self.evaluator.counters() - before)
            seconds += time.perf_counter() - started
        return work, seconds

    def stamp(self, member: int, result: "DesignResult") -> "DesignResult":
        """Write ``member``'s runtime and engine counters into ``result``."""
        work, seconds = self.charged(member)
        result.record_counters(work)
        result.runtime_seconds = seconds
        return result


class PortfolioRunner:
    """Races strategy instances over one shared evaluation engine.

    Parameters
    ----------
    members:
        Configured strategy instances exposing
        ``search_program(spec, compiled)`` and ``name`` (every
        kernel-backed strategy does).  Order is the racing order and
        the tie-breaking order.
    budget:
        Portfolio-level budget shared by all members (evaluations and
        wall-clock axes; per-member step caps belong to the members'
        own budgets).  ``None`` lets every member run to its own
        completion.
    use_cache, max_cache_entries, cache_store, cache_path:
        Shared-engine knobs, exactly as on
        :class:`~repro.engine.engine.EvaluationEngine`.  With
        ``cache_store="sqlite"`` the whole race shares one persistent
        result store: any member's priced design is served warm to the
        others, and to future races against the same path.
    """

    def __init__(
        self,
        members: Sequence,
        budget: Optional[Budget] = None,
        use_cache: bool = True,
        max_cache_entries: Optional[int] = -1,
        cache_store: str = "memory",
        cache_path: Optional[str] = None,
    ):
        if not members:
            raise ValueError("a portfolio needs at least one member")
        self.members = list(members)
        self.budget = budget
        self.use_cache = use_cache
        self.max_cache_entries = max_cache_entries
        self.cache_store = cache_store
        self.cache_path = cache_path

    # ------------------------------------------------------------------
    def run(self, spec: "DesignSpec") -> PortfolioResult:
        """Race every member on ``spec``; deterministic winner."""
        max_entries = (
            DEFAULT_MAX_ENTRIES
            if self.max_cache_entries == -1
            else self.max_cache_entries
        )
        started = time.perf_counter()
        with EvaluationEngine(
            spec,
            use_cache=self.use_cache,
            max_cache_entries=max_entries,
            cache_store=self.cache_store,
            cache_path=self.cache_path,
        ) as evaluator:
            outcomes, budget_cut = self._race(spec, evaluator)
            counters = evaluator.counters()
            result = PortfolioResult(
                members=outcomes,
                evaluations=counters.evaluations,
                cache_hits=counters.cache_hits,
                cache_misses=counters.cache_misses,
                delta_hits=counters.delta_hits,
                delta_fallbacks=counters.delta_fallbacks,
                store_hits=counters.store_hits,
                store_misses=counters.store_misses,
                store_writes=counters.store_writes,
                sched_ns=counters.sched_ns,
                metrics_ns=counters.metrics_ns,
                decode_ns=counters.decode_ns,
                budget_cut=budget_cut,
            )
        result.winner_index = _pick_winner(result.members)
        result.runtime_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    def _race(
        self, spec: "DesignSpec", evaluator: EvaluationEngine
    ) -> Tuple[List[PortfolioMemberOutcome], bool]:
        budget = self.budget if self.budget is not None else Budget()
        started = time.perf_counter()
        served_evaluations = 0
        budget_cut = False
        meter = MemberMeter(evaluator)

        names = _unique_names(self.members)
        programs = []
        outcomes: List[Optional[PortfolioMemberOutcome]] = []
        pending: List[Optional[EvalRequest]] = []
        for index, member in enumerate(self.members):
            programs.append(member.search_program(spec, evaluator.compiled))
            outcomes.append(None)
            pending.append(None)

        def finish(index: int, result: "DesignResult") -> None:
            outcome = outcomes[index]
            outcome.result = result
            programs[index] = None
            pending[index] = None

        # Prime every program up to its first evaluation request.
        for index, program in enumerate(programs):
            outcomes[index] = PortfolioMemberOutcome(
                name=names[index], index=index, result=None
            )
            with meter.turn(index):
                try:
                    pending[index] = next(program)
                except StopIteration as stop:
                    finish(index, stop.value)

        # Lockstep rounds: serve one request per live member, in order.
        while any(program is not None for program in programs):
            for index, program in enumerate(programs):
                if program is None:
                    continue
                request = pending[index]
                outcome = outcomes[index]
                outcome.rounds += 1
                cut = request.moves is not None and _over_budget(
                    budget,
                    served_evaluations,
                    request.size,
                    time.perf_counter() - started,
                )
                with meter.turn(index):
                    try:
                        if cut:
                            budget_cut = True
                            pending[index] = program.throw(
                                SharedBudgetExhausted()
                            )
                        else:
                            if not request.bookkeeping:
                                # Checkpoint-resume re-evaluations
                                # replay work already charged before a
                                # cut; serving them free keeps a
                                # resumed member's budget trajectory
                                # identical to the uninterrupted run's
                                # (the distributed race relies on it).
                                served_evaluations += request.size
                                outcome.evaluations_served += request.size
                            pending[index] = program.send(
                                execute_request(evaluator, request)
                            )
                    except StopIteration as stop:
                        finish(index, stop.value)

        final: List[PortfolioMemberOutcome] = []
        for outcome in outcomes:
            meter.stamp(outcome.index, outcome.result)
            if outcome.result.valid and outcome.evaluations_served > 0:
                outcome.result.evaluations = outcome.evaluations_served
            final.append(outcome)
        return final, budget_cut


def _over_budget(
    budget: Budget, served: int, request_size: int, seconds: float
) -> bool:
    """Whether serving ``request_size`` more evaluations busts the budget."""
    if (
        budget.max_evaluations is not None
        and served + request_size > budget.max_evaluations
    ):
        return True
    progress = BudgetProgress(evaluations=served, seconds=seconds)
    reason = budget.stop_reason(progress)
    return reason is not None and reason != "budget:steps"


def _pick_winner(members: Sequence[PortfolioMemberOutcome]) -> Optional[int]:
    """Deterministic incumbent tie-breaking.

    Strictly smallest objective wins; exact objective ties are broken
    by the canonical design identity
    (:meth:`DesignResult.design_identity` -- the one definition shared
    with the smoke checks and CLI gates), so the winning *design* does
    not depend on the racing order even when two members tie with
    different designs; only identical designs fall back to the
    earliest member index.
    """
    winner: Optional[int] = None
    for member in members:
        if not member.result.valid:
            continue
        if winner is None or member.objective < members[winner].objective:
            winner = member.index
        elif (
            member.objective == members[winner].objective
            and member.result.design_identity()
            < members[winner].result.design_identity()
        ):
            winner = member.index
    return winner


def _unique_names(members: Sequence) -> List[str]:
    """Member labels: the strategy name, disambiguated by position."""
    names: List[str] = []
    seen: dict = {}
    for member in members:
        base = getattr(member, "name", type(member).__name__)
        count = seen.get(base, 0)
        seen[base] = count + 1
        names.append(base if count == 0 else f"{base}#{count + 1}")
    return names


# ----------------------------------------------------------------------
# sequential first-valid racing (the modification flow's driver)
# ----------------------------------------------------------------------
def first_valid(
    attempts: Iterable,
    budget: Optional[Budget] = None,
) -> Tuple[Optional[object], int, str]:
    """Run attempt thunks in order until one returns a valid result.

    The sequential sibling of the portfolio race, used by the
    modification flow's cheapest-first subset search: each attempt is a
    zero-argument callable returning an object with a ``valid``
    attribute.  The budget's ``max_steps`` caps the number of attempts
    and ``max_seconds`` the total wall-clock across them.

    Returns ``(result, attempts_made, stop_reason)`` where ``result``
    is the first valid outcome or ``None``, and ``stop_reason`` is
    ``"valid"``, ``"exhausted"`` or the budget reason that cut the
    scan.
    """
    budget = budget if budget is not None else Budget()
    started = time.perf_counter()
    count = 0
    for attempt in attempts:
        progress = BudgetProgress(
            steps=count, seconds=time.perf_counter() - started
        )
        reason = budget.stop_reason(progress)
        if reason is not None:
            return None, count, reason
        result = attempt()
        count += 1
        if getattr(result, "valid", False):
            return result, count, "valid"
    return None, count, "exhausted"
