"""Steepest-descent improvement over the high-potential neighbourhood.

This is the inner loop of the Mapping Heuristic, shared with the
Simulated Annealing reference's *polish* phase (annealing explores
globally; the final descent walks to the bottom of the basin it found).
Since the search-kernel refactor the descent is a thin configuration of
:class:`repro.search.SearchLoop` -- the neighbourhood enumeration lives
in :mod:`repro.search.proposers` (re-exported here for compatibility)
and the steepest-improvement policy is
:class:`repro.search.GreedyAcceptor`; one kernel implementation
guarantees MH and SA optimize over exactly the same transformation
neighbourhood with exactly the same acceptance rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.strategy import DesignSpec
from repro.core.transformations import Transformation
from repro.engine.engine import EvaluationEngine
from repro.engine.evaluation import EvaluatedDesign
from repro.search.acceptors import GreedyAcceptor
from repro.search.budget import Budget
from repro.search.loop import SearchLoop, SearchOutcome
from repro.search.proposers import (  # noqa: F401  (compatibility re-exports)
    NeighbourhoodProposer,
    schedule_neighbours,
    select_candidates,
)
from repro.search.proposers import generate_moves as _generate_moves


@dataclass(frozen=True)
class DescentParams:
    """Knobs of the steepest-descent loop (shared by MH and SA-polish).

    Attributes
    ----------
    pool_size:
        Number of highest-potential candidate processes per iteration.
    max_iterations:
        Maximum number of applied moves.
    min_improvement:
        Required strict objective decrease per applied move.
    use_message_moves:
        Whether bus-slack (message-delay) moves are generated.
    """

    pool_size: int = 8
    max_iterations: int = 64
    min_improvement: float = 1e-9
    use_message_moves: bool = True


def generate_moves(
    spec: DesignSpec,
    evaluated: EvaluatedDesign,
    params: DescentParams,
) -> List[Transformation]:
    """The bounded high-potential neighbourhood of one design."""
    return _generate_moves(
        spec, evaluated, params.pool_size, params.use_message_moves
    )


def best_improving_move(
    evaluator: EvaluationEngine,
    best: EvaluatedDesign,
    moves: List[Transformation],
    min_improvement: float,
) -> Optional[EvaluatedDesign]:
    """Exactly evaluate every move; return the steepest improvement.

    The whole neighbourhood is scored in one :meth:`evaluate_moves`
    batch against the shared parent ``best`` -- cached outcomes are
    served directly, the remainder is evaluated cold.  The winner scan
    walks the results in move order, so cached and uncached runs pick
    the identical move.
    """
    if not moves:
        return None
    results = evaluator.evaluate_moves(best, moves)
    return GreedyAcceptor(min_improvement).decide(best, moves, results, None)


def descent_loop(
    params: Optional[DescentParams] = None,
    budget: Optional[Budget] = None,
    name: str = "descent",
) -> SearchLoop:
    """The steepest-descent search as a kernel :class:`SearchLoop`.

    ``params.max_iterations`` becomes a step budget, combined (``&``)
    with any externally supplied ``budget`` -- the tighter limit wins
    on every axis.
    """
    if params is None:
        params = DescentParams()
    return SearchLoop(
        proposer=NeighbourhoodProposer(
            pool_size=params.pool_size,
            use_message_moves=params.use_message_moves,
        ),
        acceptor=GreedyAcceptor(params.min_improvement),
        budget=Budget.combine(Budget(max_steps=params.max_iterations), budget),
        name=name,
    )


def steepest_descent(
    spec: DesignSpec,
    evaluator: EvaluationEngine,
    start: EvaluatedDesign,
    params: Optional[DescentParams] = None,
    budget: Optional[Budget] = None,
) -> EvaluatedDesign:
    """Apply best improving moves until a local optimum (or budget cut)."""
    return steepest_descent_outcome(
        spec, evaluator, start, params, budget
    ).incumbent


def steepest_descent_outcome(
    spec: DesignSpec,
    evaluator: EvaluationEngine,
    start: EvaluatedDesign,
    params: Optional[DescentParams] = None,
    budget: Optional[Budget] = None,
) -> SearchOutcome:
    """:func:`steepest_descent` with full stats and checkpoint."""
    return descent_loop(params, budget).run(spec, evaluator, start=start)
