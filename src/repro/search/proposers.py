"""Proposers: how a search step generates candidate moves.

A proposer turns the current :class:`EvaluatedDesign` into the list of
:class:`Transformation` moves the step will price.  The two concrete
proposers are the neighbourhood enumeration that used to live inside
``core.improvement`` (the Mapping Heuristic's high-potential
neighbourhood, also SA's polish phase) and the random-move generator
that used to live inside ``core.simulated_annealing`` (the Metropolis
walk).  Both are lifted verbatim so seeded searches reproduce the
pre-refactor trajectories byte-for-byte.

An empty proposal list terminates the search (nothing left to try) --
the kernel's ``exhausted-neighbourhood`` stop reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Protocol, Tuple

import numpy as np

from repro.core.slack import slack_fragmentation, window_slack_profile
from repro.core.transformations import (
    DelayMessage,
    RemapProcess,
    SwapPriorities,
    Transformation,
)
from repro.engine.evaluation import EvaluatedDesign
from repro.sched.schedule import SystemSchedule
from repro.utils.timemath import periodic_windows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import DesignSpec
    from repro.model.process_graph import Process


class Proposer(Protocol):
    """Generates the moves one search step will price."""

    def propose(
        self,
        spec: "DesignSpec",
        current: EvaluatedDesign,
        rng: Optional[np.random.Generator],
    ) -> List[Transformation]:
        """The moves to evaluate against ``current``; ``[]`` stops."""
        ...  # pragma: no cover - protocol


# ----------------------------------------------------------------------
# high-potential neighbourhood (the Mapping Heuristic's move generator)
# ----------------------------------------------------------------------
def select_candidates(
    spec: "DesignSpec", evaluated: EvaluatedDesign, pool_size: int
) -> List[str]:
    """Top current-application processes by improvement potential.

    Scoring follows the two design criteria: a process scores its
    node's slack fragmentation (criterion 1 -- moving it may coalesce
    gaps) plus 1 if any of its instances executes inside the node's
    worst ``T_min`` window (criterion 2 -- moving it directly relieves
    the binding window).  Larger WCETs win ties.
    """
    schedule = evaluated.schedule
    design = evaluated.design
    frag = slack_fragmentation(schedule)
    profile = window_slack_profile(schedule, spec.future.t_min)
    worst_index = {
        node_id: min(range(len(slacks)), key=lambda i: slacks[i])
        for node_id, slacks in profile.items()
    }
    windows = periodic_windows(schedule.horizon, spec.future.t_min)
    horizon = spec.effective_horizon()

    scored: List[Tuple[float, int, str]] = []
    for proc in spec.current.processes:
        node_id = design.node_of(proc.id)
        score = frag[node_id].fragmentation
        wcet = proc.wcet_on(node_id)
        worst = windows[worst_index[node_id]]
        period = spec.current.graph_of(proc.id).period
        for instance in range(horizon // period):
            entry = schedule.entry_of(proc.id, instance)
            if entry is not None and entry.interval.overlaps(worst):
                score += 1.0
                break
        scored.append((score, wcet, proc.id))
    scored.sort(key=lambda t: (-t[0], -t[1], t[2]))
    return [pid for _, _, pid in scored[:pool_size]]


def schedule_neighbours(
    spec: "DesignSpec",
    schedule: SystemSchedule,
    process_id: str,
    node_id: str,
) -> List[str]:
    """Current-app processes scheduled adjacent to ``process_id``.

    Swapping priorities with a schedule neighbour realizes "move the
    process to a different slack on the *same* processor": the two
    trade places in the list-scheduling order.
    """
    entries = [
        e
        for e in schedule.entries_on(node_id)
        if not e.frozen and e.process_id in spec.current
    ]
    neighbours: List[str] = []
    for i, entry in enumerate(entries):
        if entry.process_id != process_id:
            continue
        if i > 0 and entries[i - 1].process_id != process_id:
            neighbours.append(entries[i - 1].process_id)
        if i + 1 < len(entries) and entries[i + 1].process_id != process_id:
            neighbours.append(entries[i + 1].process_id)
    seen = set()
    unique: List[str] = []
    for n in neighbours:
        if n not in seen:
            seen.add(n)
            unique.append(n)
    return unique


def generate_moves(
    spec: "DesignSpec",
    evaluated: EvaluatedDesign,
    pool_size: int = 8,
    use_message_moves: bool = True,
) -> List[Transformation]:
    """The bounded high-potential neighbourhood of one design."""
    candidates = select_candidates(spec, evaluated, pool_size)
    design = evaluated.design
    schedule = evaluated.schedule
    moves: List[Transformation] = []

    for pid in candidates:
        process = spec.current.process(pid)
        current_node = design.node_of(pid)
        for node_id in process.allowed_nodes:
            if node_id != current_node:
                moves.append(RemapProcess(pid, node_id))
        for neighbour in schedule_neighbours(spec, schedule, pid, current_node):
            moves.append(SwapPriorities(pid, neighbour))

    if use_message_moves:
        for pid in candidates:
            graph = spec.current.graph_of(pid)
            for msg in graph.out_messages(pid):
                if design.node_of(msg.src) == design.node_of(msg.dst):
                    continue
                moves.append(DelayMessage(msg.id, +1))
                if design.delay_of(msg.id) > 0:
                    moves.append(DelayMessage(msg.id, -1))
    return moves


@dataclass(frozen=True)
class NeighbourhoodProposer:
    """The Mapping Heuristic's high-potential neighbourhood, as a proposer.

    Attributes
    ----------
    pool_size:
        Number of highest-potential candidate processes per step.
    use_message_moves:
        Whether bus-slack (message-delay) moves are generated.
    """

    pool_size: int = 8
    use_message_moves: bool = True

    def propose(
        self,
        spec: "DesignSpec",
        current: EvaluatedDesign,
        rng: Optional[np.random.Generator],
    ) -> List[Transformation]:
        return generate_moves(
            spec, current, self.pool_size, self.use_message_moves
        )


# ----------------------------------------------------------------------
# random single moves (the Metropolis walk's move generator)
# ----------------------------------------------------------------------
def random_swap(
    processes: List["Process"], rng: np.random.Generator
) -> Optional[Transformation]:
    """A priority swap between two distinct random processes."""
    if len(processes) < 2:
        return None
    i, j = rng.choice(len(processes), size=2, replace=False)
    return SwapPriorities(processes[int(i)].id, processes[int(j)].id)


def random_move(
    spec: "DesignSpec",
    current: EvaluatedDesign,
    rng: np.random.Generator,
) -> Optional[Transformation]:
    """Draw one random transformation of the current design.

    The draw sequence is exactly the annealer's historical one (move
    kind, then rejection-sampled operands), so seeded SA walks through
    the kernel reproduce the legacy walks byte-for-byte.
    """
    processes = spec.current.processes
    if not processes:
        return None
    design = current.design
    roll = rng.random()
    if roll < 0.55:
        # Remap a random process to a random *other* allowed node.
        for _ in range(8):
            proc = processes[rng.integers(len(processes))]
            current_node = design.node_of(proc.id)
            options = [n for n in proc.allowed_nodes if n != current_node]
            if options:
                return RemapProcess(
                    proc.id, options[rng.integers(len(options))]
                )
        return random_swap(processes, rng)
    if roll < 0.85 or not spec.current.messages:
        return random_swap(processes, rng)
    # Message-delay move on a random inter-node message.
    messages = spec.current.messages
    for _ in range(8):
        msg = messages[rng.integers(len(messages))]
        if design.node_of(msg.src) != design.node_of(msg.dst):
            delay = design.delay_of(msg.id)
            delta = +1 if delay == 0 or rng.random() < 0.5 else -1
            return DelayMessage(msg.id, delta)
    return random_swap(processes, rng)


@dataclass(frozen=True)
class RandomMoveProposer:
    """One random transformation per step (the Metropolis proposer)."""

    def propose(
        self,
        spec: "DesignSpec",
        current: EvaluatedDesign,
        rng: Optional[np.random.Generator],
    ) -> List[Transformation]:
        if rng is None:
            raise ValueError("RandomMoveProposer requires an rng")
        move = random_move(spec, current, rng)
        return [] if move is None else [move]
