"""Design transformations (slide 14).

The paper's optimization strategies improve a design by applying two
kinds of moves to the current application:

* *moving a process to a different slack on the same or a different
  processor*, and
* *moving a message to a different slack on the bus*.

A candidate design here is the triple
``(mapping, priorities, message_delays)`` held as three arrays in
:class:`CandidateDesign` (see *Candidate representation* below); the
static cyclic schedule is a deterministic function of that triple (the
list scheduler).  The paper's moves map to three concrete
transformations:

* :class:`RemapProcess` -- change the node a process is mapped to
  (moves the process, and implicitly its messages, to the slack of a
  different processor / bus slot);
* :class:`SwapPriorities` -- exchange the list-scheduling priorities of
  two processes, reordering the ready list so the process lands in a
  different slack of the *same* processor;
* :class:`DelayMessage` -- make a message skip feasible TDMA slot
  occurrences, moving it to a later slack on the bus.

Every transformation is pure: ``apply`` returns a new design and leaves
the input design untouched, so strategies can fan out many moves from
one base design.

**Candidate representation.**  A design is three read-only arrays in
the orders of one :class:`~repro.model.design_index.DesignIndex`: the
node index of every process (``int32``), the priority of every process
(``float64``) and the delay of every message (``int32``).  A move
resolves its ids through the index and patches one or two entries of a
copy of one array; the other arrays are shared with the parent (they
are read-only, so sharing is safe).  The design's :attr:`~CandidateDesign.key`
-- the three arrays' bytes, concatenated -- is the memoization key of
the evaluation cache and the result store.  A child whose priorities
did not change (remap and delay moves) also inherits its parent's
lowered priority ranks, so the scheduling pass skips the sort.  The
id-keyed forms -- :attr:`~CandidateDesign.mapping`,
:attr:`~CandidateDesign.priorities`,
:attr:`~CandidateDesign.message_delays` -- are lazy, cached, read-only
views for reports, serialization and the strategies' bookkeeping.

Every transformation also declares its **footprint**: the dirty set of
processes, nodes and messages whose scheduling decisions the move can
affect directly.  The incremental evaluation kernel
(:mod:`repro.engine.delta`) turns a footprint into the earliest point
where a child schedule can diverge from its parent, and reschedules
only from there.  Footprints are *direct* dirty sets -- ripple effects
(a displaced process freeing a gap another process then takes) are
handled by the divergence/resume machinery, not declared here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Mapping as TMapping, Optional, Union

import numpy as np

from repro.model.design_index import DesignIndex, read_only
from repro.model.mapping import FrozenMapping, Mapping


@dataclass(frozen=True)
class MoveFootprint:
    """The dirty set one transformation can affect directly.

    Attributes
    ----------
    processes:
        Processes whose *pop-time* behavior changes: their own
        placement (node, WCET) or the delivery of a message they send.
        The child schedule cannot diverge from the parent before the
        first pop of one of these processes' instances.
    reprioritized:
        Processes whose ready-heap key changes.  Divergence can start
        as soon as one of their instances sits in the ready heap and
        the new key would win (or lose) a pop it previously lost (or
        won).
    nodes:
        Nodes whose timeline the move touches directly (the remap's
        source/target, the priority swap's node, the delayed message's
        sender).  Diagnostic: the full dirty-node set of a child is
        only known after rescheduling, because displaced work ripples.
    messages:
        Messages whose bus placement the move changes directly.
    """

    processes: FrozenSet[str] = frozenset()
    reprioritized: FrozenSet[str] = frozenset()
    nodes: FrozenSet[str] = frozenset()
    messages: FrozenSet[str] = frozenset()


class CandidateDesign:
    """A point in the search space of the optimization strategies.

    Construct one from id-keyed forms -- ``CandidateDesign(mapping,
    priorities, message_delays)``, checked by
    :meth:`DesignIndex.encode <repro.model.design_index.DesignIndex.encode>`
    -- or from a checked key (:meth:`from_key`); moves derive children
    without re-checking.

    Attributes
    ----------
    index:
        The :class:`~repro.model.design_index.DesignIndex` whose orders
        the arrays follow.
    node, prio, delay:
        Read-only arrays: node index per process, list-scheduling
        priority per process (higher runs first among ready), feasible
        slot skips per message.
    """

    __slots__ = (
        "index", "node", "prio", "delay", "_key", "_lowered", "_views",
    )

    def __init__(
        self,
        mapping: Mapping,
        priorities: TMapping[str, float],
        message_delays: Optional[TMapping[str, int]] = None,
    ):
        index = DesignIndex.of(mapping.application, mapping.architecture)
        self._set(
            index,
            *index.encode(mapping.as_dict(), priorities, message_delays or {}),
            None,
        )

    def _set(self, index, node, prio, delay, lowered) -> None:
        self.index = index
        self.node = node
        self.prio = prio
        self.delay = delay
        self._key: Optional[bytes] = None
        #: The scheduling lowering's cached priority ranks (see
        #: ``ArraySpec.lower_candidate``); shared by children whose
        #: priorities did not change.
        self._lowered = lowered
        self._views: Optional[tuple] = None

    @classmethod
    def _make(
        cls,
        index: DesignIndex,
        node: np.ndarray,
        prio: np.ndarray,
        delay: np.ndarray,
        lowered: Optional[tuple] = None,
    ) -> "CandidateDesign":
        """A design of read-only arrays already in ``index`` order."""
        design = cls.__new__(cls)
        design._set(index, node, prio, delay, lowered)
        return design

    @classmethod
    def from_dicts(
        cls,
        index: DesignIndex,
        mapping: TMapping[str, str],
        priorities: TMapping[str, float],
        message_delays: TMapping[str, int],
    ) -> "CandidateDesign":
        """Build a design from plain id-keyed dicts (checked)."""
        return cls._make(
            index, *index.encode(mapping, priorities, message_delays)
        )

    @classmethod
    def from_key(cls, index: DesignIndex, key: bytes) -> "CandidateDesign":
        """Rebuild a design from its :attr:`key` (checked)."""
        design = cls._make(index, *index.decode_key(key))
        design._key = bytes(key)
        return design

    @property
    def key(self) -> bytes:
        """The three arrays' bytes, concatenated (computed once)."""
        key = self._key
        if key is None:
            key = self._key = (
                self.node.tobytes() + self.prio.tobytes() + self.delay.tobytes()
            )
        return key

    def _derive(
        self, node=None, prio=None, delay=None
    ) -> "CandidateDesign":
        """A child sharing every array it does not replace."""
        return CandidateDesign._make(
            self.index,
            self.node if node is None else node,
            self.prio if prio is None else prio,
            self.delay if delay is None else delay,
            self._lowered if prio is None else None,
        )

    def node_of(self, process_id: str) -> str:
        """The node ``process_id`` is mapped to (no view built)."""
        index = self.index
        return index.node_ids[self.node[index.pid_index[process_id]]]

    def delay_of(self, message_id: str) -> int:
        """The delay of ``message_id`` (no view built)."""
        return int(self.delay[self.index.msg_index[message_id]])

    # ------------------------------------------------------------------
    # read-only id-keyed views (built on first use)
    # ------------------------------------------------------------------
    def _view(self) -> tuple:
        views = self._views
        if views is None:
            index = self.index
            views = self._views = (
                index.mapping_view(self.node),
                index.priorities_view(self.prio),
                index.delays_view(self.delay),
            )
        return views

    @property
    def mapping(self) -> FrozenMapping:
        """Process-to-node assignment (a read-only :class:`Mapping`)."""
        return self._view()[0]

    @property
    def priorities(self) -> TMapping[str, float]:
        """List-scheduling priorities by process id (read-only)."""
        return self._view()[1]

    @property
    def message_delays(self) -> TMapping[str, int]:
        """Nonzero feasible-slot skips by message id (read-only)."""
        return self._view()[2]

    def copy(self) -> "CandidateDesign":
        """An independent copy of the design point."""
        return CandidateDesign._make(
            self.index,
            read_only(self.node.copy()),
            read_only(self.prio.copy()),
            read_only(self.delay.copy()),
            self._lowered,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CandidateDesign):
            return NotImplemented
        return self.index.same_order(other.index) and self.key == other.key

    def __reduce__(self):
        return (
            CandidateDesign._make,
            (self.index, self.node, self.prio, self.delay),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CandidateDesign({self.index.application.name!r}, "
            f"{len(self.node)} processes, "
            f"{int(np.count_nonzero(self.delay))} delayed messages)"
        )


@dataclass(frozen=True)
class RemapProcess:
    """Move ``process_id`` onto ``node_id`` (a different-processor slack)."""

    process_id: str
    node_id: str

    def apply(self, design: CandidateDesign) -> CandidateDesign:
        """Return a new design with the process remapped.

        Raises
        ------
        repro.utils.errors.MappingError
            For an unknown process or node, or a disallowed node.
        """
        index = design.index
        p = index.pid_index.get(self.process_id)
        n = index.node_index.get(self.node_id)
        if p is None or n is None or not index.allowed[p, n]:
            # Mapping.assign words the precise error.
            Mapping(index.application, index.architecture).assign(
                self.process_id, self.node_id
            )
        node = design.node.copy()
        node[p] = n
        return design._derive(node=read_only(node))

    def footprint(self, design: CandidateDesign) -> MoveFootprint:
        """Dirty set: the process, affected deliveries, both nodes.

        Besides the remapped process itself, a *predecessor* is
        placement-dirty when the delivery of its message into the
        process changes: the delivery happens while the predecessor's
        job is popped, and its shape depends only on whether sender and
        receiver share a node (the bus slot is the *sender's*).  A
        sender mapped to neither the old nor the new node keeps an
        identical delivery -- same slot, same ready time -- and stays
        clean.
        """
        mapping = design.mapping
        graph = mapping.application.graph_of(self.process_id)
        in_messages = graph.in_messages(self.process_id)
        out_messages = graph.out_messages(self.process_id)
        old_node = mapping.node_of(self.process_id)
        dirty = [self.process_id]
        dirty_messages = [msg.id for msg in out_messages]
        for msg in in_messages:
            if mapping.node_of(msg.src) in (old_node, self.node_id):
                dirty.append(msg.src)
                dirty_messages.append(msg.id)
        return MoveFootprint(
            processes=frozenset(dirty),
            nodes=frozenset([old_node, self.node_id]),
            messages=frozenset(dirty_messages),
        )

    def describe(self) -> str:
        return f"remap {self.process_id} -> {self.node_id}"


@dataclass(frozen=True)
class SwapPriorities:
    """Exchange scheduling priorities of two processes (same-resource shuffle)."""

    first: str
    second: str

    def apply(self, design: CandidateDesign) -> CandidateDesign:
        """Return a new design with the two priorities swapped.

        Raises
        ------
        ValueError
            For an unknown process id.
        """
        index = design.index
        a = index.process(self.first)
        b = index.process(self.second)
        prio = design.prio.copy()
        prio[a], prio[b] = prio[b], prio[a]
        return design._derive(prio=read_only(prio))

    def footprint(self, design: CandidateDesign) -> MoveFootprint:
        """Dirty set: only the two re-keyed processes (and their nodes)."""
        return MoveFootprint(
            reprioritized=frozenset([self.first, self.second]),
            nodes=frozenset(
                [
                    design.mapping.node_of(self.first),
                    design.mapping.node_of(self.second),
                ]
            ),
        )

    def describe(self) -> str:
        return f"swap priority {self.first} <-> {self.second}"


@dataclass(frozen=True)
class DelayMessage:
    """Shift ``message_id`` by ``delta`` feasible slot occurrences.

    The resulting delay is clamped at zero; a move that would leave the
    delay unchanged still produces a (trivially equal) new design and
    is filtered out by the strategies' improvement test.
    """

    message_id: str
    delta: int

    def apply(self, design: CandidateDesign) -> CandidateDesign:
        """Return a new design with the message delay adjusted.

        Raises
        ------
        ValueError
            For an unknown message id.
        """
        m = design.index.message(self.message_id)
        delay = design.delay.copy()
        delay[m] = max(0, int(delay[m]) + self.delta)
        return design._derive(delay=read_only(delay))

    def footprint(self, design: CandidateDesign) -> MoveFootprint:
        """Dirty set: the sender (deliveries happen at its pop) + slot."""
        message = design.mapping.application.message(self.message_id)
        return MoveFootprint(
            processes=frozenset([message.src]),
            nodes=frozenset([design.mapping.node_of(message.src)]),
            messages=frozenset([self.message_id]),
        )

    def describe(self) -> str:
        sign = "+" if self.delta >= 0 else ""
        return f"delay message {self.message_id} {sign}{self.delta} slots"


Transformation = Union[RemapProcess, SwapPriorities, DelayMessage]


def remap_moves(
    mapping: Mapping, process_ids: Iterable[str]
) -> List[RemapProcess]:
    """All single-process remap moves for the given processes."""
    moves: List[RemapProcess] = []
    for pid in process_ids:
        current = mapping.node_of(pid)
        process = mapping.application.process(pid)
        for node_id in process.allowed_nodes:
            if node_id != current:
                moves.append(RemapProcess(pid, node_id))
    return moves
