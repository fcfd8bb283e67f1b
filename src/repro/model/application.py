"""Applications: named sets of process graphs.

The paper's scenario involves three kinds of applications -- existing,
current and future -- all sharing the same structure: a collection of
process graphs, each with its own period and deadline.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.model.process_graph import Message, Process, ProcessGraph
from repro.utils.errors import InvalidModelError
from repro.utils.timemath import hyperperiod


class Application:
    """A named collection of process graphs.

    Process ids must be unique across the whole application (and, in a
    scenario, across all applications -- the generators guarantee this
    by prefixing ids with the application name).
    """

    def __init__(self, name: str, graphs: Optional[Iterable[ProcessGraph]] = None):
        if not name:
            raise InvalidModelError("application name must be non-empty")
        self.name = name
        self._graphs: Dict[str, ProcessGraph] = {}
        self._process_index: Dict[str, Tuple[ProcessGraph, Process]] = {}
        self._message_index: Dict[str, Tuple[ProcessGraph, Message]] = {}
        #: The last :class:`~repro.model.design_index.DesignIndex` built
        #: for this application (see ``DesignIndex.of``); process-local.
        self._design_index = None
        if graphs is not None:
            for graph in graphs:
                self.add_graph(graph)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_graph(self, graph: ProcessGraph) -> ProcessGraph:
        """Add a process graph, indexing its processes and messages.

        Raises
        ------
        repro.utils.errors.InvalidModelError
            On duplicate graph names or process/message ids.
        """
        if graph.name in self._graphs:
            raise InvalidModelError(
                f"duplicate graph name {graph.name!r} in application "
                f"{self.name!r}"
            )
        for proc in graph.processes:
            if proc.id in self._process_index:
                raise InvalidModelError(
                    f"duplicate process id {proc.id!r} across graphs of "
                    f"application {self.name!r}"
                )
        for msg in graph.messages:
            if msg.id in self._message_index:
                raise InvalidModelError(
                    f"duplicate message id {msg.id!r} across graphs of "
                    f"application {self.name!r}"
                )
        self._graphs[graph.name] = graph
        self._design_index = None
        for proc in graph.processes:
            self._process_index[proc.id] = (graph, proc)
        for msg in graph.messages:
            self._message_index[msg.id] = (graph, msg)
        return graph

    # pickling: the design-index cache stays process-local (its
    # receiver rebuilds it on first use).
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_design_index"] = None
        return state

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def graphs(self) -> List[ProcessGraph]:
        """All process graphs, in insertion order."""
        return list(self._graphs.values())

    def graph(self, name: str) -> ProcessGraph:
        """Look up a process graph by name."""
        try:
            return self._graphs[name]
        except KeyError:
            raise InvalidModelError(
                f"unknown graph {name!r} in application {self.name!r}"
            ) from None

    @property
    def processes(self) -> List[Process]:
        """All processes across all graphs."""
        return [proc for _, proc in self._process_index.values()]

    @property
    def messages(self) -> List[Message]:
        """All messages across all graphs."""
        return [msg for _, msg in self._message_index.values()]

    @property
    def process_count(self) -> int:
        return len(self._process_index)

    @property
    def message_count(self) -> int:
        return len(self._message_index)

    def __len__(self) -> int:
        return len(self._graphs)

    def __iter__(self) -> Iterator[ProcessGraph]:
        return iter(self._graphs.values())

    def __contains__(self, process_id: str) -> bool:
        return process_id in self._process_index

    def process(self, process_id: str) -> Process:
        """Look up a process by id anywhere in the application."""
        try:
            return self._process_index[process_id][1]
        except KeyError:
            raise InvalidModelError(
                f"unknown process {process_id!r} in application {self.name!r}"
            ) from None

    def graph_of(self, process_id: str) -> ProcessGraph:
        """The graph containing ``process_id``."""
        try:
            return self._process_index[process_id][0]
        except KeyError:
            raise InvalidModelError(
                f"unknown process {process_id!r} in application {self.name!r}"
            ) from None

    def message(self, message_id: str) -> Message:
        """Look up a message by id anywhere in the application."""
        try:
            return self._message_index[message_id][1]
        except KeyError:
            raise InvalidModelError(
                f"unknown message {message_id!r} in application {self.name!r}"
            ) from None

    def graph_of_message(self, message_id: str) -> ProcessGraph:
        """The graph containing ``message_id``."""
        try:
            return self._message_index[message_id][0]
        except KeyError:
            raise InvalidModelError(
                f"unknown message {message_id!r} in application {self.name!r}"
            ) from None

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def periods(self) -> List[int]:
        """The period of every graph."""
        return [g.period for g in self._graphs.values()]

    def hyperperiod(self) -> int:
        """LCM of the application's graph periods."""
        return hyperperiod(self.periods)

    def total_min_wcet_per_hyperperiod(self, horizon: Optional[int] = None) -> int:
        """Lower bound on the processor demand within ``horizon``.

        Each graph contributes ``total_min_wcet() * horizon / period``
        (its instances within the horizon).  Used by tests and the
        generators to sanity-check utilization.
        """
        if horizon is None:
            horizon = self.hyperperiod()
        total = 0
        for graph in self._graphs.values():
            instances = horizon // graph.period
            total += graph.total_min_wcet() * instances
        return total

    def validate(self) -> None:
        """Validate every graph; raise on the first violation."""
        if not self._graphs:
            raise InvalidModelError(f"application {self.name!r} has no graphs")
        for graph in self._graphs.values():
            graph.validate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Application({self.name!r}, graphs={len(self._graphs)}, "
            f"processes={self.process_count}, messages={self.message_count})"
        )


def merge_applications(name: str, applications: Iterable[Application]) -> Application:
    """A new application containing every graph of ``applications``.

    Graph names are prefixed with their source application's name to
    avoid collisions.  Useful when treating "all existing applications"
    as one frozen workload.
    """
    merged = Application(name)
    for app in applications:
        for graph in app.graphs:
            clone = ProcessGraph(
                f"{app.name}.{graph.name}", graph.period, graph.deadline
            )
            for proc in graph.processes:
                clone.add_process(proc)
            for msg in graph.messages:
                clone.add_message(msg)
            merged.add_graph(clone)
    return merged
