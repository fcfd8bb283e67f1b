"""Process-to-node mappings.

A :class:`Mapping` assigns every process of an application to one of
its allowed nodes.  Mappings are the unit the paper's strategies search
over: the Initial Mapping produces one, and the design transformations
of MH and SA mutate it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping as TMapping, Optional, Tuple

from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.utils.errors import MappingError


class Mapping:
    """An assignment of process ids to node ids.

    The class is a thin validated dictionary: it checks at assignment
    time that the target node exists and is allowed for the process,
    which keeps every strategy honest about mapping restrictions.
    """

    def __init__(
        self,
        application: Application,
        architecture: Architecture,
        assignment: Optional[TMapping[str, str]] = None,
    ):
        self.application = application
        self.architecture = architecture
        self._assignment: Dict[str, str] = {}
        if assignment is not None:
            for process_id, node_id in assignment.items():
                self.assign(process_id, node_id)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def assign(self, process_id: str, node_id: str) -> None:
        """Map ``process_id`` onto ``node_id`` (replacing any previous).

        Raises
        ------
        repro.utils.errors.MappingError
            If the process is unknown, the node is unknown, or the
            node is not in the process's allowed set.
        """
        if process_id not in self.application:
            raise MappingError(
                f"process {process_id!r} is not part of application "
                f"{self.application.name!r}"
            )
        if node_id not in self.architecture:
            raise MappingError(f"unknown node {node_id!r}")
        process = self.application.process(process_id)
        if node_id not in process.wcet:
            raise MappingError(
                f"process {process_id!r} is not allowed on node {node_id!r} "
                f"(allowed: {list(process.allowed_nodes)})"
            )
        self._assignment[process_id] = node_id

    def unassign(self, process_id: str) -> None:
        """Remove the assignment of ``process_id`` if present."""
        self._assignment.pop(process_id, None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node_of(self, process_id: str) -> str:
        """The node ``process_id`` is mapped to.

        Raises
        ------
        repro.utils.errors.MappingError
            If the process has no assignment yet.
        """
        try:
            return self._assignment[process_id]
        except KeyError:
            raise MappingError(
                f"process {process_id!r} is not mapped"
            ) from None

    def get(self, process_id: str) -> Optional[str]:
        """The node of ``process_id`` or ``None`` when unmapped."""
        return self._assignment.get(process_id)

    def __contains__(self, process_id: str) -> bool:
        return process_id in self._assignment

    def __len__(self) -> int:
        return len(self._assignment)

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._assignment.items())

    def items(self) -> Iterator[Tuple[str, str]]:
        return iter(self._assignment.items())

    def as_dict(self) -> Dict[str, str]:
        """A plain-dict snapshot of the assignment."""
        return dict(self._assignment)

    def wcet_of(self, process_id: str) -> int:
        """WCET of the process on its assigned node."""
        return self.application.process(process_id).wcet_on(
            self.node_of(process_id)
        )

    def is_complete(self) -> bool:
        """Whether every process of the application is mapped."""
        return len(self._assignment) == self.application.process_count

    def validate_complete(self) -> None:
        """Raise unless the mapping covers the whole application."""
        if not self.is_complete():
            missing = [
                p.id
                for p in self.application.processes
                if p.id not in self._assignment
            ]
            raise MappingError(
                f"mapping of application {self.application.name!r} is "
                f"incomplete; unmapped processes: {missing[:5]}"
                + ("..." if len(missing) > 5 else "")
            )

    def processes_on(self, node_id: str) -> Iterable[str]:
        """Ids of processes mapped to ``node_id``."""
        return [p for p, n in self._assignment.items() if n == node_id]

    def copy(self) -> "Mapping":
        """An independent copy sharing application and architecture."""
        out = Mapping(self.application, self.architecture)
        out._assignment = dict(self._assignment)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self._assignment == other._assignment

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Mapping({self.application.name!r}, "
            f"{len(self._assignment)}/{self.application.process_count} mapped)"
        )


class FrozenMapping(Mapping):
    """A read-only :class:`Mapping`: the mapping view of a candidate design.

    ``assign``/``unassign`` raise ``TypeError``; :meth:`copy` returns an
    ordinary, writable :class:`Mapping`.  The assignment is trusted (the
    design index validated it), so construction skips the per-entry
    checks.
    """

    def __init__(
        self,
        application: Application,
        architecture: Architecture,
        assignment: Dict[str, str],
    ):
        self.application = application
        self.architecture = architecture
        self._assignment = assignment

    def assign(self, process_id: str, node_id: str) -> None:
        raise TypeError(_READ_ONLY)

    def unassign(self, process_id: str) -> None:
        raise TypeError(_READ_ONLY)


_READ_ONLY = (
    "this mapping is a read-only view of a candidate design; copy() it, "
    "or derive a new design with a move"
)
