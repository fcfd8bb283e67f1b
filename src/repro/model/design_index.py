"""Dense index spaces of one design problem.

A candidate design (:class:`repro.core.transformations.CandidateDesign`)
is three arrays, not three id-keyed dicts: a node index per process, a
priority per process and a delay per message.  :class:`DesignIndex`
fixes the order of those arrays for one ``(application, architecture)``
pair, and converts between them and the id-keyed forms that external
inputs (checkpoints, store rows, callers' mappings) and reports use:

* ``pids`` -- process ids, sorted lexicographically;
* ``node_ids`` -- the architecture's node order;
* ``message_ids`` -- graph order, then each graph's process order, then
  each process's ``out_messages`` order.  That is the order in which
  the scheduling pass first meets the messages, so the compiled spec's
  array lowering (:class:`repro.sched.arrays.ArraySpec`) indexes its
  edges by it directly.

Every conversion from ids is checked: an unknown process, node or
message id, a disallowed node, a missing mapping entry or a negative
delay raises one ``ValueError`` that names the offending id.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, List, Mapping as TMapping, Tuple

import numpy as np

from repro.model.mapping import FrozenMapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.application import Application
    from repro.model.architecture import Architecture

#: ``(node, priority, delay)`` arrays of one design.
DesignArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only (designs share their arrays)."""
    array.flags.writeable = False
    return array


class DesignIndex:
    """The array orders of one ``(application, architecture)`` pair.

    Build it with :meth:`of`, which keeps one index per application
    (the last architecture asked for), so every design of a problem
    shares the same index object.  Immutable after construction.
    """

    __slots__ = (
        "application", "architecture", "pids", "pid_index", "node_ids",
        "node_index", "message_ids", "msg_index", "allowed", "key_size",
    )

    def __init__(
        self, application: "Application", architecture: "Architecture"
    ) -> None:
        self.application = application
        self.architecture = architecture
        self.pids: List[str] = sorted(p.id for p in application.processes)
        self.pid_index: Dict[str, int] = {
            pid: i for i, pid in enumerate(self.pids)
        }
        self.node_ids: List[str] = list(architecture.node_ids)
        self.node_index: Dict[str, int] = {
            nid: i for i, nid in enumerate(self.node_ids)
        }
        self.message_ids: List[str] = [
            msg.id
            for graph in application.graphs
            for proc in graph.processes
            for msg in graph.out_messages(proc.id)
        ]
        self.msg_index: Dict[str, int] = {
            mid: i for i, mid in enumerate(self.message_ids)
        }
        allowed = np.zeros((len(self.pids), len(self.node_ids)), dtype=bool)
        for i, pid in enumerate(self.pids):
            for nid in application.process(pid).wcet:
                n = self.node_index.get(nid)
                if n is not None:
                    allowed[i, n] = True
        #: ``allowed[p, n]``: process ``p`` may run on node ``n``.
        self.allowed = read_only(allowed)
        #: Byte length of a design key (see :meth:`decode_key`).
        self.key_size = 12 * len(self.pids) + 4 * len(self.message_ids)

    @classmethod
    def of(
        cls, application: "Application", architecture: "Architecture"
    ) -> "DesignIndex":
        """The shared index of ``(application, architecture)``."""
        index = application._design_index
        if index is None or index.architecture is not architecture:
            index = cls(application, architecture)
            application._design_index = index
        return index

    def __reduce__(self):
        # Unpickled designs re-attach to the receiver's shared index.
        return (DesignIndex.of, (self.application, self.architecture))

    def same_order(self, other: "DesignIndex") -> bool:
        """Whether designs of ``other`` read the same in this index."""
        return other is self or (
            other.pids == self.pids
            and other.node_ids == self.node_ids
            and other.message_ids == self.message_ids
        )

    def check_fits(self, other: "DesignIndex") -> None:
        """Raise ``ValueError`` unless designs of ``other`` fit here."""
        if not self.same_order(other):
            raise ValueError(
                f"design of application {other.application.name!r} does "
                f"not fit the design index of {self.application.name!r}"
            )

    # ------------------------------------------------------------------
    # ids -> arrays (checked)
    # ------------------------------------------------------------------
    def process(self, process_id: str) -> int:
        """Index of ``process_id``; ``ValueError`` when unknown."""
        i = self.pid_index.get(process_id)
        if i is None:
            raise ValueError(
                f"unknown process id {process_id!r} (application "
                f"{self.application.name!r})"
            )
        return i

    def message(self, message_id: str) -> int:
        """Index of ``message_id``; ``ValueError`` when unknown."""
        m = self.msg_index.get(message_id)
        if m is None:
            raise ValueError(
                f"unknown message id {message_id!r} (application "
                f"{self.application.name!r})"
            )
        return m

    def encode(
        self,
        assignment: TMapping[str, str],
        priorities: TMapping[str, float],
        delays: TMapping[str, int],
    ) -> DesignArrays:
        """Read-only design arrays of id-keyed dicts.

        Every process needs a mapping entry; a missing priority reads
        as ``0.0`` and a missing delay as ``0``, as they always have.
        """
        node = np.full(len(self.pids), -1, dtype=np.int32)
        for pid, nid in assignment.items():
            i = self.process(pid)
            n = self.node_index.get(nid)
            if n is None:
                raise ValueError(
                    f"process {pid!r} is mapped to unknown node {nid!r} "
                    f"(nodes: {self.node_ids})"
                )
            if not self.allowed[i, n]:
                raise ValueError(
                    f"process {pid!r} is not allowed on node {nid!r}"
                )
            node[i] = n
        missing = np.flatnonzero(node < 0)
        if len(missing):
            raise ValueError(
                f"process {self.pids[int(missing[0])]!r} has no mapping entry"
            )
        prio = np.zeros(len(self.pids), dtype=np.float64)
        for pid, value in priorities.items():
            prio[self.process(pid)] = float(value)
        delay = np.zeros(len(self.message_ids), dtype=np.int32)
        for mid, value in delays.items():
            m = self.message(mid)
            value = int(value)
            if value < 0:
                raise ValueError(
                    f"message {mid!r} has negative delay {value}"
                )
            delay[m] = value
        return read_only(node), read_only(prio), read_only(delay)

    def decode_key(self, key: bytes) -> DesignArrays:
        """Read-only design arrays of a design key (checked).

        A key is the node, priority and delay arrays' bytes,
        concatenated in native byte order.
        """
        if len(key) != self.key_size:
            raise ValueError(
                f"design key holds {len(key)} bytes; application "
                f"{self.application.name!r} needs {self.key_size}"
            )
        n = len(self.pids)
        node = np.frombuffer(key, dtype=np.int32, count=n).copy()
        prio = np.frombuffer(
            key, dtype=np.float64, count=n, offset=4 * n
        ).copy()
        delay = np.frombuffer(key, dtype=np.int32, offset=12 * n).copy()
        outside = np.flatnonzero((node < 0) | (node >= len(self.node_ids)))
        if len(outside):
            i = int(outside[0])
            raise ValueError(
                f"process {self.pids[i]!r} is mapped to node index "
                f"{int(node[i])}; the architecture has "
                f"{len(self.node_ids)} nodes"
            )
        barred = np.flatnonzero(~self.allowed[np.arange(n), node])
        if len(barred):
            i = int(barred[0])
            raise ValueError(
                f"process {self.pids[i]!r} is not allowed on node "
                f"{self.node_ids[int(node[i])]!r}"
            )
        negative = np.flatnonzero(delay < 0)
        if len(negative):
            m = int(negative[0])
            raise ValueError(
                f"message {self.message_ids[m]!r} has negative delay "
                f"{int(delay[m])}"
            )
        return read_only(node), read_only(prio), read_only(delay)

    # ------------------------------------------------------------------
    # arrays -> read-only id-keyed views
    # ------------------------------------------------------------------
    def mapping_view(self, node: np.ndarray) -> FrozenMapping:
        node_ids = self.node_ids
        return FrozenMapping(
            self.application,
            self.architecture,
            {pid: node_ids[n] for pid, n in zip(self.pids, node.tolist())},
        )

    def priorities_view(self, prio: np.ndarray) -> TMapping[str, float]:
        return MappingProxyType(dict(zip(self.pids, prio.tolist())))

    def delays_view(self, delay: np.ndarray) -> TMapping[str, int]:
        return MappingProxyType(
            {
                mid: value
                for mid, value in zip(self.message_ids, delay.tolist())
                if value
            }
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DesignIndex({self.application.name!r}, {len(self.pids)} "
            f"processes, {len(self.node_ids)} nodes, "
            f"{len(self.message_ids)} messages)"
        )
