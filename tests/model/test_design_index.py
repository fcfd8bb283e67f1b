"""Tests for the design index: array orders, checked conversions, views."""

import pickle

import numpy as np
import pytest

from tests.conftest import make_chain_graph

from repro.core.transformations import CandidateDesign
from repro.model.design_index import DesignIndex
from repro.model.mapping import Mapping


@pytest.fixture
def index(fork_join_app, arch3) -> DesignIndex:
    return DesignIndex.of(fork_join_app, arch3)


def all_on(app, arch, node):
    return Mapping(app, arch, {p.id: node for p in app.processes})


class TestOrders:
    def test_orders(self, index):
        assert index.pids == ["P0", "P1", "P2", "P3"]
        assert index.node_ids == ["N1", "N2", "N3"]
        # Graph order, process order, out_messages order.
        assert index.message_ids == ["m0", "m1", "m2", "m3"]
        assert index.key_size == 12 * 4 + 4 * 4

    def test_shared_per_application(self, fork_join_app, arch3, index):
        assert DesignIndex.of(fork_join_app, arch3) is index

    def test_new_graph_invalidates(self, fork_join_app, arch3, index):
        fork_join_app.add_graph(make_chain_graph("g1", prefix="c"))
        fresh = DesignIndex.of(fork_join_app, arch3)
        assert fresh is not index
        assert "cP0" in fresh.pids and "cm0" in fresh.message_ids

    def test_other_architecture_rebuilds(self, fork_join_app, arch2, index):
        other = DesignIndex.of(fork_join_app, arch2)
        assert other is not index and other.node_ids == ["N1", "N2"]
        assert not index.same_order(other)

    def test_allowed_follows_wcet_tables(self, index):
        # The fork-join processes run on N1/N2 only.
        assert index.allowed[:, :2].all()
        assert not index.allowed[:, 2].any()


class TestEncode:
    def test_round_trip_through_views(self, fork_join_app, arch3):
        mapping = all_on(fork_join_app, arch3, "N2")
        design = CandidateDesign(mapping, {"P0": 2.5, "P3": 1.0}, {"m2": 3})
        assert design.mapping.as_dict() == mapping.as_dict()
        assert dict(design.priorities) == {
            "P0": 2.5, "P1": 0.0, "P2": 0.0, "P3": 1.0,
        }
        assert dict(design.message_delays) == {"m2": 3}
        assert design.node_of("P1") == "N2"
        assert design.delay_of("m2") == 3 and design.delay_of("m0") == 0
        assert design.node.dtype == np.int32
        assert design.prio.dtype == np.float64
        assert design.delay.dtype == np.int32

    def test_zero_delay_equals_absent(self, fork_join_app, arch3):
        mapping = all_on(fork_join_app, arch3, "N1")
        a = CandidateDesign(mapping, {"P0": 1.0})
        b = CandidateDesign(mapping, {"P0": 1.0}, {"m0": 0})
        assert a.key == b.key

    @pytest.mark.parametrize(
        "assignment, priorities, delays, needle",
        [
            ({"P0": "N1", "P1": "N1", "P2": "N1", "P3": "N1", "X": "N1"},
             {}, {}, "'X'"),
            ({"P0": "N9", "P1": "N1", "P2": "N1", "P3": "N1"},
             {}, {}, "'N9'"),
            ({"P0": "N3", "P1": "N1", "P2": "N1", "P3": "N1"},
             {}, {}, "'P0' is not allowed on node 'N3'"),
            ({"P0": "N1", "P1": "N1", "P2": "N1"},
             {}, {}, "'P3' has no mapping entry"),
            ({"P0": "N1", "P1": "N1", "P2": "N1", "P3": "N1"},
             {"X": 1.0}, {}, "'X'"),
            ({"P0": "N1", "P1": "N1", "P2": "N1", "P3": "N1"},
             {}, {"mX": 1}, "'mX'"),
            ({"P0": "N1", "P1": "N1", "P2": "N1", "P3": "N1"},
             {}, {"m1": -1}, "'m1' has negative delay"),
        ],
        ids=[
            "unknown-process", "unknown-node", "disallowed-node",
            "missing-entry", "unknown-priority", "unknown-message",
            "negative-delay",
        ],
    )
    def test_errors_name_the_id(
        self, index, assignment, priorities, delays, needle
    ):
        with pytest.raises(ValueError, match=needle):
            index.encode(assignment, priorities, delays)


class TestKeys:
    @pytest.fixture
    def design(self, fork_join_app, arch3):
        return CandidateDesign(
            all_on(fork_join_app, arch3, "N2"),
            {"P0": 4.0, "P1": 3.0, "P2": 2.0, "P3": 1.0},
            {"m1": 2},
        )

    def test_key_round_trip(self, index, design):
        back = CandidateDesign.from_key(index, design.key)
        assert back == design
        assert dict(back.message_delays) == {"m1": 2}

    def garbled(self, design, node=None, delay=None):
        node = design.node if node is None else np.array(node, np.int32)
        delay = design.delay if delay is None else np.array(delay, np.int32)
        return node.tobytes() + design.prio.tobytes() + delay.tobytes()

    def test_wrong_length(self, index, design):
        with pytest.raises(ValueError, match="bytes"):
            index.decode_key(design.key[:-1])

    def test_node_outside_the_architecture(self, index, design):
        with pytest.raises(ValueError, match="'P2'"):
            index.decode_key(self.garbled(design, node=[1, 1, 7, 1]))

    def test_disallowed_node(self, index, design):
        with pytest.raises(ValueError, match="'P1' is not allowed on node 'N3'"):
            index.decode_key(self.garbled(design, node=[1, 2, 1, 1]))

    def test_negative_delay(self, index, design):
        with pytest.raises(ValueError, match="'m3'"):
            index.decode_key(self.garbled(design, delay=[0, 0, 0, -1]))


class TestPickling:
    def test_design_reattaches_to_the_receivers_index(
        self, fork_join_app, arch3
    ):
        design = CandidateDesign(all_on(fork_join_app, arch3, "N1"), {})
        design.mapping  # build the views; they do not travel
        back = pickle.loads(pickle.dumps(design))
        assert back == design
        assert back.index is not design.index
        assert back.index is DesignIndex.of(
            back.index.application, back.index.architecture
        )
        assert back._views is None and back._lowered is None

    def test_application_pickle_drops_the_cache(self, fork_join_app, arch3):
        DesignIndex.of(fork_join_app, arch3)
        back = pickle.loads(pickle.dumps(fork_join_app))
        assert back._design_index is None
