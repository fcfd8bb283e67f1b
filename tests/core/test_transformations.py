"""Tests for the design transformations and CandidateDesign."""

import numpy as np
import pytest

from repro.core.transformations import (
    CandidateDesign,
    DelayMessage,
    RemapProcess,
    SwapPriorities,
    remap_moves,
)
from repro.model.mapping import Mapping
from repro.utils.errors import MappingError


@pytest.fixture
def design(fork_join_app, arch2) -> CandidateDesign:
    mapping = Mapping(
        fork_join_app,
        arch2,
        {p.id: "N1" for p in fork_join_app.processes},
    )
    return CandidateDesign(mapping, {"P0": 4.0, "P1": 3.0, "P2": 2.0, "P3": 1.0})


class TestCandidateDesign:
    def test_copy_is_deep(self, design):
        clone = design.copy()
        assert clone == design and clone.key == design.key
        for ours, theirs in (
            (clone.node, design.node),
            (clone.prio, design.prio),
            (clone.delay, design.delay),
        ):
            assert not np.shares_memory(ours, theirs)
            assert not ours.flags.writeable

    def test_views_are_read_only(self, design):
        with pytest.raises(TypeError):
            design.mapping.assign("P0", "N2")
        with pytest.raises(TypeError):
            design.mapping.unassign("P0")
        with pytest.raises(TypeError):
            design.priorities["P0"] = 99.0
        with pytest.raises(TypeError):
            design.message_delays["m0"] = 1
        with pytest.raises(ValueError):
            design.node[0] = 1
        assert design.mapping.node_of("P0") == "N1"
        assert design.priorities["P0"] == 4.0
        assert design.message_delays == {}

    def test_mapping_view_copy_is_writable(self, design):
        mapping = design.mapping.copy()
        mapping.assign("P0", "N2")
        assert mapping.node_of("P0") == "N2"
        assert design.mapping.node_of("P0") == "N1"

    @pytest.mark.parametrize(
        "move",
        [
            RemapProcess("P1", "N2"),
            SwapPriorities("P0", "P3"),
            DelayMessage("m0", +2),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_apply_leaves_parent_arrays_untouched(self, design, move):
        before = [a.copy() for a in (design.node, design.prio, design.delay)]
        key = design.key
        child = move.apply(design)
        assert child.key != key
        assert design.key == key
        for old, now in zip(before, (design.node, design.prio, design.delay)):
            assert np.array_equal(old, now)

    def test_unchanged_priorities_share_the_parent_ranks(self, design):
        design._lowered = ("sentinel",)
        assert RemapProcess("P1", "N2").apply(design)._lowered is design._lowered
        assert DelayMessage("m0", 1).apply(design)._lowered is design._lowered
        assert SwapPriorities("P0", "P3").apply(design)._lowered is None

    def test_unknown_ids_raise(self, design):
        with pytest.raises(ValueError, match="'nope'"):
            SwapPriorities("P0", "nope").apply(design)
        with pytest.raises(ValueError, match="'nope'"):
            DelayMessage("nope", 1).apply(design)


class TestRemapProcess:
    def test_apply(self, design):
        out = RemapProcess("P1", "N2").apply(design)
        assert out.mapping.node_of("P1") == "N2"
        assert design.mapping.node_of("P1") == "N1"

    def test_apply_invalid_node_raises(self, design):
        with pytest.raises(MappingError):
            RemapProcess("P1", "N9").apply(design)

    def test_describe(self):
        assert "P1" in RemapProcess("P1", "N2").describe()


class TestSwapPriorities:
    def test_apply(self, design):
        out = SwapPriorities("P0", "P3").apply(design)
        assert out.priorities["P0"] == 1.0
        assert out.priorities["P3"] == 4.0
        assert design.priorities["P0"] == 4.0

    def test_swap_with_missing_defaults_zero(self, design):
        design = CandidateDesign(
            design.mapping, {"P0": 4.0, "P1": 3.0, "P2": 2.0}
        )
        out = SwapPriorities("P0", "P3").apply(design)
        assert out.priorities["P0"] == 0.0
        assert out.priorities["P3"] == 4.0

    def test_describe(self):
        assert "<->" in SwapPriorities("a", "b").describe()


class TestDelayMessage:
    def test_increment(self, design):
        out = DelayMessage("m0", +1).apply(design)
        assert out.message_delays == {"m0": 1}

    def test_accumulates(self, design):
        out = DelayMessage("m0", +1).apply(design)
        out = DelayMessage("m0", +2).apply(out)
        assert out.message_delays == {"m0": 3}

    def test_clamped_at_zero_and_cleaned(self, design):
        out = DelayMessage("m0", -5).apply(design)
        assert out.message_delays == {}

    def test_decrement_to_zero_removes_key(self, design):
        out = DelayMessage("m0", +1).apply(design)
        out = DelayMessage("m0", -1).apply(out)
        assert "m0" not in out.message_delays

    def test_describe_signs(self):
        assert "+1" in DelayMessage("m", 1).describe()
        assert "-1" in DelayMessage("m", -1).describe()


class TestRemapMoves:
    def test_generates_all_alternatives(self, design):
        moves = remap_moves(design.mapping, ["P0", "P1"])
        assert {(m.process_id, m.node_id) for m in moves} == {
            ("P0", "N2"),
            ("P1", "N2"),
        }

    def test_skips_current_node(self, design):
        moves = remap_moves(design.mapping, ["P0"])
        assert all(m.node_id != "N1" for m in moves)
