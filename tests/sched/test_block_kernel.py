"""The compiled scheduling pass over state blocks against the list kernel.

:meth:`ArraySpec.schedule_design` runs the compiled ``sched_pass`` of
:mod:`repro.sched.ckernel` over one flat int64 state block per
candidate; the Python list kernel (``columns=True``) is its oracle.
Along SA move chains on every family and preset, and on candidates that
fail each way the pass can fail (horizon, deadline, bus), the two
kernels must agree on the verdict, the scheduled count, the exact
failure string, every node's busy runs and the used bytes of every slot
occurrence -- and the compiled price of the block must equal
:func:`~repro.core.array_metrics.price_counts_python` on the list
state.  Plus the C boundary: truncated, corrupted and foreign blocks
raise ``ValueError`` instead of reading or writing outside the block.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import array_metrics
from repro.core.array_metrics import price_counts_python
from repro.core.initial_mapping import InitialMapper
from repro.core.transformations import CandidateDesign, DelayMessage
from repro.engine import evaluate_candidate
from repro.engine.compiled_spec import CompiledSpec
from repro.gen import families
from repro.sched import ckernel
from repro.sched.arrays import ArrayBlockState
from repro.search.proposers import random_move

pytestmark = pytest.mark.skipif(
    ckernel.KERNEL is None, reason="compiled kernel not built"
)

CELLS = [
    (name, preset)
    for name in families.family_names()
    for preset in families.get_family(name).preset_names
]


@functools.lru_cache(maxsize=32)
def _cell(family_name: str, preset: str):
    """Spec, compilation and IM start of one family preset."""
    spec = families.get_family(family_name).build(preset, seed=1).spec()
    compiled = CompiledSpec(spec)
    outcome = InitialMapper(spec.architecture).try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    assert outcome is not None
    start = evaluate_candidate(
        compiled, CandidateDesign(outcome[0], dict(compiled.default_priorities))
    )
    assert start is not None
    return spec, compiled, start


def assert_kernels_agree(spec, arrays, design):
    """The compiled pass equals the list kernel on ``design``."""
    block = arrays.schedule_design(design)
    lists = arrays.schedule_design(design, columns=True)
    assert isinstance(block, ArrayBlockState)
    assert block.success == lists.success
    assert block.scheduled == lists.scheduled
    assert block.failure_reason == lists.failure_reason
    assert block.runs_s == lists.runs_s
    assert block.runs_e == lists.runs_e
    assert np.array_equal(block.bus_used, lists.bus_used)
    if block.success:
        context = array_metrics._price_context(
            arrays.metric_geometry(spec.future.t_min), spec.future
        )
        assert context.price(block.block) == price_counts_python(
            arrays, lists, spec.future
        )
    return block


@pytest.mark.parametrize("family_name,preset", CELLS)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 10))
def test_sa_move_chains_schedule_identically(family_name, preset, seed, steps):
    spec, compiled, current = _cell(family_name, preset)
    arrays = compiled.arrays
    assert_kernels_agree(spec, arrays, current.design)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        move = random_move(spec, current, rng)
        if move is None:
            break
        child = move.apply(current.design)
        if assert_kernels_agree(spec, arrays, child).success:
            current = evaluate_candidate(compiled, child)


def _failure_kind(reason):
    # "bus" first: the bus failure string also names the horizon.
    for kind in ("bus", "deadline", "horizon"):
        if kind in reason:
            return kind
    raise AssertionError(reason)


def test_every_failure_kind_matches():
    """Message delays past the bus's last occurrence fail on the bus;
    delays that land near it push the receiver past the horizon; remaps
    on a tight preset miss deadlines.  Each kind agrees exactly."""
    seen = set()
    for family_name, preset in CELLS:
        spec, compiled, start = _cell(family_name, preset)
        arrays = compiled.arrays
        design = start.design
        candidates = [
            DelayMessage(message.id, delay).apply(design)
            for message in spec.current.messages
            for delay in (arrays.occ_count[0] // 2, 10**6)
        ]
        for process in spec.current.processes:
            for node_id in process.allowed_nodes:
                mapping = design.mapping.copy()
                mapping.assign(process.id, node_id)
                candidates.append(
                    CandidateDesign(
                        mapping, design.priorities, design.message_delays
                    )
                )
        for candidate in candidates:
            state = assert_kernels_agree(spec, arrays, candidate)
            if not state.success:
                seen.add(_failure_kind(state.failure_reason))
        if seen == {"horizon", "deadline", "bus"}:
            break
    assert seen == {"horizon", "deadline", "bus"}


# ----------------------------------------------------------------------
# hostile blocks at the C boundary
# ----------------------------------------------------------------------
def _fresh(family_name="uniform-baseline", preset="tiny"):
    spec, compiled, start = _cell(family_name, preset)
    arrays = compiled.arrays
    design = start.design
    return spec, arrays, arrays.block_state(arrays.lower_candidate(design))


def _price(spec, arrays, block):
    context = array_metrics._price_context(
        arrays.metric_geometry(spec.future.t_min), spec.future
    )
    return context.price(block)


def test_truncated_block_is_refused():
    spec, arrays, state = _fresh()
    state.block = state.block[:-1].copy()
    with pytest.raises(ValueError, match="words"):
        arrays.run_kernel(state)
    with pytest.raises(ValueError, match="words"):
        _price(spec, arrays, state.block)


@pytest.mark.parametrize("shape", ["float64", "strided"])
def test_foreign_buffer_is_refused(shape):
    """Only a contiguous int64 vector reaches the C entry points."""
    spec, arrays, state = _fresh()
    if shape == "float64":
        block = state.block.astype(np.float64)
    else:
        block = np.repeat(state.block, 2)[::2]
    assert len(block) == arrays.layout.size
    with pytest.raises(ValueError, match="contiguous"):
        arrays.run_kernel(ArrayBlockState(arrays.layout, block))
    with pytest.raises(ValueError, match="contiguous"):
        _price(spec, arrays, block)


def test_corrupted_run_count_is_refused():
    spec, arrays, state = _fresh()
    layout = arrays.layout
    state.block[layout.count] = layout.run_cap + 1
    with pytest.raises(ValueError, match="run count"):
        arrays.run_kernel(state)
    with pytest.raises(ValueError, match="run count"):
        _price(spec, arrays, state.block)
    state.block[layout.count] = -1
    with pytest.raises(ValueError, match="run count"):
        arrays.run_kernel(state)


def test_wrong_spec_block_is_refused():
    spec, arrays, _ = _fresh("uniform-baseline", "tiny")
    _, _, foreign = _fresh("pipeline", "tiny")
    assert arrays.layout.key != foreign.layout.key
    block = foreign.block
    if len(block) != arrays.layout.size:
        with pytest.raises(ValueError, match="words"):
            arrays.run_kernel(ArrayBlockState(arrays.layout, block))
        # Same size, other content: the layout key tells them apart.
        block = np.resize(block, arrays.layout.size)
    with pytest.raises(ValueError, match="another spec"):
        arrays.run_kernel(ArrayBlockState(arrays.layout, block.copy()))
    with pytest.raises(ValueError, match="another spec"):
        _price(spec, arrays, block)


def test_out_of_range_candidate_is_refused():
    _, arrays, state = _fresh()
    state.block[arrays.layout.order] = arrays.n_jobs
    with pytest.raises(ValueError, match="out-of-range"):
        arrays.run_kernel(state)


def test_a_block_runs_once():
    _, arrays, state = _fresh()
    arrays.run_kernel(state)
    assert state.success
    with pytest.raises(ValueError, match="already scheduled"):
        arrays.run_kernel(state)


def test_run_capacity_overflow_is_refused():
    """A node whose runs already fill the capacity cannot take another
    run: the pass stops instead of writing past the node's columns."""
    _, arrays, state = _fresh()
    layout = arrays.layout
    cap = layout.run_cap
    for n in range(layout.n_nodes):
        at = n * cap
        # cap disjoint unit runs in the last stretch before the horizon
        starts = arrays.horizon - 2 * cap + 2 * np.arange(cap)
        state.block[layout.count + n] = cap
        state.block[layout.starts + at:layout.starts + at + cap] = starts
        state.block[layout.ends + at:layout.ends + at + cap] = starts + 1
    with pytest.raises(ValueError, match="overflowed"):
        arrays.run_kernel(state)
