"""The compiled pricing kernel against its Python oracle.

Three layers of evidence that the compiled ``price_state`` of
:mod:`repro.sched.ckernel` changes no objective:

* along SA move chains on every scenario family, the compiled integer
  core equals :func:`~repro.core.array_metrics.price_counts_python`, and
  the mixed metrics equal the object kernel
  (:func:`repro.core.metrics.evaluate_design`) on the decoded schedule;
* on degenerate states (empty bags, idle and fully busy nodes, a single
  ``T_min`` window, saturated slots) compiled == Python;
* the compiled histogram best fit equals
  :func:`~repro.core.binpack.best_fit_unplaced_total_hist` (and the
  reference :func:`~repro.core.binpack.best_fit`) on random bags and bins.

Plus the loader of the one extension (the scheduling pass and the
pricing kernel): one build per source hash published atomically,
concurrent builders, and the warn-once fallback to the Python kernels,
whose designs are byte-identical on every golden cell.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import sys
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import array_metrics
from repro.core.array_metrics import (
    _packing_runs,
    evaluate_state,
    price_counts,
    price_counts_python,
)
from repro.core.binpack import best_fit, best_fit_unplaced_total_hist
from repro.core.future import FutureCharacterization
from repro.core.initial_mapping import InitialMapper
from repro.core.metrics import evaluate_design
from repro.core.transformations import CandidateDesign
from repro.engine import evaluate_candidate
from repro.engine.compiled_spec import CompiledSpec
from repro.experiments.runner import strategy_for_family
from repro.gen import families
from repro.sched import ckernel
from repro.search.proposers import random_move

compiled_only = pytest.mark.skipif(
    ckernel.KERNEL is None, reason="compiled kernel not built"
)

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "search" / "golden_designs.json")
    .read_text()
)


@functools.lru_cache(maxsize=16)
def _cell(family_name: str):
    """Spec, compilation and IM start of one family."""
    family = families.get_family(family_name)
    spec = family.build(family.smallest_preset, seed=1).spec()
    compiled = CompiledSpec(spec)
    outcome = InitialMapper(spec.architecture).try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    assert outcome is not None
    start = evaluate_candidate(
        compiled,
        CandidateDesign(outcome[0], dict(compiled.default_priorities)),
    )
    assert start is not None
    return spec, compiled, start


def _compiled_counts(arrays, state, future):
    context = array_metrics._price_context(
        arrays.metric_geometry(future.t_min), future
    )
    block = getattr(state, "block", None)
    if block is None:
        block = arrays.pack_block(state)
    return context.price(block)


# ----------------------------------------------------------------------
# SA move chains: compiled == Python oracle == object kernel
# ----------------------------------------------------------------------
@compiled_only
@pytest.mark.parametrize("family_name", families.family_names())
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 12))
def test_sa_move_chains_price_identically(family_name, seed, steps):
    spec, compiled, current = _cell(family_name)
    arrays = compiled.arrays
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        move = random_move(spec, current, rng)
        if move is None:
            break
        child = move.apply(current.design)
        state = arrays.schedule_design(child, columns=True)
        if not state.success:
            continue
        counts = _compiled_counts(arrays, state, spec.future)
        assert counts == price_counts_python(arrays, state, spec.future)
        metrics = evaluate_state(arrays, state, spec.future, spec.weights)
        assert metrics == evaluate_design(
            arrays.decode_schedule(state), spec.future, spec.weights
        )
        current = evaluate_candidate(compiled, child)


# ----------------------------------------------------------------------
# degenerate states
# ----------------------------------------------------------------------
def _state(family_name: str = "uniform-baseline"):
    spec, compiled, start = _cell(family_name)
    arrays = compiled.arrays
    state = arrays.schedule_design(start.design, columns=True)
    assert state.success
    return spec, arrays, state


def _both(arrays, state, future):
    compiled = _compiled_counts(arrays, state, future)
    assert compiled == price_counts_python(arrays, state, future)
    return compiled


@compiled_only
def test_empty_bags():
    spec, arrays, state = _state()
    future = FutureCharacterization(
        t_min=spec.future.t_min, t_need=0, b_need=0
    )
    process_bag, _, _, _, message_bag, _, _, _ = _packing_runs(
        future, arrays.horizon
    )
    assert not process_bag and not message_bag
    unplaced_p, _, unplaced_m, _ = _both(arrays, state, future)
    assert unplaced_p == unplaced_m == 0
    metrics = evaluate_state(arrays, state, future, spec.weights)
    assert metrics.c1p == metrics.c1m == 0.0
    assert metrics == evaluate_design(
        arrays.decode_schedule(state), future, spec.weights
    )


@compiled_only
def test_idle_and_fully_busy_nodes():
    spec, arrays, state = _state()
    state.runs_s = [list(runs) for runs in state.runs_s]
    state.runs_e = [list(runs) for runs in state.runs_e]
    state.runs_s[0], state.runs_e[0] = [], []
    state.runs_s[1], state.runs_e[1] = [0], [arrays.horizon]
    _, c2p, _, _ = _both(arrays, state, spec.future)
    # The busy node contributes zero slack, the idle one a full window.
    geom = arrays.metric_geometry(spec.future.t_min)
    others = price_counts_python(
        arrays,
        SimpleNamespace(
            runs_s=state.runs_s[2:],
            runs_e=state.runs_e[2:],
            bus_used=state.bus_used,
        ),
        spec.future,
    )[1]
    assert c2p == min(geom.window_lengths) + others


@compiled_only
def test_single_window():
    spec, arrays, state = _state()
    future = FutureCharacterization(
        t_min=arrays.horizon,
        t_need=spec.future.t_need,
        b_need=spec.future.b_need,
    )
    assert arrays.metric_geometry(future.t_min).n_windows == 1
    _both(arrays, state, future)
    assert evaluate_state(arrays, state, future, spec.weights) == (
        evaluate_design(arrays.decode_schedule(state), future, spec.weights)
    )


@compiled_only
def test_zero_residuals():
    spec, arrays, state = _state()
    geom = arrays.metric_geometry(spec.future.t_min)
    state.bus_used = geom.caps_flat.copy()
    _, _, unplaced_m, c2m = _both(arrays, state, spec.future)
    message_total = _packing_runs(spec.future, arrays.horizon)[6]
    assert unplaced_m == message_total
    assert c2m == 0


@compiled_only
def test_state_vectors_are_int64():
    """The kernel reads blocks (and packs bus_used) through raw int64 views."""
    _, arrays, state = _state()
    assert state.bus_used.dtype == np.int64
    assert state.bus_used.flags["C_CONTIGUOUS"]
    block_state = arrays.schedule_design(_cell("uniform-baseline")[2].design)
    assert block_state.block.dtype == np.int64
    assert block_state.block.flags["C_CONTIGUOUS"]
    assert block_state.bus_used.dtype == np.int64


@compiled_only
@pytest.mark.parametrize(
    "corrupt",
    ["unsorted", "beyond-horizon", "over-capacity", "short-bus"],
)
def test_malformed_states_are_rejected(corrupt):
    """The C core indexes arrays by run and residual values: states the
    scheduler could never produce raise instead of reading or writing
    out of bounds."""
    spec, arrays, state = _state()
    state.runs_s = [list(runs) for runs in state.runs_s]
    state.runs_e = [list(runs) for runs in state.runs_e]
    geom = arrays.metric_geometry(spec.future.t_min)
    if corrupt == "unsorted":
        state.runs_s[0] = [20, 0]
        state.runs_e[0] = [30, 10]
    elif corrupt == "beyond-horizon":
        state.runs_s[0] = [arrays.horizon - 5]
        state.runs_e[0] = [arrays.horizon + 5]
    elif corrupt == "over-capacity":
        state.bus_used = geom.caps_flat + 1
    else:
        state.bus_used = state.bus_used[:-1].copy()
    with pytest.raises(ValueError):
        _compiled_counts(arrays, state, spec.future)


# ----------------------------------------------------------------------
# compiled best fit == the histogram oracle == reference best fit
# ----------------------------------------------------------------------
def _runs(bag):
    return array_metrics._run_length(sorted(bag, reverse=True))


@compiled_only
@settings(max_examples=200, deadline=None)
@given(
    containers=st.lists(st.integers(1, 60), max_size=40),
    residuals=st.lists(st.integers(0, 40), max_size=40),
    process_bag=st.lists(st.integers(1, 30), max_size=30),
    message_bag=st.lists(st.integers(1, 20), max_size=30),
)
def test_compiled_packing_equals_oracle(
    containers, residuals, process_bag, message_bag
):
    # Lay the containers out as the gaps between unit-length runs of
    # one node, ending exactly at the horizon (no tail gap).
    runs_s, runs_e, cursor = [], [], 0
    for length in containers:
        runs_s.append(cursor + length)
        runs_e.append(cursor + length + 1)
        cursor += length + 1
    if not runs_s:
        runs_s, runs_e, cursor = [0], [1], 1
    caps = np.array(residuals or [0], dtype=np.int64)
    geom = SimpleNamespace(
        horizon=cursor,
        window_width=cursor,
        n_windows=1,
        window_lengths=[cursor],
        caps_flat=caps,
        win_flat=np.full(len(caps), -1, dtype=np.int64),
        base_used=np.zeros(len(caps), dtype=np.int64),
        base_resid_hist=dict(Counter(caps.tolist())),
        base_window_free=[0],
    )
    layout = ckernel.BlockLayout(
        7, n_nodes=1, run_cap=len(runs_s), n_occ=len(caps), n_jobs=0,
        n_pids=0, n_msgs=0,
    )
    geom.layout = layout
    p_min = min(process_bag) if process_bag else 1
    m_min = min(message_bag) if message_bag else 1
    context = ckernel.PriceContext(
        ckernel.KERNEL,
        geom,
        _runs(process_bag),
        p_min,
        _runs(message_bag),
        m_min,
    )
    block = np.zeros(layout.size, dtype=np.int64)
    block[ckernel.H_KEY] = layout.key
    block[layout.count] = len(runs_s)
    block[layout.starts:layout.starts + len(runs_s)] = runs_s
    block[layout.ends:layout.ends + len(runs_e)] = runs_e
    unplaced_p, _, unplaced_m, _ = context.price(block)
    eligible = Counter(c for c in containers if c >= p_min)
    assert unplaced_p == best_fit_unplaced_total_hist(
        _runs(process_bag), eligible
    )
    assert unplaced_p == best_fit(process_bag, containers).unplaced_total
    assert unplaced_m == best_fit_unplaced_total_hist(
        _runs(message_bag), Counter(caps.tolist())
    )
    assert unplaced_m == best_fit(message_bag, caps.tolist()).unplaced_total


# ----------------------------------------------------------------------
# loader: build cache, atomic publication, fallback
# ----------------------------------------------------------------------
def test_module_name_tracks_the_source():
    assert ckernel.module_name(b"a") == ckernel.module_name(b"a")
    assert ckernel.module_name(b"a") != ckernel.module_name(b"b")


def _fail(*args, **kwargs):
    raise RuntimeError("compiler exploded")


def test_failed_build_warns_once_and_falls_back(tmp_path, monkeypatch):
    monkeypatch.setattr(ckernel, "_compile", _fail)
    with pytest.warns(RuntimeWarning, match="pure-Python kernel") as caught:
        assert ckernel.load(tmp_path) is None
    assert len(caught) == 1
    assert not list(tmp_path.glob("*.so")), "a failed build left a module"
    assert not list(tmp_path.glob(".build-*")), "build scratch left behind"


def test_missing_cffi_falls_back(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "cffi", None)
    with pytest.warns(RuntimeWarning, match="ImportError|ModuleNotFound"):
        assert ckernel.load(tmp_path) is None


def test_unwritable_cache_dir_falls_back(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    with pytest.warns(RuntimeWarning):
        assert ckernel.load(blocker / "cache") is None


def _golden_fingerprints():
    """MH and SA designs on every golden cell (smallest preset per family)."""
    out = {}
    for name in families.family_names():
        family = families.get_family(name)
        spec = family.build(family.smallest_preset, seed=GOLDEN["seed"]).spec()
        for strategy in ("MH", "SA"):
            result = strategy_for_family(
                strategy, GOLDEN["seed"], True, 1, GOLDEN["sa_iterations"]
            ).design(spec)
            out[name, strategy] = (
                repr(result.objective),
                result.design_identity(),
                result.evaluations,
            )
    return out


def test_fallback_objectives_are_byte_identical(tmp_path, monkeypatch):
    """With the extension unavailable there is one warning, and MH and SA
    on the Python kernels return the compiled run's designs on every
    golden cell."""
    compiled = _golden_fingerprints()
    monkeypatch.setattr(ckernel, "_compile", _fail)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kernel = ckernel.load(tmp_path)
        monkeypatch.setattr(ckernel, "KERNEL", kernel)
        fallback = _golden_fingerprints()
    assert kernel is None
    assert [w.category for w in caught] == [RuntimeWarning]
    assert fallback == compiled


@compiled_only
def test_cached_module_is_reused_without_rebuilding(monkeypatch):
    monkeypatch.setattr(ckernel, "_build", _fail)
    kernel = ckernel.load()
    assert kernel is not None and kernel.__name__ == ckernel.KERNEL.__name__


def _load_in_child(cache_dir: str, results) -> None:
    kernel = ckernel.load(Path(cache_dir))
    results.put(kernel is not None)


@compiled_only
def test_concurrent_builds_publish_one_complete_module(tmp_path):
    """Two processes building into one empty cache both load a module."""
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    workers = [
        ctx.Process(target=_load_in_child, args=(str(tmp_path), results))
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    loaded = [results.get(timeout=120) for _ in workers]
    for worker in workers:
        worker.join(timeout=30)
        assert worker.exitcode == 0
    assert loaded == [True, True]
    assert len(list(tmp_path.glob("*.so"))) == 1
    assert not list(tmp_path.glob(".build-*"))
    assert ckernel.load(tmp_path) is not None


def test_engine_prices_through_the_dispatcher():
    """``price_counts`` picks the compiled core when loaded, and both
    cores agree on an engine-produced state either way."""
    spec, arrays, state = _state("forkjoin")
    assert price_counts(arrays, state, spec.future) == price_counts_python(
        arrays, state, spec.future
    )
