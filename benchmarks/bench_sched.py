"""Benchmarks pinning the array scheduler core's speedup.

Per uniform-baseline preset (tiny/small/medium), one MH-style
neighbourhood of the Initial-Mapping design is *scheduled* four ways
-- scheduling only, no metrics, so pricing does not dilute the
comparison (Amdahl):

* **array** -- :meth:`repro.sched.arrays.ArraySpec.schedule_design`,
  the runtime path: lowering plus the compiled pass over one state
  block (the Python list kernel when the extension is not built);
* **python** -- the same lowering plus the Python list kernel without
  trace columns: what the runtime runs without the extension;
* **object** -- ``ListScheduler.try_schedule`` against the compiled
  spec with trace recording (the object kernel the tests use as the
  oracle, called directly);
* **scratch** -- ``try_schedule`` without a compiled spec: the
  job-table and base-template compilation repeated per candidate (the
  pre-``CompiledSpec`` evaluation shape).

The headline number is the per-candidate median speedup of the array
kernel over the object kernel on the medium preset; array over python
is what the compiled pass buys, and array over scratch shows the full
distance from the naive shape.  The medium benchmark asserts
``MIN_ARRAY_SPEEDUP`` even under ``--benchmark-disable``, so the CI
smoke run catches a kernel that silently loses its edge.

Results land in the repo-root ``BENCH_sched.json`` (see conftest), with
the core count and the Python and numpy versions in each row.

Run:  pytest benchmarks/bench_sched.py --benchmark-only
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core.improvement import DescentParams, generate_moves
from repro.core.initial_mapping import InitialMapper
from repro.core.transformations import CandidateDesign
from repro.engine import CompiledSpec, evaluate_candidate
from repro.gen import families
from repro.sched.list_scheduler import ListScheduler

#: Uniform-baseline presets benchmarked, smallest to largest.
BENCH_PRESETS = ("tiny", "small", "medium")

#: CI floor: the array kernel must stay at least this many times
#: faster than the object kernel per candidate on the medium preset
#: (measured ~6.6x at introduction; the margin absorbs machine noise).
MIN_ARRAY_SPEEDUP = 3.0

_CONTEXTS: dict = {}


def _context(preset: str):
    """Scenario, kernels and neighbourhood of one preset (built once)."""
    if preset in _CONTEXTS:
        return _CONTEXTS[preset]
    family = families.get_family("uniform-baseline")
    scenario = family.build(preset, seed=1)
    spec = scenario.spec()
    compiled = CompiledSpec(spec)
    arrays = compiled.arrays
    scheduler = ListScheduler(spec.architecture)
    mapper = InitialMapper(spec.architecture)
    mapping, _ = mapper.try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    parent = evaluate_candidate(
        compiled,
        CandidateDesign(mapping, dict(compiled.default_priorities)),
        record_trace=True,
    )
    moves = generate_moves(spec, parent, DescentParams(pool_size=8))
    items = [(parent.design, move) for move in moves]
    context = (spec, compiled, arrays, scheduler, items)
    _CONTEXTS[preset] = context
    return context


def _child(item):
    """A freshly derived candidate, so no timed pass reuses the ranks
    an earlier repetition cached on it."""
    design, move = item
    return move.apply(design)


def _schedule_array(arrays, item):
    return arrays.schedule_design(_child(item))


def _schedule_python(arrays, item):
    state = arrays.fresh_state(
        arrays.lower_candidate(_child(item)), record=False
    )
    arrays.run_kernel(state)
    return state


def _schedule_object(spec, compiled, scheduler, item):
    child = _child(item)
    return scheduler.try_schedule(
        spec.current,
        child.mapping,
        priorities=child.priorities,
        message_delays=child.message_delays,
        compiled=compiled,
        record_trace=True,
    )


def _schedule_scratch(spec, scheduler, item):
    child = _child(item)
    return scheduler.try_schedule(
        spec.current,
        child.mapping,
        base=spec.base_schedule,
        priorities=child.priorities,
        message_delays=child.message_delays,
        record_trace=True,
    )


def _per_candidate(fn, items, repeats: int = 3):
    """Median per-item wall time of ``fn`` over ``items``."""
    times = []
    for item in items:
        best = min(_timed_once(fn, item) for _ in range(repeats))
        times.append(best)
    return statistics.median(times)


def _timed_once(fn, item):
    start = time.perf_counter()
    fn(item)
    return time.perf_counter() - start


def _speedup_info(preset: str):
    """Per-candidate medians and speedups for ``extra_info``."""
    spec, compiled, arrays, scheduler, items = _context(preset)
    median_array = _per_candidate(
        lambda item: _schedule_array(arrays, item), items
    )
    median_python = _per_candidate(
        lambda item: _schedule_python(arrays, item), items
    )
    median_object = _per_candidate(
        lambda item: _schedule_object(spec, compiled, scheduler, item),
        items,
    )
    median_scratch = _per_candidate(
        lambda item: _schedule_scratch(spec, scheduler, item), items
    )
    return {
        "n_candidates": len(items),
        "median_array_us": round(median_array * 1e6, 1),
        "median_python_us": round(median_python * 1e6, 1),
        "median_object_us": round(median_object * 1e6, 1),
        "median_scratch_us": round(median_scratch * 1e6, 1),
        "speedup_vs_python": round(median_python / median_array, 2),
        "speedup_vs_object": round(median_object / median_array, 2),
        "speedup_vs_scratch": round(median_scratch / median_array, 2),
    }


@pytest.mark.parametrize("preset", BENCH_PRESETS)
def test_array_kernel(benchmark, environment, preset):
    """The runtime scheduling path over one neighbourhood."""
    spec, compiled, arrays, scheduler, items = _context(preset)
    for item in items:
        compiled_state = _schedule_array(arrays, item)
        python_state = _schedule_python(arrays, item)
        assert compiled_state.success == python_state.success
        assert compiled_state.runs_s == python_state.runs_s

    def run():
        ok = 0
        for item in items:
            ok += _schedule_array(arrays, item).success
        return ok

    benchmark(run)
    info = _speedup_info(preset)
    benchmark.extra_info.update(environment)
    benchmark.extra_info["sched_record"] = "array"
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["scenario_jobs"] = compiled.total_jobs
    benchmark.extra_info.update(info)
    if preset == "medium":
        assert info["speedup_vs_object"] >= MIN_ARRAY_SPEEDUP, (
            f"array kernel lost its edge: {info['speedup_vs_object']:.2f}x "
            f"over the object kernel < {MIN_ARRAY_SPEEDUP}x on medium"
        )


@pytest.mark.parametrize("preset", BENCH_PRESETS)
def test_object_kernel(benchmark, environment, preset):
    """The same neighbourhood through the pinned object kernel."""
    spec, compiled, arrays, scheduler, items = _context(preset)

    def run():
        for item in items:
            _schedule_object(spec, compiled, scheduler, item)

    benchmark(run)
    benchmark.extra_info.update(environment)
    benchmark.extra_info["sched_record"] = "object"
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["scenario_jobs"] = compiled.total_jobs


@pytest.mark.parametrize("preset", BENCH_PRESETS)
def test_scratch_kernel(benchmark, environment, preset):
    """The pre-compilation shape: job table rebuilt per candidate."""
    spec, compiled, arrays, scheduler, items = _context(preset)

    def run():
        for item in items:
            _schedule_scratch(spec, scheduler, item)

    benchmark(run)
    benchmark.extra_info.update(environment)
    benchmark.extra_info["sched_record"] = "scratch"
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["scenario_jobs"] = compiled.total_jobs
