"""Benchmarks pinning the end-to-end array evaluation speedup.

Per uniform-baseline preset (tiny/small/medium), one MH-style
neighbourhood of the Initial-Mapping design is *fully evaluated* --
scheduling pass plus metric pricing, the complete per-candidate cost a
search loop pays -- four ways:

* **array** -- :func:`repro.engine.evaluation.evaluate_candidate`, the
  runtime path (what every search move runs): the compiled pass over
  one state block, priced in place by the compiled pricing kernel
  (:mod:`repro.core.array_metrics`), **no** object-schedule decode;
* **python** -- the same evaluation on the pure-Python kernels (the
  list-kernel pass and :func:`~repro.core.array_metrics.price_counts_python`):
  what the runtime runs without the extension;
* **object** -- the object kernel the tests use as the oracle, called
  directly: ``ListScheduler.try_schedule`` over the compiled job table
  plus :func:`repro.core.metrics.evaluate_design`;
* **decode-always** -- the pre-array-metrics shape of the array core:
  the array pass with trace columns, an object-schedule decode per
  candidate, and the object metric kernel over the decoded schedule.

The headline number is the per-candidate median speedup of the array
path over decode-always on the medium preset -- the end-to-end gain of
keeping evaluation inside the flat representation; array over python
is what the compiled kernels buy.  The medium
benchmark asserts ``MIN_EVAL_SPEEDUP`` even under
``--benchmark-disable``, so the CI smoke run catches an evaluation
path that silently loses its edge.

A second comparison times the two integer cores of the metric kernel
on every family's medium preset: the compiled pricing kernel
(``price_state`` of :mod:`repro.sched.ckernel`, via
:func:`repro.core.array_metrics.price_counts`, reading the block in
place) next to the pure-Python kernel it replaced
(:func:`~repro.core.array_metrics.price_counts_python`), per finished
state of one MH neighbourhood.  Both must return the same four
integers on every state.

Results land in the repo-root ``BENCH_eval.json`` (see conftest), with
the core count, the Python/numpy/cffi versions and whether the compiled
kernel loaded, in the file and in each row.

Run:  pytest benchmarks/bench_eval.py --benchmark-only
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core import array_metrics
from repro.core.array_metrics import price_counts, price_counts_python
from repro.core.improvement import DescentParams, generate_moves
from repro.core.initial_mapping import InitialMapper
from repro.core.metrics import evaluate_design
from repro.core.transformations import CandidateDesign
from repro.engine import CompiledSpec, evaluate_candidate
from repro.gen import families
from repro.sched import ckernel
from repro.sched.list_scheduler import ListScheduler

#: Uniform-baseline presets benchmarked, smallest to largest.
BENCH_PRESETS = ("tiny", "small", "medium")

#: CI floor: the array evaluation path must stay at least this many
#: times faster per candidate than the decode-always shape on the
#: medium preset (measured ~3.4x at introduction; the margin absorbs
#: scheduler noise on busy CI machines -- the committed
#: ``BENCH_eval.json`` from a quiet timed run is the >=3x record).
MIN_EVAL_SPEEDUP = 2.5

#: Families whose medium preset the pricing-kernel comparison times.
PRICING_FAMILIES = tuple(
    name
    for name in families.family_names()
    if "medium" in families.get_family(name).preset_names
)

_CONTEXTS: dict = {}


def _context(preset: str, family_name: str = "uniform-baseline"):
    """Scenario, kernels and neighbourhood of one preset (built once)."""
    if (family_name, preset) in _CONTEXTS:
        return _CONTEXTS[family_name, preset]
    family = families.get_family(family_name)
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
    children = [move.apply(parent.design) for move in moves]
    context = (spec, compiled, arrays, scheduler, children)
    _CONTEXTS[family_name, preset] = context
    return context


def _evaluate_array(compiled, child):
    return evaluate_candidate(compiled, child)


def _evaluate_python(spec, arrays, child):
    child.mapping.validate_complete()
    state = arrays.fresh_state(arrays.lower_candidate(child), record=False)
    arrays.run_kernel(state)
    if not state.success:
        return None
    counts = price_counts_python(arrays, state, spec.future)
    return array_metrics.mix_counts(
        counts, spec.future, arrays.horizon, spec.weights
    )


def _evaluate_object(spec, compiled, scheduler, child):
    result = scheduler.try_schedule(
        spec.current,
        child.mapping,
        priorities=child.priorities,
        message_delays=child.message_delays,
        compiled=compiled,
    )
    if not result.success:
        return None
    return evaluate_design(result.schedule, spec.future, spec.weights)


def _evaluate_decode_always(spec, arrays, child):
    state = arrays.schedule_design(child, record=False, columns=True)
    if not state.success:
        return None
    schedule = arrays.decode_schedule(state)
    return evaluate_design(schedule, spec.future, spec.weights)


def _per_candidate(fn, items, repeats: int = 7):
    """Median per-item wall time of ``fn`` over ``items``.

    One untimed warm-up pass precedes the measurement so caches
    (allocator pools, memoized packing inputs, lazy imports) are hot in
    smoke runs too, where no benchmark rounds ran before this.
    """
    for item in items:
        fn(item)
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
    spec, compiled, arrays, scheduler, children = _context(preset)
    median_array = _per_candidate(
        lambda child: _evaluate_array(compiled, child),
        children,
    )
    median_python = _per_candidate(
        lambda child: _evaluate_python(spec, arrays, child), children
    )
    median_object = _per_candidate(
        lambda child: _evaluate_object(spec, compiled, scheduler, child),
        children,
    )
    median_decode = _per_candidate(
        lambda child: _evaluate_decode_always(spec, arrays, child), children
    )
    return {
        "n_candidates": len(children),
        "median_array_us": round(median_array * 1e6, 1),
        "median_python_us": round(median_python * 1e6, 1),
        "median_object_us": round(median_object * 1e6, 1),
        "median_decode_always_us": round(median_decode * 1e6, 1),
        "speedup_vs_python": round(median_python / median_array, 2),
        "speedup_vs_object": round(median_object / median_array, 2),
        "speedup_vs_decode_always": round(median_decode / median_array, 2),
    }


@pytest.mark.parametrize("preset", BENCH_PRESETS)
def test_array_evaluation(benchmark, environment, preset):
    """The array evaluation path over one neighbourhood, end to end."""
    spec, compiled, arrays, scheduler, children = _context(preset)
    for child in children:
        outcome = _evaluate_array(compiled, child)
        python = _evaluate_python(spec, arrays, child)
        assert (outcome is None) == (python is None)
        assert outcome is None or outcome.metrics == python

    def run():
        ok = 0
        for child in children:
            ok += _evaluate_array(compiled, child) is not None
        return ok

    benchmark(run)
    info = _speedup_info(preset)
    benchmark.extra_info.update(environment)
    benchmark.extra_info["eval_record"] = "array"
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["scenario_jobs"] = compiled.total_jobs
    benchmark.extra_info.update(info)
    if preset == "medium":
        assert info["speedup_vs_decode_always"] >= MIN_EVAL_SPEEDUP, (
            "array evaluation lost its edge: "
            f"{info['speedup_vs_decode_always']:.2f}x over decode-always "
            f"< {MIN_EVAL_SPEEDUP}x on medium"
        )


@pytest.mark.parametrize("preset", BENCH_PRESETS)
def test_object_evaluation(benchmark, environment, preset):
    """The same neighbourhood through the object kernel (the oracle)."""
    spec, compiled, arrays, scheduler, children = _context(preset)

    def run():
        for child in children:
            _evaluate_object(spec, compiled, scheduler, child)

    benchmark(run)
    benchmark.extra_info.update(environment)
    benchmark.extra_info["eval_record"] = "object"
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["scenario_jobs"] = compiled.total_jobs


@pytest.mark.parametrize("preset", BENCH_PRESETS)
def test_decode_always_evaluation(benchmark, environment, preset):
    """The pre-array-metrics shape: decode + object metrics per candidate."""
    spec, compiled, arrays, scheduler, children = _context(preset)

    def run():
        for child in children:
            _evaluate_decode_always(spec, arrays, child)

    benchmark(run)
    benchmark.extra_info.update(environment)
    benchmark.extra_info["eval_record"] = "decode-always"
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["scenario_jobs"] = compiled.total_jobs


@pytest.mark.parametrize("family_name", PRICING_FAMILIES)
def test_pricing_kernels(benchmark, environment, family_name):
    """Compiled vs pure-Python integer core over finished states."""
    spec, _, arrays, _, children = _context("medium", family_name)
    future = spec.future
    states = [
        state
        for state in (arrays.schedule_design(child) for child in children)
        if state.success
    ]
    for state in states:
        assert price_counts(arrays, state, future) == price_counts_python(
            arrays, state, future
        )

    def run():
        for state in states:
            price_counts(arrays, state, future)

    benchmark(run)
    loaded = ckernel.KERNEL is not None
    median_python = _per_candidate(
        lambda state: price_counts_python(arrays, state, future), states
    )
    info = {
        **environment,
        "eval_record": "pricing",
        "family": family_name,
        "preset": "medium",
        "n_states": len(states),
        "compiled_kernel_loaded": loaded,
        "median_python_us": round(median_python * 1e6, 1),
    }
    if loaded:
        median_compiled = _per_candidate(
            lambda state: price_counts(arrays, state, future), states
        )
        info["median_compiled_us"] = round(median_compiled * 1e6, 1)
        info["speedup_vs_python"] = round(median_python / median_compiled, 2)
    benchmark.extra_info.update(info)
