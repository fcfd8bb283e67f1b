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

Every timed evaluation derives its candidate afresh from the
neighbourhood's move (``move.apply``), as a search request does, so no
path reuses what an earlier repetition cached on the candidate (its
key, its lowered priority ranks).

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

A third row, **lower + key**, times the candidate-representation cost
per request on the medium preset: the cache key
(:meth:`CompiledSpec.signature`) plus the kernel lowering
(:meth:`ArraySpec.lower_candidate`) of a freshly derived child -- the
two costs the end-to-end benchmark reports as ``engine.signature_s``
and ``sched.lower_s``.

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
    items = [(parent.design, move) for move in moves]
    context = (spec, compiled, arrays, scheduler, items)
    _CONTEXTS[family_name, preset] = context
    return context


def _child(item):
    """A freshly derived candidate: ``move.apply(parent)``."""
    design, move = item
    return move.apply(design)


def _evaluate_array(compiled, item):
    return evaluate_candidate(compiled, _child(item))


def _evaluate_python(spec, arrays, item):
    state = arrays.fresh_state(
        arrays.lower_candidate(_child(item)), record=False
    )
    arrays.run_kernel(state)
    if not state.success:
        return None
    counts = price_counts_python(arrays, state, spec.future)
    return array_metrics.mix_counts(
        counts, spec.future, arrays.horizon, spec.weights
    )


def _evaluate_object(spec, compiled, scheduler, item):
    child = _child(item)
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


def _evaluate_decode_always(spec, arrays, item):
    state = arrays.schedule_design(_child(item), record=False, columns=True)
    if not state.success:
        return None
    schedule = arrays.decode_schedule(state)
    return evaluate_design(schedule, spec.future, spec.weights)


def _lower_and_key_us(compiled, arrays, items, repeats: int = 7):
    """Median per-request time of key + lowering on fresh children."""
    times = []
    for item in items:
        best = float("inf")
        for _ in range(repeats + 1):  # the first round warms up
            child = _child(item)
            start = time.perf_counter()
            compiled.signature(child)
            arrays.lower_candidate(child)
            best = min(best, time.perf_counter() - start)
        times.append(best)
    return statistics.median(times) * 1e6


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
    spec, compiled, arrays, scheduler, items = _context(preset)
    median_array = _per_candidate(
        lambda item: _evaluate_array(compiled, item), items
    )
    median_python = _per_candidate(
        lambda item: _evaluate_python(spec, arrays, item), items
    )
    median_object = _per_candidate(
        lambda item: _evaluate_object(spec, compiled, scheduler, item),
        items,
    )
    median_decode = _per_candidate(
        lambda item: _evaluate_decode_always(spec, arrays, item), items
    )
    return {
        "n_candidates": len(items),
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
    spec, compiled, arrays, scheduler, items = _context(preset)
    for item in items:
        outcome = _evaluate_array(compiled, item)
        python = _evaluate_python(spec, arrays, item)
        assert (outcome is None) == (python is None)
        assert outcome is None or outcome.metrics == python

    def run():
        ok = 0
        for item in items:
            ok += _evaluate_array(compiled, item) is not None
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
    spec, compiled, arrays, scheduler, items = _context(preset)

    def run():
        for item in items:
            _evaluate_object(spec, compiled, scheduler, item)

    benchmark(run)
    benchmark.extra_info.update(environment)
    benchmark.extra_info["eval_record"] = "object"
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["scenario_jobs"] = compiled.total_jobs


@pytest.mark.parametrize("preset", BENCH_PRESETS)
def test_decode_always_evaluation(benchmark, environment, preset):
    """The pre-array-metrics shape: decode + object metrics per candidate."""
    spec, compiled, arrays, scheduler, items = _context(preset)

    def run():
        for item in items:
            _evaluate_decode_always(spec, arrays, item)

    benchmark(run)
    benchmark.extra_info.update(environment)
    benchmark.extra_info["eval_record"] = "decode-always"
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["scenario_jobs"] = compiled.total_jobs


def test_lower_and_key(benchmark, environment):
    """Per-request candidate-representation cost on the medium preset."""
    _, compiled, arrays, _, items = _context("medium")
    children = [_child(item) for item in items]
    reused = sum(
        child._lowered is not None and child._lowered[0] is arrays
        for child in children
    )

    def run():
        for item in items:
            child = _child(item)
            compiled.signature(child)
            arrays.lower_candidate(child)

    benchmark(run)
    benchmark.extra_info.update(environment)
    benchmark.extra_info.update(
        {
            "eval_record": "lower-key",
            "preset": "medium",
            "n_requests": len(items),
            "rank_reuse_share": round(reused / len(items), 3),
            "median_lower_key_us": round(
                _lower_and_key_us(compiled, arrays, items), 2
            ),
        }
    )


@pytest.mark.parametrize("family_name", PRICING_FAMILIES)
def test_pricing_kernels(benchmark, environment, family_name):
    """Compiled vs pure-Python integer core over finished states."""
    spec, _, arrays, _, items = _context("medium", family_name)
    future = spec.future
    states = [
        state
        for state in (arrays.schedule_design(_child(item)) for item in items)
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
