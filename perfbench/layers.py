"""Which program functions are traced, and the per-layer metrics they give.

:func:`targets` names the public functions of each layer (wrapped from
outside by :class:`spans.SpanRecorder`); :func:`layer_metrics` turns one
traced pass into the per-layer metrics of ``BENCHMARK.json``.  Names
ending ``_n`` are call counts, ``_s`` self seconds (a span minus the
spans it caused) and ``_us`` self microseconds per call.

Counts the program keeps itself (evaluations, cache/store/delta hits,
search steps, shard counters) are read from its results: from each
``DesignResult`` on the matrix workloads, and from the race-level
totals and ``shard_counters`` on the race, never from portfolio
members, whose runtime and engine counters the program leaves unset.
Spans inside shard worker processes are out of reach of this recorder,
so on ``race-sharded`` the span metrics cover the coordinating process
only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from spans import PhaseRecord, SpanRecorder, Target

#: Per-layer metric name -> unit, in report order.
METRICS: Dict[str, str] = {
    "gen.build_s": "s",
    "search.propose_n": "count",
    "search.propose_s": "s",
    "search.loop_self_s": "s",
    "search.steps": "count",
    "search.evals_to_incumbent": "count",
    "core.initial_mapping_n": "count",
    "core.initial_mapping_s": "s",
    "spec.compile_n": "count",
    "spec.compile_s": "s",
    "engine.signature_n": "count",
    "engine.signature_s": "s",
    "engine.requests_n": "count",
    "engine.evals_per_s": "1/s",
    "engine.invalid_ratio": "ratio",
    "engine.self_s": "s",
    "cache.lookup_n": "count",
    "cache.hit_ratio": "ratio",
    "store.probe_n": "count",
    "store.probe_s": "s",
    "store.get_n": "count",
    "store.get_s": "s",
    "store.put_n": "count",
    "store.put_s": "s",
    "store.commit_n": "count",
    "store.commit_s": "s",
    "store.hit_ratio": "ratio",
    "store.db_mb": "MB",
    "delta.move_n": "count",
    "delta.move_s": "s",
    "delta.hit_ratio": "ratio",
    "sched.lower_n": "count",
    "sched.lower_s": "s",
    "sched.pass_n": "count",
    "sched.pass_s": "s",
    "sched.pass_us": "us",
    "sched.resume_n": "count",
    "sched.resume_s": "s",
    "sched.divergence_s": "s",
    "sched.decode_n": "count",
    "sched.decode_s": "s",
    "metrics.price_n": "count",
    "metrics.price_s": "s",
    "metrics.price_us": "us",
    "race.shard_busy_max_s": "s",
    "race.shard_busy_sum_s": "s",
    "race.balance": "ratio",
    "race.fleet_sched_s": "s",
    "race.fleet_metrics_s": "s",
    "race.steals_n": "count",
    "race.checkpoints_n": "count",
    "race.respawns_n": "count",
    "trace.unattributed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _count_requests(recorder: SpanRecorder, args: tuple, kwargs: dict, result) -> None:
    outcomes = result if isinstance(result, list) else [result]
    recorder.count("engine.requests", len(outcomes))
    recorder.count("engine.invalid", sum(1 for o in outcomes if o is None))


def targets() -> List[Target]:
    """The traced functions, by layer (imports the program)."""
    from repro.core import array_metrics
    from repro.core.initial_mapping import InitialMapper
    from repro.engine.cache import EvaluationCache
    from repro.engine.compiled_spec import CompiledSpec
    from repro.engine.delta import DeltaEvaluator
    from repro.engine.engine import EvaluationEngine
    from repro.engine.store import SqliteResultStore
    from repro.gen.families.base import ScenarioFamily
    from repro.sched.arrays import ArraySpec
    from repro.search.proposers import NeighbourhoodProposer, RandomMoveProposer

    out = [
        Target(ScenarioFamily, "build", "gen.build"),
        Target(NeighbourhoodProposer, "propose", "search.propose"),
        Target(RandomMoveProposer, "propose", "search.propose"),
        Target(InitialMapper, "map_and_schedule", "core.initial_mapping"),
        Target(InitialMapper, "try_map_and_schedule", "core.initial_mapping"),
        Target(CompiledSpec, "__init__", "spec.compile"),
        Target(CompiledSpec, "signature", "engine.signature"),
        Target(EvaluationCache, "lookup", "cache.lookup"),
        Target(SqliteResultStore, "__contains__", "store.probe"),
        Target(SqliteResultStore, "get", "store.get"),
        Target(SqliteResultStore, "put", "store.put"),
        Target(SqliteResultStore, "commit", "store.commit"),
        Target(DeltaEvaluator, "evaluate_move", "delta.move"),
        Target(ArraySpec, "lower_candidate", "sched.lower"),
        Target(ArraySpec, "run_kernel", "sched.pass"),
        Target(ArraySpec, "resume_state", "sched.resume"),
        Target(ArraySpec, "divergence", "sched.divergence"),
        Target(ArraySpec, "decode_schedule", "sched.decode"),
        Target(array_metrics, "evaluate_state_delta", "metrics.price"),
        Target(array_metrics, "evaluate_state", "metrics.price"),
    ]
    for method in ("evaluate", "evaluate_many", "evaluate_move", "evaluate_moves"):
        out.append(Target(EvaluationEngine, method, "engine", _count_requests))
    return out


def _ratio(num: float, den: float) -> Optional[float]:
    """``num / den``; ``None`` (missing) when nothing was attempted."""
    return num / den if den else None


def program_counts(pass_result) -> Dict[str, float]:
    """Counts the program reports itself, summed over one pass."""
    c = dict.fromkeys(
        ("evaluations", "cache_hits", "cache_misses", "delta_hits",
         "delta_fallbacks", "store_hits", "store_misses"), 0)
    for design in pass_result.designs:
        for key in c:
            c[key] += getattr(design.result, key)
    for _, race in pass_result.races:
        for key in c:
            c[key] += getattr(race, key)
    return c


def search_counts(pass_result) -> Tuple[Optional[int], Optional[int]]:
    """Total search steps and evaluations-to-incumbent, ``None`` if unset."""
    stats = [d.result.search for d in pass_result.designs]
    for _, race in pass_result.races:
        stats.extend(m.result.search for m in race.members)
    if not stats or any(s is None for s in stats):
        return None, None
    return (sum(s.steps for s in stats),
            sum(s.evaluations_to_incumbent for s in stats))


def race_metrics(pass_result) -> Dict[str, Optional[float]]:
    """Fleet accounting of the sharded races (zero when none ran)."""
    busy_max = busy_sum = capacity = sched_ns = metrics_ns = 0.0
    steals = checkpoints = respawns = 0
    for _, race in pass_result.races:
        busy = race.shard_busy_seconds
        busy_max += max(busy, default=0.0)
        busy_sum += sum(busy)
        capacity += race.shards * max(busy, default=0.0)
        sched_ns += sum(c.sched_ns for c in race.shard_counters)
        metrics_ns += sum(c.metrics_ns for c in race.shard_counters)
        steals += sum(1 for e in race.events if e.kind == "steal")
        checkpoints += sum(1 for e in race.events if e.kind == "checkpoint")
        respawns += race.respawns
    return {
        "race.shard_busy_max_s": busy_max,
        "race.shard_busy_sum_s": busy_sum,
        "race.balance": _ratio(busy_sum, capacity),
        "race.fleet_sched_s": sched_ns / 1e9,
        "race.fleet_metrics_s": metrics_ns / 1e9,
        "race.steals_n": steals,
        "race.checkpoints_n": checkpoints,
        "race.respawns_n": respawns,
    }


def layer_metrics(
    setup: PhaseRecord, design: PhaseRecord, pass_result
) -> Dict[str, Optional[float]]:
    """The per-layer metrics of one traced pass (``None`` = missing).

    ``setup`` is the traced set-up phase, ``design`` the traced design
    phases merged.  ``trace.overhead_ratio`` needs untraced passes too,
    so the caller fills it in.
    """
    spans = design.spans

    def n(name: str) -> int:
        return spans[name].n if name in spans else 0

    def self_s(name: str) -> float:
        return spans[name].self_ns / 1e9 if name in spans else 0.0

    def per_call_us(name: str) -> Optional[float]:
        return _ratio(self_s(name) * 1e6, n(name))

    # Wall time of the design requests themselves (the speed probes
    # between requests run inside the traced phases but outside them).
    wall_s = sum(pass_result.raw_phases.values())
    loop_self = wall_s - design.covered_ns / 1e9
    counts = program_counts(pass_result)
    steps, to_incumbent = search_counts(pass_result)
    out: Dict[str, Optional[float]] = {
        "gen.build_s": setup.spans["gen.build"].self_ns / 1e9
        if "gen.build" in setup.spans else 0.0,
        "search.propose_n": n("search.propose"),
        "search.propose_s": self_s("search.propose"),
        "search.loop_self_s": loop_self,
        "search.steps": steps,
        "search.evals_to_incumbent": to_incumbent,
        "core.initial_mapping_n": n("core.initial_mapping"),
        "core.initial_mapping_s": self_s("core.initial_mapping"),
        "spec.compile_n": n("spec.compile"),
        "spec.compile_s": self_s("spec.compile"),
        "engine.signature_n": n("engine.signature"),
        "engine.signature_s": self_s("engine.signature"),
        "engine.requests_n": counts["evaluations"],
        "engine.evals_per_s": _ratio(counts["evaluations"], wall_s),
        "engine.invalid_ratio": _ratio(
            design.counts.get("engine.invalid", 0),
            design.counts.get("engine.requests", 0),
        ),
        "engine.self_s": self_s("engine"),
        "cache.lookup_n": n("cache.lookup"),
        "cache.hit_ratio": _ratio(
            counts["cache_hits"], counts["cache_hits"] + counts["cache_misses"]
        ),
        "store.probe_n": n("store.probe"),
        "store.probe_s": self_s("store.probe"),
        "store.get_n": n("store.get"),
        "store.get_s": self_s("store.get"),
        "store.put_n": n("store.put"),
        "store.put_s": self_s("store.put"),
        "store.commit_n": n("store.commit"),
        "store.commit_s": self_s("store.commit"),
        "store.hit_ratio": _ratio(
            counts["store_hits"], counts["store_hits"] + counts["store_misses"]
        ),
        "store.db_mb": pass_result.store_db_mb,
        "delta.move_n": n("delta.move"),
        "delta.move_s": self_s("delta.move"),
        "delta.hit_ratio": _ratio(
            counts["delta_hits"], counts["delta_hits"] + counts["delta_fallbacks"]
        ),
        "sched.lower_n": n("sched.lower"),
        "sched.lower_s": self_s("sched.lower"),
        "sched.pass_n": n("sched.pass"),
        "sched.pass_s": self_s("sched.pass"),
        "sched.pass_us": per_call_us("sched.pass"),
        "sched.resume_n": n("sched.resume"),
        "sched.resume_s": self_s("sched.resume"),
        "sched.divergence_s": self_s("sched.divergence"),
        "sched.decode_n": n("sched.decode"),
        "sched.decode_s": self_s("sched.decode"),
        "metrics.price_n": n("metrics.price"),
        "metrics.price_s": self_s("metrics.price"),
        "metrics.price_us": per_call_us("metrics.price"),
        "trace.unattributed_ratio": _ratio(loop_self, wall_s),
        "trace.overhead_ratio": None,
    }
    out.update(race_metrics(pass_result))
    return out
