"""Shared experiment machinery.

:func:`run_comparison` executes the three strategies (AH, MH, SA) on
the same generated scenarios -- one scenario per (current-size, seed)
pair -- and returns per-run records that the figure harnesses aggregate
in their own ways (quality deviations, runtimes, future mappability).

:func:`run_family_matrix` is the diversity analogue: it sweeps the
scenario-family grid (every strategy x every registered family, seeded,
cache on and off) the way :func:`run_comparison` sweeps
``current_sizes``, and :func:`run_family_smoke` is the CI-facing subset
(smallest preset per family, with determinism and codec round-trip
checks).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import ObjectiveWeights, evaluate_design
from repro.core.strategy import DesignResult, DesignSpec, make_strategy
from repro.engine.cache import CacheStats
from repro.gen.scenario import Scenario, ScenarioParams, build_scenario
from repro.gen import families as families_module
from repro.search.budget import Budget
from repro.sched.list_scheduler import ListScheduler
from repro.sched.verify import verify_design
from repro.search.portfolio import PortfolioResult, PortfolioRunner
from repro.serialize.codec import schedule_to_dict
from repro.serialize.scenario_codec import scenario_from_dict, scenario_to_dict
from repro.utils.errors import MappingError, SchedulingError


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale knobs shared by all experiment harnesses.

    The defaults run the full suite in minutes on a laptop; the
    ``paper_scale`` preset (see :meth:`paper`) restores the paper's
    workload sizes at the cost of hours of SA runtime.
    """

    current_sizes: Tuple[int, ...] = (10, 20, 30)
    n_existing: int = 60
    seeds: Tuple[int, ...] = (1, 2, 3)
    sa_iterations: int = 1200
    #: Result-store backend of every strategy's evaluation engine:
    #: ``"memory"`` (process-local LRU) or ``"sqlite"`` (persistent
    #: database at ``cache_path``, warm across runs).  The CLI's
    #: ``--cache-store`` / ``--cache-path`` switches.  Results are
    #: byte-identical either way.
    cache_store: str = "memory"
    cache_path: Optional[str] = None
    #: Per-strategy search budget (``None`` on every axis = the
    #: strategies' own caps only).  Evaluation/step/patience budgets
    #: cut seeded runs at exact reproducible points; wall-clock budgets
    #: are machine-dependent.
    budget_evaluations: Optional[int] = None
    budget_seconds: Optional[float] = None
    budget_patience: Optional[int] = None
    #: Portfolio members raced by the ``scenarios portfolio`` command
    #: (strategy names, racing order = tie-breaking order).
    portfolio: Tuple[str, ...] = ("MH", "SA")
    scenario_params: ScenarioParams = field(default_factory=ScenarioParams)
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    # fig-future only.  ``n_future_processes=None`` sizes each future
    # application from the scenario's characterized t_need (a typical
    # family member claiming ``future_demand_fraction * t_need``); the
    # paper preset pins it to 80 processes instead.
    n_future_processes: Optional[int] = None
    future_apps_per_scenario: int = 10
    future_demand_fraction: float = 0.4

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The paper's scale: existing 400, current 40-320, future 80."""
        return cls(
            current_sizes=(40, 80, 160, 240, 320),
            n_existing=400,
            seeds=tuple(range(1, 11)),
            sa_iterations=6000,
            scenario_params=ScenarioParams(n_nodes=10, hyperperiod=4800,
                                           slot_length=4, slot_capacity=16),
            n_future_processes=80,
            future_apps_per_scenario=20,
        )

    def scenario_for(self, size: int, seed: int) -> Scenario:
        """Build the scenario of one (current-size, seed) cell."""
        params = replace(
            self.scenario_params,
            n_existing=self.n_existing,
            n_current=size,
        )
        return build_scenario(params, seed=seed)

    def search_budget(self) -> Optional[Budget]:
        """The per-strategy budget these settings describe, if any."""
        return make_budget(
            self.budget_evaluations, self.budget_seconds, self.budget_patience
        )


def make_budget(
    evaluations: Optional[int] = None,
    seconds: Optional[float] = None,
    patience: Optional[int] = None,
) -> Optional[Budget]:
    """A :class:`Budget` from optional CLI-style knobs (``None`` = none)."""
    if evaluations is None and seconds is None and patience is None:
        return None
    return Budget(
        max_evaluations=evaluations, max_seconds=seconds, patience=patience
    )


@dataclass
class ComparisonRecord:
    """All three strategies' results on one scenario."""

    size: int
    seed: int
    scenario: Scenario
    results: Dict[str, DesignResult]

    def objective(self, strategy: str) -> float:
        return self.results[strategy].objective

    def runtime(self, strategy: str) -> float:
        return self.results[strategy].runtime_seconds

    def all_valid(self) -> bool:
        return all(r.valid for r in self.results.values())

    def cache_line(self, strategy: str) -> str:
        """Human-readable engine statistics of one strategy's run."""
        r = self.results[strategy]
        return (
            f"{r.evaluations} evals, {r.cache_hits} hits, "
            f"{r.cache_misses} misses"
        )


def run_comparison(
    config: ExperimentConfig,
    strategies: Sequence[str] = ("AH", "MH", "SA"),
    verbose: bool = False,
) -> List[ComparisonRecord]:
    """Run every strategy on every (size, seed) scenario.

    Scenarios whose existing application cannot be scheduled are
    skipped (the generator retries internally first); scenarios where a
    strategy finds no valid design are kept -- their records report
    ``objective == inf`` and the aggregators decide how to treat them.
    """
    records: List[ComparisonRecord] = []
    for size in config.current_sizes:
        for seed in config.seeds:
            try:
                scenario = config.scenario_for(size, seed)
            except MappingError:
                if verbose:
                    print(f"size={size} seed={seed}: unschedulable, skipped")
                continue
            results: Dict[str, DesignResult] = {}
            for name in strategies:
                strategy = _build(name, config, seed)
                results[name] = strategy.design(scenario.spec(config.weights))
            record = ComparisonRecord(size, seed, scenario, results)
            records.append(record)
            if verbose:
                line = " ".join(
                    f"{n}={results[n].objective:.1f}" for n in strategies
                )
                cache = "; ".join(
                    f"{n}: {record.cache_line(n)}" for n in strategies
                )
                print(f"size={size} seed={seed}: {line} [{cache}]")
    return records


def _build(name: str, config: ExperimentConfig, seed: int):
    """Instantiate a strategy with experiment-appropriate parameters."""
    budget = config.search_budget()
    if name.upper() == "SA":
        return make_strategy(
            "SA",
            iterations=config.sa_iterations,
            seed=seed * 7919 + 13,
            cache_store=config.cache_store,
            cache_path=config.cache_path,
            budget=budget,
        )
    return make_strategy(
        name,
        cache_store=config.cache_store,
        cache_path=config.cache_path,
        budget=budget,
    )


def cache_statistics(
    records: Sequence[ComparisonRecord],
    strategies: Optional[Sequence[str]] = None,
) -> List[Tuple[str, int, int, int, float]]:
    """Per-strategy evaluation-engine totals across all runs.

    Returns ``(strategy, evaluations, hits, misses, hit_rate)`` rows,
    aggregated over every record that ran the strategy -- the data of
    the CLI's engine-statistics report.  ``strategies`` defaults to the
    names actually present in ``records``, in first-seen order.
    """
    if strategies is None:
        seen: List[str] = []
        for record in records:
            for name in record.results:
                if name not in seen:
                    seen.append(name)
        strategies = seen
    rows: List[Tuple[str, int, int, int, float]] = []
    for name in strategies:
        results = [r.results[name] for r in records if name in r.results]
        evaluations = sum(r.evaluations for r in results)
        hits = sum(r.cache_hits for r in results)
        misses = sum(r.cache_misses for r in results)
        rate = CacheStats(hits, misses, 0).hit_rate
        rows.append((name, evaluations, hits, misses, rate))
    return rows


def stage_statistics(
    records: Sequence[ComparisonRecord],
    strategies: Optional[Sequence[str]] = None,
) -> List[Tuple[str, int, int, int]]:
    """Per-strategy evaluation-pipeline stage times across all runs.

    Returns ``(strategy, sched_ns, metrics_ns, decode_ns)`` rows, the
    Amdahl split of engine time between scheduling passes, metric
    pricing and object-schedule decode (lazy under the array core:
    only incumbents and reporting paths pay it).
    """
    if strategies is None:
        seen: List[str] = []
        for record in records:
            for name in record.results:
                if name not in seen:
                    seen.append(name)
        strategies = seen
    rows: List[Tuple[str, int, int, int]] = []
    for name in strategies:
        results = [r.results[name] for r in records if name in r.results]
        rows.append(
            (
                name,
                sum(r.sched_ns for r in results),
                sum(r.metrics_ns for r in results),
                sum(r.decode_ns for r in results),
            )
        )
    return rows


def store_statistics(
    records: Sequence[ComparisonRecord],
    strategies: Optional[Sequence[str]] = None,
) -> List[Tuple[str, int, int, int, float]]:
    """Per-strategy persistent-store totals across all runs.

    Returns ``(strategy, store_hits, store_misses, store_writes,
    hit_rate)`` rows, the result-store counterpart of
    :func:`cache_statistics`; all zeros for a strategy when the runs
    used the in-memory backend.
    """
    if strategies is None:
        seen: List[str] = []
        for record in records:
            for name in record.results:
                if name not in seen:
                    seen.append(name)
        strategies = seen
    rows: List[Tuple[str, int, int, int, float]] = []
    for name in strategies:
        results = [r.results[name] for r in records if name in r.results]
        hits = sum(r.store_hits for r in results)
        misses = sum(r.store_misses for r in results)
        writes = sum(r.store_writes for r in results)
        probes = hits + misses
        rate = hits / probes if probes else 0.0
        rows.append((name, hits, misses, writes, rate))
    return rows


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    vals = list(values)
    if not vals:
        return 0.0
    return sum(vals) / len(vals)


# ----------------------------------------------------------------------
# scenario-family stress matrix
# ----------------------------------------------------------------------
#: SA iteration budget for family sweeps; small by design -- the matrix
#: is about breadth (every family x strategy x cache mode), not about
#: squeezing the reference to its optimum.
DEFAULT_FAMILY_SA_ITERATIONS = 150

#: The strategies family runs and portfolio races accept by name.
STRATEGY_NAMES = ("AH", "MH", "SA")


@dataclass
class FamilyMatrixRecord:
    """One strategy run on one family scenario in one cache mode."""

    family: str
    preset: str
    seed: int
    strategy: str
    use_cache: bool
    result: DesignResult


@dataclass
class FamilySmokeResult:
    """Outcome of the CI smoke checks for one family.

    ``failures`` is empty when the family passed: the scenario
    round-trips through the JSON codec byte-identically, and every
    strategy finds a valid design that passes :func:`oracle_failures`
    and is identical with the cache on, off and with incremental
    evaluation off.
    """

    family: str
    preset: str
    seed: int
    failures: List[str] = field(default_factory=list)
    objectives: Dict[str, float] = field(default_factory=dict)
    #: Per-strategy canonical design fingerprint (sha256 prefix of the
    #: baseline run's :meth:`DesignResult.design_identity`); the value
    #: the CI warm-restart gate compares across runs.
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: Persistent-store totals over the baseline runs (zero on the
    #: memory backend).
    store_hits: int = 0
    store_misses: int = 0
    runtime_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def store_hit_rate(self) -> float:
        probes = self.store_hits + self.store_misses
        return self.store_hits / probes if probes else 0.0


def design_identity(result: DesignResult):
    """Canonical identity of a design (see
    :meth:`DesignResult.design_identity`, the single definition)."""
    return result.design_identity()


def design_fingerprint(result: DesignResult) -> str:
    """Short stable digest of the canonical design identity.

    A sha256 prefix over ``repr(design_identity())`` -- compact enough
    to print per run, and equal exactly when the designs are
    byte-identical.  The CI warm-restart gate compares these across
    cold and warm store runs.
    """
    import hashlib

    identity = repr(design_identity(result)).encode("utf-8")
    return hashlib.sha256(identity).hexdigest()[:16]


def oracle_failures(
    scenario: Scenario, spec: DesignSpec, result: DesignResult
) -> List[str]:
    """Check one returned design against the reference implementations.

    A searched design is rescheduled from scratch by the object list
    scheduler (:meth:`ListScheduler.try_schedule`), whose schedule must
    serialize exactly like the returned one.  Every design is re-priced
    by the from-scratch metrics (:func:`evaluate_design`), whose
    objective must equal the returned one bit for bit, and checked by
    the independent verifier (:func:`verify_design`) against both
    applications.  AH's design (``search is None``) is the Initial
    Mapper's own schedule, which may come from a restart with jittered
    priorities, so it is not rescheduled.  Returns one message per
    failed check (empty when all pass, and for invalid results, which
    carry no design).
    """
    if not result.valid:
        return []
    failures: List[str] = []
    if result.search is not None:
        oracle = ListScheduler(spec.architecture).try_schedule(
            spec.current,
            result.mapping,
            base=spec.base_schedule,
            priorities=result.priorities,
            horizon=spec.effective_horizon(),
            message_delays=result.message_delays,
        )
        if not oracle.success:
            failures.append(
                f"object scheduler rejects the design: "
                f"{oracle.failure_reason}"
            )
        elif schedule_to_dict(oracle.schedule) != schedule_to_dict(
            result.schedule
        ):
            failures.append("schedule differs from the object scheduler's")
    repriced = evaluate_design(result.schedule, spec.future, spec.weights)
    if repriced.objective != result.objective:
        failures.append(
            f"re-priced objective {repriced.objective!r} != "
            f"{result.objective!r}"
        )
    try:
        verify_design(
            result.schedule,
            [scenario.existing, scenario.current],
            {scenario.current.name: result.mapping},
        )
    except SchedulingError as exc:
        failures.append(f"verify_design: {exc}")
    return failures


def parse_strategy_name(name: str) -> Tuple[str, int]:
    """Split a family-run strategy name into ``(base, variant)``.

    ``AH``, ``MH`` and ``SA`` (any case) are the paper's strategies.
    ``SA@k`` (k >= 1) names a portfolio variant of SA: the same
    configuration on a distinct seeded RNG stream, so portfolio races
    can field several independent SA members.  Only SA has variants --
    the other strategies are deterministic, so extra copies would race
    identical walks.  Anything else raises ``ValueError`` listing the
    valid choices.
    """
    base, sep, suffix = name.partition("@")
    base = base.upper()
    if base in STRATEGY_NAMES and not sep:
        return base, 0
    if base == "SA" and suffix.isdigit() and int(suffix) >= 1:
        return base, int(suffix)
    raise ValueError(
        f"unknown strategy {name!r}; choose from "
        f"{', '.join(STRATEGY_NAMES)} or SA@k (k >= 1)"
    )


def strategy_for_family(
    name: str,
    seed: int,
    use_cache: bool,
    jobs: int,
    sa_iterations: int,
    budget: Optional[Budget] = None,
    cache_store: str = "memory",
    cache_path: Optional[str] = None,
):
    """Instantiate a strategy for a family run (shared with the CLI).

    ``name`` is parsed by :func:`parse_strategy_name`; ``SA@k`` seeds
    SA on a distinct RNG stream (seed offset ``k * 101``).

    ``jobs`` must be ``1``: candidates are evaluated in process, and
    parallelism is the sharded race (``run_portfolio(shards=...)``).
    The positional slot stays because external callers, such as the
    end-to-end benchmark, still pass it.
    """
    if jobs != 1:
        raise ValueError(
            f"jobs={jobs!r}: strategies evaluate in process; race a "
            "portfolio with --shards for parallelism"
        )
    base, variant = parse_strategy_name(name)
    if base == "SA":
        strategy = make_strategy(
            "SA",
            iterations=sa_iterations,
            seed=seed * 7919 + 13 + variant * 101,
            use_cache=use_cache,
            cache_store=cache_store,
            cache_path=cache_path,
            budget=budget,
        )
        if variant:
            strategy.name = f"SA@{variant}"
        return strategy
    return make_strategy(
        base,
        use_cache=use_cache,
        cache_store=cache_store,
        cache_path=cache_path,
        budget=budget,
    )


def portfolio_members(
    strategies: Sequence[str],
    seed: int,
    sa_iterations: int = DEFAULT_FAMILY_SA_ITERATIONS,
    budget: Optional[Budget] = None,
) -> List:
    """Configured strategy instances for a portfolio race.

    Members are built exactly like single-strategy family runs (same
    SA seed derivation), so a portfolio member's trajectory matches
    the corresponding solo run; ``budget`` here is each member's *own*
    budget (the racing budget lives on the runner).
    """
    return [
        strategy_for_family(name, seed, True, 1, sa_iterations, budget=budget)
        for name in strategies
    ]


def run_portfolio(
    spec,
    strategies: Sequence[str],
    seed: int = 1,
    sa_iterations: int = DEFAULT_FAMILY_SA_ITERATIONS,
    member_budget: Optional[Budget] = None,
    shared_budget: Optional[Budget] = None,
    use_cache: bool = True,
    cache_store: str = "memory",
    cache_path: Optional[str] = None,
    shards: int = 0,
    elastic: bool = False,
) -> PortfolioResult:
    """Race ``strategies`` on ``spec`` over one shared engine.

    The deterministic lockstep race of
    :class:`repro.search.PortfolioRunner`: member order is the racing
    and tie-breaking order, ``shared_budget`` is contended for by all
    members, and the winner is byte-identical for any racing order.
    With ``cache_store="sqlite"`` the race shares one persistent store
    at ``cache_path`` (and is served warm by earlier races against it).

    ``shards >= 1`` runs the same race distributed across that many
    worker processes (:class:`repro.search.DistributedPortfolioRunner`)
    -- replay mode by default (deterministic, winner byte-identical to
    the lockstep race), elastic mode with ``elastic=True`` (wall-clock
    budgets and dynamic work-stealing allowed).  ``shards=0`` (the
    default) stays on the in-process lockstep reference.
    """
    members = portfolio_members(strategies, seed, sa_iterations, member_budget)
    if shards >= 1:
        from repro.search.distributed import DistributedPortfolioRunner

        return DistributedPortfolioRunner(
            members,
            budget=shared_budget,
            shards=shards,
            mode="elastic" if elastic else "replay",
            use_cache=use_cache,
            cache_store=cache_store,
            cache_path=cache_path,
        ).run(spec)
    runner = PortfolioRunner(
        members,
        budget=shared_budget,
        use_cache=use_cache,
        cache_store=cache_store,
        cache_path=cache_path,
    )
    return runner.run(spec)


def run_family_matrix(
    family_names: Optional[Sequence[str]] = None,
    preset: Optional[str] = None,
    seeds: Sequence[int] = (1,),
    strategies: Sequence[str] = ("AH", "MH", "SA"),
    cache_modes: Sequence[bool] = (True, False),
    sa_iterations: int = DEFAULT_FAMILY_SA_ITERATIONS,
    cache_store: str = "memory",
    cache_path: Optional[str] = None,
    budget: Optional[Budget] = None,
    verbose: bool = False,
) -> List[FamilyMatrixRecord]:
    """The stress matrix: every strategy x every family, cache on/off.

    Parameters
    ----------
    family_names:
        Families to sweep; defaults to every registered family.
    preset:
        Preset name to use for each family; ``None`` uses each
        family's smallest preset (presets are per-family, so a shared
        name must exist in all swept families).
    seeds:
        Scenario seeds; each (family, seed) cell is generated once and
        shared by all strategy/cache runs.
    strategies, cache_modes, sa_iterations:
        The strategy grid.  Results are deterministic for any cache
        mode by the evaluation-engine contract.
    """
    if family_names is None:
        family_names = families_module.family_names()
    records: List[FamilyMatrixRecord] = []
    for name in family_names:
        family = families_module.get_family(name)
        preset_name = preset if preset is not None else family.smallest_preset
        for seed in seeds:
            try:
                scenario = family.build(preset_name, seed=seed)
            except MappingError:
                if verbose:
                    print(
                        f"family={name} preset={preset_name} seed={seed}: "
                        f"unschedulable, skipped"
                    )
                continue
            spec = scenario.spec()
            for strategy_name in strategies:
                for use_cache in cache_modes:
                    strategy = strategy_for_family(
                        strategy_name,
                        seed,
                        use_cache,
                        1,
                        sa_iterations,
                        budget=budget,
                        cache_store=cache_store if use_cache else "memory",
                        cache_path=cache_path,
                    )
                    result = strategy.design(spec)
                    records.append(
                        FamilyMatrixRecord(
                            family=name,
                            preset=preset_name,
                            seed=seed,
                            strategy=strategy_name,
                            use_cache=use_cache,
                            result=result,
                        )
                    )
                    if verbose:
                        print(
                            f"family={name} preset={preset_name} "
                            f"seed={seed} {strategy_name} "
                            f"cache={'on' if use_cache else 'off'}: "
                            f"objective={result.objective:.1f}"
                        )
    return records


def run_family_smoke(
    family_names: Optional[Sequence[str]] = None,
    seed: int = 1,
    strategies: Sequence[str] = ("AH", "MH", "SA"),
    sa_iterations: int = DEFAULT_FAMILY_SA_ITERATIONS,
    cache_store: str = "memory",
    cache_path: Optional[str] = None,
    verbose: bool = False,
) -> List[FamilySmokeResult]:
    """CI smoke sweep: smallest preset per family, all checks.

    Per family: (1) the scenario round-trips through the JSON codec
    byte-identically; (2) every strategy finds a *valid* design that
    passes the oracle check (:func:`oracle_failures`); (3) each
    strategy's design is identical with the cache on and off -- the
    determinism contract new families must not break.

    ``cache_store``/``cache_path`` apply to the *baseline* run of each
    strategy only (the comparison variants stay memory-backed: they
    exist to check determinism, and routing them through the same
    database would let the store serve results between variants).  Each
    smoke result reports the baseline designs' fingerprints and the
    store totals, so a second sweep against the same path can assert
    warm-hit rate and byte-identical designs (the CI warm-restart
    gate).
    """
    if family_names is None:
        family_names = families_module.family_names()
    out: List[FamilySmokeResult] = []
    for name in family_names:
        family = families_module.get_family(name)
        preset_name = family.smallest_preset
        started = time.perf_counter()
        smoke = FamilySmokeResult(family=name, preset=preset_name, seed=seed)
        try:
            scenario = family.build(preset_name, seed=seed)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            smoke.failures.append(f"build failed: {exc}")
            smoke.runtime_seconds = time.perf_counter() - started
            out.append(smoke)
            continue

        # Codec round trip must be byte-identical.
        first = json.dumps(scenario_to_dict(scenario), sort_keys=True)
        rebuilt = scenario_from_dict(json.loads(first))
        second = json.dumps(scenario_to_dict(rebuilt), sort_keys=True)
        if first != second:
            smoke.failures.append("JSON round trip is not byte-identical")

        spec = scenario.spec()
        for strategy_name in strategies:
            baseline = strategy_for_family(
                strategy_name, seed, True, 1, sa_iterations,
                cache_store=cache_store, cache_path=cache_path,
            ).design(spec)
            smoke.store_hits += baseline.store_hits
            smoke.store_misses += baseline.store_misses
            if not baseline.valid:
                smoke.failures.append(f"{strategy_name}: no valid design")
                continue
            smoke.objectives[strategy_name] = baseline.objective
            smoke.fingerprints[strategy_name] = design_fingerprint(baseline)
            smoke.failures.extend(
                f"{strategy_name}: {failure}"
                for failure in oracle_failures(scenario, spec, baseline)
            )
            other = strategy_for_family(
                strategy_name, seed, False, 1, sa_iterations
            ).design(spec)
            if design_identity(other) != design_identity(baseline):
                smoke.failures.append(
                    f"{strategy_name}: design differs with cache off"
                )
        smoke.runtime_seconds = time.perf_counter() - started
        if verbose:
            status = "ok" if smoke.ok else "; ".join(smoke.failures)
            print(f"family={name} preset={preset_name}: {status}")
        out.append(smoke)
    return out
