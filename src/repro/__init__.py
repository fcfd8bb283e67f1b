"""Incremental design of distributed embedded systems.

A faithful reimplementation of Pop, Eles, Pop & Peng, *"An Approach to
Incremental Design of Distributed Embedded Systems"*, DAC 2001:
mapping and scheduling of a new application onto a TDMA-based
heterogeneous distributed platform that already runs existing
applications, optimized so that characterized-but-unknown *future*
applications will still fit.

Quickstart::

    from repro import ScenarioParams, build_scenario, design_application

    scenario = build_scenario(ScenarioParams(), seed=7)
    result = design_application(scenario.spec(), strategy="MH")
    print(result.metrics.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced tables and figures.
"""

# First: load (on a fresh checkout, build) the compiled evaluation
# kernel before the heavy imports below; see repro.sched.ckernel.
from repro.sched import ckernel  # noqa: F401
from repro.core import (
    AdHocStrategy,
    DesignMetrics,
    DesignResult,
    DesignSpec,
    DiscreteDistribution,
    FutureCharacterization,
    InitialMapper,
    MappingHeuristic,
    ObjectiveWeights,
    SimulatedAnnealing,
    design_application,
    design_with_modifications,
    evaluate_design,
    fits_future_application,
    make_strategy,
    ExistingApplication,
    ModificationResult,
)
from repro.gen import (
    Scenario,
    ScenarioParams,
    build_scenario,
    generate_application,
    generate_future_application,
    random_architecture,
    random_process_graph,
)
from repro.model import (
    Application,
    Architecture,
    Mapping,
    Message,
    Node,
    Process,
    ProcessGraph,
)
from repro.analysis import DesignReport, analyze_design, render_report
from repro.engine import (
    CacheStats,
    CompiledSpec,
    EvaluatedDesign,
    EvaluationCache,
    EvaluationEngine,
)
from repro.sched import ListScheduler, SystemSchedule, render_gantt, verify_design
from repro.search import (
    Budget,
    PortfolioResult,
    PortfolioRunner,
    SearchCheckpoint,
    SearchLoop,
    SearchStats,
)
from repro.tdma import BusSchedule, Slot, TdmaBus

__version__ = "1.0.0"

__all__ = [
    "AdHocStrategy",
    "Application",
    "Architecture",
    "Budget",
    "BusSchedule",
    "CacheStats",
    "CompiledSpec",
    "EvaluatedDesign",
    "EvaluationCache",
    "EvaluationEngine",
    "DesignReport",
    "analyze_design",
    "render_report",
    "verify_design",
    "DesignMetrics",
    "DesignResult",
    "DesignSpec",
    "DiscreteDistribution",
    "ExistingApplication",
    "FutureCharacterization",
    "ModificationResult",
    "InitialMapper",
    "ListScheduler",
    "Mapping",
    "MappingHeuristic",
    "Message",
    "Node",
    "ObjectiveWeights",
    "PortfolioResult",
    "PortfolioRunner",
    "Process",
    "ProcessGraph",
    "Scenario",
    "ScenarioParams",
    "SearchCheckpoint",
    "SearchLoop",
    "SearchStats",
    "SimulatedAnnealing",
    "Slot",
    "SystemSchedule",
    "TdmaBus",
    "build_scenario",
    "design_application",
    "design_with_modifications",
    "evaluate_design",
    "fits_future_application",
    "generate_application",
    "generate_future_application",
    "make_strategy",
    "random_architecture",
    "random_process_graph",
    "render_gantt",
    "__version__",
]
