"""The paper's primary contribution: metric-driven incremental mapping.

Layers:

* :mod:`~repro.core.slack` -- extracting slack containers (processor
  gaps, bus slot residuals) from a system schedule.
* :mod:`~repro.core.future` -- the characterization of future
  applications (T_min, t_need, b_need, WCET and message-size
  distributions) from slide 10.
* :mod:`~repro.core.binpack` -- best-fit (plus first-fit / worst-fit
  for ablations) bin packing used by the first design criterion.
* :mod:`~repro.core.metrics` -- the four design metrics C1P, C1m, C2P,
  C2m and the objective function of slide 14.
* :mod:`~repro.core.initial_mapping` -- Initial Mapping (IM) seeded by
  the Heterogeneous Critical Path algorithm.
* :mod:`~repro.core.adhoc` -- the Ad-Hoc (AH) baseline strategy.
* :mod:`~repro.core.mapping_heuristic` -- the Mapping Heuristic (MH).
* :mod:`~repro.core.simulated_annealing` -- the SA reference.
* :mod:`~repro.core.strategy` -- the end-to-end design flow and the
  future-application fit check used by the third experiment.
* :mod:`~repro.core.array_metrics` -- the metrics over the array
  scheduler's state blocks, priced by the compiled kernel of
  :mod:`repro.sched.ckernel` when it is loaded.
"""

from repro.core.future import DiscreteDistribution, FutureCharacterization
from repro.core.binpack import PackResult, best_fit, first_fit, worst_fit
from repro.core.metrics import (
    DesignMetrics,
    ObjectiveWeights,
    evaluate_design,
    metric_c1m,
    metric_c1p,
    metric_c2m,
    metric_c2p,
)
from repro.core.slack import (
    bus_slack_containers,
    processor_slack_containers,
    slack_fragmentation,
)
from repro.core.initial_mapping import InitialMapper
from repro.core.adhoc import AdHocStrategy
from repro.core.mapping_heuristic import MappingHeuristic
from repro.core.simulated_annealing import SimulatedAnnealing
from repro.core.strategy import (
    DesignResult,
    DesignSpec,
    design_application,
    fits_future_application,
    make_strategy,
)
from repro.core.modification import (
    ExistingApplication,
    ModificationResult,
    design_with_modifications,
)

__all__ = [
    "DiscreteDistribution",
    "FutureCharacterization",
    "PackResult",
    "best_fit",
    "first_fit",
    "worst_fit",
    "DesignMetrics",
    "ObjectiveWeights",
    "evaluate_design",
    "metric_c1p",
    "metric_c1m",
    "metric_c2p",
    "metric_c2m",
    "processor_slack_containers",
    "bus_slack_containers",
    "slack_fragmentation",
    "InitialMapper",
    "AdHocStrategy",
    "MappingHeuristic",
    "SimulatedAnnealing",
    "DesignResult",
    "DesignSpec",
    "ExistingApplication",
    "ModificationResult",
    "design_with_modifications",
    "design_application",
    "fits_future_application",
    "make_strategy",
]
