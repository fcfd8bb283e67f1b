"""Static analysis of the repository's byte-identity invariants.

Every guarantee the reproduction makes -- seeded runs byte-identical
across cache on/off, delta on/off, result stores and shard
counts -- is otherwise enforced only dynamically, by
golden-design tests.  This package proves the
underlying source-level invariants statically, on every commit:

* **determinism rules** (DET001..DET006): no wall-clock, module-global
  RNG, unordered-set iteration, ``hash()`` of interned values,
  environment reads, or float equality inside the kernel layers;
* **layering rules** (LAY001..LAY003): the documented import DAG
  (``utils < tdma < model < sched < engine < search < core < gen <
  serialize < analysis < experiments``) holds at module level, stays
  acyclic, and no layer deep-imports another layer's ``_``-private
  modules;
* **contract rules** (CON001..CON003): every transformation declares
  its delta footprint, every acceptor/proposer carries the checkpoint
  state pair, and hot paths stay free of I/O.

Run it as ``python -m repro.lint [paths]``.  Findings are suppressed
inline with ``# repro: allow[RULE-ID] reason`` (the reason is
mandatory) or grandfathered through a ``--baseline`` file; the checked
in baseline for ``src/repro`` is empty and CI keeps it that way.

The analyzer is self-contained: it imports nothing from the rest of
``repro`` (it sits outside the layer DAG it enforces) and never
imports the code under analysis -- everything is a single ``ast``
parse per file.
"""

from repro.lint.engine import LintResult, ModuleInfo, Project, run_lint
from repro.lint.findings import Finding, Severity
from repro.lint.config import LintConfig, load_config
from repro.lint.rules import all_rules

__all__ = [
    "Finding",
    "Severity",
    "LintConfig",
    "LintResult",
    "ModuleInfo",
    "Project",
    "all_rules",
    "load_config",
    "run_lint",
]
