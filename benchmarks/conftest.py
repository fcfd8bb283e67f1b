"""Shared fixtures for the benchmark harness.

The benchmarks double as the figure-regeneration harness: each
``bench_fig_*`` file times the strategies on generated scenarios and
attaches the figure's data points (deviations, mapped percentages) as
``extra_info`` so they appear in the pytest-benchmark report.

Every *timed* benchmark run additionally writes
``benchmarks/BENCH_engine.json``: one machine-readable record per
benchmark (median wall time, scenario size and delta on/off taken from
``extra_info``), so the performance trajectory is tracked across PRs
as data instead of living only in prose.  ``--benchmark-disable``
smoke runs leave the file untouched.

Scale: laptop defaults (a few minutes for the whole directory).  The
paper-scale run is driven through the CLI instead
(``python -m repro.experiments all --paper-scale``).
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentConfig
from repro.gen.scenario import Scenario, ScenarioParams, build_scenario

#: Where the machine-readable benchmark results land (committed, so
#: the perf trajectory across PRs is diffable).
BENCH_RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_engine.json"

#: The search/portfolio trajectory record: repo-root, so the racing
#: wall-clock claim (portfolio <= slowest single strategy) is checked
#: where every PR's reviewer looks first.
BENCH_SEARCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_search.json"

#: The scheduler-core trajectory record (bench_sched): repo-root, so
#: the array-over-object speedup claim is diffable per PR.
BENCH_SCHED_PATH = Path(__file__).resolve().parent.parent / "BENCH_sched.json"

#: The end-to-end evaluation trajectory record (bench_eval): repo-root,
#: so the array-metrics-over-decode-always speedup claim is diffable
#: per PR.
BENCH_EVAL_PATH = Path(__file__).resolve().parent.parent / "BENCH_eval.json"


def _merge_rows(path: Path, rows) -> list:
    """Merge ``rows`` into the file's stored results by benchmark name.

    A partial run (one bench file, or an aborted session) updates only
    the rows it actually timed and keeps every other file's trajectory
    data intact.
    """
    merged = {}
    if path.exists():
        try:
            previous = json.loads(path.read_text())
            merged = {row["name"]: row for row in previous.get("results", ())}
        except (ValueError, KeyError, TypeError):
            merged = {}
    merged.update({row["name"]: row for row in rows})
    return sorted(merged.values(), key=lambda row: row["name"])


def _environment() -> dict:
    """What the numbers were measured on (ratios shift between machines)."""
    import numpy

    from repro.sched import ckernel

    try:
        import cffi

        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cffi": cffi_version,
        "compiled_kernel": ckernel.KERNEL is not None,
    }


@pytest.fixture(scope="session")
def environment() -> dict:
    """:func:`_environment`, for a benchmark's ``extra_info``."""
    return _environment()


def _write_results(path: Path, results, extra=None) -> None:
    payload = {
        "schema": 1,
        "python": platform.python_version(),
        "environment": _environment(),
        "results": results,
    }
    if extra:
        payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _search_summary(rows) -> dict:
    """The racing headline: portfolio wall vs the slowest solo member.

    Computed over the *merged* rows (current session plus what the
    file already held), so a partial re-run of one workload keeps the
    summary consistent with the stored results instead of dropping it.
    """
    singles = [
        row
        for row in rows
        if row["extra_info"].get("search_record") == "single"
    ]
    portfolios = [
        row
        for row in rows
        if row["extra_info"].get("search_record") == "portfolio"
    ]
    if not singles or not portfolios:
        return {}
    slowest = max(row["median_seconds"] for row in singles)
    portfolio = portfolios[0]
    return {
        "summary": {
            "portfolio_median_seconds": portfolio["median_seconds"],
            "slowest_single_median_seconds": slowest,
            "portfolio_vs_slowest_single": portfolio["median_seconds"]
            / slowest,
            "portfolio_objective": portfolio["extra_info"].get("objective"),
            "best_single_objective": min(
                row["extra_info"].get("objective", float("inf"))
                for row in singles
            ),
            "evaluations_to_incumbent": portfolio["extra_info"].get(
                "evaluations_to_incumbent"
            ),
        }
    }


def _sched_summary(rows) -> dict:
    """The array-core headline: per-candidate speedup on medium."""
    for row in rows:
        info = row["extra_info"]
        if (
            info.get("sched_record") == "array"
            and info.get("preset") == "medium"
        ):
            return {
                "summary": {
                    "medium_median_array_us": info.get("median_array_us"),
                    "medium_median_python_us": info.get("median_python_us"),
                    "medium_speedup_vs_python": info.get("speedup_vs_python"),
                    "medium_median_object_us": info.get("median_object_us"),
                    "medium_median_scratch_us": info.get("median_scratch_us"),
                    "medium_speedup_vs_object": info.get("speedup_vs_object"),
                    "medium_speedup_vs_scratch": info.get(
                        "speedup_vs_scratch"
                    ),
                }
            }
    return {}


def _eval_summary(rows) -> dict:
    """The evaluation headlines: end-to-end speedup on medium, and the
    compiled pricing kernel's speedup over the Python one per family."""
    pricing = {
        row["extra_info"]["family"]: row["extra_info"].get("speedup_vs_python")
        for row in rows
        if row["extra_info"].get("eval_record") == "pricing"
    }
    for row in rows:
        info = row["extra_info"]
        if (
            info.get("eval_record") == "array"
            and info.get("preset") == "medium"
        ):
            return {
                "summary": {
                    "medium_median_array_us": info.get("median_array_us"),
                    "medium_median_python_us": info.get("median_python_us"),
                    "medium_speedup_vs_python": info.get("speedup_vs_python"),
                    "medium_median_object_us": info.get("median_object_us"),
                    "medium_median_decode_always_us": info.get(
                        "median_decode_always_us"
                    ),
                    "medium_speedup_vs_object": info.get("speedup_vs_object"),
                    "medium_speedup_vs_decode_always": info.get(
                        "speedup_vs_decode_always"
                    ),
                    "medium_pricing_speedup_vs_python": pricing,
                }
            }
    return {}


def pytest_sessionfinish(session, exitstatus):
    """Persist per-bench medians after timed runs.

    Engine benchmarks land in ``benchmarks/BENCH_engine.json``; the
    ``bench_search`` workloads (tagged via ``search_record`` in their
    ``extra_info``) land in the repo-root ``BENCH_search.json`` with
    the portfolio-vs-single summary, and the ``bench_sched`` workloads
    (tagged ``sched_record``) in the repo-root ``BENCH_sched.json``
    with the array-core speedup summary and the ``bench_eval``
    workloads (tagged ``eval_record``) in the repo-root
    ``BENCH_eval.json`` with the end-to-end evaluation summary.
    ``--benchmark-disable`` smoke runs leave all four untouched.
    """
    benchmark_session = getattr(session.config, "_benchmarksession", None)
    if benchmark_session is None:
        return
    rows = []
    for bench in benchmark_session.benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None:  # --benchmark-disable / skipped
            continue
        if hasattr(stats, "stats"):  # Metadata wrapper on some versions
            stats = stats.stats
        rows.append(
            {
                "name": bench.fullname,
                "median_seconds": stats.median,
                "mean_seconds": stats.mean,
                "rounds": stats.rounds,
                "extra_info": dict(bench.extra_info),
            }
        )
    if not rows:
        return
    search_rows = [
        row for row in rows if "search_record" in row["extra_info"]
    ]
    sched_rows = [
        row for row in rows if "sched_record" in row["extra_info"]
    ]
    eval_rows = [
        row for row in rows if "eval_record" in row["extra_info"]
    ]
    engine_rows = [
        row
        for row in rows
        if "search_record" not in row["extra_info"]
        and "sched_record" not in row["extra_info"]
        and "eval_record" not in row["extra_info"]
    ]
    if engine_rows:
        _write_results(
            BENCH_RESULTS_PATH, _merge_rows(BENCH_RESULTS_PATH, engine_rows)
        )
    if search_rows:
        merged = _merge_rows(BENCH_SEARCH_PATH, search_rows)
        _write_results(
            BENCH_SEARCH_PATH, merged, extra=_search_summary(merged)
        )
    if sched_rows:
        merged = _merge_rows(BENCH_SCHED_PATH, sched_rows)
        _write_results(
            BENCH_SCHED_PATH, merged, extra=_sched_summary(merged)
        )
    if eval_rows:
        merged = _merge_rows(BENCH_EVAL_PATH, eval_rows)
        _write_results(
            BENCH_EVAL_PATH, merged, extra=_eval_summary(merged)
        )

#: Current-application sizes benchmarked per figure (paper: 40..320).
BENCH_SIZES = (8, 16, 24)

#: Existing-application size (paper: 400).
BENCH_EXISTING = 40

#: SA iteration budget for the reference strategy.
BENCH_SA_ITERATIONS = 400


def bench_params(size: int) -> ScenarioParams:
    """Scenario parameters of one benchmark cell."""
    return ScenarioParams(
        n_nodes=6,
        hyperperiod=4800,
        n_existing=BENCH_EXISTING,
        n_current=size,
    )


@pytest.fixture(scope="session")
def scenarios() -> dict:
    """One scenario per benchmarked current-application size."""
    return {size: build_scenario(bench_params(size), seed=1) for size in BENCH_SIZES}


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return ExperimentConfig(
        current_sizes=BENCH_SIZES,
        n_existing=BENCH_EXISTING,
        seeds=(1,),
        sa_iterations=BENCH_SA_ITERATIONS,
        future_apps_per_scenario=8,
    )
