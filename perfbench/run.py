"""End-to-end design benchmark: one workload, timed passes, checked designs.

Run from the repository root::

    python3 perfbench/run.py --workload matrix-cold --seed 1 --seconds 30 --trace 0

The workloads (``matrix-cold``, ``store-restart``, ``race-sharded``) are
defined in ``workloads.py``; ``perfbench/README.md`` gives the reason
for each, the seeds and every metric.  A run repeats passes until
``--seconds`` have gone by (at least :data:`MIN_PASSES`).  Each design
request is timed in reference-speed seconds (``speed.py``), and a
run's design time sums each request's median over passes.  With
``--trace 0`` it reports the end-to-end metrics, untraced.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones.

Every returned design is checked (untimed, between passes): the first
pass's designs are verified and re-priced from scratch, later passes
must return fingerprint-identical designs, warm-store designs must match
the cold ones, and sharded races must return the in-process lockstep
race's winners and member results.  A failed check or an exception in a design request is
printed by name and counted in ``failed``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A pass is repeated at least this often, so every median has support.
MIN_PASSES = 3
#: Set-up is repeated this often per pass; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The whole run is cut (and reported as failed) after this long.
WATCHDOG_SECONDS = 170

#: End-to-end metric name -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "design_s": "s",
    "restart_s": "s",
    "objective_sum": "1",
    "peak_rss_mb": "MB",
}


def environment(workload: str, seed: int) -> dict:
    """Where and on what the run happened (printed with every result)."""
    import sqlite3

    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path):
    """HEAD's commit id read from ``.git``, or ``None`` outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def clear_program_caches() -> None:
    """Empty the program's memo caches, as a new process would have them."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and hasattr(value, "cache_info"):
                clear()


def print_spread(name: str, values) -> None:
    """Median and quartiles of one run's samples (diagnostic)."""
    lo, hi = (
        statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2
    )
    print(
        f"  {name}: median {statistics.median(values):.4f}, quartiles "
        f"{lo:.4f}..{hi:.4f} over {len(values)} samples"
    )


class WatchdogExpired(BaseException):
    """The run took too long.  A ``BaseException``, so that no
    ``except Exception`` around a design request can swallow it."""


class Run:
    """One invocation: passes of one workload, their checks and metrics."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 workdir: str, cells=None):
        from spans import SpanRecorder
        from speed import ScaledClock
        from workloads import build_cells

        self.workload = workload
        #: Builds the cells of one pass (the full matrix unless a test
        #: asks for a smaller one).
        self.cells = cells or build_cells
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.recorder = SpanRecorder() if trace else None
        self.clock = ScaledClock()
        self.attempted = 0
        self.failures = []
        self.setup_samples = []
        self.passes = []  # (traced, PassResult, layer metrics or None)
        self.reference = None  # first pass's fingerprints
        self.objective = None

    # -- one pass --------------------------------------------------------
    def run_pass(self, traced: bool):
        import layers
        from spans import PhaseRecord
        from workloads import PassResult

        # Start every pass from the same heap and empty memo caches, as
        # a new process would: without this, later passes ran slower.
        gc.collect()
        clear_program_caches()
        recorder = self.recorder if traced else None
        setup_record = PhaseRecord()
        for repeat in range(SETUP_REPEATS):
            if recorder is not None and repeat == SETUP_REPEATS - 1:
                with recorder.phase() as setup_record:
                    cells, _, scaled = self.clock.time(self.cells)
            else:
                cells, _, scaled = self.clock.time(self.cells)
            self.setup_samples.append(scaled)

        design_record = PhaseRecord()

        @contextmanager
        def trace():
            with recorder.phase() as record:
                yield
            design_record.merge(record)

        result = PassResult(clock=self.clock)
        if recorder is not None:
            result.trace = trace
        self.workload.run_pass(cells, self.seed, result, self.workdir, len(self.passes))
        layer = (
            layers.layer_metrics(setup_record, design_record, result)
            if traced else None
        )
        self.check(result)
        print(
            f"pass {len(self.passes) + 1}{' traced' if traced else ''}: "
            + " ".join(
                f"{k}={v:.4f}s (raw {result.raw_phases[k]:.4f}s)"
                for k, v in result.phases.items()
            )
            + f" objective_sum={result.objective_sum:.4f}"
            + f" requests={result.attempted} failed={len(result.failures)}",
            flush=True,
        )
        # Keep the timings, drop the designs: retained designs grow the
        # heap the collector walks, and the next pass would pay for it.
        result.designs.clear()
        result.races.clear()
        self.passes.append((traced, result, layer))

    def check(self, result) -> None:
        from workloads import check_design, compare_fingerprints

        failures = list(result.failures)
        fingerprints = result.fingerprints()
        if self.reference is None:
            failures += filter(None, map(check_design, result.returned()))
            self.reference = fingerprints
            self.objective = result.objective_sum
        else:
            failures += compare_fingerprints(
                "differs from the first pass", self.reference, fingerprints
            )
            if set(fingerprints) != set(self.reference):
                failures.append("pass returned a different set of designs")
        if "warm" in result.phases:
            failures += compare_fingerprints(
                "warm design differs from cold", fingerprints, fingerprints,
                rename=lambda key: key.replace("warm ", "cold ", 1),
            )
            for design in result.designs:
                if design.phase == "warm" and design.result.store_misses:
                    failures.append(
                        f"{design.key}: {design.result.store_misses} store "
                        f"misses on a warm restart"
                    )
        self.attempted += result.attempted
        self.failures += failures
        for line in failures:
            print(f"FAIL {line}", flush=True)

    def check_race_oracle(self) -> None:
        """Sharded races must return the lockstep race's winners and
        member results (untimed, once per invocation)."""
        from workloads import PassResult, RaceSharded, compare_fingerprints

        oracle = PassResult(clock=self.clock)
        winners = RaceSharded.lockstep_fingerprints(self.cells(), self.seed, oracle)
        failures = oracle.failures + compare_fingerprints(
            "sharded race differs from lockstep", winners, self.reference
        )
        if set(winners) != set(self.reference):
            failures.append("lockstep race returned a different set of results")
        self.attempted += oracle.attempted
        self.failures += failures
        for line in failures:
            print(f"FAIL {line}", flush=True)

    # -- whole run -------------------------------------------------------
    def execute(self) -> None:
        """All passes (traced ones with the layer wrappers installed)."""
        if self.recorder is None:
            self._passes()
        else:
            import layers

            with self.recorder.installed(layers.targets()):
                self._passes()

    def _passes(self) -> None:
        deadline = time.perf_counter() + self.seconds
        minimum = MIN_PASSES + 1 if self.trace else MIN_PASSES
        while len(self.passes) < minimum or time.perf_counter() < deadline:
            # Traced runs alternate, untraced first, for the overhead ratio.
            self.run_pass(traced=self.trace and len(self.passes) % 2 == 1)
        if self.workload.name == "race-sharded":
            self.check_race_oracle()

    def typical_seconds(self, phase=None) -> float:
        """Sum over requests of each request's median over untraced passes.

        A burst of machine noise slows the requests it overlaps, not
        whole passes, so per-request medians absorb it with fewer passes
        than a median of pass totals does.
        """
        samples = {}
        for traced, result, _ in self.passes:
            if not traced:
                for key, seconds in result.seconds.items():
                    samples.setdefault(key, []).append(seconds)
        return sum(
            statistics.median(values)
            for key, values in samples.items()
            if phase is None or key.startswith(phase + " ")
        )

    def end_to_end(self) -> dict:
        warm = any("warm" in r.phases for _, r, _ in self.passes)
        design = self.typical_seconds()
        return {
            "setup_s": statistics.median(self.setup_samples),
            "design_s": design,
            "restart_s": self.typical_seconds("warm") if warm else design,
            "objective_sum": self.objective,
            "peak_rss_mb": peak_rss_mb(),
        }

    def per_layer(self) -> dict:
        import layers

        traced = [layer for t, _, layer in self.passes if t]
        out = {}
        for name in layers.METRICS:
            values = [m[name] for m in traced if m[name] is not None]
            out[name] = statistics.median(values) if values else None
        untraced = statistics.median(r.design_s for t, r, _ in self.passes if not t)
        out["trace.overhead_ratio"] = statistics.median(
            r.design_s for t, r, _ in self.passes if t
        ) / untraced
        return out


def print_bench_comparison(layer: dict) -> None:
    """How far the cold-path micro-benchmarks are from the searched path."""
    rows = [
        ("sched.pass_us", "BENCH_sched.json", "test_array_kernel[medium]"),
        ("metrics.price_us", "BENCH_eval.json", "test_array_evaluation[medium]"),
    ]
    for metric, file, test in rows:
        recorded = None
        try:
            for entry in json.loads((ROOT / file).read_text())["results"]:
                if entry["name"].endswith(test):
                    recorded = entry["extra_info"]["median_array_us"]
        except (OSError, ValueError, KeyError):
            pass
        value = layer.get(metric)
        print(
            f"  {metric} = {_fmt(value)} us on the searched path; "
            f"{file} {test} median_array_us = {_fmt(recorded)} (cold path"
            f"{', pass plus pricing' if 'eval' in file else ''})"
        )


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # Scratch files (the sqlite stores) stay inside the checkout.
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    tempfile.tempdir = workdir
    os.environ["SQLITE_TMPDIR"] = workdir

    def watchdog(signum, frame):
        raise WatchdogExpired(f"run exceeded {WATCHDOG_SECONDS} s")

    signal.signal(signal.SIGALRM, watchdog)
    signal.alarm(WATCHDOG_SECONDS)
    workload = WORKLOADS[args.workload]
    env = environment(args.workload, args.seed)
    print(f"perfbench {workload.name}: {workload.why}")
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    run = Run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    try:
        run.execute()
    except WatchdogExpired as exc:
        print(f"FAIL {exc}", flush=True)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    untraced = [r for t, r, _ in run.passes if not t]
    print("spread:")
    print_spread("setup_s", run.setup_samples)
    print_spread("design_s", [r.design_s for r in untraced])
    if args.trace:
        import layers

        metrics = run.per_layer()
        units = layers.METRICS
        print("per-layer (median over traced passes; null = not measured):")
        for name, value in metrics.items():
            print(f"  {name} = {_fmt(value)} {units[name]}")
        if args.workload == "matrix-cold":
            print("micro-benchmarks vs the searched path:")
            print_bench_comparison(metrics)
    else:
        metrics = run.end_to_end()
        units = END_TO_END
        for name, value in metrics.items():
            print(f"metric {name} = {_fmt(value)} {units[name]}")
    # A request can fail more than one check; count it once.
    failed = min(len(run.failures), run.attempted)
    print(f"error_rate = {failed / max(run.attempted, 1):.6g} ratio "
          f"({failed} failed of {run.attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            # The result line carries numbers only: a metric the run
            # could not measure (null above) reads 0 here.
            name: {"value": 0 if value is None else value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
