"""Tests for the experiments CLI."""

import pytest

from repro.experiments.cli import _nonnegative_int, _rate_cell, main


class TestRateCell:
    """Regression: zero-candidate runs must render '-', not divide."""

    def test_normal_ratio(self):
        assert _rate_cell(1, 4) == "25.0%"

    def test_zero_denominator_renders_dash(self):
        assert _rate_cell(0, 0) == "-"
        assert _rate_cell(5, 0) == "-"

    def test_negative_denominator_renders_dash(self):
        assert _rate_cell(1, -3) == "-"

    def test_nonnegative_int_accepts_zero(self):
        assert _nonnegative_int("0") == 0
        assert _nonnegative_int("7") == 7

    def test_nonnegative_int_rejects_negative(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _nonnegative_int("-1")


class TestCli:
    def test_fig_quality_runs(self, capsys):
        code = main(
            [
                "fig-quality",
                "--sizes", "5",
                "--seeds", "1",
                "--existing", "10",
                "--sa-iterations", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slide 15" in out

    def test_fig_future_runs(self, capsys):
        code = main(
            [
                "fig-future",
                "--sizes", "5",
                "--seeds", "1",
                "--existing", "10",
            ]
        )
        assert code == 0
        assert "slide 17" in capsys.readouterr().out

    def test_all_runs_everything(self, capsys):
        code = main(
            [
                "all",
                "--sizes", "5",
                "--seeds", "1",
                "--existing", "10",
                "--sa-iterations", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slide 15" in out and "slide 16" in out and "slide 17" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig-everything"])

    def test_verbose_progress(self, capsys):
        main(
            [
                "fig-runtime",
                "--sizes", "5",
                "--seeds", "1",
                "--existing", "10",
                "--sa-iterations", "20",
                "-v",
            ]
        )
        assert "size=5" in capsys.readouterr().out


class TestScenariosCli:
    def test_list_shows_at_least_five_families(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        from repro.gen import families

        names = families.family_names()
        assert len(names) >= 5
        for name in names:
            assert name in out

    def test_describe_family(self, capsys):
        assert main(["scenarios", "describe", "hetero-speed"]) == 0
        out = capsys.readouterr().out
        assert "hetero-speed" in out
        assert "tiny" in out

    def test_describe_unknown_family_raises(self, capsys):
        # Checked at parse time like ``run``: exit 2 with one line that
        # lists the valid families, no traceback.
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", "describe", "no-such-family"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        line = err.strip().splitlines()[-1]
        assert "unknown family 'no-such-family'" in line
        assert "uniform-baseline" in line and "pipeline" in line

    def test_run_family(self, capsys):
        code = main(
            [
                "scenarios", "run", "bursty",
                "--seed", "2",
                "--sa-iterations", "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bursty" in out
        for strategy in ("AH", "MH", "SA"):
            assert strategy in out

    def test_run_can_save_scenario(self, capsys, tmp_path):
        from repro.serialize.scenario_codec import load_scenario

        path = tmp_path / "scenario.json"
        code = main(
            [
                "scenarios", "run", "uniform-baseline",
                "--strategies", "AH",
                "--save", str(path),
            ]
        )
        assert code == 0
        scenario = load_scenario(path)
        assert scenario.params.n_current == 5

    def test_sweep_prints_matrix(self, capsys):
        code = main(
            [
                "scenarios", "sweep",
                "--families", "uniform-baseline",
                "--strategies", "AH", "MH",
                "--sa-iterations", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stress matrix" in out
        assert "off" in out and "on" in out

    def test_smoke_single_family(self, capsys):
        code = main(
            [
                "scenarios", "smoke",
                "--families", "forkjoin",
                "--sa-iterations", "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "forkjoin" in out and "ok" in out

    def test_scenarios_requires_action(self):
        with pytest.raises(SystemExit):
            main(["scenarios"])

    def test_run_with_zero_budget_renders_dashes(self, capsys):
        """Regression: a run cut by ``--budget-evals 0`` reports zero
        probes and must print '-' rate cells instead of dividing."""
        code = main(
            [
                "scenarios", "run", "uniform-baseline",
                "--strategies", "MH",
                "--budget-evals", "0",
            ]
        )
        assert code == 0
        assert "-" in capsys.readouterr().out

    def test_budget_evals_rejects_negative(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "scenarios", "run", "uniform-baseline",
                    "--strategies", "MH",
                    "--budget-evals", "-1",
                ]
            )


class TestStoreCli:
    def test_run_with_sqlite_store_prints_store_stats(
        self, capsys, tmp_path
    ):
        args = [
            "scenarios", "run", "uniform-baseline",
            "--strategies", "MH",
            "--cache-store", "sqlite",
            "--cache-path", str(tmp_path / "store.sqlite"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "store hits" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "store hits" in warm

    def test_smoke_warm_store_gate(self, capsys, tmp_path):
        """The CI determinism gate: a second smoke run against a warm
        store must clear --min-store-hit-rate and reproduce the same
        design fingerprints byte-for-byte."""
        path = str(tmp_path / "smoke.sqlite")
        base = [
            "scenarios", "smoke",
            "--families", "forkjoin",
            "--sa-iterations", "30",
            "--cache-store", "sqlite",
            "--cache-path", path,
        ]
        assert main(base) == 0
        cold = capsys.readouterr().out
        assert main(base + ["--min-store-hit-rate", "0.9"]) == 0
        warm = capsys.readouterr().out

        def fingerprints(out):
            lines = iter(out.splitlines())
            block = []
            for line in lines:
                if line.strip() == "design fingerprints:":
                    for entry in lines:
                        if not entry.startswith(" "):
                            break
                        block.append(entry.strip())
                    break
            return block

        cold_prints = fingerprints(cold)
        assert cold_prints, "no fingerprint block in smoke output"
        assert fingerprints(warm) == cold_prints

    def test_smoke_cold_store_fails_hit_rate_gate(self, capsys, tmp_path):
        """A cold store cannot clear the warm-restart gate -- the CLI
        must exit non-zero, loudly."""
        code = main(
            [
                "scenarios", "smoke",
                "--families", "forkjoin",
                "--sa-iterations", "30",
                "--cache-store", "sqlite",
                "--cache-path", str(tmp_path / "cold.sqlite"),
                "--min-store-hit-rate", "0.9",
            ]
        )
        assert code == 1

    def test_sqlite_store_requires_path(self, capsys):
        code = main(
            [
                "scenarios", "run", "uniform-baseline",
                "--strategies", "MH",
                "--cache-store", "sqlite",
            ]
        )
        assert code == 2
        assert "requires --cache-path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["fig-quality"],
            ["fig-runtime"],
            ["fig-future"],
            ["all"],
            ["scenarios", "run", "uniform-baseline"],
        ],
        ids=lambda command: " ".join(command),
    )
    def test_every_command_rejects_sqlite_without_path(self, capsys, command):
        """The engine config is built once, before any command runs: a
        sqlite store without a path is one line on stderr and exit 2."""
        code = main(command + ["--cache-store", "sqlite"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "requires --cache-path" in lines[0]


class TestNumericFlags:
    """Numeric flags are validated at parse time: exit 2 with a precise
    message instead of a traceback (or, for NaN, a silently ignored
    budget or gate)."""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--sa-iterations", "-5", "expected a non-negative integer"),
            ("--budget-seconds", "-1", "finite non-negative number of seconds"),
            ("--budget-seconds", "nan", "finite non-negative number of seconds"),
            ("--budget-seconds", "inf", "finite non-negative number of seconds"),
        ],
    )
    def test_run_rejects(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", "run", "uniform-baseline", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and message in err

    @pytest.mark.parametrize("command", ["fig-quality", "portfolio", "sweep"])
    def test_every_subcommand_rejects_nan_seconds(self, capsys, command):
        argv = (
            [command]
            if command.startswith("fig")
            else ["scenarios", command]
            + (["uniform-baseline"] if command == "portfolio" else [])
        )
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--budget-seconds", "nan"])
        assert exc.value.code == 2
        assert "finite non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-0.1", "1.5"])
    def test_min_store_hit_rate_must_be_a_rate(self, capsys, tmp_path, value):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "scenarios", "smoke",
                    "--cache-store", "sqlite",
                    "--cache-path", str(tmp_path / "s.sqlite"),
                    "--min-store-hit-rate", value,
                ]
            )
        assert exc.value.code == 2
        assert "expected a rate between 0 and 1" in capsys.readouterr().err

    def test_min_store_hit_rate_requires_sqlite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", "smoke", "--min-store-hit-rate", "0.9"])
        assert exc.value.code == 2
        assert (
            "--min-store-hit-rate requires --cache-store sqlite"
            in capsys.readouterr().err
        )


class TestNameFlags:
    """Family, preset and strategy names are checked at parse time: exit
    2 with a one-line message listing the valid choices, instead of a
    traceback from deep in the run."""

    @staticmethod
    def _rejects(capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err.strip().splitlines()[-1]

    def test_run_unknown_family(self, capsys):
        line = self._rejects(capsys, ["scenarios", "run", "nosuch"])
        assert "unknown family 'nosuch'" in line
        assert "uniform-baseline" in line and "pipeline" in line

    def test_portfolio_unknown_family(self, capsys):
        line = self._rejects(capsys, ["scenarios", "portfolio", "nosuch"])
        assert "unknown family 'nosuch'" in line

    def test_sweep_unknown_family(self, capsys):
        line = self._rejects(
            capsys, ["scenarios", "sweep", "--families", "nosuch"]
        )
        assert "unknown family 'nosuch'" in line and "bursty" in line

    def test_smoke_unknown_family(self, capsys):
        line = self._rejects(
            capsys, ["scenarios", "smoke", "--families", "nosuch"]
        )
        assert "unknown family 'nosuch'" in line and "bursty" in line

    def test_run_unknown_preset(self, capsys):
        line = self._rejects(
            capsys, ["scenarios", "run", "uniform-baseline", "--preset", "nope"]
        )
        assert "--preset 'nope'" in line
        assert "tiny, small, medium" in line

    def test_sweep_unknown_preset(self, capsys):
        line = self._rejects(
            capsys,
            ["scenarios", "sweep", "--families", "pipeline", "--preset", "nope"],
        )
        assert "--preset 'nope'" in line and "pipeline" in line

    def test_portfolio_unknown_strategy(self, capsys):
        line = self._rejects(
            capsys,
            ["scenarios", "portfolio", "uniform-baseline",
             "--strategies", "MH", "XX"],
        )
        assert "unknown strategy 'XX'" in line
        assert "AH, MH, SA or SA@k" in line

    def test_portfolio_bad_variant(self, capsys):
        line = self._rejects(
            capsys,
            ["scenarios", "portfolio", "uniform-baseline",
             "--strategies", "SA@0"],
        )
        assert "unknown strategy 'SA@0'" in line

    def test_run_variant_of_deterministic_strategy(self, capsys):
        line = self._rejects(
            capsys,
            ["scenarios", "run", "uniform-baseline", "--strategies", "MH@2"],
        )
        assert "unknown strategy 'MH@2'" in line

    def test_jobs_flag_is_gone(self, capsys):
        line = self._rejects(
            capsys, ["scenarios", "run", "uniform-baseline", "--jobs", "2"]
        )
        assert "unrecognized arguments: --jobs 2" in line


class TestPortfolioCli:
    @staticmethod
    def _member_rows(out):
        """The member table as ``{member: {column: cell}}``."""
        lines = out.splitlines()
        start = next(
            i for i, line in enumerate(lines) if line.startswith("member ")
        )
        headers = [h.strip() for h in lines[start].split("|")]
        rows = {}
        for line in lines[start + 2:]:
            if "|" not in line:
                break
            cells = [c.strip() for c in line.split("|")]
            rows[cells[0]] = dict(zip(headers, cells))
        return rows

    @pytest.mark.parametrize("shards", ["0", "2"])
    def test_member_table_reports_member_times(self, capsys, shards):
        """Every member that evaluated shows its own non-zero runtime,
        scheduling and metric time, in-process and sharded."""
        code = main(
            [
                "scenarios", "portfolio", "uniform-baseline",
                "--strategies", "AH", "MH", "SA",
                "--sa-iterations", "40",
                "--shards", shards,
            ]
        )
        assert code == 0
        rows = self._member_rows(capsys.readouterr().out)
        assert set(rows) == {"AH", "MH", "SA"}
        evaluated = [r for r in rows.values() if int(r["evals served"]) > 0]
        assert len(evaluated) == 2
        for row in evaluated:
            for column in ("runtime s", "sched ms", "metrics ms"):
                assert float(row[column]) > 0, (row["member"], column)

    def test_check_determinism_runs_the_oracle(self, capsys):
        code = main(
            [
                "scenarios", "portfolio", "uniform-baseline",
                "--strategies", "MH", "SA",
                "--sa-iterations", "40",
                "--check-determinism",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "determinism checks passed (oracle, repeat" in out
