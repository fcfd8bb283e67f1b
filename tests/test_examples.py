"""Every shipped example must run end-to-end and print its story."""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    """Import the example as a module and invoke its main()."""
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_classic_mapping(self, capsys):
        out = run_example("classic_mapping.py", capsys)
        assert "Static cyclic schedule" in out
        assert "makespan" in out
        assert "m1" in out and "m3" in out

    def test_design_metrics(self, capsys):
        out = run_example("design_metrics.py", capsys)
        assert "C1P = 0%" in out
        assert "C1P = 100%" in out
        assert "C2P = 0" in out
        assert "C2P = 40" in out

    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "AH:" in out and "MH:" in out and "SA:" in out
        assert "Mapping Heuristic schedule" in out

    def test_engineering_change(self, capsys):
        out = run_example("engineering_change.py", capsys)
        assert "modified ['engine-ctl'] at total cost 3.0" in out

    @pytest.mark.slow
    def test_incremental_design(self, capsys):
        out = run_example("incremental_design.py", capsys)
        assert "mapped futures" in out
        # MH must clearly beat AH on this pinned seed.
        import re

        match = re.search(r"AH: (\d+)/12, MH: (\d+)/12", out)
        assert match is not None
        ah, mh = int(match.group(1)), int(match.group(2))
        assert mh >= ah + 4
        # The budget ladder: a tighter budget never improves the design.
        objectives = [
            float(m)
            for m in re.findall(r"evaluations -> objective\s+([\d.]+)", out)
        ]
        assert len(objectives) == 3
        assert objectives == sorted(objectives)

    def test_portfolio_search(self, capsys):
        out = run_example("portfolio_search.py", capsys)
        assert "<-- winner" in out
        assert "shared-budget" in out
        assert "cut+resume == uninterrupted: True" in out

    @pytest.mark.slow
    def test_future_proofing_sweep(self, capsys):
        out = run_example("future_proofing_sweep.py", capsys)
        assert "t_need" in out
        assert "MH obj" in out


def docstring_code_block(doc: str, marker: str) -> str:
    """The indented literal block that follows ``marker::`` in ``doc``."""
    lines = doc.split(marker + "::", 1)[1].splitlines()[1:]
    block = []
    for line in lines:
        if line.strip() and not line.startswith("    "):
            break
        block.append(line[4:])
    return "\n".join(block).strip() + "\n"


class TestPackageDocstring:
    def test_quickstart_block_runs(self, capsys):
        import repro

        code = docstring_code_block(repro.__doc__, "Quickstart")
        assert "design_application" in code
        exec(compile(code, "<repro quickstart>", "exec"), {})
        out = capsys.readouterr().out
        assert "C1P=" in out and "C=" in out, out
