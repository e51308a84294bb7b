"""The experiment plumbing: ExperimentResult and the CLI entry point."""

import json

import pytest

from repro import MIB, Machine
from repro.bench.runner import ExperimentResult, print_result
from repro.bench.__main__ import EXPERIMENTS, main
from repro.core.machine import fastpath_census


@pytest.fixture
def result():
    return ExperimentResult(
        exp_id="figX",
        title="Example",
        headers=["name", "value", "paper"],
        rows=[["alpha", 1.5, 2.0], ["beta", 3.0, 3.1]],
        notes="demo",
    )


class TestExperimentResult:
    def test_render_contains_everything(self, result):
        text = result.render()
        assert "[figX] Example" in text
        assert "alpha" in text and "beta" in text
        assert "note: demo" in text

    def test_column(self, result):
        assert result.column("value") == [1.5, 3.0]
        with pytest.raises(ValueError):
            result.column("missing")

    def test_row_map(self, result):
        rows = result.row_map("name")
        assert rows["alpha"][1] == 1.5

    def test_print_result_returns_result(self, result, capsys):
        assert print_result(result) is result
        assert "figX" in capsys.readouterr().out


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig7" in out and "table4" in out
        # Every paper table/figure is runnable from the CLI.
        for exp_id in ("fig2", "fig3", "fig4", "fig8", "fig9", "fig10",
                       "table1", "table2", "table3", "table5", "table6_7"):
            assert exp_id in out

    def test_unknown_id_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_runs_one_experiment(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "compound_head" in out
        assert "regenerated" in out

    def test_json_counts_fast_path_engagement(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["table1", "--json", str(out)]) == 0
        assert "[fastpath] Fast-path engagement" in capsys.readouterr().out
        table = next(t for t in json.loads(out.read_text())
                     if t["exp_id"] == "fastpath")
        assert table["headers"] == ["experiment", "fill_engaged",
                                    "fork_engaged", "exit_engaged", "bailed"]
        assert table["rows"] == [["table1", 1024, 20, 33, 0]]
        assert table["notes"] == "no bails"

    def test_registry_complete(self):
        # 13 paper experiments + fig2-concurrent + fig7-numa +
        # 3 ablations + 6 extensions + the fleet sweep + the faas farm.
        assert len(EXPERIMENTS) == 26


class TestFastpathCensus:
    def test_sums_every_machine_built_in_the_block(self):
        with fastpath_census() as counts:
            for fastpath in (True, False):
                machine = Machine(phys_mb=64, fastpath=fastpath)
                proc = machine.spawn_process("p")
                buf = proc.mmap(4 * MIB)
                proc.touch_range(buf, 4 * MIB, write=True)
                proc.fork()
        Machine(phys_mb=64).spawn_process("outside").fork()
        assert counts["fork_engaged"] == 1
        assert counts["fork_bailed.disabled"] == 1
        assert counts["fill_engaged"] == 2
        assert counts["fill_bailed.disabled"] == 2
