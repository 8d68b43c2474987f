"""Command-line interface tests (driven through main(argv))."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.dtypes import I32
from repro.model import ModelBuilder
from repro.slx import save_model

from conftest import requires_cc


@pytest.fixture
def model_file(tmp_path):
    b = ModelBuilder("CliDemo")
    x = b.inport("X", dtype=I32)
    acc = b.accumulator("Acc", x, dtype=I32)
    b.outport("Y", acc)
    path = tmp_path / "demo.xml"
    save_model(b.build(), path)
    return str(path)


class TestInfo:
    def test_model_file(self, model_file, capsys):
        assert main(["info", model_file]) == 0
        out = capsys.readouterr().out
        assert "CliDemo" in out
        assert "#Actor      : 3" in out

    def test_bench_reference(self, capsys):
        assert main(["info", "bench:SPV"]) == 0
        out = capsys.readouterr().out
        assert "#Actor      : 131" in out
        assert "Solar PV" in out


class TestSimulate:
    def test_sse(self, model_file, capsys):
        assert main(["simulate", model_file, "--engine", "sse",
                     "--steps", "50"]) == 0
        out = capsys.readouterr().out
        assert "50/50 steps" in out
        assert "output Y" in out

    @requires_cc
    def test_accmos_json(self, model_file, capsys):
        assert main(["simulate", model_file, "--engine", "accmos",
                     "--steps", "50", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "accmos"
        assert payload["steps_run"] == 50
        assert "coverage" in payload

    def test_halt_on(self, model_file, capsys):
        assert main(["simulate", model_file, "--engine", "sse",
                     "--steps", "100000", "--seed", "3",
                     "--halt-on", "wrap_on_overflow"]) == 0
        out = capsys.readouterr().out
        # Random +-100 inputs accumulate slowly; halting may or may not
        # trigger in-budget, but the option must parse and run.
        assert "steps" in out

    def test_csv_stimuli(self, model_file, tmp_path, capsys):
        csv = tmp_path / "cases.csv"
        csv.write_text("X\n5\n5\n")
        assert main(["simulate", model_file, "--engine", "sse",
                     "--steps", "4", "--stimuli", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "output Y = 20" in out  # 5*4 accumulated


class TestCodegenCommand:
    def test_writes_file(self, model_file, tmp_path, capsys):
        out_file = tmp_path / "sim.c"
        assert main(["codegen", model_file, "-o", str(out_file)]) == 0
        text = out_file.read_text()
        assert "acc_lib_run_case" in text
        assert "main(" not in text
        assert "CliDemo_Acc" in text

    def test_stdout(self, model_file, capsys):
        """The emitted program is a library: its entry point is
        ``acc_lib_run_case``, and it has no ``main``."""
        assert main(["codegen", model_file]) == 0
        out = capsys.readouterr().out
        assert "int acc_lib_run_case(" in out
        assert "main(" not in out

    @pytest.mark.parametrize("flag", [
        ["--steps", "5"], ["--seed", "3"], ["--stimuli", "cases.csv"],
        ["--time-budget", "1.0"],
    ])
    def test_runtime_flags_rejected(self, model_file, flag, capsys):
        # Stimuli and step budgets arrive per case at run time; they
        # cannot change the one program shape codegen emits.
        with pytest.raises(SystemExit) as excinfo:
            main(["codegen", model_file, *flag])
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_no_coverage_drops_coverage_tables(self, model_file, capsys):
        assert main(["codegen", model_file, "--no-coverage"]) == 0
        assert "cov_actor" not in capsys.readouterr().out


@requires_cc
class TestCompare:
    def test_engines_agree(self, model_file, capsys):
        assert main(["compare", model_file, "--steps", "100",
                     "--engines", "sse", "sse_rac", "accmos"]) == 0
        out = capsys.readouterr().out
        assert out.count("outputs agree") == 2


class TestBenchTable1:
    def test_prints_table(self, capsys):
        assert main(["bench-table1"]) == 0
        out = capsys.readouterr().out
        for name in ("CPUT", "CSEV", "UTPC"):
            assert name in out
        assert "570" in out  # LANS actor count


class TestCampaignScheduler:
    def test_timings_report_stream_scheduler(self, capsys):
        assert main(["campaign", "bench:SPV", "--engine", "sse",
                     "--steps", "300", "--cases", "4", "--patience", "100",
                     "--workers", "2", "--timings"]) == 0
        out = capsys.readouterr().out
        assert "campaign:" in out
        assert "scheduler: stream (thread), window 4, batch 1" in out
        assert "utilization" in out

    def test_scheduler_flag_rejected(self, capsys):
        # One dispatch loop: there is no scheduler to select.
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "bench:SPV", "--engine", "sse",
                  "--steps", "300", "--cases", "4", "--workers", "2",
                  "--scheduler", "wave"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--scheduler" in err

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_mode_flag_rejected(self, mode, capsys):
        # One FIFO stream on worker threads: no pool flavour to pick.
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "bench:SPV", "--engine", "sse",
                  "--steps", "300", "--cases", "4", "--workers", "2",
                  "--mode", mode])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--mode" in err


class TestCacheCli:
    def test_stats_and_clear_explicit_dir(self, tmp_path, capsys):
        cache_dir = tmp_path / "artifacts"
        assert main(["cache", "stats", "--dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries   : 0" in out
        assert main(["cache", "clear", "--dir", str(cache_dir)]) == 0
        assert "cleared 0" in capsys.readouterr().out

    @requires_cc
    def test_campaign_workers_populates_cache(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.runner import cache as cache_mod

        cache_dir = tmp_path / "artifacts"
        monkeypatch.setenv(cache_mod.CACHE_DIR_ENV, str(cache_dir))
        monkeypatch.setattr(cache_mod, "_default_cache", None)
        monkeypatch.setattr(cache_mod, "_default_resolved", False)
        assert main(["campaign", "bench:SPV", "--steps", "300",
                     "--cases", "4", "--patience", "4",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "campaign:" in out
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert str(cache_dir) in out
        # the reusable (stimulus-agnostic) program maps every case of the
        # campaign to one cache key: a single compiled entry serves all 4
        assert "entries   : 1" in out
