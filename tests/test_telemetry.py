"""Telemetry: spans, metrics, profiler, exporters, CLI wiring."""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.dtypes import I32
from repro.engines.base import SimulationOptions
from repro.engines.sse import run_sse
from repro.model import ModelBuilder
from repro.runner import ArtifactCache, SimulationJob, run_jobs
from repro.schedule import preprocess
from repro.stimuli import default_stimuli
from repro.telemetry import (
    MetricsRegistry,
    SseProfiler,
    Tracer,
    cache_hit_ratio,
    chrome_trace,
    render_tree,
)

from conftest import requires_cc


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    telemetry.disable()
    yield
    telemetry.disable()


def _prog(name="Tele"):
    b = ModelBuilder(name)
    x = b.inport("X", dtype=I32)
    acc = b.accumulator("Acc", x, dtype=I32)
    b.outport("Y", acc)
    return preprocess(b.build())


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_and_attrs(self):
        tracer = Tracer()
        with tracer.span("outer", model="M") as outer:
            with tracer.span("inner") as inner:
                inner.set(key=1)
        spans = tracer.finished()
        assert [s.name for s in spans] == ["inner", "outer"]
        by_name = {s.name: s for s in spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        assert by_name["outer"].attrs == {"model": "M"}
        assert by_name["inner"].attrs == {"key": 1}
        assert all(s.duration >= 0 for s in spans)

    def test_exception_recorded_and_stack_unwound(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (span,) = tracer.finished()
        assert span.attrs["error"] == "ValueError"
        assert tracer.current() is None

    def test_adopt_makes_foreign_span_the_parent(self):
        tracer = Tracer()
        with tracer.span("dispatch") as dispatch:
            dispatch_id = dispatch.span_id
        with tracer.adopt(dispatch_id):
            with tracer.span("job"):
                pass
        job = [s for s in tracer.finished() if s.name == "job"][0]
        assert job.parent_id == dispatch_id

    def test_render_tree_indents_children(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        text = render_tree(tracer.finished())
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert lines[1].startswith("  b")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 4)
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 2.5)
        reg.observe("h", 1.0)
        reg.observe("h", 3.0)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5
        hist = snap["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["sum"] == 4.0
        assert (hist["min"], hist["max"]) == (1.0, 3.0)

    def test_cache_hit_ratio(self):
        assert cache_hit_ratio({"counters": {}}) is None
        snap = {"counters": {"cache.hits": 3, "cache.misses": 1}}
        assert cache_hit_ratio(snap) == pytest.approx(0.75)


# ----------------------------------------------------------------------
# disabled mode is a true no-op
# ----------------------------------------------------------------------
class TestDisabledNoOp:
    def test_hooks_degrade_to_nothing(self):
        assert telemetry.active() is None
        assert telemetry.span("x") is telemetry.NULL_SPAN
        assert telemetry.current_span() is None
        assert telemetry.sse_profiler() is None
        telemetry.counter_inc("c")
        telemetry.gauge_set("g", 1.0)
        telemetry.observe("h", 1.0)  # all silently dropped
        with telemetry.span("x") as sp:
            assert sp.set(a=1) is sp

    def test_sse_results_identical_disabled_vs_enabled(self):
        prog = _prog()
        stimuli = default_stimuli(prog, seed=7)
        options = SimulationOptions(steps=200)
        baseline = run_sse(prog, stimuli, options)
        with telemetry.capture(profile_sse=True, sample_interval=1):
            traced = run_sse(prog, stimuli, options)
        again = run_sse(prog, stimuli, options)
        for other in (traced, again):
            assert other.checksums == baseline.checksums
            assert other.outputs == baseline.outputs
            assert other.steps_run == baseline.steps_run
            assert [str(e) for e in other.diagnostics] == [
                str(e) for e in baseline.diagnostics
            ]

    @requires_cc
    def test_accmos_results_identical_disabled_vs_enabled(self, tmp_path):
        from repro.engines.accmos import run_accmos

        prog = _prog()
        stimuli = default_stimuli(prog, seed=7)
        options = SimulationOptions(steps=200)
        cache = ArtifactCache(tmp_path / "cache")
        baseline = run_accmos(prog, stimuli, options, cache=cache)
        with telemetry.capture():
            traced = run_accmos(prog, stimuli, options, cache=cache)
        assert traced.checksums == baseline.checksums
        assert traced.outputs == baseline.outputs


# ----------------------------------------------------------------------
# pipeline spans
# ----------------------------------------------------------------------
class TestPipelineSpans:
    def test_preprocess_and_sse_spans(self):
        with telemetry.capture() as session:
            prog = _prog()
            run_sse(
                prog, default_stimuli(prog, seed=1),
                SimulationOptions(steps=50),
            )
        names = [s.name for s in session.tracer.finished()]
        assert "preprocess" in names
        assert "sse.run" in names
        snap = session.metrics.snapshot()
        assert snap["counters"]["engine.sse.runs"] == 1
        assert snap["counters"]["engine.sse.steps"] == 50
        assert "engine.sse.steps_per_sec" in snap["histograms"]

    @requires_cc
    def test_accmos_span_tree(self, tmp_path):
        from repro.engines.accmos import run_accmos

        with telemetry.capture() as session:
            prog = _prog()
            run_accmos(
                prog, default_stimuli(prog, seed=1),
                SimulationOptions(steps=50),
                cache=ArtifactCache(tmp_path / "cache"),
            )
        spans = session.tracer.finished()
        by_name = {s.name: s for s in spans}
        run = by_name["accmos.run"]
        for phase in ("instrument", "codegen", "compile", "accmos.stream"):
            assert by_name[phase].parent_id == run.span_id, phase
        # The program's gcc runs under compile; the host's (built on the
        # first spawn of the run's private host) under server.spawn.
        gcc = {s.attrs["artifact"]: s for s in spans if s.name == "gcc"}
        assert gcc["shared"].parent_id == by_name["compile"].span_id
        spawn = by_name["server.spawn"]
        assert gcc["host"].parent_id == spawn.span_id
        assert spawn.parent_id == run.span_id
        snap = session.metrics.snapshot()
        assert snap["counters"]["cache.misses"] == 1

    def test_thread_pool_spans_nest_under_dispatch(self):
        prog = _prog()
        jobs = [
            SimulationJob(prog=prog, seed=s, engine="sse",
                          options=SimulationOptions(steps=20))
            for s in (1, 2, 3)
        ]
        with telemetry.capture() as session:
            results = run_jobs(jobs, threads=2, cache=False)
        assert all(r.ok for r in results)
        spans = session.tracer.finished()
        pool = [s for s in spans if s.name == "runner.run_jobs"][0]
        job_spans = [s for s in spans if s.name == "runner.job"]
        assert len(job_spans) == 3
        assert all(s.parent_id == pool.span_id for s in job_spans)
        job_ids = {s.span_id for s in job_spans}
        sse_spans = [s for s in spans if s.name == "sse.run"]
        assert all(s.parent_id in job_ids for s in sse_spans)

    def test_pool_spans_and_metrics_land_in_the_session(self):
        prog = _prog()
        jobs = [
            SimulationJob(prog=prog, seed=s, engine="sse",
                          options=SimulationOptions(steps=20))
            for s in (1, 2)
        ]
        with telemetry.capture() as session:
            results = run_jobs(jobs, threads=2, cache=False)
        assert all(r.ok for r in results)
        spans = session.tracer.finished()
        pool = [s for s in spans if s.name == "runner.run_jobs"][0]
        job_spans = [s for s in spans if s.name == "runner.job"]
        assert len(job_spans) == 2
        assert all(s.parent_id == pool.span_id for s in job_spans)
        # Every job records into the one process-wide session.
        assert all(s.pid == pool.pid for s in job_spans)
        snap = session.metrics.snapshot()
        assert snap["counters"]["engine.sse.runs"] == 2
        assert snap["counters"]["runner.jobs.ok"] == 2

    @requires_cc
    def test_pool_workers_share_one_cache_handle(self, tmp_path):
        prog = _prog()
        cache = ArtifactCache(tmp_path / "cache")
        jobs = [
            SimulationJob(prog=prog, seed=s,
                          options=SimulationOptions(steps=20))
            for s in (1, 2)
        ]
        results = run_jobs(jobs, threads=1, cache=cache)
        assert all(r.ok for r in results)
        # Every chunk (one per job at one thread, batch 1) looked the
        # artifact up through this handle.
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 1)


# ----------------------------------------------------------------------
# profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_table_orders_hottest_first_and_merges(self):
        p = SseProfiler(1)
        p.add_run({"Gain": 0.3, "Sum": 0.7}, {"Gain": 3, "Sum": 7}, 10)
        q = SseProfiler(1)
        q.add_run({"Sum": 0.3}, {"Sum": 3}, 5)
        p.merge(q.snapshot())
        table = p.table()
        assert [row[0] for row in table] == ["Sum", "Gain"]
        sum_row = table[0]
        assert sum_row[1] == 10  # calls
        assert sum_row[2] == pytest.approx(1.0)  # seconds
        assert sum_row[3] == pytest.approx(1.0 / 1.3)  # share
        assert "Sum" in p.render()

    def test_sse_run_populates_hot_actor_table(self):
        prog = _prog()
        with telemetry.capture(profile_sse=True, sample_interval=1) as session:
            run_sse(
                prog, default_stimuli(prog, seed=1),
                SimulationOptions(steps=30),
            )
        table = session.profiler.table()
        assert table, "sampling every step must attribute some time"
        block_types = {row[0] for row in table}
        assert "Accumulator" in block_types
        assert session.profiler.snapshot()["sampled_steps"] == 30


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExporters:
    def _traced_session(self):
        with telemetry.capture() as session:
            prog = _prog()
            run_sse(
                prog, default_stimuli(prog, seed=1),
                SimulationOptions(steps=25),
            )
        return session

    def test_chrome_trace_round_trips_through_json(self, tmp_path):
        session = self._traced_session()
        spans = session.tracer.finished()
        target = tmp_path / "t.json"
        n = telemetry.write_chrome_trace(spans, target)
        assert n == len(spans)
        trace = json.loads(target.read_text())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert {e["name"] for e in events} == {s.name for s in spans}
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] > 0
            assert isinstance(event["ts"], float)
            assert "span_id" in event["args"]

    def test_spans_jsonl_round_trip(self, tmp_path):
        session = self._traced_session()
        spans = session.tracer.finished()
        target = tmp_path / "spans.jsonl"
        telemetry.write_spans_jsonl(spans, target)
        lines = target.read_text().splitlines()
        assert len(lines) == len(spans)
        decoded = [json.loads(line) for line in lines]
        assert {d["name"] for d in decoded} == {s.name for s in spans}

    def test_metrics_text_and_persistence(self, tmp_path):
        session = self._traced_session()
        snap = session.snapshot()
        text = telemetry.metrics_to_text(snap)
        assert "engine.sse.runs" in text
        target = tmp_path / "metrics.json"
        assert telemetry.save_metrics(snap, target) == target
        assert telemetry.load_metrics(target) == json.loads(
            json.dumps(snap)
        )
        assert telemetry.load_metrics(tmp_path / "missing.json") is None


# ----------------------------------------------------------------------
# campaign timings
# ----------------------------------------------------------------------
class TestCampaignTimings:
    def test_cases_carry_phase_timings(self):
        from repro.campaign import run_campaign

        outcome = run_campaign(
            _prog(), engine="sse", steps=30, max_cases=3,
            plateau_patience=5, cache=False,
        )
        assert outcome.cases
        for case in outcome.cases:
            assert case.timings["execute"] > 0
            assert case.cache_hit is False


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    @pytest.fixture()
    def model_file(self, tmp_path):
        from repro.slx import save_model

        b = ModelBuilder("TeleCli")
        x = b.inport("X", dtype=I32)
        acc = b.accumulator("Acc", x, dtype=I32)
        b.outport("Y", acc)
        path = tmp_path / "tele.xml"
        save_model(b.build(), str(path))
        return str(path)

    @pytest.fixture()
    def metrics_file(self, tmp_path, monkeypatch):
        target = tmp_path / "metrics.json"
        monkeypatch.setenv("ACCMOS_METRICS_FILE", str(target))
        return target

    def test_simulate_trace_flag(self, model_file, tmp_path, metrics_file,
                                 capsys):
        from repro.cli import main

        trace_file = tmp_path / "t.json"
        rc = main(["simulate", model_file, "--engine", "sse",
                   "--steps", "25", "--trace", str(trace_file)])
        assert rc == 0
        trace = json.loads(trace_file.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"preprocess", "sse.run"} <= names
        assert metrics_file.exists()
        assert telemetry.active() is None  # CLI disabled it again

    def test_metrics_show_and_clear(self, model_file, tmp_path, metrics_file,
                                    capsys):
        from repro.cli import main

        assert main(["metrics"]) == 1  # nothing recorded yet
        capsys.readouterr()
        main(["simulate", model_file, "--engine", "sse", "--steps", "10",
              "--trace", str(tmp_path / "t.json")])
        capsys.readouterr()
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "engine.sse.runs" in out
        assert main(["metrics", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["engine.sse.runs"] == 1
        assert main(["metrics", "clear"]) == 0
        assert not metrics_file.exists()
        assert main(["metrics"]) == 1

    def test_trace_command_prints_span_tree(self, model_file, tmp_path,
                                            metrics_file, capsys):
        from repro.cli import main

        trace_file = tmp_path / "t.json"
        rc = main(["trace", model_file, "--engine", "sse", "--steps", "25",
                   "-o", str(trace_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sse.run" in out
        assert "preprocess" in out
        assert trace_file.exists()

    def test_campaign_timings_flag(self, model_file, capsys):
        from repro.cli import main

        rc = main(["campaign", model_file, "--engine", "sse",
                   "--steps", "20", "--cases", "2", "--patience", "5",
                   "--timings"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-phase timings" in out
        assert "execute" in out
