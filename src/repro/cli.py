"""Command-line front end.

::

    accmos info model.xml                 # Table-1-style model statistics
    accmos simulate model.xml [options]   # run any engine on a model file
    accmos coverage model.xml [options]   # detailed coverage listing
    accmos campaign model.xml [options]   # seed-sweep test campaign
    accmos codegen model.xml -o sim.c     # emit the instrumented C source
    accmos compare model.xml [options]    # run several engines, check agreement
    accmos convert model.xml -o m.json    # native XML <-> generic JSON IR
    accmos trace model.xml -o t.json      # traced run -> Chrome trace + tree
    accmos metrics [show|clear]           # inspect the last traced run
    accmos bench-table1                   # print the benchmark inventory
    accmos cache stats|clear              # compiled-artifact cache admin
    accmos fuzz [--guided]                # differential fuzzing campaign
    accmos corpus stats|replay DIR        # guided-fuzz corpus admin
    accmos demo                           # Figure-1 motivating demo

Benchmark models can be addressed as ``bench:NAME`` (e.g. ``bench:CSEV``)
anywhere a model file is expected.  ``simulate`` and ``campaign`` accept
``--trace FILE`` to record a Chrome ``trace_event`` timeline of the run
(open in chrome://tracing or Perfetto); traced runs also persist a
metrics snapshot that ``accmos metrics`` reads back.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from repro.benchmarks import TABLE1, build_benchmark
from repro.benchmarks.motivating import build_motivating_model, motivating_stimuli
from repro.campaign import CampaignConfig
from repro.diagnosis.events import DiagnosticKind
from repro.engines import ENGINES, SimulationOptions, simulate
from repro.model.model import Model
from repro.schedule import preprocess
from repro.slx import load_model
from repro.stimuli import default_stimuli, load_csv


def _load(spec: str) -> Model:
    if spec.startswith("bench:"):
        return build_benchmark(spec[len("bench:"):])
    if spec.endswith(".json"):
        from repro.slx import load_generic

        return load_generic(spec)
    return load_model(spec)


def _stimuli_for(args, prog):
    if getattr(args, "stimuli", None):
        return load_csv(args.stimuli).to_stimuli()
    return default_stimuli(prog, seed=getattr(args, "seed", 1))


def _options_from(args) -> SimulationOptions:
    halt_on = None
    if getattr(args, "halt_on", None):
        halt_on = frozenset(DiagnosticKind(k) for k in args.halt_on)
    return SimulationOptions(
        steps=getattr(args, "steps", SimulationOptions.steps),
        coverage=not getattr(args, "no_coverage", False),
        diagnostics=not getattr(args, "no_diagnostics", False),
        halt_on=halt_on,
        time_budget=getattr(args, "time_budget", None),
    )


@contextmanager
def _traced(args):
    """Enable telemetry around a command when --trace/--profile ask for it.

    On exit the Chrome trace is written, the metrics snapshot persisted
    for a later ``accmos metrics``, and (with --profile) the SSE
    hot-actor table printed.  Notes go to stderr so ``--json`` stdout
    stays machine-readable.
    """
    trace_file = getattr(args, "trace", None)
    profile = getattr(args, "profile", False)
    if not trace_file and not profile:
        yield None
        return
    from repro import telemetry

    session = telemetry.enable(profile_sse=profile)
    try:
        yield session
    finally:
        telemetry.disable()
        if trace_file:
            n = telemetry.write_chrome_trace(
                session.tracer.finished(), trace_file
            )
            print(f"trace: {n} span(s) -> {trace_file}", file=sys.stderr)
        saved = telemetry.save_metrics(session.snapshot())
        if saved is not None:
            print(f"metrics snapshot -> {saved}", file=sys.stderr)
        if profile and session.profiler is not None:
            print(session.profiler.render(), file=sys.stderr)


def _print_result(result, as_json: bool) -> None:
    if as_json:
        payload = {
            "engine": result.engine,
            "model": result.model_name,
            "steps_run": result.steps_run,
            "wall_time": result.wall_time,
            "outputs": {k: repr(v) for k, v in result.outputs.items()},
            "checksums": {k: f"{v:#x}" for k, v in result.checksums.items()},
            "halted_at": result.halted_at,
            "diagnostics": [str(e) for e in result.diagnostics],
        }
        if result.coverage:
            payload["coverage"] = {
                m.value: round(result.coverage.percent(m), 2)
                for m in result.coverage.metrics
            }
        print(json.dumps(payload, indent=2))
        return
    print(result.summary())
    for name, value in result.outputs.items():
        print(f"  output {name} = {value!r}")
    if result.halted_at is not None:
        print(f"  halted at step {result.halted_at}")
    for event in result.diagnostics:
        print(f"  {event}")


def cmd_info(args) -> int:
    model = _load(args.model)
    prog = preprocess(model)
    print(f"Model       : {model.name}")
    if model.description:
        print(f"Description : {model.description}")
    print(f"#Actor      : {model.n_actors}")
    print(f"#SubSystem  : {model.n_subsystems}")
    print(f"Flat actors : {len(prog.actors)} (executable)")
    print(f"Signals     : {len(prog.signals)}")
    print(f"Guards      : {len(prog.guards)} (enabled subsystems)")
    print(f"Data stores : {len(prog.stores)}")
    print(f"Inports     : {', '.join(b.name for b in prog.inports) or '-'}")
    print(f"Outports    : {', '.join(b.name for b in prog.outports) or '-'}")
    histogram = model.block_type_histogram()
    top = sorted(histogram.items(), key=lambda kv: -kv[1])[:12]
    print("Top block types:")
    for block_type, count in top:
        print(f"  {block_type:24s} {count}")
    return 0


def cmd_simulate(args) -> int:
    with _traced(args):
        model = _load(args.model)
        prog = preprocess(model, dt=args.dt)
        result = simulate(
            prog,
            _stimuli_for(args, prog),
            engine=args.engine,
            options=_options_from(args),
        )
    _print_result(result, args.json)
    return 0


def cmd_codegen(args) -> int:
    from repro.codegen import generate_reusable_c_program
    from repro.instrument import build_plan

    model = _load(args.model)
    prog = preprocess(model, dt=args.dt)
    options = _options_from(args)
    plan = build_plan(
        prog, coverage=options.coverage, diagnostics=options.diagnostics
    )
    source, _ = generate_reusable_c_program(prog, plan, options)
    if args.output == "-":
        sys.stdout.write(source)
    else:
        with open(args.output, "w") as fh:
            fh.write(source)
        print(f"wrote {source.count(chr(10)) + 1} lines to {args.output}")
    return 0


def cmd_compare(args) -> int:
    model = _load(args.model)
    prog = preprocess(model, dt=args.dt)
    options = _options_from(args)
    reference = None
    agree = True
    for engine in args.engines:
        result = simulate(prog, _stimuli_for(args, prog), engine=engine, options=options)
        line = f"{engine:8s} {result.wall_time:10.4f}s  steps={result.steps_run}"
        if reference is None:
            reference = result
        else:
            same = result.checksums == reference.checksums
            agree &= same
            line += "  " + ("outputs agree" if same else "OUTPUTS DIFFER")
        print(line)
    if not agree:
        print("engines disagree", file=sys.stderr)
        return 1
    return 0


def _print_timings(cases) -> None:
    """Per-phase wall-time breakdown, one row per campaign case."""
    from repro.runner.jobs import PHASES

    phases = [p for p in PHASES if any(p in c.timings for c in cases)]
    print("per-phase timings (seconds):")
    print(f"{'case':>5s} {'seed':>6s}"
          + "".join(f" {p:>10s}" for p in phases)
          + f" {'total':>10s} {'cache':>6s}")
    for i, case in enumerate(cases):
        row = f"{i + 1:5d} {case.seed:6d}"
        for p in phases:
            row += f" {case.timings.get(p, 0.0):10.4f}"
        row += f" {sum(case.timings.values()):10.4f}"
        row += f" {'hit' if case.cache_hit else '-':>6s}"
        print(row)


def _parse_threads(value: str) -> "int | None":
    """``--threads auto`` -> None (auto), else an int."""
    if value == "auto":
        return None
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer or 'auto', not {value!r}"
        )


def campaign_config(args):
    """The :class:`~repro.campaign.CampaignConfig` that ``campaign``'s
    parsed flags describe (each flag's ``dest`` is the field name)."""
    return CampaignConfig(
        **{f.name: getattr(args, f.name) for f in fields(CampaignConfig)}
    )


def cmd_campaign(args) -> int:
    """Run a seed-sweep test campaign and print the adequacy verdict."""
    from repro.campaign import run_campaign
    from repro.coverage import coverage_listing

    try:
        config = campaign_config(args)
    except ValueError as exc:
        args.parser.error(str(exc))
    with _traced(args):
        model = _load(args.model)
        prog = preprocess(model, dt=args.dt)
        outcome = run_campaign(prog, config)
    if args.json:
        # The canonical service encoding: this exact byte string is what
        # the campaign service streams as its terminal outcome record,
        # so `repro campaign --json` is the CLI side of the service's
        # byte-identity contract.
        from repro.service.codec import encode, outcome_record

        print(encode(outcome_record(outcome)))
        return 0
    print(outcome.summary())
    print(f"{'case':>5s} {'seed':>6s} {'steps':>12s} {'new points':>11s} "
          f"{'new diags':>10s}")
    for i, case in enumerate(outcome.cases):
        print(f"{i + 1:5d} {case.seed:6d} {case.steps_run:12,d} "
              f"{case.new_points:11d} {case.n_diagnostics:10d}")
    for event, seed in outcome.diagnostics:
        print(f"  (seed {seed}) {event}")
    if args.timings:
        _print_timings(outcome.cases)
        if outcome.scheduler_stats is not None:
            st = outcome.scheduler_stats
            print(f"scheduler: stream, threads {st['threads']}, "
                  f"batch {st['batch_size']}, {st['chunks']} chunk(s), "
                  f"{st['throughput']:.1f} cases/s")
        if outcome.speculated_cases:
            print(f"speculated cases discarded at saturation: "
                  f"{outcome.speculated_cases}")
    if args.uncovered:
        print(coverage_listing(prog, outcome.merged, max_items=args.uncovered))
    return 0


def cmd_serve_api(args) -> int:
    """Run the asyncio campaign service until interrupted."""
    from repro.service import serve_api

    serve_api(
        host=args.host,
        port=args.port,
        tenant_quota=args.tenant_quota,
        max_concurrent=args.max_concurrent,
    )
    return 0


def cmd_coverage(args) -> int:
    """Simulate and print the detailed coverage listing."""
    from repro.coverage import coverage_listing

    model = _load(args.model)
    prog = preprocess(model, dt=args.dt)
    result = simulate(
        prog,
        _stimuli_for(args, prog),
        engine=args.engine,
        options=_options_from(args),
    )
    if result.coverage is None:
        print(f"engine {args.engine!r} collects no coverage", file=sys.stderr)
        return 1
    print(f"{result.steps_run:,} steps in {result.wall_time:.3f}s "
          f"({args.engine})")
    print(coverage_listing(prog, result.coverage, max_items=args.max_items))
    return 0


def cmd_convert(args) -> int:
    """Convert between the native XML format and the generic JSON IR."""
    from repro.slx import load_generic, save_generic, save_model

    source = args.model
    if source.startswith("bench:"):
        model = _load(source)
    elif source.endswith(".json"):
        model = load_generic(source)
    else:
        model = load_model(source)
    if args.output.endswith(".json"):
        save_generic(model, args.output)
    else:
        save_model(model, args.output)
    print(f"converted {source} -> {args.output} "
          f"({model.n_actors} actors, {model.n_subsystems} subsystems)")
    return 0


def cmd_bench_table1(args) -> int:
    print(f"{'Model':6s} {'Functionality':42s} {'#Actor':>7s} {'#SubSystem':>11s}")
    for name, (desc, n_actors, n_subsystems) in TABLE1.items():
        print(f"{name:6s} {desc:42s} {n_actors:7d} {n_subsystems:11d}")
    if args.verify:
        for name in TABLE1:
            model = build_benchmark(name)
            expected = TABLE1[name]
            status = (
                "ok"
                if (model.n_actors, model.n_subsystems) == expected[1:]
                else "MISMATCH"
            )
            print(f"  built {name}: {model.n_actors}/{model.n_subsystems} {status}")
    return 0


def cmd_cache(args) -> int:
    """Inspect or clear the compiled-artifact cache."""
    from repro.runner.cache import ArtifactCache, default_cache, default_cache_dir

    if args.dir:
        cache = ArtifactCache(args.dir)
    else:
        cache = default_cache()
        if cache is None:
            print(f"cache disabled (would live at {default_cache_dir()})",
                  file=sys.stderr)
            return 1
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached artifact(s) from {cache.root}")
        return 0
    stats = cache.stats()
    print(f"cache dir : {cache.root}")
    print(f"entries   : {stats.entries}")
    print(f"bytes     : {stats.bytes:,}")
    print(f"max bytes : {cache.max_bytes:,}")
    print(f"this run  : {stats.hits} hit(s), {stats.misses} miss(es), "
          f"{stats.evictions} eviction(s)")
    return 0


def cmd_trace(args) -> int:
    """One traced simulation: Chrome trace file + span tree on stdout."""
    from repro import telemetry

    session = telemetry.enable(profile_sse=args.profile)
    try:
        model = _load(args.model)
        prog = preprocess(model, dt=args.dt)
        result = simulate(
            prog,
            _stimuli_for(args, prog),
            engine=args.engine,
            options=_options_from(args),
        )
    finally:
        telemetry.disable()
    spans = session.tracer.finished()
    n = telemetry.write_chrome_trace(spans, args.output)
    telemetry.save_metrics(session.snapshot())
    print(f"{result.steps_run:,} steps in {result.wall_time:.3f}s "
          f"({args.engine}); {n} span(s) -> {args.output}")
    print(telemetry.render_tree(spans))
    if args.profile and session.profiler is not None:
        print(session.profiler.render())
    return 0


def cmd_metrics(args) -> int:
    """Show or clear the metrics snapshot of the last traced run."""
    from repro import telemetry

    path = Path(args.file) if args.file else telemetry.default_metrics_path()
    if args.action == "clear":
        try:
            path.unlink()
            print(f"removed {path}")
        except FileNotFoundError:
            print(f"nothing to clear at {path}")
        return 0
    snapshot = telemetry.load_metrics(path)
    if snapshot is None:
        print(f"no metrics snapshot at {path} "
              f"(run simulate/campaign with --trace first)", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(f"metrics from {path}")
    print(telemetry.metrics_to_text(snapshot))
    profile = snapshot.get("profile_sse")
    if profile:
        print(telemetry.render_profile_snapshot(profile))
    return 0


def cmd_fuzz(args) -> int:
    """Differential fuzzing campaign across all engine rungs."""
    from repro.fuzz import ALL_RUNGS, FuzzConfig, run_fuzz

    rungs = None
    if args.rungs:
        rungs = [r.strip() for r in args.rungs.split(",") if r.strip()]
        unknown = [r for r in rungs if r not in ALL_RUNGS]
        if unknown:
            print(f"unknown rung(s): {unknown}; pick from {list(ALL_RUNGS)}",
                  file=sys.stderr)
            return 2
    if args.guided:
        return _run_guided_fuzz(args, rungs)
    config = FuzzConfig(
        cases=args.cases,
        seed=args.seed,
        steps=args.steps,
        max_actors=args.max_actors,
        rungs=rungs,
        time_budget=args.time_budget,
        shrink=not args.no_shrink,
        corpus_dir=Path(args.corpus_dir) if args.corpus_dir else None,
        timeout_seconds=args.timeout,
    )
    # Progress goes to stderr so --json output stays parseable.
    say = (lambda msg: print(msg, file=sys.stderr)) if args.json else print
    with _traced(args):
        outcome = run_fuzz(config, progress=say)
    return _report_fuzz(args, outcome, {
        "rungs": list(outcome.rungs),
        "cases_run": outcome.cases_run,
        "divergent": outcome.divergent,
        "elapsed": outcome.elapsed,
        "budget_exhausted": outcome.budget_exhausted,
        "duplicates": outcome.duplicates,
    })


def _run_guided_fuzz(args, rungs) -> int:
    """The --guided branch of ``fuzz``: coverage-guided corpus campaign."""
    from repro.guided import GuidedConfig, run_guided

    config = GuidedConfig(
        cases=args.cases,
        seed=args.seed,
        steps=args.steps,
        max_actors=args.max_actors,
        rungs=rungs,
        round_size=args.round_size,
        saturation_rounds=args.saturation,
        time_budget=args.time_budget,
        shrink=not args.no_shrink,
        corpus_dir=Path(args.corpus) if args.corpus else None,
        findings_dir=Path(args.corpus_dir) if args.corpus_dir else None,
        timeout_seconds=args.timeout,
    )
    say = (lambda msg: print(msg, file=sys.stderr)) if args.json else print
    with _traced(args):
        outcome = run_guided(config, progress=say)
    return _report_fuzz(args, outcome, {
        "rungs": list(outcome.rungs),
        "rounds": outcome.rounds,
        "cases_run": outcome.cases_run,
        "invalid_mutants": outcome.invalid_mutants,
        "novel_points": outcome.novel_points,
        "coverage_points": outcome.coverage_points,
        "coverage_keys": outcome.coverage_keys,
        "corpus_size": outcome.corpus_size,
        "saturated": outcome.saturated,
        "budget_exhausted": outcome.budget_exhausted,
        "elapsed": outcome.elapsed,
        "divergent": outcome.divergent,
        "duplicates": outcome.duplicates,
    })


def _report_fuzz(args, outcome, fields: dict) -> int:
    """Print a fuzz campaign's ``fields`` plus its findings, as JSON
    under ``--json`` or as its summary and one block per finding;
    returns the exit status (1 when anything diverged)."""
    if args.json:
        print(json.dumps({
            **fields,
            "findings": [
                {
                    "seed": f.seed,
                    "shrink": f.shrink_summary,
                    "corpus": str(f.corpus_path) if f.corpus_path else None,
                    "divergences": [
                        d.to_dict() for d in f.final_report.divergences
                    ],
                }
                for f in outcome.findings
            ],
        }, indent=2))
    else:
        print(outcome.summary())
        for finding in outcome.findings:
            shrunk = finding.final_report.case
            print(f"  seed {finding.seed}: {shrunk.n_actors} actor(s), "
                  f"{shrunk.steps} step(s)"
                  + (f"  [{finding.shrink_summary}]"
                     if finding.shrink_summary else ""))
            for d in finding.final_report.divergences[:4]:
                print(f"    {d.rung} {d.kind}: {d.detail[:140]}")
    return 1 if outcome.findings else 0


def cmd_corpus(args) -> int:
    """Inspect or replay a guided-fuzz seed corpus."""
    from repro.guided import SeedCorpus, replay_corpus

    corpus_dir = Path(args.dir)
    if args.action == "stats":
        try:
            corpus = SeedCorpus.load(corpus_dir)
        except FileNotFoundError:
            print(f"no corpus manifest in {corpus_dir}", file=sys.stderr)
            return 1
        stats = corpus.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"corpus    : {corpus_dir}")
        print(f"seeds     : {stats['seeds']}")
        print(f"structures: {stats['coverage_keys']}")
        print(f"points    : {stats['coverage_points']}/"
              f"{stats['points_possible']}")
        for metric, counts in stats["by_metric"].items():
            print(f"  {metric:10s} {counts['covered']}/{counts['possible']}")
        if stats["top"]:
            print("top seeds (by scheduler score):")
            print(f"{'sig':>14s} {'actors':>7s} {'novel':>6s} "
                  f"{'child':>6s} {'fuzzed':>7s}")
            for row in stats["top"]:
                print(f"{row['sig']:>14s} {row['actors']:7d} "
                      f"{row['novel_points']:6d} "
                      f"{row['child_novel_points']:6d} "
                      f"{row['times_fuzzed']:7d}")
        return 0

    # replay
    try:
        report = replay_corpus(corpus_dir, timeout_seconds=args.timeout)
    except FileNotFoundError:
        print(f"no corpus manifest in {corpus_dir}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({
            "seeds": report.seeds,
            "replayed": report.replayed,
            "matched": report.matched,
            "points_expected": report.points_expected,
            "points_rebuilt": report.points_rebuilt,
            "errors": report.errors,
        }, indent=2))
    else:
        print(report.summary())
        for err in report.errors[:10]:
            print(f"  {err}")
    return 0 if report.matched else 1


def cmd_demo(args) -> int:
    model = build_motivating_model()
    prog = preprocess(model)
    options = SimulationOptions(
        steps=args.steps,
        halt_on=frozenset({DiagnosticKind.WRAP_ON_OVERFLOW}),
    )
    print("Figure-1 motivating model: accumulate-and-sum, int32 overflow.")
    for engine in ("sse", "accmos"):
        result = simulate(prog, motivating_stimuli(), engine=engine, options=options)
        where = (
            f"overflow detected at step {result.halted_at}"
            if result.halted_at is not None
            else "no overflow within the step budget"
        )
        print(f"  {engine:8s} {result.wall_time:8.3f}s  {where}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accmos",
        description="AccMoS reproduction: simulate dataflow models via code generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def structural(p):
        """What shapes the generated program: model and instrumentation."""
        p.add_argument("model", help="model XML file, or bench:NAME")
        p.add_argument("--dt", type=float, default=1.0)
        p.add_argument("--no-coverage", action="store_true")
        p.add_argument("--no-diagnostics", action="store_true")
        p.add_argument(
            "--halt-on", nargs="*", metavar="KIND",
            choices=[k.value for k in DiagnosticKind],
            help="stop at the first diagnostic of these kinds",
        )

    def common(p, steps_default=10_000):
        """Structural flags plus one run's test case."""
        structural(p)
        p.add_argument("--steps", type=int, default=steps_default)
        p.add_argument("--seed", type=int, default=1, help="stimuli seed")
        p.add_argument("--stimuli", help="CSV test-case file")
        p.add_argument("--time-budget", type=float, default=None)

    p = sub.add_parser("info", help="model statistics")
    p.add_argument("model")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("simulate", help="run one engine")
    common(p)
    p.add_argument("--engine", choices=sorted(ENGINES), default="accmos")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", metavar="FILE",
                   help="record a Chrome trace_event timeline to FILE")
    p.add_argument("--profile", action="store_true",
                   help="sample SSE step time per actor type (hot-actor table)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("codegen", help="emit the instrumented C source")
    structural(p)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=cmd_codegen)

    p = sub.add_parser("compare", help="run several engines and check agreement")
    common(p, steps_default=5_000)
    p.add_argument(
        "--engines", nargs="+", choices=sorted(ENGINES),
        default=["sse", "accmos"],
    )
    p.set_defaults(fn=cmd_compare)

    defaults = CampaignConfig()
    p = sub.add_parser("campaign", help="seed-sweep test campaign")
    p.add_argument("model", help="model XML/JSON file, or bench:NAME")
    p.add_argument("--steps", type=int, default=defaults.steps)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--seed", dest="base_seed", type=int,
                   default=defaults.base_seed, metavar="SEED",
                   help="base seed")
    p.add_argument("--cases", dest="max_cases", type=int,
                   default=defaults.max_cases, metavar="N")
    p.add_argument("--patience", dest="plateau_patience", type=int,
                   default=defaults.plateau_patience, metavar="N",
                   help="stop after this many cases without new coverage")
    p.add_argument("--engine", choices=["sse", "accmos"],
                   default=defaults.engine)
    p.add_argument("--uncovered", type=int, default=0, metavar="N",
                   help="also list up to N uncovered points")
    p.add_argument("--batch-size", type=int, default=defaults.batch_size,
                   metavar="M",
                   help="cases each thread runs back-to-back per chunk on "
                        "one loaded library (default auto-sizes)")
    p.add_argument("--threads", type=_parse_threads,
                   default=defaults.threads, metavar="N",
                   help="N private library instances run N C loops in "
                        "this process, zero spawns; the merge stays in "
                        "seed order ('auto', the default, picks the core "
                        "count, capped at 4, when a C compiler is "
                        "available)")
    p.add_argument("--timeout", dest="timeout_seconds", type=float,
                   default=defaults.timeout_seconds, metavar="SECONDS",
                   help="per-case wall-clock limit for the compiled binary")
    p.add_argument("--timings", action="store_true",
                   help="print the per-phase wall-time breakdown per case")
    p.add_argument("--json", action="store_true",
                   help="print the canonical outcome record (the exact "
                        "encoding the campaign service streams) instead "
                        "of the summary tables")
    p.add_argument("--trace", metavar="FILE",
                   help="record a Chrome trace_event timeline to FILE")
    p.set_defaults(fn=cmd_campaign, parser=p)

    p = sub.add_parser(
        "serve-api",
        help="run the asyncio HTTP + WebSocket campaign service",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = auto-assign; the bound port is "
                        "printed as 'listening on HOST:PORT')")
    p.add_argument("--tenant-quota", type=int, default=1, metavar="N",
                   help="max concurrently running campaigns per tenant")
    p.add_argument("--max-concurrent", type=int, default=2, metavar="N",
                   help="max concurrently running campaigns overall")
    p.set_defaults(fn=cmd_serve_api)

    p = sub.add_parser("coverage", help="detailed coverage listing")
    common(p, steps_default=100_000)
    p.add_argument("--engine", choices=["sse", "accmos"], default="accmos")
    p.add_argument("--max-items", type=int, default=40,
                   help="cap on uncovered points shown")
    p.set_defaults(fn=cmd_coverage)

    p = sub.add_parser(
        "convert", help="convert between model XML and the generic JSON IR"
    )
    p.add_argument("model", help="model XML/JSON file, or bench:NAME")
    p.add_argument("-o", "--output", required=True,
                   help="target path (.xml or .json picks the format)")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser(
        "trace", help="run one traced simulation, write the Chrome trace"
    )
    common(p)
    p.add_argument("--engine", choices=sorted(ENGINES), default="accmos")
    p.add_argument("-o", "--output", required=True,
                   help="Chrome trace_event JSON target path")
    p.add_argument("--profile", action="store_true",
                   help="sample SSE step time per actor type (hot-actor table)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "metrics", help="show or clear the last traced run's metrics"
    )
    p.add_argument("action", nargs="?", choices=["show", "clear"],
                   default="show")
    p.add_argument("--file", default=None,
                   help="snapshot path (default: $ACCMOS_METRICS_FILE or "
                        "~/.cache/accmos/metrics.json)")
    p.add_argument("--json", action="store_true",
                   help="dump the raw snapshot instead of the summary")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("bench-table1", help="print the benchmark inventory")
    p.add_argument("--verify", action="store_true", help="also build each model")
    p.set_defaults(fn=cmd_bench_table1)

    p = sub.add_parser("cache", help="compiled-artifact cache admin")
    p.add_argument("action", choices=["stats", "clear"])
    p.add_argument("--dir", default=None,
                   help="cache directory (default: the process-wide cache)")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser(
        "fuzz", help="differential fuzzing campaign with automatic shrinking"
    )
    p.add_argument("--cases", type=int, default=100,
                   help="number of random cases to generate")
    p.add_argument("--seed", type=int, default=0, help="campaign base seed")
    p.add_argument("--steps", type=int, default=None,
                   help="fixed step count per case (default: random 8..48)")
    p.add_argument("--max-actors", type=int, default=14,
                   help="upper bound on generated actors per case")
    p.add_argument("--rungs", default=None, metavar="R1,R2",
                   help="comma-separated rung list (default: all available)")
    p.add_argument("--time-budget", type=float, default=None,
                   metavar="SECONDS",
                   help="stop generating new cases after this much wall time")
    p.add_argument("--timeout", type=float, default=120.0, metavar="SECONDS",
                   help="per-case wall-clock limit for compiled binaries")
    p.add_argument("--no-shrink", action="store_true",
                   help="report divergences without minimizing them")
    p.add_argument("--corpus-dir", default=None, metavar="DIR",
                   help="write shrunk reproducers here (e.g. tests/corpus)")
    p.add_argument("--guided", action="store_true",
                   help="coverage-guided campaign: keep and mutate cases "
                        "that reach novel coverage (see also --corpus)")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="guided seed corpus directory (loaded if present, "
                        "persisted on exit; replayable via `corpus replay`)")
    p.add_argument("--round-size", type=int, default=25, metavar="N",
                   help="guided: oracle evaluations per round")
    p.add_argument("--saturation", type=int, default=3, metavar="K",
                   help="guided: stop after K consecutive rounds without "
                        "novel coverage")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", metavar="FILE",
                   help="record a Chrome trace_event timeline to FILE")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "corpus", help="inspect or replay a guided-fuzz seed corpus"
    )
    p.add_argument("action", choices=["stats", "replay"])
    p.add_argument("dir", help="corpus directory (from fuzz --guided --corpus)")
    p.add_argument("--timeout", type=float, default=120.0, metavar="SECONDS",
                   help="per-seed wall-clock limit during replay")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("demo", help="Figure-1 motivating demo")
    p.add_argument("--steps", type=int, default=200_000)
    p.set_defaults(fn=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
