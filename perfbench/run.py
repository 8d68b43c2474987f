"""End-to-end, layer-attributed benchmark of the AccMoS reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``campaign`` (many 32-step cases, where
Python per-case overhead dominates) and ``service`` (two tenants
streaming campaigns from the HTTP/WebSocket service).  Each run:

1. sets the workload up from cold several times (empty artifact cache,
   so codegen and gcc run) and reports the median as ``setup_s``;
2. checks AccMoS results against the SSE interpreter on seeded inputs;
3. runs closed-loop requests for ``--seconds`` and reports the median
   request latency and the median time to the first case result;
4. with ``--trace 1``, records the program's telemetry spans during the
   measured window and reports the per-layer ledger instead
   (``ledger.py``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; metric names and
units come from ``BENCHMARK.json``.  All files the run writes live in a
private directory under ``.bench_work/`` in the checkout, removed at
exit.  Without the package sources next to this directory the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
WARM_REQUESTS = 2
MIN_REQUESTS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def isolate(work: Path) -> None:
    """Keep every file the program writes inside ``work``: the default
    artifact cache and cost model, and temporary files of gcc, the
    warm servers and the shared-library copies."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["ACCMOS_CACHE_DIR"] = str(work / "default-cache")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def closed_loop(workload, seconds: float, seed: int):
    """One closed-loop client per workload client, each sending its next
    request when the previous one returns, until ``seconds`` pass (and at
    least ``MIN_REQUESTS`` each)."""
    results = [[] for _ in range(workload.clients)]
    errors = [0] * workload.clients
    deadline = time.perf_counter() + seconds

    def client(index: int) -> None:
        rng = random.Random(f"{seed}/{index}")
        while (
            time.perf_counter() < deadline
            or len(results[index]) + errors[index] < MIN_REQUESTS
        ):
            try:
                results[index].append(workload.request(index, rng))
            except Exception as exc:  # noqa: BLE001 - counted and reported
                errors[index] += 1
                print(f"request failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)

    threads = [
        threading.Thread(target=client, args=(index,))
        for index in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, sum(errors)


def client_median(results, attribute: str) -> float:
    """Median per client, combined across clients by geometric mean, so
    a mix of differently sized requests still has a stable centre.
    Clients without a single finished request are left out (the run is
    then reported incorrect); with none at all the figure is 0."""
    medians = [
        statistics.median(getattr(outcome, attribute) for outcome in client)
        for client in results
        if client
    ]
    if not medians:
        return 0.0
    return math.exp(statistics.fmean(math.log(m) for m in medians))


def run(args, work: Path) -> dict:
    from repro import telemetry

    from ledger import Ledger
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    setup_times, setup_gcc = [], []
    try:
        for index in range(SETUPS):
            workload.teardown()
            session = telemetry.enable() if args.trace else None
            start = time.perf_counter()
            workload.setup(work / f"setup-{index}")
            setup_times.append(time.perf_counter() - start)
            if session is not None:
                setup_gcc.append(sum(
                    span.duration for span in session.tracer.finished()
                    if span.name == "gcc"
                ))
                telemetry.disable()

        problem = workload.check(rng)
        for index in range(workload.clients):
            warm_rng = random.Random(f"{args.seed}/warm/{index}")
            for _ in range(WARM_REQUESTS):
                workload.request(index, warm_rng)

        session = telemetry.enable() if args.trace else None
        results, failed = closed_loop(workload, args.seconds, args.seed)
        if session is not None:
            telemetry.disable()
    finally:
        workload.teardown()

    outcomes = [outcome for client in results for outcome in client]
    for outcome in outcomes:
        if not outcome.ok and not problem:
            problem = outcome.problem
    if failed and not problem:
        problem = f"{failed} request(s) raised"
    if problem:
        print(f"incorrect: {problem}", file=sys.stderr)

    if session is None:
        metrics = {
            "request_ms": client_median(results, "latency_s") * 1e3,
            "first_result_ms": client_median(results, "first_result_s") * 1e3,
            "setup_s": statistics.median(setup_times),
        }
    else:
        ledger = Ledger(
            requests=len(outcomes),
            latency_s=sum(outcome.latency_s for outcome in outcomes),
        )
        for outcome in outcomes:
            ledger.figures.add(outcome.figures)
        metrics = ledger.per_layer(
            session.tracer.finished(),
            session.metrics.snapshot()["counters"],
        )
        metrics["gcc_s"] = statistics.median(setup_gcc)
    return {
        "correct": not problem,
        "attempted": len(outcomes) + failed,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }

    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    isolate(work)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    mismatch = set(units) ^ set(result["metrics"])
    if mismatch:
        print(f"metric set differs from BENCHMARK.json: {sorted(mismatch)}",
              file=sys.stderr)
        return 1
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
