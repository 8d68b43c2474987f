"""The content-keyed preprocess memo.

``preprocess`` hands models with the same content the same program, so
a model rebuilt from the same reference skips validation, flattening,
type inference, scheduling and (through the codegen memo, keyed on the
program) instrumentation and codegen.  These tests pin that the key is
exact: every difference that can change the program is a miss; and that
a program served from the memo runs campaigns byte-identical to SSE and
to a cold process.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading
import weakref

import pytest

from repro import SimulationOptions, telemetry
from repro.benchmarks import build_benchmark
from repro.campaign import run_campaign
from repro.dtypes import F64
from repro.engines.accmos import compile_model
from repro.model.actor import Actor
from repro.model.builder import ModelBuilder
from repro.model.errors import ValidationError
from repro.runner.cache import ArtifactCache
from repro.schedule import compile as compile_mod
from repro.schedule import preprocess
from repro.schedule.compile import clear_preprocess_memo
from repro.service.codec import encode, outcome_record

from conftest import requires_cc

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _gain_model(gain=2.0, *, name="MemoGain", dtype=F64, swap=False):
    """X -> G1 (gain) -> Y1 and X -> G2 -> Y2; ``swap`` adds G2 first."""
    b = ModelBuilder(name)
    x = b.inport("X", dtype=F64)
    makers = [
        lambda: b.gain("G1", x, gain, dtype=dtype),
        lambda: b.gain("G2", x, 3.0, dtype=F64),
    ]
    for make in reversed(makers) if swap else makers:
        make()
    b.outport("Y1", "G1")
    b.outport("Y2", "G2")
    return b.build()


def _lookup_model(table):
    b = ModelBuilder("MemoLookup")
    x = b.inport("X", dtype=F64)
    b.outport("Y", b.lookup1d("L", x, [0.0, 1.0, 2.0], table))
    return b.build()


def _shape(prog) -> str:
    """What the engines read from a program, with value types kept."""
    return repr((
        [(fa.path, fa.block_type, fa.actor.operator, fa.actor.params,
          [p.dtype for p in fa.actor.outputs], fa.input_sids,
          fa.output_sids, fa.guard)
         for fa in prog.actors],
        [(s.name, s.dtype) for s in prog.signals],
        prog.order, prog.dt, prog.model.name,
    ))


def _fresh(model, dt=1.0):
    """``model`` preprocessed by the whole pipeline, memo emptied first."""
    clear_preprocess_memo()
    return preprocess(model, dt=dt)


def _counted(fn):
    """Run ``fn``; return its result and the memo's (hits, misses)."""
    with telemetry.capture() as session:
        result = fn()
    counters = session.metrics.snapshot()["counters"]
    return result, (
        counters.get("preprocess.memo.hits", 0),
        counters.get("preprocess.memo.misses", 0),
    )


def _codegen_spans(session) -> int:
    return sum(1 for span in session.tracer.finished() if span.name == "codegen")


# ----------------------------------------------------------------------
# the key is exact
# ----------------------------------------------------------------------
@pytest.mark.parametrize("first, second", [
    (dict(gain=1), dict(gain=1.0)),
    (dict(gain=0.0), dict(gain=-0.0)),
    (dict(), dict(swap=True)),
    (dict(), dict(dtype=None)),
    (dict(), dict(name="MemoGainB")),
], ids=["1-1.0", "0.0-neg0.0", "actor-order", "pinned-dtype", "name"])
def test_different_content_misses(first, second):
    a = preprocess(_gain_model(**first))
    b, counts = _counted(lambda: preprocess(_gain_model(**second)))
    assert counts == (0, 1)
    assert b is not a
    assert _shape(b) == _shape(_fresh(_gain_model(**second)))


def test_one_one_point_oh_and_true_are_three_programs():
    """``Gain`` rejects a bool gain, so ``True`` is tried where a model
    may hold it: a unit delay's initial value."""

    def delay_model(initial):
        b = ModelBuilder("MemoDelay")
        x = b.inport("X", dtype=F64)
        b.outport("Y", b.unit_delay("D", x, initial=initial))
        return b.build()

    progs, counts = _counted(
        lambda: [preprocess(delay_model(v)) for v in (1, 1.0, True)]
    )
    assert counts == (0, 3)
    initials = [p.actor_by_path("MemoDelay_D").actor.params["initial"]
                for p in progs]
    assert [type(v) for v in initials] == [int, float, bool]
    gains = [preprocess(_gain_model(g)) for g in (1, 1.0)]
    assert [type(p.actor_by_path("MemoGain_G1").actor.params["gain"])
            for p in gains] == [int, float]


def test_dt_description_and_metadata_are_keyed():
    base = preprocess(_gain_model())
    assert preprocess(_gain_model(), dt=0.5) is not base
    described = _gain_model()
    described.description = "other"
    assert preprocess(described) is not base
    tagged = _gain_model()
    tagged.metadata["source"] = "elsewhere"
    assert preprocess(tagged) is not base
    assert preprocess(_gain_model()) is base


def test_equal_content_shares_one_program():
    a = preprocess(_gain_model())
    b, counts = _counted(lambda: preprocess(_gain_model()))
    assert counts == (1, 0)
    assert b is a


def test_a_mutated_model_misses_and_matches_a_fresh_build():
    model = _lookup_model([0.0, 1.0, 4.0])
    before = preprocess(model)
    model.root.actors["L"].params["table"][2] = 9.0  # in place
    after, counts = _counted(lambda: preprocess(model))
    assert counts == (0, 1)
    assert after is not before
    assert _shape(after) == _shape(_fresh(_lookup_model([0.0, 1.0, 9.0])))
    # The first program kept its own copy of the table, so the original
    # content still gets a correct program.
    assert before.actor_by_path("MemoLookup_L").actor.params["table"] == [
        0.0, 1.0, 4.0,
    ]


def test_original_content_is_not_poisoned_by_a_later_mutation():
    model = _lookup_model([0.0, 1.0, 4.0])
    first = preprocess(model)
    model.root.actors["L"].params["table"][2] = 9.0
    again = preprocess(_lookup_model([0.0, 1.0, 4.0]))
    assert again is first
    assert _shape(again) == _shape(_fresh(_lookup_model([0.0, 1.0, 4.0])))


class _TaggedFloat(float):
    """A float subclass: the key cannot tell what else it carries."""


def test_an_unkeyable_value_preprocesses_uncached():
    progs, counts = _counted(
        lambda: [preprocess(_gain_model(_TaggedFloat(2.0))) for _ in range(2)]
    )
    assert counts == (0, 2)
    assert progs[0] is not progs[1]
    assert _shape(progs[0]) == _shape(progs[1])
    assert compile_mod._MEMO._held == {} and compile_mod._MEMO._noted == {}


def test_an_invalid_model_raises_on_every_call():
    model = _gain_model()
    model.root.add_actor(
        Actor.create("Dangling", "Gain", n_inputs=1, params={"gain": 1.0})
    )
    for _ in range(3):
        with pytest.raises(ValidationError):
            preprocess(model)
    assert compile_mod._MEMO._held == {} and compile_mod._MEMO._noted == {}


# ----------------------------------------------------------------------
# bound, admission, threads
# ----------------------------------------------------------------------
def test_the_seventeenth_noted_model_evicts_the_oldest():
    bound = compile_mod._PreprocessMemo.BOUND
    progs = [preprocess(_gain_model(float(g))) for g in range(bound + 1)]
    assert preprocess(_gain_model(float(bound))) is progs[bound]
    assert preprocess(_gain_model(1.0)) is progs[1]
    assert preprocess(_gain_model(0.0)) is not progs[0]


def test_the_seventeenth_held_model_evicts_the_oldest():
    """A model preprocessed again after its first program died is held;
    the held tier is bounded the same way."""
    bound = compile_mod._PreprocessMemo.BOUND
    for g in range(bound + 1):
        for _ in range(2):
            preprocess(_gain_model(float(g)))  # program dropped at once
    assert len(compile_mod._MEMO._held) == bound
    _, counts = _counted(lambda: preprocess(_gain_model(float(bound))))
    assert counts == (1, 0)
    _, counts = _counted(lambda: preprocess(_gain_model(0.0)))
    assert counts == (0, 1)


def test_a_model_preprocessed_once_pins_nothing():
    prog = preprocess(_gain_model())
    ref = weakref.ref(prog)
    del prog
    gc.collect()
    assert ref() is None
    assert compile_mod._MEMO._held == {}


def test_four_threads_get_one_program():
    barrier = threading.Barrier(4)
    progs = [None] * 4

    def work(index):
        model = _gain_model()
        barrier.wait()
        progs[index] = preprocess(model)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(prog is progs[0] for prog in progs)


# ----------------------------------------------------------------------
# the warm front end
# ----------------------------------------------------------------------
@requires_cc
def test_a_rebuilt_benchmark_skips_preprocess_and_codegen(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    opts = SimulationOptions(steps=10)
    first = preprocess(build_benchmark("SPV"))
    compile_model(first, opts, cache=cache)
    with telemetry.capture() as session:
        second = preprocess(build_benchmark("SPV"))
        compile_model(second, opts, cache=cache)
    assert second is first
    assert _codegen_spans(session) == 0
    spans = [s for s in session.tracer.finished() if s.name == "preprocess"]
    assert [s.attrs["memo_hit"] for s in spans] == [True]
    assert spans[0].attrs["actors"] == len(first.actors)


CAMPAIGN = dict(steps=200, max_cases=4)


@requires_cc
@pytest.mark.parametrize("name", ["SPV", "LANS", "CSEV"])
def test_memo_hit_campaign_matches_sse_and_a_cold_process(name, tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    first = preprocess(build_benchmark(name))
    run_campaign(first, cache=cache, **CAMPAIGN)
    prog = preprocess(build_benchmark(name))
    assert prog is first
    warm = encode(outcome_record(run_campaign(prog, cache=cache, **CAMPAIGN)))
    sse = encode(outcome_record(run_campaign(prog, engine="sse", **CAMPAIGN)))
    assert warm == sse
    if name == "LANS":  # runtime diagnostics, not only static ones
        diagnostics = json.loads(warm)["diagnostics"]
        assert any(d["first_step"] >= 0 for d in diagnostics)
    env = dict(os.environ, PYTHONPATH=SRC,
               ACCMOS_CACHE_DIR=str(tmp_path / "cold"))
    cold = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", f"bench:{name}",
         "--cases", str(CAMPAIGN["max_cases"]),
         "--steps", str(CAMPAIGN["steps"]), "--json"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert cold.returncode == 0, cold.stderr
    assert cold.stdout == warm + "\n"
