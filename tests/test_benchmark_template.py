"""``build_benchmark`` returns copies of a template built once per process.

Each call must hand back a model that shares no mutable object with the
template or with any other call, whose content (the preprocess memo's
key) equals a direct, uncached builder run, and that a caller may mutate
without changing what the next call returns.  The copy is lazy: a plain
``Model`` that is made into a structural copy on its first read or
write, and that ``preprocess`` keys by its template until then.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys
import threading

import pytest

from repro.benchmarks import BENCHMARKS, TABLE1, build_benchmark
from repro.benchmarks.factory import _TEMPLATES
from repro.model.actor import Actor
from repro.model.model import Model, untouched_template
from repro.schedule.compile import _model_key

NAMES = sorted(BENCHMARKS)
DT = 0.01


def _key(model) -> tuple:
    key = _model_key(model, DT)
    assert key is not None
    return key


def _scopes(model):
    return [scope for _path, scope in model.root.walk()]


def _actors(model):
    return [actor for _path, actor in model.iter_actors()]


@pytest.mark.parametrize("name", NAMES)
def test_two_builds_share_no_mutable_object(name):
    a, b = build_benchmark(name), build_benchmark(name)
    assert a is not b
    assert a.metadata is not b.metadata
    for scope_a, scope_b in zip(_scopes(a), _scopes(b), strict=True):
        assert scope_a is not scope_b
        assert scope_a.actors is not scope_b.actors
        assert scope_a.connections is not scope_b.connections
    for actor_a, actor_b in zip(_actors(a), _actors(b), strict=True):
        assert actor_a is not actor_b
        assert actor_a.params is not actor_b.params
        assert actor_a.inputs is not actor_b.inputs
        assert actor_a.outputs is not actor_b.outputs
        for key, value in actor_a.params.items():
            if isinstance(value, (list, dict)):
                assert value is not actor_b.params[key]


@pytest.mark.parametrize("name", NAMES)
def test_copies_have_the_builders_content(name):
    direct = _key(BENCHMARKS[name]())
    assert _key(build_benchmark(name)) == direct
    assert _key(build_benchmark(name.lower())) == direct


@pytest.mark.parametrize("name", NAMES)
def test_table1_counts_are_exact(name):
    description, n_actors, n_subsystems = TABLE1[name]
    model = build_benchmark(name)
    assert (model.n_actors, model.n_subsystems) == (n_actors, n_subsystems)
    assert model.description == description


def _first_with_list_param(model):
    for actor in _actors(model):
        for key, value in actor.params.items():
            if isinstance(value, list) and value:
                return actor, key
    raise AssertionError("no actor with a list parameter")


def _mutate_nested_param(model):
    actor, key = _first_with_list_param(model)
    actor.params[key].append(actor.params[key][-1])


def _mutate_metadata(model):
    model.metadata["edited"] = "yes"


def _mutate_connections(model):
    model.root.connections.pop()


def _add_actor(model):
    model.root.add_actor(Actor.create("Extra", "Constant", n_inputs=0,
                                      params={"value": 1.0}))


@pytest.mark.parametrize(
    "mutate",
    [_mutate_nested_param, _mutate_metadata, _mutate_connections, _add_actor],
)
@pytest.mark.parametrize("name", ["SPV", "LEDLC", "CSEV"])
def test_mutating_a_copy_leaves_the_next_build_unchanged(name, mutate):
    before = _key(build_benchmark(name))
    mutated = build_benchmark(name)
    mutate(mutated)
    assert _key(mutated) != before
    assert _key(build_benchmark(name)) == before



# ----------------------------------------------------------------------
# lazy copies
# ----------------------------------------------------------------------
# Programs preprocessed by a test: the memo only notes a program it saw
# once, so a first program must live for a later model to hit it.
_LIVE: list = []


def _memo_misses(model) -> int:
    from repro import telemetry
    from repro.schedule import preprocess

    with telemetry.capture() as session:
        _LIVE.append(preprocess(model, dt=DT))
    return session.metrics.snapshot()["counters"].get(
        "preprocess.memo.misses", 0
    )


@pytest.fixture(autouse=True)
def _release_programs():
    yield
    _LIVE.clear()


@pytest.mark.parametrize("name", NAMES)
def test_a_copy_is_a_plain_model_equal_to_a_direct_build(name):
    model = build_benchmark(name)
    assert type(model) is Model
    assert model == BENCHMARKS[name]()


@pytest.mark.parametrize(
    "duplicate",
    [
        copy.deepcopy,
        lambda model: pickle.loads(pickle.dumps(model)),
        dataclasses.replace,
    ],
    ids=["deepcopy", "pickle", "replace"],
)
def test_duplicates_of_a_copy_equal_a_direct_build(duplicate):
    twin = duplicate(build_benchmark("SPV"))
    assert type(twin) is Model
    assert twin == BENCHMARKS["SPV"]()
    assert untouched_template(twin) is None


def test_racing_readers_get_one_structure():
    """More reader threads than cores, switching often: every reader of
    one copy gets the same structure, so the copy was made once."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(20):
            model = build_benchmark("LEDLC")
            barrier = threading.Barrier(4)
            seen = []

            def read():
                barrier.wait(timeout=10)
                seen.append((model.root, model.metadata))

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(seen) == 4
            assert all(root is seen[0][0] for root, _meta in seen)
            assert all(meta is seen[0][1] for _root, meta in seen)
    finally:
        sys.setswitchinterval(switch)


def test_an_untouched_copy_is_keyed_without_a_copy():
    warm = build_benchmark("SPV")
    assert _memo_misses(build_benchmark("SPV")) == 1
    assert _memo_misses(warm) == 0
    assert untouched_template(warm) is not None  # the hit made no copy


def test_reassigning_a_field_gives_a_memo_miss():
    assert _memo_misses(build_benchmark("SPV")) == 1
    renamed = build_benchmark("SPV")
    renamed.name = "SPV2"
    assert untouched_template(renamed) is None
    assert _memo_misses(renamed) == 1


def test_mutating_after_materialization_gives_a_memo_miss():
    assert _memo_misses(build_benchmark("SPV")) == 1
    edited = build_benchmark("SPV")
    gain = next(a for a in _actors(edited) if a.block_type == "Gain")
    gain.params["gain"] = -gain.params["gain"]
    assert _memo_misses(edited) == 1
    # A read alone makes the copy; its content is the template's, so it
    # is keyed by the full walk and still hits.
    read = build_benchmark("SPV")
    read.metadata
    assert untouched_template(read) is None
    assert _memo_misses(read) == 0


@pytest.mark.parametrize("name", ["SPV", "CSEV"])
def test_the_template_is_never_handed_out(name):
    template_model = _TEMPLATES[name.upper()]._model
    builds = [build_benchmark(name) for _ in range(3)]
    builds.append(copy.deepcopy(build_benchmark(name)))
    for model in builds:
        assert model is not template_model
        assert model.root is not template_model.root
        assert model.metadata is not template_model.metadata
