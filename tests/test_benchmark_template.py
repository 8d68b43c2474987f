"""``build_benchmark`` returns copies of a template built once per process.

Each call must hand back a model that shares no mutable object with the
template or with any other call, whose content (the preprocess memo's
key) equals a direct, uncached builder run, and that a caller may mutate
without changing what the next call returns.
"""

from __future__ import annotations

import pytest

from repro.benchmarks import BENCHMARKS, TABLE1, build_benchmark
from repro.model.actor import Actor
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

