"""Structural validation of models.

Run automatically by :meth:`ModelBuilder.build` and by the model-file
parser; engines also validate before scheduling, so a hand-assembled model
cannot reach simulation in a broken state.
"""

from __future__ import annotations

from repro.model.errors import ConnectionError_, ValidationError
from repro.model.model import Model
from repro.model.subsystem import INPORT, OUTPORT, Subsystem


def validate_model(model: Model) -> None:
    """Raise :class:`ValidationError` on the first structural problem."""
    _validate_scope(model.root, path=model.name, store_scopes=[])
    _check_registry_arities(model)


def _validate_scope(scope: Subsystem, path: str, store_scopes: list[set[str]]) -> None:
    local_stores = {
        a.name for a in scope.actors.values() if a.block_type == "DataStoreMemory"
    }
    visible_stores = store_scopes + [local_stores]

    _check_boundary_indices(scope, path, INPORT)
    _check_boundary_indices(scope, path, OUTPORT)
    _check_connections(scope, path)
    _check_data_store_refs(scope, path, visible_stores)

    for child in scope.subsystems.values():
        _validate_scope(child, f"{path}.{child.name}", visible_stores)


def _check_boundary_indices(scope: Subsystem, path: str, block_type: str) -> None:
    ports = scope.boundary_ports(block_type)
    indices = sorted(a.params.get("port_index", 0) for a in ports)
    if indices != list(range(len(ports))):
        raise ValidationError(
            f"{path}: {block_type} port indices are not dense 0..{len(ports) - 1}: "
            f"{indices}"
        )


def _scope_arities(scope: Subsystem) -> dict[str, tuple[int, int]]:
    """``name -> (n_input_ports, n_output_ports)`` for every actor and
    child subsystem of ``scope`` (an actor wins a name clash, as in
    :meth:`Subsystem.resolve`).

    An enabled subsystem exposes one extra input slot (the enable signal)
    after its regular inports.
    """
    arity = {
        name: (child.n_parent_inputs, child.n_boundary_outputs)
        for name, child in scope.subsystems.items()
    }
    for name, actor in scope.actors.items():
        arity[name] = (actor.n_inputs, actor.n_outputs)
    return arity


def _check_connections(scope: Subsystem, path: str) -> None:
    arity = _scope_arities(scope)
    driven: dict[tuple[str, int], int] = {}
    for conn in scope.connections:
        for end, kind in ((conn.src, "source"), (conn.dst, "destination")):
            ends = arity.get(end.actor)
            if ends is None:
                try:
                    scope.resolve(end.actor)  # raises the lookup's KeyError
                except KeyError as exc:
                    raise ConnectionError_(f"{path}: {conn}: {exc}") from None
            n_in, n_out = ends
            limit = n_out if kind == "source" else n_in
            if end.port >= limit:
                raise ConnectionError_(
                    f"{path}: {conn}: {kind} port {end.port} out of range "
                    f"(target has {limit} {kind} port(s))"
                )
        key = (conn.dst.actor, conn.dst.port)
        driven[key] = driven.get(key, 0) + 1

    for (actor, port), count in driven.items():
        if count > 1:
            raise ConnectionError_(
                f"{path}: input {actor}:{port} is driven by {count} sources"
            )

    # Every input port of every actor / child subsystem must be driven.
    for name in list(scope.actors) + list(scope.subsystems):
        n_in, _ = arity[name]
        for port in range(n_in):
            if (name, port) not in driven:
                raise ConnectionError_(
                    f"{path}: input {name}:{port} is not connected"
                )


def _check_data_store_refs(
    scope: Subsystem, path: str, visible_stores: list[set[str]]
) -> None:
    for actor in scope.actors.values():
        if actor.block_type not in ("DataStoreRead", "DataStoreWrite"):
            continue
        store = actor.params.get("store")
        if not store:
            raise ValidationError(
                f"{path}: {actor.name} ({actor.block_type}) has no 'store' parameter"
            )
        if not any(store in layer for layer in visible_stores):
            raise ValidationError(
                f"{path}: {actor.name} references undeclared data store {store!r}"
            )


def _check_registry_arities(model: Model) -> None:
    """Check block types and arities against the actor-type registry.

    Imported lazily: the registry depends on the model layer.
    """
    from repro.actors.registry import get_spec, is_known_type

    for actor_path, actor in model.iter_actors():
        if not is_known_type(actor.block_type):
            raise ValidationError(
                f"{actor_path}: unknown block type {actor.block_type!r}"
            )
        spec = get_spec(actor.block_type)
        spec.check_actor(actor, actor_path)
