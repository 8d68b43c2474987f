"""Subsystem scopes: the hierarchical containers of a model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.model.actor import Actor
from repro.model.connection import Connection
from repro.model.errors import ValidationError

INPORT = "Inport"
OUTPORT = "Outport"
SUBSYSTEM = "SubSystem"


@dataclass
class Subsystem:
    """A named scope holding actors, child subsystems, and local wiring.

    A subsystem's external interface is defined by the ``Inport`` /
    ``Outport`` actors it contains: an ``Inport`` with ``params['port_index']
    == k`` receives the subsystem's k-th input from the parent scope, and
    symmetrically for ``Outport``.  In the parent's wiring the subsystem is
    addressed by its own name, like an actor.
    """

    name: str
    actors: dict[str, Actor] = field(default_factory=dict)
    subsystems: dict[str, "Subsystem"] = field(default_factory=dict)
    connections: list[Connection] = field(default_factory=list)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_actor(self, actor: Actor) -> Actor:
        if actor.name in self.actors or actor.name in self.subsystems:
            raise ValidationError(
                f"duplicate name {actor.name!r} in subsystem {self.name!r}"
            )
        self.actors[actor.name] = actor
        return actor

    def add_subsystem(self, subsystem: "Subsystem") -> "Subsystem":
        if subsystem.name in self.actors or subsystem.name in self.subsystems:
            raise ValidationError(
                f"duplicate name {subsystem.name!r} in subsystem {self.name!r}"
            )
        self.subsystems[subsystem.name] = subsystem
        return subsystem

    def connect(self, connection: Connection) -> None:
        self.connections.append(connection)

    def copy(self) -> "Subsystem":
        """A structural copy: every actor through :meth:`Actor.copy`,
        every child scope copied the same way, and a new connection list
        holding the same (frozen) :class:`Connection` objects."""
        return Subsystem(
            self.name,
            {name: actor.copy() for name, actor in self.actors.items()},
            {name: child.copy() for name, child in self.subsystems.items()},
            list(self.connections),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def resolve(self, name: str) -> Actor | "Subsystem":
        """Look up a local actor or child subsystem by name."""
        if name in self.actors:
            return self.actors[name]
        if name in self.subsystems:
            return self.subsystems[name]
        raise KeyError(f"no actor or subsystem named {name!r} in {self.name!r}")

    def boundary_ports(self, block_type: str) -> list[Actor]:
        """The Inport (or Outport) actors of this scope, ordered by index."""
        ports = [a for a in self.actors.values() if a.block_type == block_type]
        ports.sort(key=lambda a: a.params.get("port_index", 0))
        return ports

    @property
    def n_boundary_inputs(self) -> int:
        return len(self.boundary_ports(INPORT))

    @property
    def n_boundary_outputs(self) -> int:
        return len(self.boundary_ports(OUTPORT))

    @property
    def has_enable_port(self) -> bool:
        """True when this subsystem is conditionally executed."""
        return any(a.block_type == "EnablePort" for a in self.actors.values())

    @property
    def n_parent_inputs(self) -> int:
        """Input slots seen from the parent scope: the regular inports plus,
        for an enabled subsystem, one trailing enable slot."""
        return self.n_boundary_inputs + (1 if self.has_enable_port else 0)

    @property
    def enable_slot(self) -> int:
        """Parent-side input index of the enable signal."""
        if not self.has_enable_port:
            raise ValidationError(f"subsystem {self.name!r} has no enable port")
        return self.n_boundary_inputs

    # ------------------------------------------------------------------
    # traversal / statistics
    # ------------------------------------------------------------------
    def walk(self, prefix: str = "") -> Iterator[tuple[str, "Subsystem"]]:
        """Yield ``(path, subsystem)`` for this scope and all descendants."""
        path = f"{prefix}{self.name}" if not prefix else f"{prefix}.{self.name}"
        yield path, self
        for child in self.subsystems.values():
            yield from child.walk(path)

    def iter_actors(self, prefix: str = "") -> Iterator[tuple[str, Actor]]:
        """Yield ``(path, actor)`` for every actor in this scope and below.

        The path uses the paper's index-key convention: model file name,
        subsystem names, and the actor's own name joined by underscores
        (e.g. ``MODEL_SUBSYSTEM_ADD2``).
        """
        base = f"{prefix}_{self.name}" if prefix else self.name
        for actor in self.actors.values():
            yield f"{base}_{actor.name}", actor
        for child in self.subsystems.values():
            yield from child.iter_actors(base)

    def count_actors(self, *, include_boundary: bool = True) -> int:
        total = 0
        for _, actor in self.iter_actors():
            if not include_boundary and actor.block_type in (INPORT, OUTPORT):
                continue
            total += 1
        return total

    def count_subsystems(self) -> int:
        """Number of descendant subsystems (the root scope is not counted)."""
        return sum(1 for _ in self.walk()) - 1

    def find_subsystem(self, dotted: str) -> Optional["Subsystem"]:
        """Resolve a dotted path like ``"Charger.Meter"`` below this scope."""
        scope: Subsystem = self
        for part in dotted.split("."):
            child = scope.subsystems.get(part)
            if child is None:
                return None
            scope = child
        return scope
