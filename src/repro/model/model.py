"""The top-level model container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.model.actor import Actor
from repro.model.subsystem import INPORT, OUTPORT, Subsystem


@dataclass
class Model:
    """A complete model: a named root scope plus free-form metadata.

    The root scope's ``Inport``/``Outport`` actors are the model's external
    inputs and outputs — the ports test cases feed and results are read
    from.
    """

    name: str
    root: Subsystem = None  # type: ignore[assignment]
    description: str = ""
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("model name must be non-empty")
        if self.root is None:
            self.root = Subsystem(self.name)

    def copy(self) -> "Model":
        """A structural copy (see :meth:`Subsystem.copy`) with its own
        metadata dict: mutating the copy never reaches this model."""
        return Model(
            self.name, self.root.copy(), self.description, dict(self.metadata)
        )

    # ------------------------------------------------------------------
    # interface ports
    # ------------------------------------------------------------------
    @property
    def inports(self) -> list[Actor]:
        return self.root.boundary_ports(INPORT)

    @property
    def outports(self) -> list[Actor]:
        return self.root.boundary_ports(OUTPORT)

    # ------------------------------------------------------------------
    # statistics (Table 1 columns)
    # ------------------------------------------------------------------
    @property
    def n_actors(self) -> int:
        """Total actor count across all scopes (the paper's ``#Actor``)."""
        return self.root.count_actors()

    @property
    def n_subsystems(self) -> int:
        """Descendant subsystem count (the paper's ``#SubSystem``)."""
        return self.root.count_subsystems()

    def iter_actors(self) -> Iterator[tuple[str, Actor]]:
        """Yield ``(path, actor)`` for every actor, paths keyed as
        ``MODELNAME_SUBSYSTEM_ACTOR`` per the paper's index convention."""
        yield from self.root.iter_actors()

    def block_type_histogram(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for _, actor in self.iter_actors():
            histogram[actor.block_type] = histogram.get(actor.block_type, 0) + 1
        return dict(sorted(histogram.items()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Model({self.name!r}, actors={self.n_actors}, "
            f"subsystems={self.n_subsystems})"
        )
