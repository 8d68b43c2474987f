"""The top-level model container, and lazy copies of a private template."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

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
    # lazy copies (see ModelTemplate)
    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        # Reached only for attributes the instance lacks: the ``root``
        # and ``metadata`` of a lazy copy whose structural copy is not
        # made yet.  Another thread may have made it between the failed
        # lookup and this call, so the instance is read again after.
        if name in _LAZY_FIELDS:
            state = self.__dict__
            template = state.get("_template")
            if template is not None:
                template._materialize(self)
            if name in state:
                return state[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __setattr__(self, name: str, value) -> None:
        template = self.__dict__.get("_template")
        if template is not None:
            template._materialize(self)
        object.__setattr__(self, name, value)

    def __getstate__(self) -> dict:
        # Pickle and deepcopy see a materialized model, never a template.
        template = self.__dict__.get("_template")
        if template is not None:
            template._materialize(self)
        return self.__dict__

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


# A lazy copy leaves these unset until it is materialized, so reads reach
# ``Model.__getattr__``.  The dataclass keeps ``root``'s default in
# ``__init__``; the class attribute would shadow the unset instance one.
_LAZY_FIELDS = ("root", "metadata")
del Model.root


class ModelTemplate:
    """A model kept private as the source of lazy copies.

    :meth:`copy` returns a plain :class:`Model` holding only this
    template: its structural copy (:meth:`Model.copy`) is made on the
    first read of ``root`` or ``metadata``, or on any attribute write,
    at most once even when threads race to read.  Until then the copy's
    content is the template's, so a fact derived from the content can be
    derived once, from the template, for every untouched copy
    (:meth:`shared`; ``preprocess`` keys copies this way).  The template
    model itself is never handed out.
    """

    __slots__ = ("_model", "_lock", "_shared")

    def __init__(self, model: Model) -> None:
        self._model = model
        self._lock = threading.Lock()
        self._shared: dict = {}

    def copy(self) -> Model:
        """A lazy copy of the template model."""
        model = object.__new__(Model)
        state = model.__dict__
        state["name"] = self._model.name
        state["description"] = self._model.description
        state["_template"] = self
        return model

    def shared(self, name: str, derive: Callable[[Model], object]):
        """``derive(template model)``, computed once per ``name``: what
        every untouched copy shares with the template.  ``derive`` must
        not mutate the model."""
        with self._lock:
            if name not in self._shared:
                self._shared[name] = derive(self._model)
            return self._shared[name]

    def _materialize(self, model: Model) -> None:
        with self._lock:
            state = model.__dict__
            if state.get("_template") is not self:
                return  # another thread made the copy first
            copy = self._model.copy()
            state["root"] = copy.root
            state["metadata"] = copy.metadata
            del state["_template"]


def untouched_template(model: Model) -> Optional[ModelTemplate]:
    """The template ``model`` is a lazy copy of, while that copy is not
    yet made (so its content is the template's); else None."""
    return model.__dict__.get("_template")
