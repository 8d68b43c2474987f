"""The flat intermediate representation produced by preprocessing.

A :class:`FlatProgram` is what every simulation engine and the code
generator consume: the hierarchy has been flattened, every wire resolved to
a numbered *signal*, conditional execution turned into *guards*, and (after
:func:`~repro.schedule.order.compute_execution_order` runs) the actors
arranged into a topologically sorted node list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.dtypes import DType
from repro.model.actor import Actor
from repro.model.model import Model


@dataclass
class SignalInfo:
    """One scalar signal (an actor output port after flattening)."""

    sid: int
    name: str  # e.g. MODEL_SUB_ACTOR_out
    dtype: Optional[DType] = None  # filled by type inference
    producer: Optional[int] = None  # flat-actor index, None for virtual


@dataclass
class Guard:
    """A conditional-execution scope (one enabled subsystem)."""

    gid: int
    signal: int  # sid of the enable signal (evaluated as > 0)
    parent: Optional[int]  # enclosing guard gid, None at top level
    path: str  # subsystem path, for reporting


@dataclass
class FlatActor:
    """An executable actor after flattening."""

    index: int  # dense flat-actor index
    path: str  # MODEL_SUB_ACTOR (the paper's index-key convention)
    actor: Actor  # private copy; port dtypes resolved by inference
    guard: Optional[int]  # gid, None = always executes
    input_sids: tuple[int, ...]
    output_sids: tuple[int, ...]
    # Merge only: guard of each input's producer (None = unguarded).
    merge_src_guards: Optional[tuple[Optional[int], ...]] = None

    @property
    def block_type(self) -> str:
        return self.actor.block_type


@dataclass(frozen=True)
class ExecActor:
    """Execution-order node: run one flat actor's output phase."""

    actor_index: int


@dataclass(frozen=True)
class EvalGuard:
    """Execution-order node: evaluate one guard's activity for this step."""

    gid: int


Node = Union[ExecActor, EvalGuard]


@dataclass
class StoreInfo:
    """A data store declaration collected during flattening."""

    name: str
    dtype: DType
    initial: object
    path: str


@dataclass
class PortBinding:
    """A root-level model port resolved to its flat signal."""

    name: str
    path: str
    sid: int
    dtype: Optional[DType] = None


@dataclass
class FlatProgram:
    """Everything the engines need to run a model."""

    model: Model
    actors: list[FlatActor] = field(default_factory=list)
    signals: list[SignalInfo] = field(default_factory=list)
    guards: list[Guard] = field(default_factory=list)
    stores: dict[str, StoreInfo] = field(default_factory=dict)
    inports: list[PortBinding] = field(default_factory=list)
    outports: list[PortBinding] = field(default_factory=list)
    order: list[Node] = field(default_factory=list)  # topologically sorted
    dt: float = 1.0
    # Facts other layers derive from the finished program, each built
    # on first use (e.g. the default-stimuli port plan); never compared.
    derived: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def actor_by_path(self, path: str) -> FlatActor:
        for fa in self.actors:
            if fa.path == path:
                return fa
        raise KeyError(f"no flat actor with path {path!r}")

    def signal_by_name(self, name: str) -> SignalInfo:
        for sig in self.signals:
            if sig.name == name:
                return sig
        raise KeyError(f"no signal named {name!r}")

    def guard_chain(self, gid: Optional[int]) -> list[Guard]:
        """Outermost-first chain of guards ending at ``gid``."""
        chain: list[Guard] = []
        while gid is not None:
            guard = self.guards[gid]
            chain.append(guard)
            gid = guard.parent
        chain.reverse()
        return chain

    @property
    def n_signals(self) -> int:
        return len(self.signals)

    def summary(self) -> str:
        return (
            f"FlatProgram({self.model.name}: {len(self.actors)} actors, "
            f"{len(self.signals)} signals, {len(self.guards)} guards, "
            f"{len(self.stores)} stores)"
        )
