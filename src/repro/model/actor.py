"""Actors (blocks) and their ports.

An actor stores only the *fundamental* information the paper attributes to
the model file's actors part: name, block type, calculation operator, I/O
port skeletons, and free-form parameters.  Data types on ports default to
``None`` ("recorded as default values", §3.1) until the schedule-conversion
step propagates concrete types along the wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.dtypes import DType


@dataclass
class Port:
    """One input or output port of an actor.

    ``dtype`` is ``None`` until type inference resolves it.  Signals are
    scalar; array-typed behaviour (lookup tables, selectors) lives in actor
    parameters, which keeps the wire protocol scalar while still exercising
    array-out-of-bounds diagnosis.
    """

    index: int
    name: str = ""
    dtype: Optional[DType] = None

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"port index must be non-negative, got {self.index}")
        if not self.name:
            self.name = f"port{self.index}"


@dataclass
class Actor:
    """A single block in the model.

    Attributes
    ----------
    name:
        Identifier, unique within its enclosing subsystem.
    block_type:
        The actor type, e.g. ``"Sum"``, ``"Product"``, ``"Switch"``.  The
        set of known types lives in :mod:`repro.actors.registry`.
    operator:
        Type-specific calculation operator, e.g. ``"+-"`` for a Sum actor,
        ``"*/"`` for Product, ``"exp"`` for Math.  ``None`` when the type
        takes no operator.
    params:
        Free-form block parameters (gain value, switch threshold, lookup
        table data, ...), validated by the actor-type registry.
    inputs / outputs:
        Port skeletons.  Output dtypes may be pinned here (``out_dtype`` on
        construction helpers) or left to inference.
    """

    name: str
    block_type: str
    operator: Optional[str] = None
    params: dict[str, Any] = field(default_factory=dict)
    inputs: list[Port] = field(default_factory=list)
    outputs: list[Port] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("actor name must be non-empty")
        if any(ch in self.name for ch in "./ \t\n"):
            raise ValueError(
                f"actor name {self.name!r} contains reserved characters (one of './ ')"
            )
        for seq_name, seq in (("inputs", self.inputs), ("outputs", self.outputs)):
            for expected, port in enumerate(seq):
                if port.index != expected:
                    raise ValueError(
                        f"{seq_name} of actor {self.name!r} are not densely "
                        f"indexed: expected {expected}, got {port.index}"
                    )

    # ------------------------------------------------------------------
    # convenience constructors / accessors
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        name: str,
        block_type: str,
        *,
        n_inputs: int,
        n_outputs: int = 1,
        operator: Optional[str] = None,
        out_dtype: Optional[DType] = None,
        params: Optional[dict[str, Any]] = None,
    ) -> "Actor":
        """Build an actor with freshly numbered ports.

        ``out_dtype`` pins the dtype of every output port; ``None`` leaves
        them for type inference.
        """
        actor = cls(
            name=name,
            block_type=block_type,
            operator=operator,
            params=dict(params or {}),
            inputs=[Port(i) for i in range(n_inputs)],
            outputs=[Port(i, dtype=out_dtype) for i in range(n_outputs)],
        )
        return actor

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    @property
    def out_dtype(self) -> Optional[DType]:
        """Dtype of the sole output port, for the common 1-output case."""
        if len(self.outputs) != 1:
            raise ValueError(f"actor {self.name!r} has {self.n_outputs} outputs")
        return self.outputs[0].dtype

    def param(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)

    def copy(self) -> "Actor":
        """Deep-enough copy for flattening: ports and params duplicated,
        down to nested lists, tuples and dicts, so a flattened program
        never shares a mutable value with the model it came from."""
        return Actor(
            name=self.name,
            block_type=self.block_type,
            operator=self.operator,
            params={k: _detached(v) for k, v in self.params.items()},
            inputs=[Port(p.index, p.name, p.dtype) for p in self.inputs],
            outputs=[Port(p.index, p.name, p.dtype) for p in self.outputs],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        op = f", op={self.operator!r}" if self.operator else ""
        return f"Actor({self.name!r}, {self.block_type}{op})"


def _detached(value: Any) -> Any:
    """``value`` with every nested list, tuple and dict copied."""
    kind = type(value)
    if kind is list or kind is tuple:
        return kind(_detached(item) for item in value)
    if kind is dict:
        return {key: _detached(item) for key, item in value.items()}
    return value
