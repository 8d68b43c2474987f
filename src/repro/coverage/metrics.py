"""The coverage metric identifiers."""

from __future__ import annotations

import enum


class Metric(enum.Enum):
    """One of the four Simulink coverage metrics."""

    ACTOR = "actor"
    CONDITION = "condition"
    DECISION = "decision"
    MCDC = "mcdc"

    # Members are singletons compared by identity; the identity hash
    # skips Enum's Python-level name hash on every dict lookup.
    __hash__ = object.__hash__

    @property
    def title(self) -> str:
        return {"actor": "Actor", "condition": "Condition",
                "decision": "Decision", "mcdc": "MC/DC"}[self.value]


ALL_METRICS = (Metric.ACTOR, Metric.CONDITION, Metric.DECISION, Metric.MCDC)
