"""Campaign-spec JSON: what ``POST /campaigns`` accepts.

A spec is a JSON object naming a model plus any of the
:func:`repro.campaign.run_campaign` knobs::

    {
      "model": "bench:SPV",          // or an inline generic-IR document,
                                     // or a path the server may read
      "steps": 2000,
      "max_cases": 8,
      "plateau_patience": 3,
      "workers": 2,
      "tenant": "team-a"             // quota / fairness bucket
    }

Validation is strict — unknown keys are rejected, every knob is type-
and range-checked *before* a campaign id is handed out — because the
service runs specs long after the submitting request returned; a late
``ValueError`` deep in the runner would otherwise be the first sign of a
typo.  The checks mirror :func:`repro.campaign.run_campaign`'s so a spec
that validates here cannot fail validation there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

DEFAULT_TENANT = "default"

# Knobs forwarded verbatim to iter_campaign, with (type, validator).
_BOOL_KNOBS = ("serve", "inproc")
_INT_KNOBS = {
    # name: (minimum, description)
    "steps": (1, "steps must be at least 1"),
    "max_cases": (1, "max_cases must be at least 1"),
    "plateau_patience": (1, "plateau_patience must be at least 1"),
    "workers": (1, "workers must be at least 1"),
    "batch_size": (1, "batch_size must be at least 1"),
    "threads": (0, "threads must be non-negative"),
    "base_seed": (None, None),
}
_ALLOWED_KEYS = (
    {"model", "engine", "timeout_seconds", "tenant"}
    | set(_BOOL_KNOBS)
    | set(_INT_KNOBS)
)


class SpecError(ValueError):
    """A campaign spec failed validation (maps to HTTP 400)."""


@dataclass
class CampaignSpec:
    """A validated campaign submission."""

    model: "Union[str, dict]"
    tenant: str = DEFAULT_TENANT
    engine: str = "accmos"
    knobs: "dict[str, Any]" = field(default_factory=dict)

    def campaign_kwargs(self) -> "dict[str, Any]":
        """Keyword arguments for :func:`repro.campaign.iter_campaign`."""
        kwargs = dict(self.knobs)
        kwargs["engine"] = self.engine
        return kwargs

    def load_program(self):
        """Resolve the model reference to a preprocessed FlatProgram."""
        from repro.schedule import preprocess

        if isinstance(self.model, dict):
            from repro.slx.generic import generic_to_model

            return preprocess(generic_to_model(self.model))
        if self.model.startswith("bench:"):
            from repro.benchmarks import build_benchmark

            return preprocess(build_benchmark(self.model[len("bench:"):]))
        if self.model.endswith(".json"):
            from repro.slx import load_generic

            return preprocess(load_generic(self.model))
        from repro.slx import load_model

        return preprocess(load_model(self.model))


def parse_spec(document: Any) -> CampaignSpec:
    """Validate one submission document into a :class:`CampaignSpec`.

    Raises :class:`SpecError` with a message naming the offending key —
    the service returns it verbatim as the 400 body.
    """
    if not isinstance(document, dict):
        raise SpecError("campaign spec must be a JSON object")
    unknown = sorted(set(document) - _ALLOWED_KEYS)
    if unknown:
        raise SpecError(
            "unknown spec key(s): "
            + ", ".join(repr(key) for key in unknown)
        )

    model = document.get("model")
    if isinstance(model, dict):
        if "blocks" not in model:
            raise SpecError(
                "inline model documents must be generic-IR objects "
                "(missing 'blocks')"
            )
    elif not isinstance(model, str) or not model:
        raise SpecError(
            "spec requires 'model': a 'bench:NAME' reference, a model "
            "file path, or an inline generic-IR document"
        )

    engine = document.get("engine", "accmos")
    from repro.engines.api import ENGINES

    if engine not in ENGINES:
        raise SpecError(
            f"unknown engine {engine!r}; valid engines: "
            f"{', '.join(sorted(ENGINES))}"
        )

    tenant = document.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not tenant:
        raise SpecError("'tenant' must be a non-empty string")

    knobs: "dict[str, Any]" = {}
    for name in _BOOL_KNOBS:
        if name in document:
            value = document[name]
            if not isinstance(value, bool):
                raise SpecError(f"'{name}' must be a boolean")
            knobs[name] = value
    for name, (minimum, message) in _INT_KNOBS.items():
        if name in document:
            value = document[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise SpecError(f"'{name}' must be an integer")
            if minimum is not None and value < minimum:
                raise SpecError(message)
            knobs[name] = value
    if "timeout_seconds" in document:
        value = document["timeout_seconds"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError("'timeout_seconds' must be a number")
        if value <= 0:
            raise SpecError("'timeout_seconds' must be positive")
        knobs["timeout_seconds"] = float(value)

    return CampaignSpec(
        model=model, tenant=tenant, engine=engine, knobs=knobs
    )
