"""Campaign-spec JSON: what ``POST /campaigns`` accepts.

A spec is a JSON object naming a model and a tenant plus any
:class:`repro.campaign.CampaignConfig` field::

    {
      "model": "bench:SPV",          // or an inline generic-IR document,
                                     // or a path the server may read
      "steps": 2000,
      "max_cases": 8,
      "plateau_patience": 3,
      "workers": 2,
      "tenant": "team-a"             // quota / fairness bucket
    }

Validation is strict and happens *before* a campaign id is handed out,
because the service runs specs long after the submitting request
returned: unknown keys are rejected, and the config fields go through
:class:`~repro.campaign.CampaignConfig`'s own checks, so an omitted key
takes the library's default and a bad value fails exactly as it would
on ``run_campaign`` or ``repro campaign``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Union

from repro.campaign import CampaignConfig

DEFAULT_TENANT = "default"


class SpecError(ValueError):
    """A campaign spec failed validation (maps to HTTP 400)."""


@dataclass
class CampaignSpec:
    """A validated campaign submission."""

    model: "Union[str, dict]"
    tenant: str = DEFAULT_TENANT
    config: CampaignConfig = field(default_factory=CampaignConfig)

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
    config_keys = {f.name for f in fields(CampaignConfig)}
    unknown = sorted(set(document) - config_keys - {"model", "tenant"})
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

    tenant = document.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not tenant:
        raise SpecError("'tenant' must be a non-empty string")

    try:
        config = CampaignConfig(
            **{key: document[key] for key in config_keys & set(document)}
        )
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    return CampaignSpec(model=model, tenant=tenant, config=config)
