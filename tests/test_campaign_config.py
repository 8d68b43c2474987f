"""One CampaignConfig behind the library, ``repro campaign`` and the
campaign service's spec: the same defaults, and the same bad values
rejected the same way on every surface — retired knobs included."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, fields

import pytest

from helpers import ServiceThread
from repro.benchmarks import build_benchmark
from repro.campaign import CampaignConfig, iter_campaign, run_campaign
from repro.cli import build_parser, campaign_config, main
from repro.schedule import preprocess
from repro.service import CampaignService, SpecError, parse_spec
from repro.service.client import ServiceError

# (field, bad value, the same value as `repro campaign` flags)
BAD_VALUES = [
    ("steps", 0, ["--steps", "0"]),
    ("max_cases", 0, ["--cases", "0"]),
    ("workers", 0, ["--workers", "0"]),
    ("batch_size", 0, ["--batch-size", "0"]),
    ("threads", -1, ["--threads", "-1"]),
    ("timeout_seconds", 0, ["--timeout", "0"]),
    ("timeout_seconds", -1, ["--timeout", "-1"]),
    ("engine", "nope", ["--engine", "nope"]),
    ("serve", 1, ["--serve", "1"]),
    ("workers", 2, ["--workers", "2"]),
    ("serve", True, ["--serve"]),
    ("inproc", True, ["--inproc"]),
]

# Knobs of the deleted dispatch routes: no longer fields, so each
# surface rejects them as unknown rather than checking their value.
RETIRED = {"workers", "serve", "inproc"}


@pytest.fixture(scope="module")
def prog():
    return preprocess(build_benchmark("SPV"))


@pytest.fixture(scope="module")
def service():
    running = ServiceThread(CampaignService())
    yield running
    running.close()


@pytest.mark.parametrize("surface", ["library", "cli", "service"])
@pytest.mark.parametrize(
    "name, value, argv", BAD_VALUES,
    ids=[f"{name}={value!r}" for name, value, _ in BAD_VALUES],
)
def test_bad_value_fails_on_every_surface(
    surface, name, value, argv, request, capsys
):
    retired = name in RETIRED
    if surface == "library":
        prog = request.getfixturevalue("prog")
        with pytest.raises(TypeError if retired else ValueError, match=name):
            run_campaign(prog, **{name: value})
    elif surface == "cli":
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "bench:SPV", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
    else:
        client = request.getfixturevalue("service").client
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"model": "bench:SPV", name: value})
        assert excinfo.value.status == 400
        assert name in str(excinfo.value.body)
        if retired:
            assert "unknown spec key(s)" in str(excinfo.value.body)


def test_cli_config_error_is_one_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "bench:SPV", "--cases", "0"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "accmos campaign: error: max_cases must be at least 1"
    )


def test_defaults_agree_across_surfaces():
    args = build_parser().parse_args(["campaign", "bench:SPV"])
    assert campaign_config(args) == CampaignConfig()
    assert parse_spec({"model": "bench:SPV"}).config == CampaignConfig()

    # The spec accepts exactly the config's fields plus model and tenant.
    names = {f.name for f in fields(CampaignConfig)}
    document = {"model": "bench:SPV", "tenant": "t"}
    document.update(
        (f.name, getattr(CampaignConfig(), f.name))
        for f in fields(CampaignConfig)
    )
    assert parse_spec(document).config == CampaignConfig()
    strangers = {"options", "retries", "mode", "window", "cases", "seed"}
    with pytest.raises(SpecError) as excinfo:
        parse_spec(dict(document, **dict.fromkeys(strangers, 1)))
    listed = str(excinfo.value).split(": ", 1)[1]
    assert listed == ", ".join(repr(key) for key in sorted(strangers))
    assert not names & strangers


class TestCampaignConfig:
    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            CampaignConfig().steps = 5  # type: ignore[misc]

    @pytest.mark.parametrize("name", ["steps", "max_cases", "base_seed"])
    def test_ints_reject_bools(self, name):
        with pytest.raises(ValueError, match=f"'{name}' must be an integer"):
            CampaignConfig(**{name: True})

    def test_config_and_fields_together_rejected(self, prog):
        with pytest.raises(TypeError, match="not both"):
            iter_campaign(prog, CampaignConfig(), steps=10)

    def test_unknown_field_rejected(self, prog):
        with pytest.raises(TypeError, match="options"):
            run_campaign(prog, options=None)

    def test_config_and_fields_run_alike(self, prog):
        config = CampaignConfig(engine="sse", steps=20, max_cases=3)
        via_config = run_campaign(prog, config)
        via_fields = run_campaign(prog, engine="sse", steps=20, max_cases=3)
        assert via_config.merged.bitmaps == via_fields.merged.bitmaps
        assert [c.new_points for c in via_config.cases] == [
            c.new_points for c in via_fields.cases
        ]
