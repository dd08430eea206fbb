"""The one value grammar (repro.core.spec) behind every CLI value and the
five config specs."""

import math
import re
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import spec
from repro.core.halving import HalvingConfig
from repro.fleet import ElasticConfig, FleetFaultSpec
from repro.fleet.faults import FLEET_FAULT_PRESETS
from repro.runtime.faults import FAULT_PRESETS, FaultSpec
from repro.runtime.reconfig import PartialReconfigModel

NAN, INF = math.nan, math.inf


# ----------------------------------------------------------------------
# round trip: valid field values written as key=value text parse back
# ----------------------------------------------------------------------
def _unit(low=0.0, high=1.0):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


#: Per spec class: a strategy per settable field and the class's presets.
SPECS = {
    FaultSpec: ({
        "reconfig_failure_prob": _unit(), "reconfig_jitter": _unit(0, 0.99),
        "inference_error_prob": _unit(), "drop_prob": _unit(),
        "spike_prob": _unit(), "spike_factor": _unit(1, 10),
        "spike_duration_s": _unit(0.01, 10),
        "reconfig_retries": st.integers(0, 9),
        "retry_backoff_s": _unit(0, 2),
        "inference_retries": st.integers(0, 9),
        "active_from_s": _unit(0, 10),
        "active_until_s": st.none() | _unit(10.5, 100),
    }, FAULT_PRESETS),
    FleetFaultSpec: ({
        "racks_lost": st.integers(0, 4),
        "kill_time_s": st.none() | _unit(0.01, 100),
        "reroute_delay_s": _unit(0, 5), "herd": st.booleans(),
        "server_preset": st.sampled_from(["", *FAULT_PRESETS]),
    }, FLEET_FAULT_PRESETS),
    ElasticConfig: ({
        "min_servers": st.integers(1, 4), "max_servers": st.integers(8, 64),
        "scale_up_utilization": _unit(0.61, 0.9),
        "scale_down_utilization": _unit(0.01, 0.29),
        "target_utilization": _unit(0.31, 0.6),
        "ewma_alpha": _unit(0.01, 1), "cooldown_s": _unit(0, 10),
        "startup_delay_s": _unit(0, 10), "handoff_s": _unit(0, 10),
        "overload_utilization": _unit(0.91, 3),
        "overload_ticks": st.integers(1, 9), "phi_threshold": _unit(0.1, 20),
        "heartbeat_interval_s": _unit(0.01, 1),
        "heartbeat_jitter": _unit(0, 0.99),
    }, {}),
    HalvingConfig: ({
        "min_epochs": st.integers(1, 5), "eta": st.integers(2, 5),
        "extra_keep": st.integers(0, 5),
        "keep_schedule_twins": st.booleans(),
    }, {}),
}

_SPELLINGS = {True: ["1", "true", "yes", "on", "True", "ON"],
              False: ["0", "false", "no", "off", "False", "OFF"]}


def _written(value, data) -> str:
    if value is None:
        return data.draw(st.sampled_from(["none", "None", "NONE"]))
    if isinstance(value, bool):
        return data.draw(st.sampled_from(_SPELLINGS[value]))
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("cls", list(SPECS), ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_spec_round_trip(cls, data):
    strategies, presets = SPECS[cls]
    values = {key: data.draw(s, label=key) for key, s in strategies.items()}
    keys = data.draw(st.permutations(list(values)), label="order")
    keys = keys[:data.draw(st.integers(0, len(keys)), label="count")]
    preset = data.draw(st.sampled_from([None, *presets]), label="preset")
    try:
        expected = replace(presets[preset] if preset else cls(),
                           **{key: values[key] for key in keys})
    except ValueError:
        assume(False)
    tokens = [f"{key}={_written(values[key], data)}" for key in keys]
    text = ",".join([preset] * bool(preset) + tokens)
    assert cls.parse(text) == expected


@settings(max_examples=60, deadline=None)
@given(regions=st.none() | st.integers(3, 12),
       exit_regions=st.none() | st.integers(0, 2),
       overhead_ms=st.none() | _unit(0, 20),
       full_ms=st.none() | _unit(20, 500))
def test_partial_reconfig_round_trip(regions, exit_regions, overhead_ms,
                                     full_ms):
    written = {"regions": regions, "exit_regions": exit_regions,
               "overhead_ms": overhead_ms, "full_ms": full_ms}
    written = {k: v for k, v in written.items() if v is not None}
    kwargs = {}
    if exit_regions is not None:
        kwargs["exit_regions"] = exit_regions
    if overhead_ms is not None:
        kwargs["overhead_s"] = overhead_ms / 1000.0
    if full_ms is not None:
        kwargs["full_time_s"] = full_ms / 1000.0
    if regions is not None:
        widths = PartialReconfigModel.stage_widths
        kwargs["regions"] = regions
        kwargs["stage_widths"] = tuple(
            widths[i % len(widths)]
            for i in range(regions - kwargs.get("exit_regions", 2)))
    try:
        expected = PartialReconfigModel(**kwargs)
    except ValueError:
        assume(False)
    text = ",".join(f"{k}={v!r}" for k, v in written.items())
    assert PartialReconfigModel.parse(text) == expected


# ----------------------------------------------------------------------
# the spec strings of the benchmark, the golden fixtures and the docs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls,text,expected", [
    (FaultSpec, "heavy", FAULT_PRESETS["heavy"]),
    (FaultSpec, "heavy,drop_prob=0.05",
     replace(FAULT_PRESETS["heavy"], drop_prob=0.05)),
    (FaultSpec, "reconfig_failure_prob=0.3,drop_prob=0.01",
     FaultSpec(reconfig_failure_prob=0.3, drop_prob=0.01)),
    (FaultSpec, "", FaultSpec()),
    (PartialReconfigModel, "on", PartialReconfigModel()),
    (PartialReconfigModel, "regions=8,exit_regions=2,overhead_ms=10,"
     "full_ms=145", PartialReconfigModel(overhead_s=0.01,
                                         full_time_s=0.145)),
    (PartialReconfigModel, "Exit-Regions=2", PartialReconfigModel()),
    (FleetFaultSpec, "thundering-herd",
     FleetFaultSpec(racks_lost=1, herd=True, reroute_delay_s=1.0)),
    (FleetFaultSpec, "rack-loss,kill_time_s=3.0",
     FleetFaultSpec(racks_lost=1, herd=False, kill_time_s=3.0)),
    (FleetFaultSpec, "fleet-chaos,server_preset=",
     FleetFaultSpec(racks_lost=2, herd=True)),
    (ElasticConfig, "", ElasticConfig()),
    (ElasticConfig, "min_servers=2,max_servers=8",
     ElasticConfig(min_servers=2, max_servers=8)),
    (HalvingConfig, "eta=2", HalvingConfig(eta=2)),
    (HalvingConfig, "min_epochs=1,eta=2,extra_keep=3",
     HalvingConfig(extra_keep=3)),
])
def test_known_spec_strings(cls, text, expected):
    assert cls.parse(text) == expected


def test_overrides_are_applied_together():
    # Lowering scale_up below the default target is valid only together
    # with the other two utilizations, whatever their order.
    text = ("scale_up_utilization=0.5,target_utilization=0.4,"
            "scale_down_utilization=0.2")
    assert ElasticConfig.parse(text) == ElasticConfig(
        scale_up_utilization=0.5, target_utilization=0.4,
        scale_down_utilization=0.2)


def test_last_value_of_a_repeated_key_wins():
    assert FaultSpec.parse("drop_prob=0.1, drop_prob = 0.2").drop_prob == 0.2


# ----------------------------------------------------------------------
# bad values fail closed, naming the key and the value
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls,text,named", [
    # non-finite floats
    (FaultSpec, "retry_backoff_s=nan", ("retry_backoff_s", "nan")),
    (FaultSpec, "active_until_s=inf", ("active_until_s", "inf")),
    (FleetFaultSpec, "reroute_delay_s=nan", ("reroute_delay_s", "nan")),
    (ElasticConfig, "cooldown_s=nan", ("cooldown_s", "nan")),
    (PartialReconfigModel, "overhead_ms=nan", ("overhead_ms", "nan")),
    # a fraction for an int
    (FaultSpec, "reconfig_retries=2.5", ("reconfig_retries", "2.5")),
    (FleetFaultSpec, "racks_lost=2.5", ("racks_lost", "2.5")),
    (ElasticConfig, "max_servers=2.5", ("max_servers", "2.5")),
    (PartialReconfigModel, "regions=2.5", ("regions", "2.5")),
    (HalvingConfig, "eta=2.5", ("eta", "2.5")),
    # not a boolean
    (FleetFaultSpec, "herd=maybe", ("herd", "maybe")),
    (HalvingConfig, "keep_schedule_twins=maybe",
     ("keep_schedule_twins", "maybe")),
    (HalvingConfig, "keep_schedule_twins=7", ("keep_schedule_twins", "7")),
    # unknown keys
    (FaultSpec, "turbo=1", ("turbo", "turbo=1")),
    (FleetFaultSpec, "turbo=1", ("turbo", "turbo=1")),
    (ElasticConfig, "turbo=1", ("turbo", "turbo=1")),
    (PartialReconfigModel, "turbo=1", ("turbo", "turbo=1")),
    (HalvingConfig, "turbo=1", ("turbo", "turbo=1")),
    # empty values
    (FaultSpec, "drop_prob=", ("drop_prob", "''")),
    (FleetFaultSpec, "kill_time_s=", ("kill_time_s", "''")),
    (ElasticConfig, "cooldown_s=", ("cooldown_s", "''")),
    (PartialReconfigModel, "full_ms=", ("full_ms", "''")),
    (HalvingConfig, "eta=", ("eta", "''")),
    # a key without a value
    (HalvingConfig, "eta", ("eta",)),
    # a preset after an override
    (FaultSpec, "drop_prob=0.1,heavy", ("heavy", "must come first")),
    (FleetFaultSpec, "racks_lost=1,rack-loss",
     ("rack-loss", "must come first")),
])
def test_bad_values_fail_naming_the_key(cls, text, named):
    with pytest.raises(ValueError) as err:
        cls.parse(text)
    for part in named:
        assert part in str(err.value)


@pytest.mark.parametrize("flag,argv", [
    ("--faults", ["evaluate", "--faults", "retry_backoff_s=nan"]),
    ("--partial-reconfig", ["evaluate", "--partial-reconfig",
                            "overhead_ms=nan"]),
    ("--fleet-faults", ["fleet", "--fleet-faults", "herd=maybe"]),
    ("--fleet-faults", ["fleet", "--fleet-faults", "reroute_delay_s=nan"]),
    ("--elastic", ["fleet", "--elastic", "cooldown_s=nan"]),
    ("--capacity-fraction", ["fleet", "--capacity-fraction", "1.5"]),
])
def test_cli_exits_2_naming_the_flag(capsys, flag, argv):
    # x.json does not exist: the spec is refused before any load.
    with pytest.raises(SystemExit) as err:
        main([*argv, "--library", "x.json"])
    assert err.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_cli_halving_exits_2_naming_the_flag(capsys, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["generate", "-o", "x.json", "--point-cache", str(tmp_path),
              "--halving", "keep_schedule_twins=7"])
    assert err.value.code == 2
    assert "argument --halving: keep_schedule_twins" \
        in capsys.readouterr().err


# ----------------------------------------------------------------------
# the value grammar itself
# ----------------------------------------------------------------------
@pytest.mark.parametrize("text,value", [
    *[(t, True) for t in _SPELLINGS[True]],
    *[(t, False) for t in _SPELLINGS[False]],
])
def test_booleans(text, value):
    assert spec.parse_value(text, bool, "flag") is value


@pytest.mark.parametrize("kind,text,value", [
    (int, " 7 ", 7), (float, "1e-3", 0.001), ("float | None", "none", None),
    ("float | None", "2", 2.0), (str, " heavy ", "heavy"), (str, "", ""),
])
def test_values(kind, text, value):
    assert spec.parse_value(text, kind, "key") == value


def test_number_and_items():
    rates = spec.items(spec.number(float, 0, 1, open_high=True), "rate")
    assert rates(" 0.0, 0.4 ") == [0.0, 0.4]
    for bad, message in (("0.2,1.0", "must be in [0, 1) (got 1.0)"),
                         ("0.2,,0.4", "'' is not a number"),
                         (" , ", "expected at least one rate")):
        with pytest.raises(ValueError, match=re.escape(message)):
            rates(bad)
    with pytest.raises(ValueError, match="must be >= 1"):
        spec.number(int, 1)("0")
    with pytest.raises(ValueError, match="must be > 0 and finite"):
        spec.number(float, 0, open_low=True)("inf")


# ----------------------------------------------------------------------
# non-finite values fail at construction, naming the field
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field", ["spike_factor", "retry_backoff_s",
                                   "active_from_s", "active_until_s",
                                   "spike_duration_s"])
@pytest.mark.parametrize("value", [NAN, INF])
def test_fault_spec_refuses_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        FaultSpec(**{field: value})


@pytest.mark.parametrize("field", ["kill_time_s", "reroute_delay_s"])
@pytest.mark.parametrize("value", [NAN, INF])
def test_fleet_fault_spec_refuses_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        FleetFaultSpec(**{field: value})


@pytest.mark.parametrize("field", ["cooldown_s", "handoff_s",
                                   "startup_delay_s", "phi_threshold",
                                   "overload_utilization"])
@pytest.mark.parametrize("value", [NAN, INF])
def test_elastic_config_refuses_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        ElasticConfig(**{field: value})


@pytest.mark.parametrize("field", ["overhead_s", "full_time_s"])
@pytest.mark.parametrize("value", [NAN, INF])
def test_partial_reconfig_model_refuses_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        PartialReconfigModel(**{field: value})
