"""``BENCHMARK.json`` follows its schema and limits and matches the
harness registry."""

import re

import pytest

from bench import harness
from bench.__main__ import parser
from bench.trace import Profile, layer_value

harness.import_program()

from bench.workloads import WORKLOADS, RepResult  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")

SPEC = harness.load_spec()


def test_schema_and_limits():
    assert harness.SPEC_PATH.stat().st_size <= 64 * 1024
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    command = SPEC["command"]
    assert 1 <= len(command) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 and
               not a.startswith("/") and ".." not in a for a in command)
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.fullmatch(path) and ".." not in path.split("/")
        assert (harness.ROOT / path).is_dir()
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher",
                                                            "lower")
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = bounds["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_registry():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match_what_the_harness_computes():
    reps = [harness.Rep(3.0, scaled, RepResult(work=10.0, ops=1, failed=0,
                                               digest="x"), [1.0])
            for scaled in (2.0, 1.0, 4.0)]
    # (rescaled, wall) pairs: only the rescaled seconds count.
    values = harness._end_to_end([(0.4, 9.0), (0.5, 9.0), (0.9, 9.0)],
                                 [(0.1, 9.0), (0.2, 9.0), (0.3, 9.0)],
                                 reps, 64.0)
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert values["setup_s"] == pytest.approx(0.7)
    assert values["work_per_s"] == pytest.approx(5.0)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_the_benchmark_command_parses_the_standard_invocation(trace):
    # BENCHMARK.json's command is run as
    # <command> --workload W --seed N --seconds S --trace 0|1.
    command = SPEC["command"]
    assert command[:3] == ["python3", "-m", "bench"]
    args = parser().parse_args(
        command[3:] + ["--workload", "fleet-elastic", "--seed", "3",
                       "--seconds", str(SPEC["run_seconds"]),
                       "--trace", trace])
    assert (args.command, args.workload, args.seed) == (
        "run", ["fleet-elastic"], 3)
    assert args.seconds == SPEC["run_seconds"]
    assert args.trace == int(trace)


def test_every_per_layer_metric_resolves():
    empty = Profile([], reps=1)
    for m in SPEC["per_layer"]:
        assert layer_value(m["name"], empty) == 0.0
    with pytest.raises(KeyError):
        layer_value("no.such.span.s", empty)


def test_the_full_schedule_of_timed_runs_fits_the_time_cap():
    # Ten seeds per workload, twice, plus a few extra runs: 4 + 22 per
    # workload, each measuring run_seconds, within 3420 s in total.
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * SPEC["run_seconds"] <= 3420
