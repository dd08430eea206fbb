"""The tail-percentile rule and the compare verdicts."""

import json
import statistics

import numpy as np
import pytest

from bench import stats
from bench.compare import compare_dirs, verdict
from bench.harness import load_spec


@pytest.mark.parametrize("n, q", [
    (9, 50.0),      # too few samples for any tail: the median
    (20, 50.0),
    (54, 80.0),     # 10.8 beyond p80, 5.4 beyond p90
    (100, 90.0),    # exactly ten beyond
    (199, 90.0),
    (200, 95.0),
    (400, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert stats.tail_percentile(n) == q


def test_percentile_and_quartiles_match_the_references():
    values = list(np.random.default_rng(3).exponential(size=37))
    for q in (0, 12.5, 50, 80, 99.9, 100):
        assert stats.percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)), rel=1e-12)
    assert stats.quartiles(values) == tuple(
        statistics.quantiles(values, n=4))
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def test_consistent_wins_beyond_the_parent_spread_are_a_gain():
    v = verdict(PARENT, [x * 1.3 for x in PARENT], "higher", 0.2)
    assert v["verdict"] == "improved"
    assert (v["wins"], v["pairs"]) == (10, 10)


@pytest.mark.parametrize("better, expected", [("lower", "improved"),
                                               ("higher", "regressed")])
def test_direction_decides_which_way_is_better(better, expected):
    lower = [x * 0.7 for x in PARENT]
    assert verdict(PARENT, lower, better, 0.2)["verdict"] == expected


def test_ties_win_for_neither_and_small_shifts_are_unchanged():
    v = verdict(PARENT, list(PARENT), "higher", 0.2)
    assert v["wins"] == 0 and v["verdict"] == "unchanged"
    mixed = verdict(PARENT, [x * 1.005 for x in reversed(PARENT)],
                    "higher", 0.2)
    assert mixed["wins"] < 9 and mixed["verdict"] == "unchanged"


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
             100.0]
    assert verdict(noisy, [x * 0.8 for x in noisy], "higher",
                   0.1)["verdict"] == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    assert verdict(noisy, [x + 200.0 for x in noisy], "higher",
                   0.1)["verdict"] == "improved"


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_a_decisive_loss_regresses_however_noisy_the_parent(better):
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
             100.0]
    worse = -1.0 if better == "higher" else 1.0
    # The parent's own spread (45 %) is wider than the bound ...
    assert verdict(noisy, noisy, better, 0.1)["spread"] > 0.1
    # ... but every run of the change is worse than every parent run.
    v = verdict(noisy, [x + worse * 150.0 for x in noisy], better, 0.1)
    assert v["verdict"] == "regressed"
    # Losing every pair by more than the parent's quartile distance (45)
    # counts too, though the two sides overlap.
    v = verdict(noisy, [x + worse * 50.0 for x in noisy], better, 0.1)
    assert (v["verdict"], v["wins"]) == ("regressed", 0)
    # A loss within the bound stays unresolved on noisy data.
    v = verdict(noisy, [x + worse * 5.0 for x in noisy], better, 0.1)
    assert v["verdict"] == "unresolved"


def _write_runs(root, runs):
    spec = load_spec()
    for i, (seed, scale, digest, failed) in enumerate(runs):
        record = {
            "workload": spec["workloads"][0]["name"], "seed": seed,
            "metrics": {m["name"]: {"value": 100.0 * scale
                                    if m["better"] == "higher"
                                    else 100.0 / scale, "unit": m["unit"]}
                        for m in spec["end_to_end"]},
            "failed_frac": failed, "output_digest": digest,
            "simulated": {"qoe": 0.5},
        }
        run_dir = root / f"run-{i}"
        run_dir.mkdir(parents=True)
        (run_dir / f"BENCH_{record['workload']}.json").write_text(
            json.dumps(record))


def test_compare_exits_nonzero_on_regression_and_flags_outputs(
        tmp_path, capsys):
    same = [(s, 1.0 + 0.001 * s, f"d{s}", 0.0) for s in range(5)]
    _write_runs(tmp_path / "a", same)
    _write_runs(tmp_path / "b", same)
    assert compare_dirs(tmp_path / "a", tmp_path / "b") == 0

    _write_runs(tmp_path / "slow", [(s, 0.5, f"d{s}", 0.0)
                                    for s in range(5)])
    assert compare_dirs(tmp_path / "a", tmp_path / "slow") == 1

    _write_runs(tmp_path / "changed", [(s, 1.0 + 0.001 * s, "other",
                                        0.1 if s == 0 else 0.0)
                                       for s in range(5)])
    capsys.readouterr()
    assert compare_dirs(tmp_path / "a", tmp_path / "changed") == 1
    out = capsys.readouterr().out
    assert "output digest changed" in out
    assert "failed_frac rose" in out


def test_compare_flags_unresolved_rows_and_still_catches_a_slowdown(
        tmp_path, capsys):
    scales = (0.6, 1.4, 0.8, 1.2, 1.0)
    _write_runs(tmp_path / "noisy", [(s, x, f"d{s}", 0.0)
                                     for s, x in enumerate(scales)])
    _write_runs(tmp_path / "noisy-too", [(s, x * 0.98, f"d{s}", 0.0)
                                         for s, x in enumerate(scales)])
    capsys.readouterr()
    assert compare_dirs(tmp_path / "noisy", tmp_path / "noisy-too") == 0
    assert "unresolved, spread" in capsys.readouterr().out

    _write_runs(tmp_path / "slow", [(s, 0.2, f"d{s}", 0.0)
                                    for s in range(5)])
    assert compare_dirs(tmp_path / "noisy", tmp_path / "slow") == 1
