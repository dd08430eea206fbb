"""CLI tests (against the hand-built toy library on disk)."""

import json
import resource

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def library_path(toy_library, tmp_path):
    path = tmp_path / "lib.json"
    toy_library.save(path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--dataset", "gtsrb", "-o", "x.json"])
        assert args.dataset == "gtsrb"
        assert args.profile == "quick"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestValidation:
    def error_text(self, capsys, argv) -> str:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        return capsys.readouterr().err

    def test_workers_must_be_positive(self, capsys):
        err = self.error_text(capsys, ["generate", "-o", "x.json",
                                       "--workers", "0"])
        assert "--workers" in err and "must be >= 1" in err

    @pytest.mark.parametrize("scale", ["0", "-0.5", "nan", "inf"])
    def test_resource_width_scale_must_be_positive_and_finite(self, capsys,
                                                              scale):
        err = self.error_text(capsys, ["generate", "-o", "x.json",
                                       "--resource-width-scale", scale])
        assert "--resource-width-scale" in err
        assert "must be > 0 and finite" in err

    def test_workers_must_be_integer(self, capsys):
        err = self.error_text(capsys, ["generate", "-o", "x.json",
                                       "--workers", "two"])
        assert "not an integer" in err

    def test_rates_bounds(self, capsys):
        err = self.error_text(capsys, ["generate", "-o", "x.json",
                                       "--rates", "0.2,1.0"])
        assert "in [0, 1)" in err

    def test_rates_must_be_numbers(self, capsys):
        err = self.error_text(capsys, ["generate", "-o", "x.json",
                                       "--rates", "0.2,high"])
        assert "'high' is not a number" in err

    def test_rates_must_be_nonempty(self, capsys):
        err = self.error_text(capsys, ["generate", "-o", "x.json",
                                       "--rates", ","])
        assert "at least one pruning rate" in err

    def test_point_timeout_must_be_positive(self, capsys):
        err = self.error_text(capsys, ["generate", "-o", "x.json",
                                       "--point-timeout", "0"])
        assert "must be > 0" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_positive_float_must_be_finite(self, capsys, value):
        err = self.error_text(capsys, ["fleet", "--library", "x.json",
                                       "--duration", value])
        assert "--duration" in err and "must be > 0 and finite" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonnegative_float_must_be_finite(self, capsys, value):
        err = self.error_text(capsys, ["evaluate", "--library", "x.json",
                                       "--batch-window", value])
        assert "--batch-window" in err and "must be >= 0 and finite" in err

    def test_point_retries_must_be_nonnegative(self, capsys):
        err = self.error_text(capsys, ["generate", "-o", "x.json",
                                       "--point-retries", "-1"])
        assert "must be >= 0" in err

    def test_resume_requires_point_cache(self, capsys):
        err = self.error_text(capsys, ["generate", "-o", "x.json",
                                       "--resume"])
        assert "--resume needs --point-cache" in err

    def test_resume_requires_a_manifest(self, capsys, tmp_path):
        err = self.error_text(capsys, ["generate", "-o", "x.json",
                                       "--resume",
                                       "--point-cache", str(tmp_path)])
        assert "nothing to resume" in err

    def test_bad_fault_spec(self, capsys):
        err = self.error_text(capsys, ["evaluate", "--library", "x.json",
                                       "--faults", "frobnicate"])
        assert "--faults" in err and "frobnicate" in err

    def test_evaluate_runs_must_be_positive(self, capsys):
        err = self.error_text(capsys, ["evaluate", "--library", "x.json",
                                       "--runs", "0"])
        assert "--runs" in err and "must be >= 1" in err

    @pytest.mark.parametrize("value", ["-5", "nan"])
    def test_select_workload_must_be_nonnegative(self, capsys, value):
        err = self.error_text(capsys, ["select", "--library", "x.json",
                                       "--workload", value])
        assert "--workload" in err and "must be >= 0 and finite" in err

    @pytest.mark.parametrize("value", ["0", "-770"])
    def test_design_space_top_must_be_positive(self, capsys, value):
        err = self.error_text(capsys, ["design-space", "--library",
                                       "x.json", "--top", value])
        assert "--top" in err and "must be >= 1" in err

    @pytest.mark.parametrize("argv", [
        ["generate", "-o", "x.json", "--seed", "-1"],
        ["evaluate", "--library", "x.json", "--seed", "-1"],
        ["evaluate", "--library", "x.json", "--fault-seed", "-1"],
        ["fleet", "--library", "x.json", "--seed", "-1"],
        ["fleet", "--library", "x.json", "--fault-seed", "-1"],
    ])
    def test_seeds_must_be_nonnegative(self, capsys, argv):
        err = self.error_text(capsys, argv)
        assert argv[-2] in err and "must be >= 0" in err

    @pytest.mark.parametrize("policies", ["adapex,,finn", "adapex,oracle"])
    def test_evaluate_policies_checked_up_front(self, capsys, policies):
        err = self.error_text(capsys, ["evaluate", "--library", "x.json",
                                       "--policies", policies])
        assert "--policies" in err and "unknown policy" in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--precision", "bogus", "unknown precision 'bogus'"),
        ("--criterion", "bogus", "unknown pruning criterion 'bogus'"),
        ("--schedule", "bogus", "unknown retraining schedule 'bogus'"),
        ("--precision", ",", "at least one precision"),
        ("--criterion", " , ", "at least one pruning criterion"),
        ("--schedule", "", "at least one retraining schedule"),
        ("--precision", "base,int8,base", "duplicate precision"),
        ("--criterion", "l1,fpgm,l1", "duplicate pruning criterion"),
        ("--schedule", "psfp, psfp", "duplicate retraining schedule"),
    ])
    def test_sweep_axes_checked_up_front(self, capsys, flag, value,
                                         message):
        err = self.error_text(capsys, ["generate", "-o", "x.json", flag,
                                       value])
        assert flag in err and message in err

    @pytest.mark.parametrize("flags,message", [
        (["--brownout", "0.05,0.02"], "strictly increasing"),
        (["--brownout", "0"], "positive deltas"),
        (["--brownout", "0.02", "--brownout-low", "0.9",
          "--brownout-high", "0.5"], "brownout_low < brownout_high"),
        (["--brownout-high", "1.5"], "brownout_high <= 1"),
        (["--brownout-shed", "1.5"], "brownout_shed_occupancy"),
    ])
    def test_fleet_brownout_checked_before_loading(self, capsys, flags,
                                                   message):
        # x.json does not exist: the error must come before the load.
        err = self.error_text(capsys, ["fleet", "--library", "x.json",
                                       *flags])
        assert "invalid brownout ladder" in err and message in err

    @pytest.mark.parametrize("argv", [
        ["select", "--library", "x.json", "--workload", "1",
         "--policy-table"],
        ["evaluate", "--library", "x.json", "--policy-table"],
        ["evaluate", "--library", "x.json", "--sim-mode", "event"],
        ["fleet", "--library", "x.json", "--sim-mode", "auto"],
    ])
    def test_serving_engine_flags_are_gone(self, capsys, argv):
        """The manager always selects through its table and the
        simulator picks its own engine: no flag chooses either."""
        err = self.error_text(capsys, argv)
        flag = next(a for a in argv if a in ("--policy-table",
                                             "--sim-mode"))
        assert f"unrecognized arguments: {flag}" in err

    def test_sweep_axes_parse_to_lists(self):
        args = build_parser().parse_args(
            ["generate", "-o", "x.json", "--precision", "base, int8",
             "--criterion", "hapm,l1", "--schedule", "psfp"])
        assert args.precisions == ["base", "int8"]
        assert args.criteria == ["hapm", "l1"]
        assert args.schedules == ["psfp"]


class TestGenerate:
    def test_quick_generate_writes_library(self, tmp_path, capsys):
        out = tmp_path / "generated.json"
        assert main(["generate", "--dataset", "cifar10",
                     "--profile", "quick", "--seed", "3",
                     "-o", str(out)]) == 0
        assert out.exists()
        from repro.runtime import Library

        library = Library.load(str(out))
        assert len(library) > 0
        assert library.metadata["dataset"] == "cifar10"
        # The generated file immediately works with the other commands.
        assert main(["info", "--library", str(out)]) == 0

    def test_quick_int8_fits_at_quarter_width(self, tmp_path, capsys):
        """At a quarter-width hardware twin the W8A8 points fit the
        device: the sweep yields int8 entries and quarantines nothing."""
        out = tmp_path / "int8.json"
        assert main(["generate", "--profile", "quick",
                     "--precision", "base,int8",
                     "--resource-width-scale", "0.25", "-o", str(out)]) == 0
        from repro.runtime import Library

        library = Library.load(str(out))
        assert not library.metadata.get("quarantined")
        assert library.metadata["resource_width_scale"] == 0.25
        precisions = [e.accelerator.precision for e in library]
        assert "int8" in precisions and "base" in precisions

    def test_resume_reuses_every_checkpoint(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(["generate", "-o", str(first), "--rates", "0.0",
                     "--point-cache", str(cache)]) == 0
        capsys.readouterr()
        assert main(["generate", "-o", str(second), "--rates", "0.0",
                     "--point-cache", str(cache), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resuming sweep" in out and "done)" in out
        assert "(cached)" in out
        assert first.read_bytes() == second.read_bytes()

    def test_resume_summary_counts_cached_points_done(self, tmp_path,
                                                      capsys):
        """A sweep killed before its stage ended leaves its manifest
        saying ``pending``; the resume summary counts every point whose
        cache file landed as done."""
        cache = tmp_path / "cache"
        args = ["generate", "-o", str(tmp_path / "lib.json"), "--rates",
                "0.0", "--point-cache", str(cache)]
        assert main(args) == 0
        manifest = cache / "manifest.json"
        raw = json.loads(manifest.read_text())
        for record in raw["points"].values():
            record["status"] = "pending"
        manifest.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        points = len(raw["points"])
        assert f"{points} point(s) ({points} done)" in out


class TestInfo:
    def test_prints_summary(self, library_path, capsys):
        assert main(["info", "--library", library_path]) == 0
        out = capsys.readouterr().out
        assert "accelerator" in out
        assert "ee-pr00-px" in out

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["info", "--library", str(tmp_path / "nope.json")])

    def test_strict_load_fails_closed_on_truncation(self, library_path):
        from pathlib import Path
        text = Path(library_path).read_text()
        Path(library_path).write_text(text[:len(text) // 2])
        # A clean exit with a pointer at --salvage, not a traceback.
        with pytest.raises(SystemExit, match="--salvage"):
            main(["info", "--library", library_path])

    def test_salvage_reads_a_truncated_library(self, library_path,
                                               capsys):
        from pathlib import Path
        text = Path(library_path).read_text()
        Path(library_path).write_text(text[:int(len(text) * 0.6)])
        assert main(["info", "--library", library_path,
                     "--salvage"]) == 0
        out = capsys.readouterr().out
        assert "salvage: library damaged" in out
        assert "accelerator" in out  # the summary table still renders

    def test_salvage_reads_a_root_damaged_library(self, library_path,
                                                  capsys):
        import json
        from pathlib import Path
        raw = json.loads(Path(library_path).read_text())
        raw["metadata"] = ["damaged"]  # parseable JSON, broken root
        Path(library_path).write_text(json.dumps(raw))
        assert main(["info", "--library", library_path,
                     "--salvage"]) == 0
        out = capsys.readouterr().out
        assert "salvage: library damaged" in out
        assert "accelerator" in out


class TestSelect:
    def test_select_adapex(self, library_path, capsys):
        assert main(["select", "--library", library_path,
                     "--workload", "450"]) == 0
        out = capsys.readouterr().out
        assert "confidence threshold" in out
        assert "IPS" in out

    def test_select_finn_static(self, library_path, capsys):
        main(["select", "--library", library_path, "--workload", "900",
              "--policy", "finn"])
        out = capsys.readouterr().out
        assert "backbone-pr00" in out


class TestEvaluate:
    def test_two_policies(self, library_path, capsys):
        assert main(["evaluate", "--library", library_path,
                     "--policies", "adapex,finn", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "AdaPEx" in out and "FINN" in out


class TestTimingJson:
    @pytest.mark.parametrize("argv,workers", [
        (["evaluate", "--policies", "adapex", "--runs", "2"], 0),
        (["evaluate", "--policies", "adapex", "--runs", "2",
          "--parallel", "2"], 2),
        (["fleet", "--servers", "2", "--tenants", "4", "--duration", "1"],
         0),
    ], ids=["evaluate", "evaluate-parallel", "fleet"])
    def test_records_peak_rss(self, library_path, tmp_path, capsys, argv,
                              workers):
        """``peak_rss_mb`` is this process's ``ru_maxrss``, plus the
        largest worker's when the command forks more than one."""
        path = tmp_path / "timing.json"
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert main([argv[0], "--library", library_path, *argv[1:],
                     "--timing-json", str(path)]) == 0
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        peak = json.loads(path.read_text())["peak_rss_mb"]
        if workers > 1:
            assert peak > before
        else:
            assert before <= peak <= after


class TestDesignSpace:
    def test_prints_and_writes_csv(self, library_path, tmp_path, capsys):
        csv_path = tmp_path / "space.csv"
        assert main(["design-space", "--library", library_path,
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "design space" in out
        content = csv_path.read_text()
        assert content.startswith("pruning_rate,")
        assert len(content.splitlines()) == 10  # 9 ee entries + header
