import json
import subprocess
import sys
from pathlib import Path

import pytest

from posefuse.cli import RunManifest, build_manifest, main, run_pipeline_command
from posefuse.io import SEQUENCE_COLUMNS, parse_sequence, write_sequence
from posefuse.metrics import CDF_ORI_THRESHOLDS, CDF_POS_THRESHOLDS
from posefuse.synth import (
    AprNoiseModel,
    TrajectoryConfig,
    VioNoiseModel,
    generate_gt,
    simulate_apr,
    simulate_vio,
)

HEADER = ",".join(SEQUENCE_COLUMNS)
IDENTITY = "0,0,0,1,0,0,0"
EMPTY = ",,,,,,"

GOLDEN = Path(__file__).parent / "data" / "golden_summary.json"
# Inputs and expected reports for the paths the golden summary misses.
# The inputs are 45 frames of the seed-3 synthetic sequence: partial_gt
# drops gt on every third frame, no_gt drops it everywhere and vio_eval
# drops the apr stream.
REPORTS = Path(__file__).parent / "data" / "reports"


def synth_args(out_dir, frames=60, seed=7):
    return [
        "--synth", "1",
        "--frames", str(frames),
        "--seed", str(seed),
        "--out", str(out_dir),
    ]


def gt_vio_file(tmp_path, rows=40):
    lines = [HEADER]
    for i in range(rows):
        gt = f"{0.1 * i},{(0.05 * i) ** 2},0,1,0,0,0"
        vio = f"{0.1 * i + 0.001},{(0.05 * i) ** 2},0,1,0,0,0"
        lines.append(f"{i},{float(i)},{gt},{vio},{EMPTY}")
    path = tmp_path / "gtvio.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestBuildManifest:
    def test_defaults(self, tmp_path):
        m = build_manifest(["--synth", "2", "--out", str(tmp_path)])
        assert m.synth_count == 2
        assert m.fusion.d_th == 0.4
        assert m.fusion.o_th == 4.0
        assert m.fusion.n_pairs == 2
        assert m.fusion.t_opt == 8
        assert m.align_window_seconds == 30.0
        assert m.mode == "auto"
        assert m.formats == ("csv", "json")

    def test_flags_reach_configs(self, tmp_path):
        m = build_manifest(
            ["--synth", "1", "--frames", "99", "--seed", "4", "--dth", "0.9",
             "--oth", "6", "-N", "3", "-T", "12", "--formats", "json",
             "--mode", "fusion", "--out", str(tmp_path)]
        )
        assert m.trajectory.n_frames == 99
        assert m.trajectory.seed == 4
        assert (m.fusion.d_th, m.fusion.o_th) == (0.9, 6.0)
        assert (m.fusion.n_pairs, m.fusion.t_opt) == (3, 12)
        assert m.formats == ("json",)
        assert m.mode == "fusion"

    def test_inputs_repeatable(self, tmp_path):
        m = build_manifest(
            ["--input", "a.csv", "--input", "b.csv", "--out", str(tmp_path)]
        )
        assert m.inputs == (Path("a.csv"), Path("b.csv"))


class TestManifestValidation:
    def test_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            RunManifest(out_dir=tmp_path).validate()
        with pytest.raises(ValueError, match="exactly one"):
            RunManifest(
                out_dir=tmp_path, inputs=(Path("x.csv"),), synth_count=1
            ).validate()

    def test_negative_synth_count(self, tmp_path):
        with pytest.raises(ValueError, match="--synth must be >= 1"):
            RunManifest(out_dir=tmp_path, synth_count=-2).validate()

    def test_missing_input_file(self, tmp_path):
        m = RunManifest(out_dir=tmp_path, inputs=(tmp_path / "nope.csv",))
        with pytest.raises(ValueError, match="not found"):
            m.validate()

    def test_bad_format(self, tmp_path):
        m = RunManifest(out_dir=tmp_path, synth_count=1, formats=("xml",))
        with pytest.raises(ValueError, match="unknown report formats"):
            m.validate()

    def test_bad_window(self, tmp_path):
        m = RunManifest(out_dir=tmp_path, synth_count=1, align_window_seconds=0.0)
        with pytest.raises(ValueError, match="positive"):
            m.validate()


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        assert main(synth_args(tmp_path)) == 0

    def test_validation_failure_is_one(self, tmp_path, capsys):
        rc = main(["--synth", "1", "--formats", "xml", "--out", str(tmp_path)])
        assert rc == 1
        assert "posefuse: error:" in capsys.readouterr().err

    def test_argparse_failure_is_one(self, capsys):
        assert main(["--synth", "1"]) == 1  # --out missing
        capsys.readouterr()

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_bad_config_value_is_one(self, tmp_path, capsys):
        rc = main(["--synth", "1", "--dth", "-1", "--out", str(tmp_path)])
        assert rc == 1
        assert "posefuse: error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--frames", "1"], "--frames must be >= 2"), (["--seed", "-3"], "--seed must be >= 0")],
        ids=["frames", "seed"],
    )
    def test_bad_synthetic_flag_is_named(self, tmp_path, capsys, flags, message):
        rc = main(["--synth", "1", *flags, "--out", str(tmp_path)])
        assert rc == 1
        assert f"posefuse: error: {message}" in capsys.readouterr().err

    def test_runtime_failure_is_two(self, tmp_path, capsys):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("x", encoding="utf-8")
        rc = main(synth_args(blocker))
        assert rc == 2
        assert "posefuse: runtime error:" in capsys.readouterr().err


class TestSynthRuns:
    def test_writes_expected_files(self, tmp_path):
        assert main(synth_args(tmp_path, seed=5)) == 0
        for suffix in ("frames.csv", "summary.json", "cdf.csv"):
            assert (tmp_path / f"synth-5.{suffix}").is_file()

    def test_summary_shape(self, tmp_path):
        main(synth_args(tmp_path, seed=5))
        summary = json.loads((tmp_path / "synth-5.summary.json").read_text())
        assert summary["sequence"] == "synth-5"
        assert summary["mode"] == "fusion"
        assert summary["frames"] == 60
        assert set(summary["groups"]) == {
            "keyframes", "optimized", "keyframes_plus_optimized", "all_frames"
        }
        all_frames = summary["groups"]["all_frames"]
        assert all_frames["count"] == 60
        assert {"fused", "raw_apr"} <= set(all_frames)
        assert sum(summary["label_counts"].values()) == 60
        assert "rpe_median_m" in summary["vio"]

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(synth_args(a)) == 0
        assert main(synth_args(b)) == 0
        assert (a / "synth-7.summary.json").read_bytes() == (
            b / "synth-7.summary.json"
        ).read_bytes()
        assert (a / "synth-7.frames.csv").read_bytes() == (
            b / "synth-7.frames.csv"
        ).read_bytes()

    def test_summary_matches_golden_file(self, tmp_path):
        assert main(synth_args(tmp_path)) == 0
        assert (tmp_path / "synth-7.summary.json").read_bytes() == GOLDEN.read_bytes()

    def test_json_is_sorted_and_newline_terminated(self, tmp_path):
        main(synth_args(tmp_path))
        text = (tmp_path / "synth-7.summary.json").read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    def test_frames_csv_shape(self, tmp_path):
        main(synth_args(tmp_path))
        lines = (tmp_path / "synth-7.frames.csv").read_text().splitlines()
        assert lines[0] == "frame,timestamp,label,x,y,z,qw,qx,qy,qz,ape_m,aoe_deg"
        assert len(lines) == 61
        labels = {line.split(",")[2] for line in lines[1:]}
        assert labels <= {"pending", "keyframe", "tracked", "optimized", "reliable"}
        assert all(line.split(",")[10] != "" for line in lines[1:])

    def test_cdf_csv_shape(self, tmp_path):
        main(synth_args(tmp_path))
        lines = (tmp_path / "synth-7.cdf.csv").read_text().splitlines()
        assert lines[0] == "series,metric,threshold,fraction"
        per_series = len(CDF_POS_THRESHOLDS) + len(CDF_ORI_THRESHOLDS)
        assert len(lines) == 1 + 3 * per_series
        assert {line.split(",")[0] for line in lines[1:]} == {"fused", "raw_apr", "vio"}

    def test_multiple_sequences_number_from_seed(self, tmp_path):
        rc = main(["--synth", "2", "--frames", "40", "--seed", "5", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "synth-5.summary.json").is_file()
        assert (tmp_path / "synth-6.summary.json").is_file()

    def test_formats_gate_outputs(self, tmp_path):
        a, b = tmp_path / "json_only", tmp_path / "csv_only"
        main(synth_args(a) + ["--formats", "json"])
        assert (a / "synth-7.summary.json").is_file()
        assert not (a / "synth-7.frames.csv").exists()
        assert not (a / "synth-7.cdf.csv").exists()
        main(synth_args(b) + ["--formats", "csv"])
        assert (b / "synth-7.frames.csv").is_file()
        assert not (b / "synth-7.summary.json").exists()

    def test_save_sequence_round_trips(self, tmp_path):
        main(synth_args(tmp_path) + ["--save-sequence"])
        samples = parse_sequence(tmp_path / "synth-7.sequence.csv")
        assert len(samples) == 60
        assert all(
            s.gt is not None and s.vio is not None and s.apr is not None
            for s in samples
        )

    def test_save_sequence_ignores_report_formats(self, tmp_path):
        a, b = tmp_path / "json_only", tmp_path / "csv_json"
        assert main(synth_args(a) + ["--save-sequence", "--formats", "json"]) == 0
        assert main(synth_args(b) + ["--save-sequence"]) == 0
        assert not (a / "synth-7.frames.csv").exists()
        got = (a / "synth-7.sequence.csv").read_bytes()
        assert got == (b / "synth-7.sequence.csv").read_bytes()


class TestPinnedReports:
    @pytest.mark.parametrize("name", ["partial_gt", "no_gt", "vio_eval"])
    def test_reports_match_committed_bytes(self, tmp_path, name):
        assert main(["--input", str(REPORTS / f"{name}.csv"), "--out", str(tmp_path)]) == 0
        for suffix in ("frames.csv", "summary.json", "cdf.csv"):
            got = (tmp_path / f"{name}.{suffix}").read_bytes()
            assert got == (REPORTS / f"{name}.{suffix}").read_bytes(), suffix


def straight_walk_file(tmp_path, frames=200):
    """A walk that never turns: its gt positions are collinear, so no
    rigid fit onto them determines a rotation."""
    samples = generate_gt(TrajectoryConfig(n_frames=frames, seed=3, turn_rate_std=0.0))
    gt = [s.gt for s in samples]
    for s, v, a in zip(samples, simulate_vio(gt, VioNoiseModel(), 4), simulate_apr(gt, AprNoiseModel(), 5)):
        s.vio, s.apr = v, a
    path = tmp_path / "straight.csv"
    write_sequence(path, samples)
    return path


class TestFileRuns:
    def test_straight_walk_keeps_fused_report(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["--input", str(straight_walk_file(tmp_path)), "--mode", "fusion", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "straight.summary.json").read_text())
        assert summary["groups"]["all_frames"]["fused"]["count"] == 200
        assert "vio" not in summary
        series = {line.split(",")[0] for line in (out / "straight.cdf.csv").read_text().splitlines()[1:]}
        assert series == {"fused", "raw_apr"}

    def test_straight_walk_vio_eval_names_the_fit(self, tmp_path, capsys):
        rc = main(["--input", str(straight_walk_file(tmp_path)), "--mode", "vio-eval", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "rigid fit is rank deficient" in capsys.readouterr().err

    def test_synthetic_flags_do_not_apply(self, tmp_path):
        # --frames and --seed shape synthetic sequences; a file run
        # ignores them, even values a synthetic run would refuse, and its
        # summary does not record the seed.
        assert main(synth_args(tmp_path / "gen") + ["--save-sequence"]) == 0
        path = str(tmp_path / "gen" / "synth-7.sequence.csv")
        plain = tmp_path / "plain"
        assert main(["--input", path, "--out", str(plain)]) == 0
        expect = {f.name: f.read_bytes() for f in plain.iterdir()}
        assert "seed" not in json.loads(expect["synth-7.sequence.summary.json"])["config"]
        for flags in (["--frames", "1"], ["--seed", "5"], ["--seed", "-3"]):
            out = tmp_path / "_".join(flags)
            assert main(["--input", path, *flags, "--out", str(out)]) == 0
            assert {f.name: f.read_bytes() for f in out.iterdir()} == expect, flags

    def test_fusion_without_apr_names_the_stream(self, tmp_path, capsys):
        path = gt_vio_file(tmp_path)
        rc = main(["--input", str(path), "--mode", "fusion", "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "apr stream is missing" in err

    def test_auto_falls_back_to_vio_eval(self, tmp_path):
        path = gt_vio_file(tmp_path)
        out = tmp_path / "o"
        assert main(["--input", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "gtvio.summary.json").read_text())
        assert summary["mode"] == "vio-eval"
        assert "vio" in summary
        assert "groups" not in summary and "label_counts" not in summary
        lines = (out / "gtvio.frames.csv").read_text().splitlines()
        assert all(line.split(",")[2] == "vio" for line in lines[1:])

    def test_vio_eval_requires_gt(self, tmp_path, capsys):
        lines = [HEADER] + [
            f"{i},{float(i)},{EMPTY},{IDENTITY},{EMPTY}" for i in range(5)
        ]
        path = tmp_path / "vioonly.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["--input", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "ground truth" in capsys.readouterr().err

    def test_parse_error_surfaces_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            f"{HEADER}\n0,0.0,{EMPTY},0,0,0,0.5,0,0,0,{EMPTY}\n", encoding="utf-8"
        )
        rc = main(["--input", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "posefuse: error: line 2:" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_error_overflow_is_named(self, tmp_path, capsys):
        # A gt coordinate of 1e300 parses, but its error against the
        # fused pose overflows to inf, which the summary refuses.
        rows = []
        for i in range(20):
            gt = f"{'1e300' if i == 5 else 0.1 * i},0,0,1,0,0,0"
            pose = f"{0.1 * i},0,0,1,0,0,0"
            rows.append(f"{i},{float(i)},{gt},{pose},{pose}")
        path = tmp_path / "huge.csv"
        path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
        rc = main(["--input", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "posefuse: error: pos_err must be finite and >= 0, got inf\n"

    def test_empty_sequence_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(HEADER + "\n", encoding="utf-8")
        rc = main(["--input", str(empty), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "is empty" in capsys.readouterr().err


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from posefuse.cli import main; sys.exit(main(sys.argv[1:]))",
             "--synth", "1", "--frames", "40", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "synth-0.summary.json").is_file()


class TestModuleRun:
    """``python -m posefuse.cli`` works from a source checkout, where no
    console script is installed."""

    def run_module(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "posefuse.cli", *argv],
            capture_output=True,
            text=True,
        )

    def test_synth_run_writes_reports(self, tmp_path):
        proc = self.run_module("--synth", "1", "--frames", "20", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        for suffix in ("summary.json", "frames.csv", "cdf.csv"):
            assert (tmp_path / f"synth-0.{suffix}").is_file()

    def test_missing_input_exits_one(self, tmp_path):
        proc = self.run_module("--synth", "0", "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "exactly one of --input or --synth" in proc.stderr
