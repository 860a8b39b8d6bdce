import csv
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from posefuse import cli
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

    def test_files_are_written_without_newline_translation(self, tmp_path, monkeypatch):
        """Text mode turns each \\n into os.linesep, \\r\\n on Windows,
        and the pinned bytes would not hold there; newline="" writes the
        line ends the text spells."""
        written = {}
        path_open, path_write_text = Path.open, Path.write_text

        def spy_open(self, mode="r", *args, **kwargs):
            if "w" in mode:
                written[self.name] = kwargs.get("newline")
            return path_open(self, mode, *args, **kwargs)

        def spy_write_text(self, data, *args, **kwargs):
            written[self.name] = kwargs.get("newline")
            return path_write_text(self, data, *args, **kwargs)

        monkeypatch.setattr(Path, "open", spy_open)
        monkeypatch.setattr(Path, "write_text", spy_write_text)
        assert main(synth_args(tmp_path, frames=40, seed=5) + ["--save-sequence"]) == 0
        suffixes = ("sequence.csv", "summary.json", "frames.csv", "cdf.csv")
        assert written == {f"synth-5.{suffix}": "" for suffix in suffixes}

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

    @pytest.mark.parametrize("seed", [0, 17])
    @pytest.mark.parametrize(
        "vio_model, apr_model",
        [
            (VioNoiseModel(), AprNoiseModel()),
            (VioNoiseModel(step_rot_sigma=0.0), AprNoiseModel()),
            (VioNoiseModel(), AprNoiseModel(outlier_prob=1.0)),
        ],
        ids=["defaults", "no_step_rotation", "all_outliers"],
    )
    def test_saved_sequence_matches_public_generators(self, tmp_path, monkeypatch, seed, vio_model, apr_model):
        # The CLI builds its recording from the generators' arrays; the
        # file must hold what the public functions give, sample by sample.
        # The CLI runs the default noise models; the others are put in
        # place of the model classes `_sequences` calls, so the stream
        # without step rotation and the all-outlier stream are saved too.
        monkeypatch.setattr(cli, "VioNoiseModel", lambda: vio_model)
        monkeypatch.setattr(cli, "AprNoiseModel", lambda: apr_model)
        manifest = RunManifest(out_dir=tmp_path / "cli", synth_count=1, save_sequences=True, seed=seed)
        assert run_pipeline_command(manifest) == 0
        samples = generate_gt(TrajectoryConfig(seed=seed))
        gt = [s.gt for s in samples]
        vio = simulate_vio(gt, vio_model, seed + 1_000_003)
        apr = simulate_apr(gt, apr_model, seed + 2_000_003)
        for s, v, a in zip(samples, vio, apr):
            s.vio, s.apr = v, a
        write_sequence(tmp_path / "api.csv", samples)
        saved = tmp_path / "cli" / f"synth-{seed}.sequence.csv"
        assert saved.read_bytes() == (tmp_path / "api.csv").read_bytes()

    def test_keyframe_group_scores_the_apr_rows(self, tmp_path):
        # Keyframe and reliable frames carry the apr pose, so the group's
        # fused statistics are its raw apr statistics.
        main(synth_args(tmp_path, seed=5))
        summary = json.loads((tmp_path / "synth-5.summary.json").read_text())
        keyframes = summary["groups"]["keyframes"]
        assert keyframes["count"] > 0
        assert keyframes["fused"] == keyframes["raw_apr"]

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


SUFFIXES = ("frames.csv", "summary.json", "cdf.csv")


def report_bytes(data, out, *flags):
    """Run the CLI on data, written as synth-0.sequence.csv in a new
    directory under out, and read back each report's bytes by suffix,
    None for a report that was not written."""
    src = out / "input" / "synth-0.sequence.csv"
    src.parent.mkdir(parents=True)
    src.write_bytes(data)
    assert main(["--input", str(src), "--out", str(out / "reports"), *flags]) == 0
    paths = {suffix: out / "reports" / f"synth-0.sequence.{suffix}" for suffix in SUFFIXES}
    return {suffix: path.read_bytes() if path.exists() else None for suffix, path in paths.items()}


def first_columns(frames_csv, n=10):
    """The first n fields of every line, as `cut -d, -f1-n` gives them."""
    return [b",".join(line.split(b",")[:n]) for line in frames_csv.split(b"\n")]


def no_gt_copy(data):
    """The sequence with the gt group of every data row emptied."""
    header, *rows = data.split(b"\n")
    return b"\n".join([header, *(re.sub(rb"^([^,]*,[^,]*),(?:[^,]*,){7}", rb"\1,,,,,,,,", r) for r in rows)])


def space_padded(data):
    """The sequence with every comma padded with a space on each side."""
    return data.replace(b",", b" , ")


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A saved 300-frame synthetic sequence, CRLF-terminated as
    write_sequence writes it, and the reports of one run over it."""
    root = tmp_path_factory.mktemp("recorded")
    assert main(["--synth", "1", "--frames", "300", "--save-sequence", "--out", str(root)]) == 0
    data = (root / "synth-0.sequence.csv").read_bytes()
    assert data.count(b"\r\n") == data.count(b"\n") == 301
    reports = report_bytes(data, root / "run")
    assert all(reports.values())
    return data, reports


@pytest.fixture(scope="module")
def no_gt(recorded, tmp_path_factory):
    """The recorded sequence's no-gt copy and the reports of a run over it."""
    data = no_gt_copy(recorded[0])
    return data, report_bytes(data, tmp_path_factory.mktemp("no-gt"))


class TestRecordedInput:
    """Copies of a recorded sequence that differ only in form give the
    same reports, byte for byte; a copy without gt gives the same labels
    and poses."""

    def test_second_run_gives_same_reports(self, recorded, tmp_path):
        data, reports = recorded
        assert report_bytes(data, tmp_path) == reports

    @pytest.mark.parametrize("drop", [b"\r", b"\n"], ids=["lf", "cr"])
    def test_line_endings_give_same_reports(self, recorded, tmp_path, drop):
        data, reports = recorded
        assert report_bytes(data.replace(drop, b""), tmp_path) == reports

    def test_byte_order_mark_gives_same_reports(self, recorded, tmp_path):
        data, reports = recorded
        assert report_bytes(b"\xef\xbb\xbf" + data, tmp_path) == reports

    def test_byte_order_mark_keeps_bad_line(self, recorded, tmp_path, capsys):
        # A vio x that is not a number on line 250, with and without the mark.
        lines = recorded[0].split(b"\r\n")
        lines[249] = re.sub(rb"^((?:[^,]*,){9})[^,]*", rb"\1x", lines[249])
        bad = b"\r\n".join(lines)
        errors = []
        for name, data in (("plain", bad), ("marked", b"\xef\xbb\xbf" + bad)):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(data)
            assert main(["--input", str(path), "--out", str(tmp_path / name)]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("posefuse: error: line 250: ")
        assert errors[1] == errors[0]

    def test_quoted_padded_copy_gives_same_frames(self, recorded, tmp_path):
        # The first field of every line, the header's too, is quoted.
        data, reports = recorded
        quoted = b"\n".join(re.sub(rb"^([^,]*),", rb'"\1",', line) for line in data.split(b"\n"))
        assert report_bytes(space_padded(quoted), tmp_path)["frames.csv"] == reports["frames.csv"]

    def test_no_gt_copy_keeps_labels_and_poses(self, recorded, no_gt):
        # Only the error columns, the last two, go blank.
        full, blank = recorded[1]["frames.csv"], no_gt[1]["frames.csv"]
        assert first_columns(blank) == first_columns(full)
        assert blank != full

    def test_csv_format_alone_gives_same_frames(self, no_gt, tmp_path):
        data, reports = no_gt
        got = report_bytes(data, tmp_path, "--formats", "csv")
        assert got["frames.csv"] == reports["frames.csv"]
        assert got["summary.json"] is None

    def test_padded_no_gt_copy_gives_same_frames(self, no_gt, tmp_path):
        # Its gt groups hold only whitespace, which the row checks
        # convert instead of numpy's reader.
        data, reports = no_gt
        assert report_bytes(space_padded(data), tmp_path)["frames.csv"] == reports["frames.csv"]


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

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    def test_field_over_csv_limit_names_line(self, tmp_path, capsys, quote):
        # A vio x of 131073 zeros reads as 0.0, but csv refuses a field
        # that long, quoted or not; so does the parser, naming the line.
        x = quote + "0" * (csv.field_size_limit() + 1) + quote
        path = tmp_path / "long.csv"
        path.write_text(f"{HEADER}\n0,0.0,{EMPTY},{x},0,0,1,0,0,0,{EMPTY}\n", encoding="utf-8")
        rc = main(["--input", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"posefuse: error: line 2: field larger than field limit ({csv.field_size_limit()})\n"

    def test_error_overflow_is_named(self, tmp_path, capsys):
        # A gt coordinate of 1e300 would overflow its error against the
        # fused pose; the parser refuses it at its line.
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
        assert err == "posefuse: error: line 7: gt x must be below 1e+150 m in magnitude: '1e300'\n"

    def test_empty_sequence_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(HEADER + "\n", encoding="utf-8")
        rc = main(["--input", str(empty), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "is empty" in capsys.readouterr().err


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        # The [project.scripts] entry of pyproject.toml, resolved and
        # called as an installed console script calls it.
        tomllib = pytest.importorskip("tomllib")
        with (Path(__file__).parents[1] / "pyproject.toml").open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["posefuse"]
        assert entry == "posefuse.cli:main"
        module, name = entry.split(":")
        assert callable(getattr(importlib.import_module(module), name))
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import importlib, sys; sys.exit(getattr(importlib.import_module({module!r}), {name!r})())",
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
