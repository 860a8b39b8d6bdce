"""Command line front end.

One invocation processes one or more sequences, either read from
sequence CSV files or generated by the synthetic models, runs the
fusion pipeline, and writes per-sequence reports into the output
directory:

* <name>.frames.csv   per-frame label, fused pose, errors vs gt
* <name>.summary.json aggregate statistics split by label group
* <name>.cdf.csv      error CDF samples per series

Everything downstream of the manifest is deterministic: the same inputs
and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .fusion import _LABELS, FusionConfig, Label, run_sequence
from .geometry import PoseTrack, track_array
from .io import _FLOAT_FMT, Recording, SequenceFormatError, _write_rows, parse_sequence, write_sequence
from .metrics import (
    DEFAULT_ALIGN_WINDOW_SECONDS,
    SummaryReport,
    absolute_pose_error,
    align_and_evaluate,
    relative_errors,
    summarize_errors,
)
from .synth import AprNoiseModel, TrajectoryConfig, VioNoiseModel, generate_gt, simulate_apr, simulate_vio

_MODES = ("auto", "fusion", "vio-eval")
_FORMATS = ("csv", "json")

# Sub-stream seed offsets keep the three synthetic streams of one
# sequence statistically independent while still a pure function of the
# manifest seed.
_VIO_SEED_OFFSET = 1_000_003
_APR_SEED_OFFSET = 2_000_003

# Label groups reported in the summary, in report order, each with its
# membership table, indexed by label code.  Keyframes and reliable
# frames both carry checker-approved apr poses, so they form one group;
# optimized frames carry corrected poses.
_GROUPS: tuple[tuple[str, np.ndarray], ...] = tuple(
    (name, np.array([label in members for label in _LABELS]))
    for name, members in (
        ("keyframes", (Label.KEYFRAME, Label.RELIABLE)),
        ("optimized", (Label.OPTIMIZED,)),
        ("keyframes_plus_optimized", (Label.KEYFRAME, Label.RELIABLE, Label.OPTIMIZED)),
        ("all_frames", _LABELS),
    )
)

# Membership table, indexed by label code, of the labels whose fused
# rows differ from the apr rows.  Keyframe, reliable and pending rows
# are the apr rows bit for bit, so their errors are the raw apr errors.
_MOVED = np.array([label in (Label.OPTIMIZED, Label.TRACKED) for label in _LABELS])


@dataclass(frozen=True)
class RunManifest:
    """Everything one run depends on.  Exactly one of file inputs or
    synthetic generation must be requested; frames and seed shape the
    synthetic sequences only."""

    out_dir: Path
    inputs: tuple[Path, ...] = ()
    synth_count: int = 0
    frames: int = TrajectoryConfig.n_frames
    fusion: FusionConfig = field(default_factory=FusionConfig)
    align_window_seconds: float = DEFAULT_ALIGN_WINDOW_SECONDS
    mode: str = "auto"
    formats: tuple[str, ...] = _FORMATS
    save_sequences: bool = False
    seed: int = TrajectoryConfig.seed

    @property
    def trajectory(self) -> TrajectoryConfig:
        """The ground-truth model of the first synthetic sequence; the
        k-th one takes seed + k."""
        return TrajectoryConfig(n_frames=self.frames, seed=self.seed)

    def validate(self) -> None:
        if self.synth_count < 0:
            raise ValueError("--synth must be >= 1")
        if bool(self.inputs) == bool(self.synth_count > 0):
            raise ValueError(
                "exactly one of --input or --synth must be given"
            )
        if self.synth_count and self.frames < 2:
            raise ValueError("--frames must be >= 2")
        if self.synth_count and self.seed < 0:
            raise ValueError("--seed must be >= 0")
        for p in self.inputs:
            if not Path(p).is_file():
                raise ValueError(f"input file not found: {p}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        bad = [f for f in self.formats if f not in _FORMATS]
        if bad:
            raise ValueError(f"unknown report formats: {bad}")
        if not self.formats:
            raise ValueError("at least one report format is required")
        if not self.align_window_seconds > 0.0:
            raise ValueError("--align-window-seconds must be positive")


def run_pipeline_command(manifest: RunManifest) -> int:
    """Execute one manifest.  Returns the process exit code: 0 on
    success, 1 on validation problems (bad manifest or bad input data),
    2 on unexpected runtime failures."""
    try:
        manifest.validate()
        manifest.out_dir.mkdir(parents=True, exist_ok=True)
        for name, rec in _sequences(manifest):
            _process_sequence(name, rec, manifest)
    except (SequenceFormatError, ValueError) as exc:
        print(f"posefuse: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surfaced as exit status
        print(f"posefuse: runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


def _sequences(manifest: RunManifest):
    if manifest.inputs:
        for p in manifest.inputs:
            yield Path(p).stem, parse_sequence(p)
        return
    for k in range(manifest.synth_count):
        seed = manifest.seed + k
        traj = dataclasses.replace(manifest.trajectory, seed=seed)
        samples = generate_gt(traj)
        gt = PoseTrack(track_array([s.gt for s in samples]))
        vio = simulate_vio(gt, VioNoiseModel(), seed + _VIO_SEED_OFFSET)
        apr = simulate_apr(gt, AprNoiseModel(), seed + _APR_SEED_OFFSET)
        # The PoseTrack constructors have checked every row.
        rec = Recording._checked(
            [s.frame_index for s in samples], [s.timestamp for s in samples],
            gt.track, vio.track, apr.track,
        )
        if manifest.save_sequences:
            write_sequence(manifest.out_dir / f"synth-{seed}.sequence.csv", rec)
        yield f"synth-{seed}", rec


def _process_sequence(name: str, rec: Recording, manifest: RunManifest) -> None:
    if not rec:
        raise ValueError(f"sequence {name} is empty")
    missing = int(np.count_nonzero(~rec.has("apr")))
    mode = manifest.mode
    if mode == "auto":
        mode = "vio-eval" if missing else "fusion"
    if mode == "fusion" and missing:
        raise ValueError(
            f"sequence {name}: fusion requested but the apr stream is missing "
            f"on {missing} of {len(rec)} frames"
        )

    summary: dict = {
        "sequence": name,
        "mode": mode,
        "frames": len(rec),
        "config": {
            "d_th": manifest.fusion.d_th,
            "o_th": manifest.fusion.o_th,
            "n_pairs": manifest.fusion.n_pairs,
            "t_opt": manifest.fusion.t_opt,
            "align_window_seconds": manifest.align_window_seconds,
        },
    }
    # The seed shapes synthetic sequences only.
    if manifest.synth_count:
        summary["config"]["seed"] = manifest.seed
    cdf_rows: list[tuple[str, SummaryReport]] = []
    # gt keeps only the frames that have it, and has_gt marks which
    # frames those are.
    has_gt = rec.has("gt")
    gt = rec.gt[has_gt]

    if mode == "fusion":
        result = run_sequence(rec, manifest.fusion)
        track = result.track
        counts = np.bincount(result.labels, minlength=len(_LABELS))
        summary["label_counts"] = {
            label.value: int(count) for label, count in zip(_LABELS, counts)
        }
        labels = np.array([label.value for label in _LABELS])[result.labels]
        scored_labels = result.labels[has_gt]
        raw_pos, raw_ori = absolute_pose_error(rec.apr[has_gt], gt)
        moved = _MOVED[scored_labels]
        pos_err, ori_err = raw_pos.copy(), raw_ori.copy()
        pos_err[moved], ori_err[moved] = absolute_pose_error(track[has_gt][moved], gt[moved])
        if has_gt.any():
            groups: dict = {}
            for group_name, member in _GROUPS:
                count = int(np.count_nonzero(member[result.labels]))
                entry: dict = {"count": count, "fraction": count / len(rec)}
                scored = member[scored_labels]
                if scored.any():
                    raw = summarize_errors(raw_pos[scored], raw_ori[scored])
                    # A group without a moved row, such as keyframes, has
                    # the raw errors as its fused ones.
                    fused = summarize_errors(pos_err[scored], ori_err[scored]) if moved[scored].any() else raw
                    entry["fused"] = fused.to_dict()
                    entry["raw_apr"] = raw.to_dict()
                    if group_name == "all_frames":
                        cdf_rows.append(("fused", fused))
                        cdf_rows.append(("raw_apr", raw))
                groups[group_name] = entry
            summary["groups"] = groups
            # In fusion mode the vio section is an extra.  It is left out
            # when gt is partial, and when the vio track cannot be
            # registered to gt (fewer than 3 frames in the window, or a
            # straight walk that leaves the rigid fit rank deficient),
            # rather than losing the fused evaluation with it.
            if has_gt.all():
                try:
                    section, report = _vio_section(rec.vio, gt, rec.timestamps, manifest)
                except ValueError:
                    pass
                else:
                    summary["vio"] = section
                    cdf_rows.append(("vio", report))
    else:
        gt_missing = int(np.count_nonzero(~has_gt))
        if gt_missing:
            raise ValueError(
                f"sequence {name}: vio evaluation needs ground truth on every "
                f"frame, missing on {gt_missing}"
            )
        track = rec.vio
        labels = np.full(len(rec), "vio")
        pos_err, ori_err = absolute_pose_error(track, gt)
        section, report = _vio_section(track, gt, rec.timestamps, manifest)
        summary["vio"] = section
        cdf_rows.append(("vio", report))

    if "json" in manifest.formats:
        text = json.dumps(_round_floats(summary), sort_keys=True, indent=2) + "\n"
        (manifest.out_dir / f"{name}.summary.json").write_text(text, encoding="utf-8", newline="")
    if "csv" in manifest.formats:
        _write_frames_csv(
            manifest.out_dir / f"{name}.frames.csv",
            rec.frames, rec.timestamps, track, labels, has_gt, pos_err, ori_err,
        )
        _write_cdf_csv(manifest.out_dir / f"{name}.cdf.csv", cdf_rows)


def _vio_section(
    vio: np.ndarray, gt: np.ndarray, timestamps: np.ndarray, manifest: RunManifest
) -> tuple[dict, SummaryReport]:
    """VIO-vs-gt statistics for index-aligned vio and gt tracks with
    their timestamps: absolute errors after a rigid fit over the opening
    window, plus per-step relative errors."""
    report = align_and_evaluate(vio, gt, manifest.align_window_seconds, timestamps)
    section = report.to_dict()
    if len(vio) >= 2:
        rpe, roe = np.median(relative_errors(vio, gt), axis=0)
        section["rpe_median_m"] = float(rpe)
        section["roe_median_deg"] = float(roe)
    return section, report


def _write_frames_csv(
    path: Path,
    frames: Sequence[int],
    timestamps: np.ndarray,
    track: np.ndarray,
    labels: np.ndarray,
    has_gt: np.ndarray,
    pos_err: np.ndarray,
    ori_err: np.ndarray,
) -> None:
    """One row per frame, labels an array of label names; pos_err and
    ori_err hold the frames marked in has_gt, in order, and the other
    frames get blank error cells.  In fusion mode keyframe, reliable and
    pending rows carry the apr pose, so their errors are the raw apr
    errors.  _write_rows writes the rows."""
    pose_fmt = ",".join(["%d", _FLOAT_FMT, "%s"] + [_FLOAT_FMT] * 7)
    # Indexed by has_gt; %.0s takes an unscored frame's NaN and prints
    # nothing.
    formats = (pose_fmt + ",%.0s,%.0s\n", pose_fmt + f",{_FLOAT_FMT},{_FLOAT_FMT}\n")
    pos, ori = np.full((2, len(frames)), np.nan)
    pos[has_gt], ori[has_gt] = pos_err, ori_err
    header = "frame,timestamp,label,x,y,z,qw,qx,qy,qz,ape_m,aoe_deg\n"
    _write_rows(path, header, formats, has_gt, (frames, timestamps, labels, *track.T, pos, ori))


def _write_cdf_csv(path: Path, rows: list[tuple[str, SummaryReport]]) -> None:
    lines = ["series,metric,threshold,fraction"]
    for series, report in rows:
        for d, frac in report.cdf_pos:
            lines.append(f"{series},ape_m,{_FLOAT_FMT % d},{_FLOAT_FMT % frac}")
        for d, frac in report.cdf_ori:
            lines.append(f"{series},aoe_deg,{_FLOAT_FMT % d},{_FLOAT_FMT % frac}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def _round_floats(obj):
    """9 significant digits everywhere keeps the JSON stable against
    last-bit jitter without losing anything a report reader cares about."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    return obj


def build_manifest(argv: Sequence[str]) -> RunManifest:
    parser = argparse.ArgumentParser(
        prog="posefuse",
        description="Fuse absolute-pose and odometry streams, or generate "
        "and evaluate synthetic sequences.",
    )
    parser.add_argument("--input", action="append", type=Path, default=[],
                        metavar="FILE", help="sequence CSV, repeatable")
    parser.add_argument("--synth", type=int, default=RunManifest.synth_count, metavar="K",
                        help="generate K synthetic sequences instead of reading files")
    parser.add_argument("--frames", type=int, default=RunManifest.frames,
                        help="frames per synthetic sequence (default %(default)s)")
    parser.add_argument("--seed", type=int, default=RunManifest.seed,
                        help="base seed for synthetic generation (default %(default)s)")
    parser.add_argument("--dth", type=float, default=FusionConfig.d_th, metavar="M",
                        help="translation agreement gate, meters (default %(default)s)")
    parser.add_argument("--oth", type=float, default=FusionConfig.o_th, metavar="DEG",
                        help="rotation agreement gate, degrees (default %(default)s)")
    parser.add_argument("-N", dest="n_pairs", type=int, default=FusionConfig.n_pairs,
                        help="consecutive agreeing pairs required for a reference (default %(default)s)")
    parser.add_argument("-T", dest="t_opt", type=int, default=FusionConfig.t_opt,
                        help="frames per optimization period (default %(default)s)")
    parser.add_argument("--align-window-seconds", type=float,
                        default=RunManifest.align_window_seconds, metavar="S",
                        help="opening window for the vio-to-gt rigid fit (default %(default)s)")
    parser.add_argument("--mode", choices=_MODES, default=RunManifest.mode,
                        help="force fusion or vio-only evaluation (default %(default)s)")
    parser.add_argument("--formats", default=",".join(RunManifest.formats),
                        help="comma list of report formats to write (default %(default)s)")
    parser.add_argument("--save-sequence", action="store_true",
                        help="also write generated synthetic sequences as CSV")
    parser.add_argument("--out", type=Path, required=True, metavar="DIR",
                        help="output directory for reports")
    args = parser.parse_args(argv)
    return RunManifest(
        out_dir=args.out,
        inputs=tuple(args.input),
        synth_count=args.synth,
        frames=args.frames,
        fusion=FusionConfig(
            d_th=args.dth, o_th=args.oth, n_pairs=args.n_pairs, t_opt=args.t_opt
        ),
        align_window_seconds=args.align_window_seconds,
        mode=args.mode,
        formats=tuple(f.strip() for f in args.formats.split(",") if f.strip()),
        save_sequences=args.save_sequence,
        seed=args.seed,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        manifest = build_manifest(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse reports its own message
        return 1 if exc.code not in (0, None) else 0
    except ValueError as exc:  # config constructors validate eagerly
        print(f"posefuse: error: {exc}", file=sys.stderr)
        return 1
    return run_pipeline_command(manifest)


if __name__ == "__main__":
    raise SystemExit(main())
