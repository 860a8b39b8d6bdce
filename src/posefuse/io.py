"""Sequence file ingestion and serialization.

A sequence is a CSV file, one row per frame, with a fixed header.  Each
of the gt / vio / apr pose groups is seven columns (x y z, then the
quaternion scalar first); a group may be entirely empty when that stream
is absent for the sequence.  Timestamps are seconds and must be strictly
increasing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .geometry import Pose, UnitQuaternion, Vec3

SEQUENCE_COLUMNS = (
    "frame",
    "timestamp",
    "gt_x", "gt_y", "gt_z", "gt_qw", "gt_qx", "gt_qy", "gt_qz",
    "vio_x", "vio_y", "vio_z", "vio_qw", "vio_qx", "vio_qy", "vio_qz",
    "apr_x", "apr_y", "apr_z", "apr_qw", "apr_qx", "apr_qy", "apr_qz",
)

# Quaternions this far from unit norm are treated as data corruption
# rather than rounding from limited print precision.
QUAT_NORM_SLACK = 1e-3

_FLOAT_FMT = "%.12g"
_POSE_GROUP = ("," + _FLOAT_FMT) * 7
_EMPTY_GROUP = "," * 7


class SequenceFormatError(ValueError):
    """Malformed sequence file.  Carries the 1-based line number when one
    specific row is at fault."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(slots=True)
class PoseSample:
    """One frame of a sequence.  gt and apr are optional streams; vio is
    required in sequence files (the fusion pipeline cannot run without
    it) but may be absent on samples built in memory, e.g. ground truth
    fresh out of the trajectory generator."""

    frame_index: int
    timestamp: float
    gt: Optional[Pose] = None
    vio: Optional[Pose] = None
    apr: Optional[Pose] = None


def parse_sequence(path: str | Path) -> list[PoseSample]:
    """Read a sequence CSV.  Returns one PoseSample per data row.

    Raises SequenceFormatError, pointing at the offending line, for a
    wrong header, malformed fields, quaternions further than 1e-3 from
    unit norm, missing vio poses, or non-increasing timestamps.
    """
    path = Path(path)
    samples: list[PoseSample] = []
    prev_ts: float | None = None
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SequenceFormatError("empty file, expected a header row", line=1)
        if tuple(h.strip() for h in header) != SEQUENCE_COLUMNS:
            raise SequenceFormatError(
                f"bad header, expected {','.join(SEQUENCE_COLUMNS)}", line=1
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or all(f.strip() == "" for f in row):
                continue
            if len(row) != len(SEQUENCE_COLUMNS):
                raise SequenceFormatError(
                    f"expected {len(SEQUENCE_COLUMNS)} fields, got {len(row)}",
                    line=line_no,
                )
            frame = _parse_int(row[0], "frame", line_no)
            ts = _parse_float(row[1], "timestamp", line_no)
            gt = _parse_pose_group(row[2:9], "gt", line_no)
            vio = _parse_pose_group(row[9:16], "vio", line_no)
            apr = _parse_pose_group(row[16:23], "apr", line_no)
            if vio is None:
                raise SequenceFormatError("vio pose is required on every row", line=line_no)
            if prev_ts is not None and ts <= prev_ts:
                raise SequenceFormatError(
                    f"timestamps must be strictly increasing, {ts!r} follows {prev_ts!r}",
                    line=line_no,
                )
            prev_ts = ts
            samples.append(PoseSample(frame, ts, gt=gt, vio=vio, apr=apr))
    return samples


def write_sequence(path: str | Path, samples: Sequence[PoseSample]) -> None:
    """Serialize samples back to the sequence CSV format.  Floats keep 12
    significant digits, enough for a lossless-in-practice round trip.
    Lines end in CRLF, as csv.writer ends them; no field needs quoting."""
    lines = [",".join(SEQUENCE_COLUMNS)]
    for s in samples:
        fmt = "%d," + _FLOAT_FMT
        values: list = [s.frame_index, s.timestamp]
        for pose in (s.gt, s.vio, s.apr):
            if pose is None:
                fmt += _EMPTY_GROUP
            else:
                fmt += _POSE_GROUP
                p, q = pose.position, pose.orientation
                values += (p.x, p.y, p.z, q.w, q.x, q.y, q.z)
        lines.append(fmt % tuple(values))
    lines.append("")
    Path(path).write_text("\r\n".join(lines), encoding="utf-8", newline="")


def _parse_int(text: str, name: str, line_no: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise SequenceFormatError(f"{name} is not an integer: {text!r}", line=line_no)


def _parse_float(text: str, name: str, line_no: int) -> float:
    try:
        v = float(text.strip())
    except ValueError:
        raise SequenceFormatError(f"{name} is not a number: {text!r}", line=line_no)
    if not math.isfinite(v):
        raise SequenceFormatError(f"{name} must be finite: {text!r}", line=line_no)
    return v


def _parse_pose_group(fields: Sequence[str], name: str, line_no: int) -> Optional[Pose]:
    stripped = [f.strip() for f in fields]
    if all(f == "" for f in stripped):
        return None
    if any(f == "" for f in stripped):
        raise SequenceFormatError(
            f"{name} pose group is partially filled, give all 7 fields or none",
            line=line_no,
        )
    vals = [_parse_float(f, name, line_no) for f in stripped]
    x, y, z, qw, qx, qy, qz = vals
    norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    if abs(norm - 1.0) > QUAT_NORM_SLACK:
        raise SequenceFormatError(
            f"{name} quaternion norm {norm:.6f} is further than "
            f"{QUAT_NORM_SLACK} from 1, refusing to renormalize",
            line=line_no,
        )
    # Within the slack band the deviation is print-precision noise; the
    # constructor renormalizes.
    return Pose(Vec3(x, y, z), UnitQuaternion(qw, qx, qy, qz))
