"""Sequence file ingestion and serialization.

A sequence is a CSV file, one row per frame, with a fixed header.  Each
of the gt / vio / apr pose groups is seven columns (x y z, then the
quaternion scalar first); a group may be entirely empty when that stream
is absent for the sequence.  Timestamps are seconds and must be strictly
increasing.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import Pose, UnitQuaternion, Vec3, _normalize_rows, _poses

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

# parse_sequence reads about this many characters of whole lines at a
# time, which bounds its working memory.
_CHUNK_CHARS = 1 << 16

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

    The rows are read in chunks of about 64 KiB, each converted to one
    float array and checked in bulk.  A chunk that fails any check goes
    through the row scanner instead, which words the error of its first
    bad row; so does the rest of a file from the first chunk holding a
    quote character, since csv quoting can join lines into one row.
    """
    samples: list[PoseSample] = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise SequenceFormatError("empty file, expected a header row", line=1)
        if '"' in first:
            rows = csv.reader(itertools.chain([first], fh))
            _check_header(next(rows))
            _scan_rows(rows, 2, samples)
            return samples
        _check_header(next(csv.reader([first])))
        line_no = 2
        while lines := fh.readlines(_CHUNK_CHARS):
            if '"' in "".join(lines):
                _scan_rows(csv.reader(itertools.chain(lines, fh)), line_no, samples)
                break
            if not _read_chunk([line.rstrip("\r\n") for line in lines], samples):
                _scan_rows(csv.reader(lines), line_no, samples)
            line_no += len(lines)
    return samples


def _check_header(header: list[str]) -> None:
    if tuple(h.strip() for h in header) != SEQUENCE_COLUMNS:
        raise SequenceFormatError(
            f"bad header, expected {','.join(SEQUENCE_COLUMNS)}", line=1
        )


def _read_chunk(rows: list[str], samples: list[PoseSample]) -> bool:
    """Append the samples of a chunk of unquoted data rows (line ends
    stripped) and return True when every row is well formed; return
    False, appending nothing, when any check fails.

    Fields convert with int and float, as the row scanner converts them,
    and quaternions are normalized as UnitQuaternion normalizes them, so
    the samples equal the scanner's bit for bit."""
    rows = [row for row in rows if row]
    if not rows:
        return True
    n_cols = len(SEQUENCE_COLUMNS)
    if any(row.count(",") != n_cols - 1 for row in rows):
        return False
    if max(map(len, rows)) > csv.field_size_limit():
        return False
    fields = ",".join(rows).split(",")
    try:
        frames = list(map(int, fields[::n_cols]))
        # Absent pose groups leave empty fields, read as NaN here; a NaN
        # beyond those is a field spelled NaN.
        values = np.array([float(f) if f else math.nan for f in fields])
    except ValueError:
        return False
    if np.count_nonzero(np.isnan(values)) != fields.count("") or np.isinf(values).any():
        return False
    values = values.reshape(len(rows), n_cols)
    ts = values[:, 1]
    groups = values[:, 2:].reshape(len(rows), 3, 7)
    empty = np.isnan(groups).sum(axis=2)
    if np.isnan(ts).any() or (empty % 7).any() or empty[:, 1].any():
        return False
    q = groups[:, :, 3:]
    norm = np.sqrt(q[..., 0] * q[..., 0] + q[..., 1] * q[..., 1] + q[..., 2] * q[..., 2] + q[..., 3] * q[..., 3])
    if (np.abs(norm - 1.0) > QUAT_NORM_SLACK).any():
        return False
    if not (ts[1:] > ts[:-1]).all() or (samples and not ts[0] > samples[-1].timestamp):
        return False
    streams = []
    for g in range(3):
        present = empty[:, g] == 0
        track = groups[present, g]
        _normalize_rows(track[:, 3:])
        poses = iter(_poses(track))
        streams.append([next(poses) if p else None for p in present.tolist()])
    samples.extend(map(PoseSample, frames, ts.tolist(), *streams))
    return True


def _scan_rows(rows: Iterable[list[str]], line_no: int, samples: list[PoseSample]) -> None:
    """Append the samples of csv rows, the first on line line_no, one row
    at a time; raise SequenceFormatError at the first bad row."""
    prev_ts = samples[-1].timestamp if samples else None
    for line_no, row in enumerate(rows, start=line_no):
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
