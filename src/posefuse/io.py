"""Sequence file ingestion and serialization.

A sequence is a CSV file, one row per frame, with a fixed header.  Each
of the gt / vio / apr pose groups is seven columns (x y z, then the
quaternion scalar first); a group may be entirely empty when that stream
is absent for the sequence.  Timestamps are seconds and must be strictly
increasing.

parse_sequence returns a Recording: the frames in array form, one
(N, 7) track per stream, which is what fusion and the reports compute
on.  A Recording is also a read-only sequence of PoseSample, whose Pose
objects are built only when a caller indexes or iterates it.
Recording.of turns any sequence of samples into one.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .geometry import Pose, _normalize, _normalize_rows, _poses
from .metrics import track_array

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


class _FrameSequence(Sequence):
    """A read-only sequence whose fields each hold one entry per frame,
    named in __slots__.  Slicing slices every field; indexing builds one
    element, iteration builds them all.  It equals any sequence with
    equal elements, a list of them included."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return type(self)(*(getattr(self, name)[i] for name in self.__slots__))
        return self._item(range(len(self))[i])

    def _item(self, i: int):
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} frames>"


def _frozen(values, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """A read-only copy of values, which must have the given shape."""
    a = np.array(values, dtype=dtype)
    if a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    a.flags.writeable = False
    return a


STREAMS = ("gt", "vio", "apr")


class Recording(_FrameSequence):
    """A sequence of frames in array form: frame indices, timestamps and
    one (N, 7) track per stream, rows x, y, z, qw, qx, qy, qz as a Pose
    holds them.  A frame without a stream has a row of NaN there; Pose
    fields are always finite, so NaN means absent and nothing else.

    It is a read-only sequence of PoseSample.  Indexing builds a fresh
    sample, so changing one changes nothing here, and iteration builds
    the samples of the whole recording at once."""

    __slots__ = ("frames", "timestamps", "gt", "vio", "apr")

    def __init__(self, frames, timestamps, gt, vio, apr) -> None:
        self.frames = tuple(frames)
        n = len(self.frames)
        self.timestamps = _frozen(timestamps, (n,))
        self.gt = _frozen(gt, (n, 7))
        self.vio = _frozen(vio, (n, 7))
        self.apr = _frozen(apr, (n, 7))

    @classmethod
    def of(cls, samples: Sequence[PoseSample]) -> "Recording":
        """The recording of any sequence of samples; a Recording comes
        back as it is."""
        if isinstance(samples, Recording):
            return samples
        tracks = []
        for name in STREAMS:
            poses = [getattr(s, name) for s in samples]
            track = np.full((len(poses), 7), math.nan)
            present = np.array([p is not None for p in poses], dtype=bool)
            track[present] = track_array([p for p in poses if p is not None])
            tracks.append(track)
        return cls([s.frame_index for s in samples], [s.timestamp for s in samples], *tracks)

    def has(self, stream: str) -> np.ndarray:
        """The (N,) mask of frames that carry stream, one of STREAMS."""
        return ~np.isnan(getattr(self, stream)[:, 0])

    def _item(self, i: int) -> PoseSample:
        poses = [
            None if math.isnan(track[i, 0]) else _poses(track[i : i + 1])[0]
            for track in (self.gt, self.vio, self.apr)
        ]
        return PoseSample(self.frames[i], float(self.timestamps[i]), *poses)

    def __iter__(self) -> Iterator[PoseSample]:
        streams = []
        for name in STREAMS:
            present = self.has(name)
            poses = iter(_poses(getattr(self, name)[present]))
            streams.append([next(poses) if p else None for p in present.tolist()])
        return map(PoseSample, self.frames, self.timestamps.tolist(), *streams)


def parse_sequence(path: str | Path) -> Recording:
    """Read a sequence CSV into a Recording, one frame per data row.

    Raises SequenceFormatError, pointing at the offending line, for a
    wrong header, malformed fields, quaternions further than 1e-3 from
    unit norm, missing vio poses, or non-increasing timestamps.

    The rows are read in chunks of about 64 KiB, each converted to one
    float array and checked in bulk.  A chunk that fails any check goes
    through the row scanner instead, which words the error of its first
    bad row; so does the rest of a file from the first chunk holding a
    quote character, since csv quoting can join lines into one row.
    Both write the rows they read into blocks of the recording's
    arrays, and no Pose is built until the recording is indexed or
    iterated.
    """
    frames: list[int] = []
    blocks: list[np.ndarray] = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise SequenceFormatError("empty file, expected a header row", line=1)
        if '"' in first:
            rows = csv.reader(itertools.chain([first], fh))
            _check_header(next(rows))
            _scan_rows(rows, 2, frames, blocks)
            return _recording(frames, blocks)
        _check_header(next(csv.reader([first])))
        line_no = 2
        while lines := fh.readlines(_CHUNK_CHARS):
            if '"' in "".join(lines):
                _scan_rows(csv.reader(itertools.chain(lines, fh)), line_no, frames, blocks)
                break
            if not _read_chunk([line.rstrip("\r\n") for line in lines], frames, blocks):
                _scan_rows(csv.reader(lines), line_no, frames, blocks)
            line_no += len(lines)
    return _recording(frames, blocks)


# parse_sequence collects its rows in blocks, one row per frame: the
# timestamp, then the seven columns of each of gt, vio and apr, _ABSENT
# where the group is empty.
_ABSENT = (math.nan,) * 7


def _recording(frames: list[int], blocks: list[np.ndarray]) -> Recording:
    values = np.concatenate(blocks) if blocks else np.empty((0, 22))
    return Recording(frames, values[:, 0], values[:, 1:8], values[:, 8:15], values[:, 15:22])


def _last_timestamp(blocks: list[np.ndarray]) -> float | None:
    """The timestamp of the last row read; no block is empty."""
    return float(blocks[-1][-1, 0]) if blocks else None


def _check_header(header: list[str]) -> None:
    if tuple(h.strip() for h in header) != SEQUENCE_COLUMNS:
        raise SequenceFormatError(
            f"bad header, expected {','.join(SEQUENCE_COLUMNS)}", line=1
        )


def _read_chunk(rows: list[str], frames: list[int], blocks: list[np.ndarray]) -> bool:
    """Append the frames and the block of a chunk of unquoted data rows
    (line ends stripped) and return True when every row is well formed;
    return False, appending nothing, when any check fails.

    Fields convert with int and float, as the row scanner converts them,
    and quaternions are normalized as UnitQuaternion normalizes them, so
    the rows equal the scanner's bit for bit."""
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
        chunk_frames = list(map(int, fields[::n_cols]))
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
    last = _last_timestamp(blocks)
    if not (ts[1:] > ts[:-1]).all() or (last is not None and not ts[0] > last):
        return False
    # The quaternion columns of each group, normalized in place; rows of
    # an absent group stay NaN.
    for g in range(3):
        _normalize_rows(values[:, 5 + 7 * g : 9 + 7 * g])
    frames.extend(chunk_frames)
    blocks.append(values[:, 1:])
    return True


def _scan_rows(
    rows: Iterable[list[str]], line_no: int, frames: list[int], blocks: list[np.ndarray]
) -> None:
    """Append the frames and the block of csv rows, the first on line
    line_no, read one row at a time; raise SequenceFormatError at the
    first bad row."""
    prev_ts = _last_timestamp(blocks)
    scanned = []
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
        frames.append(frame)
        scanned.append((ts, *(gt or _ABSENT), *vio, *(apr or _ABSENT)))
    if scanned:
        blocks.append(np.array(scanned, dtype=float))


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


def _parse_pose_group(
    fields: Sequence[str], name: str, line_no: int
) -> Optional[tuple[float, ...]]:
    """The seven columns of a pose group as a Pose holds them, or None
    when the group is empty."""
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
    # Within the slack band the deviation is print-precision noise,
    # renormalized as UnitQuaternion renormalizes it.
    return (x, y, z, *_normalize((qw, qx, qy, qz)))
