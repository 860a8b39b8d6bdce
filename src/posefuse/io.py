"""Sequence file ingestion and serialization.

A sequence is a CSV file, one row per frame, with a fixed header.  Each
of the gt / vio / apr pose groups is seven columns (x y z, then the
quaternion scalar first); a group may be entirely empty when that stream
is absent for the sequence.  Timestamps are seconds and must be strictly
increasing.

parse_sequence returns a Recording: the frames in array form, one
(N, 7) track per stream, converted a chunk of lines at a time, the
lines as read, by one call of numpy's C reader, which ends a line at
LF or CRLF (numpy 2.4's at CR alone too) and converts a field with the
routine float() uses.  The rows of a chunk that reader refuses are
converted one at a time with int and float, which give the same bits,
and checked as they are converted, so a bad row's error names its line.
Each row is checked once, so the parser builds its Recording without
the constructor's checks.  A Recording is a read-only sequence of
PoseSample, whose Pose objects are built only when a caller indexes or
iterates it.  Recording.of turns any sequence of samples into one, and
write_sequence formats from that form.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .geometry import (
    COORD_LIMIT, UNIT_NORM_TOL, Pose, _dot4, _FrameSequence, _frozen, _new, _normalize_rows, _pose_fault, _poses,
    track_array,
)

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

# A data row as _read_chunk and _check_rows convert it: the frame, then
# the timestamp and the seven columns of each of gt, vio and apr, NaN
# where the group is empty.
_ROW = np.dtype([("frame", np.int64), ("values", np.float64, (22,))])
_FRAME_RANGE = range(-(1 << 63), 1 << 63)

# write_sequence formats at most this many rows at a time, which bounds
# the Python floats it holds at once.
_WRITE_ROWS = 1024

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


STREAMS = ("gt", "vio", "apr")


class Recording(_FrameSequence):
    """A sequence of frames in array form: frame indices, timestamps and
    one (N, 7) track per stream, rows x, y, z, qw, qx, qy, qz as a Pose
    holds them.  A frame without a stream has a row of NaN there; Pose
    fields are always finite, so NaN means absent and nothing else.  The
    constructor stores the rows as given, and raises ValueError, naming
    the frame, at a timestamp not finite or a row that is neither all NaN
    nor one PoseTrack would take.

    It is a read-only sequence of PoseSample.  Indexing builds a fresh
    sample, so changing one changes nothing here, and iteration builds
    the samples of the whole recording at once."""

    __slots__ = ("frames", "timestamps", "gt", "vio", "apr")

    def __init__(self, frames, timestamps, gt, vio, apr) -> None:
        self._store(frames, timestamps, gt, vio, apr)
        if not np.isfinite(self.timestamps).all():
            i = np.argmin(np.isfinite(self.timestamps))
            raise ValueError(f"frame {self.frames[i]}: timestamp must be finite, got {self.timestamps.item(i)!r}")
        for name in STREAMS:
            track = getattr(self, name)
            present = np.flatnonzero(~np.isnan(track).all(axis=1))
            if (fault := _pose_fault(track[present], UNIT_NORM_TOL)) is not None:
                raise ValueError(f"frame {self.frames[present[fault[0]]]}: {name} {fault[1]}")

    @classmethod
    def _checked(cls, frames, timestamps, gt, vio, apr) -> "Recording":
        """The recording of fields whose rows are checked already, as
        parse_sequence and the PoseTrack constructors check them: stored
        as the constructor stores them, without its checks."""
        rec = _new(cls)
        rec._store(frames, timestamps, gt, vio, apr)
        return rec

    def _store(self, frames, timestamps, gt, vio, apr) -> None:
        """Set the fields to read-only copies of the given ones."""
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

    def __iter__(self) -> Iterator[PoseSample]:
        streams = []
        for name in STREAMS:
            present = self.has(name)
            poses = iter(_poses(getattr(self, name)[present]))
            streams.append([next(poses) if p else None for p in present.tolist()])
        return map(PoseSample, self.frames, self.timestamps.tolist(), *streams)


def parse_sequence(path: str | Path) -> Recording:
    """Read a sequence CSV into a Recording, one frame per data row.

    Raises SequenceFormatError, naming the line the offending row starts
    on, for a wrong header, malformed or non-finite fields, a frame
    outside the int64 range, a field longer than csv.field_size_limit(),
    pose coordinates of magnitude COORD_LIMIT (1e150 m) or more,
    quaternions further than 1e-3 from unit norm, missing vio poses, or
    non-increasing timestamps.

    The rows come in chunks (see _chunks), the header alone first.
    _read_chunk converts and checks each chunk in bulk; _check_rows
    converts and checks the rows of a chunk it refuses one at a time,
    and words the error of the first bad row.  Either gives the chunk's
    table, and each row is checked once, so the Recording is built
    without the constructor's checks.  No Pose is built until the
    recording is indexed or iterated.
    """
    tables: list[np.ndarray] = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        chunks = _chunks(fh)
        header = next(chunks, None)
        if header is None:
            raise SequenceFormatError("empty file, expected a header row", line=1)
        if tuple(h.strip() for h in _fields(header[0][0])) != SEQUENCE_COLUMNS:
            raise SequenceFormatError(f"bad header, expected {','.join(SEQUENCE_COLUMNS)}", line=1)
        last = -math.inf  # the timestamp of the last row read
        for rows, starts, lines, text in chunks:
            table = _read_chunk(lines, text, last)
            if table is None:
                table = _check_rows(rows, starts, last)
            # A chunk of blank lines has no rows.
            if len(table):
                tables.append(table)
                last = table["values"].item(-1, 0)
    table = np.concatenate(tables) if tables else np.empty(0, _ROW)
    values = table["values"]
    # The quaternion columns of each group, normalized in place as the
    # Pose constructor normalizes them; rows of an absent group stay NaN.
    for g in range(3):
        _normalize_rows(values[:, 4 + 7 * g : 8 + 7 * g])
    return Recording._checked(table["frame"].tolist(), values[:, 0], values[:, 1:8], values[:, 8:15], values[:, 15:22])


def _chunks(fh) -> Iterator[tuple[list, Sequence[int], Optional[list[str]], Optional[str]]]:
    """The rows of an open sequence file in chunks, each with the line
    each row starts on and the lines _read_chunk converts, with their
    text: the header row alone, then about _CHUNK_CHARS characters of
    whole lines at a time.  Up to the first chunk holding a quote
    character, a row is a line as read, the lines are those rows and the
    text is the lines joined.  From there on, a row is a list of fields
    from csv.reader, which can join quoted lines, as many rows at a time
    as that chunk has lines, and the lines and text are _joined's.
    A csv error raises SequenceFormatError naming its line, once the rows
    before it are yielded."""
    header = fh.readline()
    line_no, lines = 0, [header] if header else []
    while lines and '"' not in (text := "".join(lines)):
        yield lines, range(line_no + 1, line_no + len(lines) + 1), lines, text
        line_no += len(lines)
        lines = fh.readlines(_CHUNK_CHARS)
    if line_no == 0:
        # A quoted header: the chunks after it take their size from the
        # lines that follow it.
        lines += fh.readlines(_CHUNK_CHARS)
    reader = csv.reader(itertools.chain(lines, fh))
    rows: list[list[str]] = []
    starts: list[int] = []
    start = line_no + 1  # the line the next row starts on
    try:
        for row in reader:
            rows.append(row)
            starts.append(start)
            start = line_no + reader.line_num + 1
            # The header row, on line 1, comes alone here too.
            if len(rows) == len(lines) or starts[0] == 1:
                yield rows, starts, *_joined(rows)
                rows, starts = [], []
    except csv.Error as exc:
        if rows:
            yield rows, starts, *_joined(rows)
        raise SequenceFormatError(str(exc), line=line_no + reader.line_num) from None
    if rows:
        yield rows, starts, *_joined(rows)


def _fields(row: str | list[str]) -> list[str]:
    """The fields of a row of _chunks."""
    return row.rstrip("\r\n").split(",") if isinstance(row, str) else row


def _joined(rows: list[list[str]]) -> tuple[Optional[list[str]], Optional[str]]:
    """The fields of each csv row joined with commas, a line per row, and
    the lines joined; None, None when a row has other than 23 fields, or
    a field holds a line break, since the line would then read as other
    rows."""
    lines = list(map(",".join, rows))
    text = "\n".join(lines)
    if set(map(len, rows)) != {len(SEQUENCE_COLUMNS)} or text.count("\n") != len(rows) - 1 or "\r" in text:
        return None, None
    return lines, text


def _read_chunk(lines: Optional[list[str]], text: Optional[str], last: float) -> Optional[np.ndarray]:
    """The _ROW table of a chunk of data rows, given as its lines and
    their text, as _table converts them, if every row is well formed and
    the first timestamp follows last; else None."""
    if lines is None or "n" in text or "N" in text:
        # A field spelled nan or inf is left to the row checks to word.
        return None
    limit = csv.field_size_limit()
    # Most chunks are shorter than the limit, which spares the line scan.
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    table = _table(lines)
    # Without a field spelled nan the reader reads no NaN, so only a
    # chunk read again with empty groups filled needs the NaN checks.
    filled = table is None and _EMPTY_GROUP in text
    if filled:
        # An absent pose group is seven empty fields, each after a comma
        # of a run of seven, and the reader refuses empty fields.  It
        # reads them as NaN once each comma of the run is followed by
        # nan.  A nan that lands before a field that is not empty joins
        # it into one the reader refuses, so NaN stands for an empty
        # field and nothing else.
        table = _table([line.replace(_EMPTY_GROUP, ",nan" * 7) for line in lines])
    if table is None:
        return None
    values = table["values"]
    # Overflow reads as inf, as float reads it.
    if np.isinf(values).any():
        return None
    # The gt, vio and apr groups of each row in turn.
    ts, poses = values[:, 0], values[:, 1:].reshape(-1, 7)
    if filled:
        empty = np.isnan(poses).sum(axis=1)
        if np.isnan(ts).any() or (empty % 7).any() or empty[1::3].any():
            return None
        poses = poses[empty == 0]
    if _pose_fault(poses, QUAT_NORM_SLACK) is not None:
        return None
    if not (ts[0] > last and (ts[1:] > ts[:-1]).all()):
        return None
    return table


def _table(lines: list[str]) -> Optional[np.ndarray]:
    """The lines as _ROW records, skipping empty lines, from one call of
    numpy's C reader, which takes each line as one row, ended by LF, CRLF
    or nothing (and by CR alone in numpy 2.4), and converts a field with
    the routine float() uses; None where it refuses a field or a line, or
    warns."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, dtype=_ROW, delimiter=",", comments=None, quotechar=None, ndmin=1)
    except (ValueError, Warning):
        return None


def _check_rows(rows: list, starts: Sequence[int], last: float) -> np.ndarray:
    """The _ROW table of the rows of a chunk, rows of _chunks each
    starting on its line in starts, converted by int and float, blank
    rows dropped; raise SequenceFormatError at the first bad row, worded
    from its fields as the file spells them.  last is the timestamp
    before the chunk."""
    limit, n_cols = csv.field_size_limit(), len(SEQUENCE_COLUMNS)
    records = []
    for line_no, row in zip(starts, map(_fields, rows)):
        if max(map(len, row), default=0) > limit:
            raise SequenceFormatError(f"field larger than field limit ({limit})", line=line_no)
        stripped = [f.strip() for f in row]
        if not any(stripped):
            continue
        if len(row) != n_cols:
            raise SequenceFormatError(f"expected {n_cols} fields, got {len(row)}", line=line_no)
        try:
            frame = int(stripped[0])
        except ValueError:
            raise SequenceFormatError(f"frame is not an integer: {row[0]!r}", line=line_no)
        if frame not in _FRAME_RANGE:
            raise SequenceFormatError(f"frame is outside the int64 range: {row[0]!r}", line=line_no)
        ts = _parse_float(row[1], "timestamp", line_no)
        values = [ts]
        for name, start in zip(STREAMS, (2, 9, 16)):
            values += _check_pose_group(stripped[start : start + 7], name, line_no)
        if not any(stripped[9:16]):
            raise SequenceFormatError("vio pose is required on every row", line=line_no)
        if ts <= last:
            raise SequenceFormatError(f"timestamps must be strictly increasing, {ts!r} follows {last!r}", line=line_no)
        last = ts
        records.append((frame, values))
    return np.array(records, dtype=_ROW)


def write_sequence(path: str | Path, samples: Sequence[PoseSample]) -> None:
    """Serialize samples, a Recording or any sequence of PoseSample,
    back to the sequence CSV format.  Floats keep 12 significant digits,
    enough for a lossless-in-practice round trip.  Lines end in CRLF, as
    csv.writer ends them; no field needs quoting."""
    rec = Recording.of(samples)
    frames, tracks = rec.frames, (rec.gt, rec.vio, rec.apr)
    # A frame's pattern has bit 4 set for gt, 2 for vio and 1 for apr.
    patterns = rec.has("gt") * 4 + rec.has("vio") * 2 + rec.has("apr")
    lines = [",".join(SEQUENCE_COLUMNS)] + [""] * len(rec)
    # One format per pattern of present streams, filled from the columns
    # of the streams present, a bounded block of rows at a time.
    for code in np.unique(patterns).tolist():
        rows = np.flatnonzero(patterns == code)
        pattern = [bool(code & 4), bool(code & 2), bool(code & 1)]
        fmt = "%d," + _FLOAT_FMT + "".join(_POSE_GROUP if p else _EMPTY_GROUP for p in pattern)
        for start in range(0, len(rows), _WRITE_ROWS):
            block = rows[start : start + _WRITE_ROWS]
            values = np.column_stack([rec.timestamps[block]] + [t[block] for t, p in zip(tracks, pattern) if p])
            for i, row in zip(block.tolist(), values.tolist()):
                lines[i + 1] = fmt % (frames[i], *row)
    lines.append("")
    Path(path).write_text("\r\n".join(lines), encoding="utf-8", newline="")


def _parse_float(text: str, name: str, line_no: int) -> float:
    try:
        v = float(text.strip())
    except ValueError:
        raise SequenceFormatError(f"{name} is not a number: {text!r}", line=line_no)
    if not math.isfinite(v):
        raise SequenceFormatError(f"{name} must be finite: {text!r}", line=line_no)
    return v


def _check_pose_group(fields: list[str], name: str, line_no: int) -> list[float]:
    """The values of a pose group, seven stripped fields, as float reads
    them, or seven NaN for an empty group.  Raise SequenceFormatError at
    a group that is neither empty nor a pose."""
    if not any(fields):
        return [math.nan] * 7
    if not all(fields):
        raise SequenceFormatError(f"{name} pose group is partially filled, give all 7 fields or none", line=line_no)
    vals = [_parse_float(f, name, line_no) for f in fields]
    for axis, text, v in zip("xyz", fields, vals):
        if abs(v) >= COORD_LIMIT:
            raise SequenceFormatError(
                f"{name} {axis} must be below {COORD_LIMIT:g} m in magnitude: {text!r}", line=line_no
            )
    norm = math.sqrt(_dot4(*vals[3:], *vals[3:]))
    if abs(norm - 1.0) > QUAT_NORM_SLACK:
        raise SequenceFormatError(
            f"{name} quaternion norm {norm:.6f} is further than "
            f"{QUAT_NORM_SLACK} from 1, refusing to renormalize",
            line=line_no,
        )
    return vals
