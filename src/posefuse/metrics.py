"""Trajectory error metrics and evaluation summaries.

Absolute errors compare a track against ground truth pose by pose.
Relative errors compare the per-step motion magnitudes of two tracks,
which cancels any shared rigid offset.  Tracks living in their own
coordinate frame (odometry) are first registered to ground truth with a
rigid fit over the opening window of the sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    Pose,
    RigidTransform,
    RotationMatrix,
    Vec3,
    odometry,
    rotation_angle_deg,
    translation_distance,
)

# Precision levels: a record counts toward a level when BOTH its
# position and orientation errors are at or under the level's bounds.
PRECISION_HIGH = (0.25, 2.0)
PRECISION_MEDIUM = (0.5, 5.0)
PRECISION_LOW = (5.0, 10.0)

# Fixed threshold ladders for CDF samples, so reports are comparable
# across runs and sequences.
CDF_POS_THRESHOLDS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)
CDF_ORI_THRESHOLDS = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 45.0, 90.0, 180.0)

DEFAULT_ALIGN_WINDOW_SECONDS = 30.0


@dataclass(frozen=True)
class ErrorRecord:
    """Per-frame absolute errors: position in meters, orientation in
    degrees."""

    frame_index: int
    pos_err: float
    ori_err: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.pos_err) and self.pos_err >= 0.0):
            raise ValueError(f"pos_err must be finite and >= 0, got {self.pos_err!r}")
        if not (math.isfinite(self.ori_err) and 0.0 <= self.ori_err <= 180.0):
            raise ValueError(f"ori_err must be in [0, 180], got {self.ori_err!r}")


@dataclass(frozen=True)
class PrecisionBuckets:
    """Fractions of records at each precision level.  Levels nest, so
    high <= medium <= low always."""

    high: float
    medium: float
    low: float

    def __post_init__(self) -> None:
        for name in ("high", "medium", "low"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"bucket {name} must be in [0, 1], got {v!r}")
        if not (self.high <= self.medium + 1e-12 and self.medium <= self.low + 1e-12):
            raise ValueError("buckets must nest: high <= medium <= low")


@dataclass(frozen=True)
class SummaryReport:
    """Aggregate statistics over one set of error records."""

    count: int
    median_pos: float
    median_ori: float
    mean_pos: float
    mean_ori: float
    buckets: PrecisionBuckets
    cdf_pos: tuple[tuple[float, float], ...]
    cdf_ori: tuple[tuple[float, float], ...]

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "median_pos_m": self.median_pos,
            "median_ori_deg": self.median_ori,
            "mean_pos_m": self.mean_pos,
            "mean_ori_deg": self.mean_ori,
            "precision": {
                "high": self.buckets.high,
                "medium": self.buckets.medium,
                "low": self.buckets.low,
            },
        }


def absolute_pose_error(est: Pose, gt: Pose, frame_index: int = 0) -> ErrorRecord:
    """Position and orientation error of one estimate against ground
    truth."""
    return ErrorRecord(
        frame_index,
        translation_distance(gt.position, est.position),
        rotation_angle_deg(gt.orientation, est.orientation),
    )


def relative_errors(
    track_a: Sequence[Pose], track_b: Sequence[Pose]
) -> list[tuple[float, float]]:
    """Per consecutive pair, the absolute difference of the two tracks'
    motion magnitudes: (distance difference m, angle difference deg).
    Invariant under a rigid transform of either whole track."""
    if len(track_a) != len(track_b):
        raise ValueError(
            f"tracks differ in length: {len(track_a)} vs {len(track_b)}"
        )
    if len(track_a) < 2:
        raise ValueError("relative errors need at least two poses per track")
    out: list[tuple[float, float]] = []
    for i in range(len(track_a) - 1):
        ua = odometry(track_a[i], track_a[i + 1])
        ub = odometry(track_b[i], track_b[i + 1])
        out.append((abs(ua.dist - ub.dist), abs(ua.angle - ub.angle)))
    return out


def empirical_cdf(errors: Sequence[float], d: float) -> float:
    """Fraction of errors at or under d (inclusive)."""
    if len(errors) == 0:
        raise ValueError("empirical_cdf needs at least one error value")
    return int(np.count_nonzero(np.asarray(errors, dtype=float) <= d)) / len(errors)


def precision_buckets(records: Sequence[ErrorRecord]) -> PrecisionBuckets:
    """Fraction of records within each precision level (inclusive on
    both bounds)."""
    if len(records) == 0:
        raise ValueError("precision_buckets needs at least one record")
    pos = np.array([r.pos_err for r in records], dtype=float)
    ori = np.array([r.ori_err for r in records], dtype=float)

    def frac(level: tuple[float, float]) -> float:
        d, o = level
        return int(np.count_nonzero((pos <= d) & (ori <= o))) / len(records)

    return PrecisionBuckets(
        high=frac(PRECISION_HIGH),
        medium=frac(PRECISION_MEDIUM),
        low=frac(PRECISION_LOW),
    )


def kabsch_align(source: Sequence[Vec3], target: Sequence[Vec3]) -> RigidTransform:
    """Least-squares rigid fit (rotation + translation, no scale) taking
    source points onto target points.

    Centers both sets, takes the SVD of the correlation matrix, and
    flips the smallest singular direction when the raw solution would be
    a reflection.  Rejects inputs whose geometry leaves the rotation
    underdetermined (fewer than 3 points, or all points collinear).
    """
    if len(source) != len(target):
        raise ValueError(
            f"point sets differ in length: {len(source)} vs {len(target)}"
        )
    if len(source) < 3:
        raise ValueError("rigid fit needs at least 3 point pairs")
    src = np.array([[p.x, p.y, p.z] for p in source], dtype=float)
    dst = np.array([[p.x, p.y, p.z] for p in target], dtype=float)
    src_c = src.mean(axis=0)
    dst_c = dst.mean(axis=0)
    h = (src - src_c).T @ (dst - dst_c)
    u, s, vt = np.linalg.svd(h)
    scale = max(s[0], 1.0)
    if s[1] <= 1e-9 * scale:
        raise ValueError(
            "rigid fit is rank deficient (points coincident or collinear), "
            "rotation is not determined"
        )
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    rot = RotationMatrix(r)
    t = Vec3.from_array(dst_c - r @ src_c)
    return RigidTransform(rot, t)


def apply_alignment(poses: Sequence[Pose], transform: RigidTransform) -> list[Pose]:
    """Map a whole track through a rigid transform (orientations pick up
    the transform rotation on the left)."""
    return [transform.apply_pose(p) for p in poses]


def summarize_errors(records: Sequence[ErrorRecord]) -> SummaryReport:
    """Medians, means, precision buckets and CDF samples for one record
    set.  Medians average the two central order statistics on even
    counts."""
    if len(records) == 0:
        raise ValueError("summarize_errors needs at least one record")
    pos = np.array([r.pos_err for r in records], dtype=float)
    ori = np.array([r.ori_err for r in records], dtype=float)
    return SummaryReport(
        count=len(records),
        median_pos=float(np.median(pos)),
        median_ori=float(np.median(ori)),
        mean_pos=float(pos.mean()),
        mean_ori=float(ori.mean()),
        buckets=precision_buckets(records),
        cdf_pos=tuple((d, empirical_cdf(pos, d)) for d in CDF_POS_THRESHOLDS),
        cdf_ori=tuple((d, empirical_cdf(ori, d)) for d in CDF_ORI_THRESHOLDS),
    )


def align_and_evaluate(
    est_track: Sequence[Pose],
    gt_track: Sequence[Pose],
    window_seconds: float,
    timestamps: Sequence[float],
) -> SummaryReport:
    """Register an estimated track to ground truth and summarize its
    absolute errors.

    The rigid fit uses only frames within window_seconds of the first
    timestamp, mirroring how a drifting track is judged by its opening
    stretch; the fit is then applied to the whole track.  Needs at least
    3 frames inside the window.
    """
    if not (len(est_track) == len(gt_track) == len(timestamps)):
        raise ValueError("est_track, gt_track and timestamps must be index-aligned")
    if len(est_track) == 0:
        raise ValueError("align_and_evaluate needs a non-empty track")
    if not window_seconds > 0.0:
        raise ValueError("window_seconds must be positive")
    t0 = timestamps[0]
    window = [i for i, t in enumerate(timestamps) if (t - t0) < window_seconds]
    if len(window) < 3:
        raise ValueError(
            f"alignment window holds {len(window)} frames, need at least 3"
        )
    transform = kabsch_align(
        [est_track[i].position for i in window],
        [gt_track[i].position for i in window],
    )
    aligned = apply_alignment(est_track, transform)
    records = [
        absolute_pose_error(a, g, frame_index=i)
        for i, (a, g) in enumerate(zip(aligned, gt_track))
    ]
    return summarize_errors(records)
