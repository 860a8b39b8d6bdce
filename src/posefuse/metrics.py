"""Trajectory error metrics and evaluation summaries.

A track is an (N, 7) float array with one row per frame, position then
orientation: (x, y, z, qw, qx, qy, qz).  track_array builds one from
Pose objects.  Absolute errors compare a track against ground truth row
by row.  Relative errors compare the per-step motion magnitudes of two
tracks, which cancels any shared rigid offset.  Tracks living in their
own coordinate frame (odometry) are first registered to ground truth
with a rigid fit over the opening window of the sequence.

Each row's errors equal, bit for bit, what translation_distance,
rotation_angle_deg and odometry in geometry give for the same poses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    Pose,
    RigidTransform,
    UnitQuaternion,
    Vec3,
    _angles_deg,
    _apply_rigid,
    _distances,
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


def track_array(poses: Sequence[Pose]) -> np.ndarray:
    """The (N, 7) track of a pose sequence: x, y, z, qw, qx, qy, qz."""
    rows = [
        (p.position.x, p.position.y, p.position.z,
         p.orientation.w, p.orientation.x, p.orientation.y, p.orientation.z)
        for p in poses
    ]
    return np.array(rows, dtype=float).reshape(len(rows), 7)


def absolute_pose_error(est: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position (m) and orientation (deg) errors of every row of an
    estimated track against the index-aligned ground-truth track."""
    if est.shape != gt.shape:
        raise ValueError(f"tracks differ in shape: {est.shape} vs {gt.shape}")
    return _distances(gt[:, :3], est[:, :3]), _angles_deg(gt[:, 3:], est[:, 3:])


def relative_errors(track_a: np.ndarray, track_b: np.ndarray) -> np.ndarray:
    """Per consecutive pair, the absolute difference of the two tracks'
    motion magnitudes, as an (N - 1, 2) array of (distance difference m,
    angle difference deg).  Invariant under a rigid transform of either
    whole track."""
    if len(track_a) != len(track_b):
        raise ValueError(
            f"tracks differ in length: {len(track_a)} vs {len(track_b)}"
        )
    if len(track_a) < 2:
        raise ValueError("relative errors need at least two poses per track")

    def steps(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _distances(t[:-1, :3], t[1:, :3]), _angles_deg(t[:-1, 3:], t[1:, 3:])

    (dist_a, angle_a), (dist_b, angle_b) = steps(track_a), steps(track_b)
    return np.column_stack((np.abs(dist_a - dist_b), np.abs(angle_a - angle_b)))


def empirical_cdf(errors: Sequence[float], d: float) -> float:
    """Fraction of errors at or under d (inclusive)."""
    if len(errors) == 0:
        raise ValueError("empirical_cdf needs at least one error value")
    return int(np.count_nonzero(np.asarray(errors, dtype=float) <= d)) / len(errors)


def precision_buckets(pos: np.ndarray, ori: np.ndarray) -> PrecisionBuckets:
    """Fraction of records within each precision level (inclusive on
    both bounds), from index-aligned position and orientation errors."""
    if len(pos) == 0:
        raise ValueError("precision_buckets needs at least one record")
    pos = np.asarray(pos, dtype=float)
    ori = np.asarray(ori, dtype=float)

    def frac(level: tuple[float, float]) -> float:
        d, o = level
        return int(np.count_nonzero((pos <= d) & (ori <= o))) / len(pos)

    return PrecisionBuckets(
        high=frac(PRECISION_HIGH),
        medium=frac(PRECISION_MEDIUM),
        low=frac(PRECISION_LOW),
    )


def kabsch_align(source: np.ndarray, target: np.ndarray) -> RigidTransform:
    """Least-squares rigid fit (rotation + translation, no scale) taking
    (N, 3) source points onto (N, 3) target points.

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
    src = np.asarray(source, dtype=float)
    dst = np.asarray(target, dtype=float)
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
    return RigidTransform(_matrix_quaternion(r), Vec3.from_array(dst_c - r @ src_c))


def _matrix_quaternion(m: np.ndarray) -> UnitQuaternion:
    """The quaternion of a proper rotation matrix, by Shepperd's method:
    branch on the largest of the trace and the diagonal terms."""
    t = np.trace(m)
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    return UnitQuaternion(w, x, y, z)


def apply_alignment(track: np.ndarray, transform: RigidTransform) -> np.ndarray:
    """Map a whole track through a rigid transform, as apply_pose maps
    each of its poses: orientations pick up the transform's rotation on
    the left and come back normalized and sign-canonical."""
    return _apply_rigid(transform.rotation.as_array(), transform.translation.as_array(), track)


def summarize_errors(pos: np.ndarray, ori: np.ndarray) -> SummaryReport:
    """Medians, means, precision buckets and CDF samples for one set of
    index-aligned position (m) and orientation (deg) errors.  Medians
    average the two central order statistics on even counts."""
    pos = np.asarray(pos, dtype=float)
    ori = np.asarray(ori, dtype=float)
    if pos.ndim != 1 or pos.shape != ori.shape:
        raise ValueError(
            f"pos and ori errors must be 1-D and index-aligned, got {pos.shape} vs {ori.shape}"
        )
    if len(pos) == 0:
        raise ValueError("summarize_errors needs at least one record")
    bad = ~(np.isfinite(pos) & (pos >= 0.0))
    if bad.any():
        raise ValueError(f"pos_err must be finite and >= 0, got {float(pos[bad][0])!r}")
    bad = ~(np.isfinite(ori) & (ori >= 0.0) & (ori <= 180.0))
    if bad.any():
        raise ValueError(f"ori_err must be in [0, 180], got {float(ori[bad][0])!r}")
    return SummaryReport(
        count=len(pos),
        median_pos=float(np.median(pos)),
        median_ori=float(np.median(ori)),
        mean_pos=float(pos.mean()),
        mean_ori=float(ori.mean()),
        buckets=precision_buckets(pos, ori),
        cdf_pos=tuple((d, empirical_cdf(pos, d)) for d in CDF_POS_THRESHOLDS),
        cdf_ori=tuple((d, empirical_cdf(ori, d)) for d in CDF_ORI_THRESHOLDS),
    )


def align_and_evaluate(
    est_track: np.ndarray,
    gt_track: np.ndarray,
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
    ts = np.asarray(timestamps, dtype=float)
    window = (ts - ts[0]) < window_seconds
    n_window = int(np.count_nonzero(window))
    if n_window < 3:
        raise ValueError(
            f"alignment window holds {n_window} frames, need at least 3"
        )
    transform = kabsch_align(est_track[window, :3], gt_track[window, :3])
    pos, ori = absolute_pose_error(apply_alignment(est_track, transform), gt_track)
    return summarize_errors(pos, ori)
