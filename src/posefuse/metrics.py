"""Trajectory error metrics and evaluation summaries.

A track is an (N, 7) float array with one row per frame, position then
orientation: (x, y, z, qw, qx, qy, qz).  geometry's track_array builds
one from Pose objects.  Absolute errors compare a track against ground
truth row by row.  Relative errors compare the per-step motion
magnitudes of two tracks, which cancels any shared rigid offset.
Tracks living in their own coordinate frame (odometry) are first
registered to ground truth with a rigid fit over the opening window of
the sequence, by Horn's quaternion method: the rotation is the top
eigenvector of a 4x4 matrix built from the two point sets'
cross-covariance, after a rank check that refuses coincident or
collinear points.

Both kinds of error rest on geometry's _motions, the row form of
odometry: each row's errors equal, bit for bit, what odometry in
geometry gives for the same poses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import _motions, _normalize, _rotate, _top_quaternions, apply_rigid

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


def absolute_pose_error(est: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position (m) and orientation (deg) errors of every row of an
    estimated track against the index-aligned ground-truth track."""
    if est.shape != gt.shape:
        raise ValueError(f"tracks differ in shape: {est.shape} vs {gt.shape}")
    return _motions(gt, est)


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
    dist_a, angle_a = _motions(track_a[:-1], track_a[1:])
    dist_b, angle_b = _motions(track_b[:-1], track_b[1:])
    return np.column_stack((np.abs(dist_a - dist_b), np.abs(angle_a - angle_b)))


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


def kabsch_align(source: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid fit (rotation + translation, no scale) taking
    (N, 3) source points onto (N, 3) target points, as the (q, t) map
    apply_rigid applies: q a unit quaternion (w, x, y, z), t of shape (3,).

    Horn's closed form (JOSA A 1987): center both sets, build the
    symmetric 4x4 matrix of their cross-covariance, and take the
    rotation quaternion as its top eigenvector, the step the orientation
    average also takes.  The best proper rotation comes out directly,
    so a mirror image needs no fix.  Rejects inputs whose
    geometry leaves the rotation underdetermined (fewer than 3 points,
    or all points collinear: the covariance's second singular value is
    zero next to its first).
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
    s = np.linalg.svd(h, compute_uv=False)
    if s[1] <= 1e-9 * max(s[0], 1.0):
        raise ValueError(
            "rigid fit is rank deficient (points coincident or collinear), "
            "rotation is not determined"
        )
    (sxx, sxy, sxz), (syx, syy, syz), (szx, szy, szz) = h.tolist()
    horn = np.array([
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, syy - sxx - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, szz - sxx - syy],
    ])
    e = _top_quaternions(horn[None])[0].tolist()
    # t is formed with the eigenvector as it comes, q is it normalized
    # once more: that moves the last bit of about a third of unit rows,
    # and the pinned reports hold the fit formed this way.
    return np.array(_normalize(e)), dst_c - _rotate(e, src_c.tolist())


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
    median_pos, cdf_pos = _sorted_summary(pos, CDF_POS_THRESHOLDS)
    median_ori, cdf_ori = _sorted_summary(ori, CDF_ORI_THRESHOLDS)
    return SummaryReport(
        count=len(pos),
        median_pos=median_pos,
        median_ori=median_ori,
        mean_pos=float(pos.mean()),
        mean_ori=float(ori.mean()),
        buckets=precision_buckets(pos, ori),
        cdf_pos=cdf_pos,
        cdf_ori=cdf_ori,
    )


def _sorted_summary(errors: np.ndarray, thresholds: tuple[float, ...]) -> tuple[float, tuple]:
    """The median and the (d, fraction of errors at or under d) samples
    of a non-empty error array, from one sorted copy.  The median is the mean
    of the middle one or two values, which is how np.median takes it;
    the count at or under d is where d would go after its equals."""
    s = np.sort(errors)
    counts = np.searchsorted(s, thresholds, side="right").tolist()
    median = float(s[(len(s) - 1) // 2 : len(s) // 2 + 1].mean())
    return median, tuple((d, k / len(s)) for d, k in zip(thresholds, counts))


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
    q, t = kabsch_align(est_track[window, :3], gt_track[window, :3])
    pos, ori = absolute_pose_error(apply_rigid(q, t, est_track), gt_track)
    return summarize_errors(pos, ori)
