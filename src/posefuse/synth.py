"""Synthetic trajectory and sensor stream generation.

Ground truth is a smooth planar walk: heading evolves as a random walk
with configurable turn rate, speed fluctuates around its mean, and the
orientation follows the heading.  The two sensor models layer on top:

* vio: starts exactly at ground truth, then integrates the true
  per-step motion corrupted by white noise plus a constant per-sequence
  bias.  Errors therefore accumulate and never reset, which is the
  defining failure mode of odometry.
* apr: each frame is an independent draw, ground truth plus either
  small Gaussian noise (inlier) or a large uniform perturbation
  (outlier).  No temporal correlation, which is the defining failure
  mode of per-image absolute regression.

Each stream is computed as an (N, 7) array, rows x, y, z, qw, qx, qy,
qz: simulate_vio and simulate_apr return it as a PoseTrack, whose Pose
objects are built only on access, and generate_gt as PoseSamples.

All randomness comes from numpy's PCG64 generator seeded explicitly, so
any seed reproduces the same draws on any platform.  The streams built
from them are bit-identical across CPUs for the same numpy and libm:
every norm is a sum of squares added left to right (geometry._norms),
never a BLAS dot, so only libm's sin and cos, which may round
differently on another platform, can move a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    Pose, PoseTrack, _axis_angle_rows, _hamilton, _hamilton_rows, _normalize, _normalize_rows, _norms, _poses,
    track_array,
)
from .io import PoseSample


@dataclass(frozen=True)
class TrajectoryConfig:
    n_frames: int = 200
    frame_rate_hz: float = 1.0
    speed_mean: float = 1.2  # m/s, walking pace
    speed_std: float = 0.3  # m/s
    turn_rate_std: float = 60.0  # deg/s of heading change; capture walks meander
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_frames < 2:
            raise ValueError("n_frames must be >= 2")
        if not self.frame_rate_hz > 0.0:
            raise ValueError("frame_rate_hz must be positive")
        if not self.speed_mean > 0.0:
            raise ValueError("speed_mean must be positive")
        if self.speed_std < 0.0 or self.turn_rate_std < 0.0:
            raise ValueError("speed_std and turn_rate_std must be >= 0")


@dataclass(frozen=True)
class VioNoiseModel:
    """Per-step odometry corruption.  Sigmas are per step; the drift
    biases are constant over a sequence with a random direction drawn
    once per sequence."""

    step_pos_sigma: float = 0.02  # m, per axis
    step_rot_sigma: float = 0.2  # deg, about a random axis
    drift_bias_pos: float = 0.01  # m per step, fixed random direction
    drift_bias_rot: float = 0.05  # deg per step, fixed random axis

    def __post_init__(self) -> None:
        for name in ("step_pos_sigma", "step_rot_sigma", "drift_bias_pos", "drift_bias_rot"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class AprNoiseModel:
    """Per-frame absolute-pose corruption, independent across frames."""

    inlier_pos_sigma: float = 0.5  # m, per axis
    inlier_rot_sigma: float = 2.5  # deg, about a random axis
    outlier_prob: float = 0.15
    outlier_pos_range: float = 5.0  # m, uniform in a ball of this radius
    outlier_rot_range: float = 20.0  # deg, uniform magnitude, random axis

    def __post_init__(self) -> None:
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise ValueError("outlier_prob must be in [0, 1]")
        for name in ("inlier_pos_sigma", "inlier_rot_sigma", "outlier_pos_range", "outlier_rot_range"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


def _rng(seed: int) -> np.random.Generator:
    # PCG64 is pinned on purpose: seeded draws must reproduce across
    # platforms and sessions.
    return np.random.Generator(np.random.PCG64(seed))


def _random_unit(rng: np.random.Generator) -> tuple[float, float, float]:
    while True:
        x, y, z = rng.normal(0.0, 1.0, 3).tolist()
        n = math.sqrt(x * x + y * y + z * z)
        if n > 1e-6:
            return x / n, y / n, z / n


def generate_gt(cfg: TrajectoryConfig) -> list[PoseSample]:
    """Ground-truth walk.  Returns PoseSamples carrying only the gt
    stream, timestamped at the frame rate starting from zero."""
    rng = _rng(cfg.seed)
    dt = 1.0 / cfg.frame_rate_hz
    # Per step: heading change, then speed.
    turn, speed = rng.normal(
        [0.0, cfg.speed_mean], [cfg.turn_rate_std, cfg.speed_std], (cfg.n_frames - 1, 2)
    ).T
    # np.add.accumulate adds strictly left to right, as a running sum
    # from 0.0 does; the trig comes from math, as in _axis_angle_rows.
    yaw_deg = np.add.accumulate(np.concatenate(([0.0], turn * dt)))
    heading = [math.radians(a) for a in yaw_deg[1:].tolist()]
    step = np.maximum(speed, 0.0) * dt
    x = np.add.accumulate(np.concatenate(([0.0], np.array([math.cos(h) for h in heading]) * step)))
    y = np.add.accumulate(np.concatenate(([0.0], np.array([math.sin(h) for h in heading]) * step)))
    ori = _normalize_rows(_axis_angle_rows(np.tile((0.0, 0.0, 1.0), (cfg.n_frames, 1)), yaw_deg))
    track = np.column_stack((x, y, np.zeros(cfg.n_frames), ori))
    timestamps = (np.arange(cfg.n_frames) * dt).tolist()
    return list(map(PoseSample, range(cfg.n_frames), timestamps, _poses(track)))


def _vio_step_draws(rng: np.random.Generator, n_steps: int, width: int) -> np.ndarray:
    """(n_steps, width) standard normals in the order a step-by-step
    loop draws them: 3 position noise, then, for width 7, a rotation
    axis and an angle.  An axis of norm <= 1e-6 is rejected and redrawn
    before its angle, as _random_unit does, which shifts the rest of
    the stream by three draws."""
    z = rng.standard_normal(n_steps * width)
    if width == 3:
        return z.reshape(n_steps, 3)
    while True:
        steps = z.reshape(n_steps, 7)
        rejected = np.flatnonzero(_norms(steps[:, 3:6]) <= 1e-6)
        if rejected.size == 0:
            return steps
        k = int(rejected[0]) * 7 + 3
        z = np.concatenate([z[:k], z[k + 3 :], rng.standard_normal(3)])


def simulate_vio(gt: Sequence[Pose], model: VioNoiseModel, seed: int) -> PoseTrack:
    """Odometry track over a ground-truth track.

    The first pose equals gt exactly.  Every step then applies the true
    relative motion perturbed by white noise and the sequence-constant
    bias, so the error is a random walk plus a linear-in-time term.
    Translation noise is applied in the world frame; rotation noise
    composes on the body side.
    """
    if len(gt) == 0:
        raise ValueError("simulate_vio needs a non-empty ground-truth track")
    g = track_array(gt)
    rng = _rng(seed)
    bias_dir = _random_unit(rng)
    bias_axis = _random_unit(rng)
    axis, angle = np.array([bias_axis]), np.array([model.drift_bias_rot])
    bias_rot = _normalize_rows(_axis_angle_rows(axis, angle))[0].tolist()
    noisy_rot = model.step_rot_sigma > 0.0
    steps = _vio_step_draws(rng, len(g) - 1, 7 if noisy_rot else 3)
    # Each position is ((previous + true step) + noise) + bias, summed in
    # that order: one running sum over x0, d1, n1, b, d2, n2, b, ...
    # rng.normal(0.0, sigma) is 0.0 + sigma * z; the 0.0 + keeps a zero
    # draw's sign the same.
    terms = np.empty((3 * len(g) - 2, 3))
    terms[0] = g[0, :3]
    terms[1::3] = g[1:, :3] - g[:-1, :3]
    terms[2::3] = 0.0 + model.step_pos_sigma * steps[:, :3]
    terms[3::3] = [c * model.drift_bias_pos for c in bias_dir]
    positions = np.add.accumulate(terms)[::3]
    # The true relative rotations q_{i-1}^-1 * q_i.  The conjugate is
    # normalized before the product, an order the stream digests pin.
    conj = _normalize_rows(g[:-1, 3:] * [1.0, -1.0, -1.0, -1.0])
    d_rot = _normalize_rows(_hamilton_rows(conj, g[1:, 3:])).tolist()
    if noisy_rot:
        axes = 0.0 + steps[:, 3:6]
        # _axis_angle_rows divides by the norm again.  STREAM_DIGESTS
        # pin both divisions, so dropping either changes the streams.
        axes /= _norms(axes)[:, None]
        noise = _normalize_rows(_axis_angle_rows(axes, 0.0 + model.step_rot_sigma * steps[:, 6])).tolist()
    # The orientation chain: each step normalizes the one before.
    quats = [tuple(g[0, 3:].tolist())]
    for i, d in enumerate(d_rot):
        r = _hamilton(quats[-1], d)
        if noisy_rot:
            r = _hamilton(_normalize(r), noise[i])
        if model.drift_bias_rot > 0.0:
            r = _hamilton(_normalize(r), bias_rot)
        quats.append(_normalize(r))
    return PoseTrack(np.column_stack((positions, quats)))


def simulate_apr(gt: Sequence[Pose], model: AprNoiseModel, seed: int) -> PoseTrack:
    """Absolute-pose track over a ground-truth track, one independent
    draw per frame."""
    track = track_array(gt)
    rng = _rng(seed)
    uniform, standard_normal = rng.random, rng.standard_normal
    pos_sigma, rot_sigma = model.inlier_pos_sigma, model.inlier_rot_sigma
    # rng.uniform(0.0, b) is 0.0 + b * rng.random(), and rng.normal(0.0,
    # s) is 0.0 + s * rng.standard_normal(); the forms below draw the
    # same values at less cost per call.  Each branch takes its own
    # number of draws, so the frames draw one at a time.
    offsets, angles, axes = [], [], []
    for _ in range(len(track)):
        if uniform() < model.outlier_prob:
            # Offset uniform in a ball, rotation of uniform magnitude.
            radius = model.outlier_pos_range * uniform() ** (1.0 / 3.0)
            ux, uy, uz = _random_unit(rng)
            offsets.append((ux * radius, uy * radius, uz * radius))
            angle = 0.0 + model.outlier_rot_range * uniform()
        else:
            # 3 position noise, then the rotation angle.
            zx, zy, zz, za = standard_normal(4).tolist()
            offsets.append((0.0 + pos_sigma * zx, 0.0 + pos_sigma * zy, 0.0 + pos_sigma * zz))
            angle = 0.0 + rot_sigma * za
        angles.append(angle)
        if angle != 0.0:
            axes.append(_random_unit(rng))
    track[:, :3] += np.reshape(offsets, (-1, 3))
    angles = np.array(angles, dtype=float)
    turned = angles != 0.0
    rot = _normalize_rows(_axis_angle_rows(np.reshape(axes, (-1, 3)), angles[turned]))
    track[turned, 3:] = _normalize_rows(_hamilton_rows(track[turned, 3:], rot))
    return PoseTrack(track)
