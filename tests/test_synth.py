import dataclasses
import hashlib
import math

import numpy as np
import pytest

from helpers import point_distance, rotation_angle_deg
from oracles import rotation_matrix, sequential_vio
from posefuse import synth
from posefuse.geometry import PoseTrack, _norms, track_array
from posefuse.metrics import relative_errors
from posefuse.synth import (
    AprNoiseModel,
    TrajectoryConfig,
    VioNoiseModel,
    generate_gt,
    simulate_apr,
    simulate_vio,
)

VIO_SEED_OFFSET = 1_000_003
APR_SEED_OFFSET = 2_000_003


def gt_poses(cfg):
    return [s.gt for s in generate_gt(cfg)]


def pose_hex(pose):
    p, q = pose.position, pose.orientation
    return " ".join(float.hex(v) for v in (p.x, p.y, p.z, q.w, q.x, q.y, q.z))


class TestConfigs:
    def test_trajectory_defaults(self):
        cfg = TrajectoryConfig()
        assert cfg.n_frames == 200
        assert cfg.frame_rate_hz == 1.0
        assert cfg.speed_mean == 1.2
        assert cfg.speed_std == 0.3
        assert cfg.turn_rate_std == 60.0
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_frames": 1}, ">= 2"),
            ({"frame_rate_hz": 0.0}, "positive"),
            ({"speed_mean": 0.0}, "positive"),
            ({"speed_std": -0.1}, ">= 0"),
            ({"turn_rate_std": -1.0}, ">= 0"),
        ],
    )
    def test_trajectory_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TrajectoryConfig(**kwargs)

    def test_vio_model_validation(self):
        with pytest.raises(ValueError, match="step_pos_sigma"):
            VioNoiseModel(step_pos_sigma=-0.1)

    def test_apr_model_validation(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            AprNoiseModel(outlier_prob=1.5)
        with pytest.raises(ValueError, match="inlier_rot_sigma"):
            AprNoiseModel(inlier_rot_sigma=-1.0)


class TestGenerateGt:
    def test_deterministic(self):
        a = generate_gt(TrajectoryConfig(seed=42))
        b = generate_gt(TrajectoryConfig(seed=42))
        for sa, sb in zip(a, b):
            assert sa.timestamp == sb.timestamp
            assert sa.gt.position == sb.gt.position
            assert sa.gt.orientation == sb.gt.orientation

    def test_zero_variance_walks_straight(self):
        cfg = TrajectoryConfig(n_frames=10, speed_std=0.0, turn_rate_std=0.0)
        samples = generate_gt(cfg)
        for i, s in enumerate(samples):
            assert s.gt.position.x == pytest.approx(1.2 * i, abs=1e-12)
            assert s.gt.position.y == 0.0
            assert s.gt.position.z == 0.0
            assert s.gt.orientation == (1.0, 0.0, 0.0, 0.0)

    def test_minimum_length(self):
        assert len(generate_gt(TrajectoryConfig(n_frames=2))) == 2

    def test_timestamps_follow_frame_rate(self):
        samples = generate_gt(TrajectoryConfig(n_frames=6, frame_rate_hz=4.0))
        for i, s in enumerate(samples):
            assert s.timestamp == pytest.approx(i / 4.0)
            assert s.frame_index == i

    def test_starts_at_origin_and_stays_planar(self):
        samples = generate_gt(TrajectoryConfig(n_frames=50, seed=3))
        first = samples[0].gt
        assert first.position == (0.0, 0.0, 0.0)
        assert first.orientation == (1.0, 0.0, 0.0, 0.0)
        for s in samples:
            assert s.gt.position.z == 0.0

    def test_orientation_faces_direction_of_travel(self):
        samples = generate_gt(TrajectoryConfig(n_frames=50, seed=5))
        for prev, cur in zip(samples, samples[1:]):
            step = np.subtract(cur.gt.position, prev.gt.position)
            length = float(np.linalg.norm(step))
            if length < 1e-9:
                continue
            # The body's forward axis, x, in the world frame.
            heading = rotation_matrix(cur.gt.orientation)[:, 0]
            assert float(heading @ step) / length == pytest.approx(1.0, abs=1e-9)


class TestSimulateVio:
    def test_deterministic(self):
        gt = gt_poses(TrajectoryConfig(n_frames=40, seed=8))
        a = simulate_vio(gt, VioNoiseModel(), 99)
        b = simulate_vio(gt, VioNoiseModel(), 99)
        for pa, pb in zip(a, b):
            assert pa.position == pb.position
            assert pa.orientation == pb.orientation

    def test_zero_noise_reproduces_gt(self):
        gt = gt_poses(TrajectoryConfig(n_frames=100, seed=2))
        model = VioNoiseModel(0.0, 0.0, 0.0, 0.0)
        vio = simulate_vio(gt, model, 7)
        for v, g in zip(vio, gt):
            assert point_distance(v.position, g.position) < 1e-9
            assert rotation_angle_deg(v.orientation, g.orientation) < 1e-5

    def test_first_pose_matches_gt(self):
        gt = gt_poses(TrajectoryConfig(n_frames=5, seed=1))
        vio = simulate_vio(gt, VioNoiseModel(), 11)
        assert vio[0].position == gt[0].position
        assert vio[0].orientation == gt[0].orientation

    def test_empty_track_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            simulate_vio([], VioNoiseModel(), 0)

    def test_step_accuracy_gate(self):
        # Calibration gate: the default model must keep at least 90% of
        # steps under 0.1 m relative position and 1 deg relative
        # orientation error over a long track.
        cfg = TrajectoryConfig(n_frames=10_001, seed=17)
        gt = gt_poses(cfg)
        vio = simulate_vio(gt, VioNoiseModel(), 17 + VIO_SEED_OFFSET)
        pairs = relative_errors(track_array(vio), track_array(gt))
        assert len(pairs) >= 10_000
        good = int(np.count_nonzero((pairs[:, 0] < 0.1) & (pairs[:, 1] < 1.0)))
        assert good / len(pairs) >= 0.90

    def test_terminal_drift_lands_in_expected_band(self):
        for seed in range(10):
            gt = gt_poses(TrajectoryConfig(n_frames=200, seed=seed))
            vio = simulate_vio(gt, VioNoiseModel(), seed + VIO_SEED_OFFSET)
            terminal = point_distance(vio[-1].position, gt[-1].position)
            assert 1.0 < terminal < 3.0


class TestSimulateApr:
    def test_deterministic(self):
        gt = gt_poses(TrajectoryConfig(n_frames=40, seed=8))
        a = simulate_apr(gt, AprNoiseModel(), 99)
        b = simulate_apr(gt, AprNoiseModel(), 99)
        for pa, pb in zip(a, b):
            assert pa.position == pb.position
            assert pa.orientation == pb.orientation

    def test_zero_noise_reproduces_gt_exactly(self):
        gt = gt_poses(TrajectoryConfig(n_frames=50, seed=4))
        model = AprNoiseModel(0.0, 0.0, 0.0, 0.0, 0.0)
        apr = simulate_apr(gt, model, 13)
        for a, g in zip(apr, gt):
            assert a.position == g.position
            assert a.orientation == g.orientation

    def test_certain_outliers_touch_every_frame(self):
        gt = gt_poses(TrajectoryConfig(n_frames=100, seed=6))
        model = AprNoiseModel(
            inlier_pos_sigma=0.0,
            inlier_rot_sigma=0.0,
            outlier_prob=1.0,
            outlier_pos_range=1e-3,
            outlier_rot_range=1e-3,
        )
        apr = simulate_apr(gt, model, 21)
        for a, g in zip(apr, gt):
            err = point_distance(a.position, g.position)
            assert 0.0 < err <= 1e-3 + 1e-12

    def test_outlier_fraction_concentrates(self):
        # The 1.75 m cut balances the two ways a frame can land on the
        # wrong side (a small outlier draw vs a large inlier draw), so
        # the flagged fraction estimates the branch probability.
        cfg = TrajectoryConfig(n_frames=10_000, seed=123)
        gt = gt_poses(cfg)
        apr = simulate_apr(gt, AprNoiseModel(), 123 + APR_SEED_OFFSET)
        errs = [point_distance(a.position, g.position) for a, g in zip(apr, gt)]
        fraction = sum(1 for e in errs if e > 1.75) / len(errs)
        assert 0.14 <= fraction <= 0.16


class TestPoseTrack:
    """simulate_vio and simulate_apr return a PoseTrack: one array, read
    as a sequence of Pose built on access."""

    @pytest.fixture
    def gt(self):
        return gt_poses(TrajectoryConfig(n_frames=30, seed=4))

    @pytest.fixture
    def track(self, gt):
        return simulate_vio(gt, VioNoiseModel(), 12)

    def test_array_holds_the_poses(self, track):
        assert isinstance(track, PoseTrack)
        assert track.track.shape == (30, 7)
        assert np.array_equal(track.track, track_array(list(track)))
        copy = track_array(track)
        copy[0, 0] += 1.0
        assert not np.array_equal(copy, track.track)

    def test_equals_any_sequence_of_equal_poses(self, track):
        poses = list(track)
        assert track == poses and poses == track
        assert track == tuple(poses)
        assert track != poses[:-1]
        poses[3] = poses[4]
        assert track != poses
        assert PoseTrack(np.empty((0, 7))) == []

    def test_indexing_and_slicing(self, track):
        poses = list(track)
        assert [track[i] for i in range(len(track))] == poses
        assert track[-1] == poses[-1] and track[-30] == poses[0]
        with pytest.raises(IndexError):
            track[30]
        part = track[5:11]
        assert isinstance(part, PoseTrack)
        assert part == poses[5:11]
        assert track[::-3] == poses[::-3]

    def test_array_is_read_only(self, track):
        with pytest.raises(ValueError):
            track.track[0, 0] = 0.0

    def test_shape_is_checked(self):
        with pytest.raises(ValueError, match="shape"):
            PoseTrack(np.zeros((3, 6)))

    def test_generators_read_a_track_or_a_list_alike(self, gt):
        as_track = PoseTrack(track_array(gt))
        for model, simulate in ((VioNoiseModel(), simulate_vio), (AprNoiseModel(outlier_prob=0.5), simulate_apr)):
            a, b = simulate(gt, model, 3), simulate(as_track, model, 3)
            assert [pose_hex(p) for p in a] == [pose_hex(p) for p in b]


class TestErrorTrends:
    def test_vio_drifts_while_apr_stays_flat(self):
        # Regression slopes of the per-frame mean error across seeds:
        # odometry error must grow, absolute regression error must not.
        n, seeds = 200, 40
        vio_curves, apr_curves = [], []
        for seed in range(seeds):
            gt = gt_poses(TrajectoryConfig(n_frames=n, seed=seed))
            vio = simulate_vio(gt, VioNoiseModel(), seed + VIO_SEED_OFFSET)
            apr = simulate_apr(gt, AprNoiseModel(), seed + APR_SEED_OFFSET)
            vio_curves.append(
                [point_distance(v.position, g.position) for v, g in zip(vio, gt)]
            )
            apr_curves.append(
                [point_distance(a.position, g.position) for a, g in zip(apr, gt)]
            )
        x = np.arange(n)
        vio_slope = float(np.polyfit(x, np.mean(vio_curves, axis=0), 1)[0])
        apr_slope = float(np.polyfit(x, np.mean(apr_curves, axis=0), 1)[0])
        assert vio_slope > 5e-3
        assert abs(apr_slope) < 1e-3


# sha256 over float.hex of every gt, vio and apr pose of seeds 0-9 at 200
# frames and seeds 10-11 at 5000 frames, stream seeds derived as the CLI
# derives them.  Recorded from the step-by-step generator that drew one
# value per call; any change to a draw, its order or the float operations
# applied to it changes a digest.  No norm on the way goes through a BLAS
# dot (TestPlainNorms), so one digest holds on every CPU.
STREAM_MODELS = {
    "defaults": (TrajectoryConfig(), VioNoiseModel(), AprNoiseModel()),
    "no_step_rotation": (TrajectoryConfig(), VioNoiseModel(step_rot_sigma=0.0), AprNoiseModel()),
    "no_drift_bias": (TrajectoryConfig(), VioNoiseModel(drift_bias_pos=0.0, drift_bias_rot=0.0), AprNoiseModel()),
    "straight_constant_speed": (TrajectoryConfig(turn_rate_std=0.0, speed_std=0.0), VioNoiseModel(), AprNoiseModel()),
    "no_outliers": (TrajectoryConfig(), VioNoiseModel(), AprNoiseModel(outlier_prob=0.0)),
    "all_outliers": (TrajectoryConfig(), VioNoiseModel(), AprNoiseModel(outlier_prob=1.0)),
    "frame_rate_10hz": (TrajectoryConfig(frame_rate_hz=10.0), VioNoiseModel(), AprNoiseModel()),
}
STREAM_DIGESTS = {
    "defaults": "428c62c5768b5859135c91a7daa056e0fd8ba752b348dc57c176ee747f63c612",
    "no_step_rotation": "0b626fa0a695d8a78d40ecde69b34bbf22f95502511960ec75ff03ac8f30088c",
    "no_drift_bias": "116ac0ef702ba2dd0e4617f9cc65e810341337e8201c43c6907aceaa0e76b2dc",
    "straight_constant_speed": "fcbd916ee94bedc2dbd44681677ebc17e4519135958e70d9e62e44841be1e6ef",
    "no_outliers": "23ad6f87fa6de952ec930e3071261032e10287603323592df3f8d21726c70800",
    "all_outliers": "138bb2595fe7f1801d1fa5311ebbe999e706e260aae199671a4110f0dad3f669",
    "frame_rate_10hz": "b75523163260c5bd8be48e7203d0e93c779db0aff2c57636c9e0fd0f41cba21e",
}


@pytest.mark.parametrize("variant", sorted(STREAM_MODELS))
def test_streams_match_pinned_digest(variant):
    traj, vio_model, apr_model = STREAM_MODELS[variant]
    h = hashlib.sha256()
    for seed, n_frames in [(seed, 200) for seed in range(10)] + [(10, 5000), (11, 5000)]:
        samples = generate_gt(dataclasses.replace(traj, n_frames=n_frames, seed=seed))
        gt = [s.gt for s in samples]
        vio = simulate_vio(gt, vio_model, seed + VIO_SEED_OFFSET)
        apr = simulate_apr(gt, apr_model, seed + APR_SEED_OFFSET)
        for s, v, a in zip(samples, vio, apr):
            line = f"{s.frame_index} {float.hex(s.timestamp)} {pose_hex(s.gt)} {pose_hex(v)} {pose_hex(a)}\n"
            h.update(line.encode())
    assert h.hexdigest() == STREAM_DIGESTS[variant]


class ScriptedNormals:
    """Stand-in for the generator that serves standard normals from a
    fixed list, in order, to the normal and standard_normal calls the
    odometry simulators make."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.taken = 0

    def _take(self, size):
        count = 1 if size is None else int(np.prod(size))
        assert self.taken + count <= len(self.values), "script exhausted"
        out = self.values[self.taken : self.taken + count]
        self.taken += count
        return float(out[0]) if size is None else out.reshape(size)

    def standard_normal(self, size=None):
        return self._take(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return loc + scale * self._take(size)


# Vectors whose norm, and unit vector, a dot product with fused
# multiply-adds (OpenBLAS's AVX-512 kernels) rounds one bit above and one
# bit below x*x + y*y + z*z.
UNFUSED_NORM_ROWS = [[2.041, -2.556, 0.418], [-0.243, 0.817, -0.794]]


def plain_norm(x, y, z):
    return math.sqrt(x * x + y * y + z * z)


class TestPlainNorms:
    def test_row_norms_are_plain_sums_of_squares(self):
        rows = np.array(UNFUSED_NORM_ROWS)
        want = [float.hex(plain_norm(*r)) for r in UNFUSED_NORM_ROWS]
        assert [float.hex(n) for n in _norms(rows).tolist()] == want
        assert [float.hex(n) for n in _norms(rows[None, :, :]).ravel().tolist()] == want

    @pytest.mark.parametrize("row", UNFUSED_NORM_ROWS)
    def test_random_unit_divides_by_the_plain_norm(self, row):
        n = plain_norm(*row)
        got = synth._random_unit(ScriptedNormals(row))
        assert [float.hex(c) for c in got] == [float.hex(c / n) for c in row]


class TestVioRejectedAxis:
    def test_near_zero_axes_follow_the_sequential_stream(self, monkeypatch):
        # An axis of norm <= 1e-6 is rejected and redrawn before its angle,
        # which shifts every later draw.  Script one rejected bias
        # direction, a step whose axis is rejected twice and a later step
        # with one rejection.
        gt = gt_poses(TrajectoryConfig(n_frames=30, seed=2))
        source = np.random.Generator(np.random.PCG64(5))
        tiny = [1e-7, -2e-7, 3e-7]
        values = tiny + list(source.standard_normal(6))
        for step in range(len(gt) - 1):
            values += list(source.standard_normal(3))
            values += tiny * {4: 2, 17: 1}.get(step, 0)
            values += list(source.standard_normal(4))

        want_rng = ScriptedNormals(values)
        want = sequential_vio(gt, VioNoiseModel(), want_rng)
        got_rng = ScriptedNormals(values)
        monkeypatch.setattr(synth, "_rng", lambda seed: got_rng)
        got = simulate_vio(gt, VioNoiseModel(), 0)

        assert want_rng.taken == got_rng.taken == len(values)
        assert [pose_hex(p) for p in got] == [pose_hex(p) for p in want]
