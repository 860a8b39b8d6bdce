import math

import numpy as np
import pytest

from posefuse.geometry import (
    UnitQuaternion,
    Vec3,
    rotate,
    rotation_angle_deg,
    translation_distance,
)
from posefuse.metrics import relative_errors, track_array
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
            assert s.gt.orientation == UnitQuaternion.identity()

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
        assert first.position == Vec3.zero()
        assert first.orientation == UnitQuaternion.identity()
        for s in samples:
            assert s.gt.position.z == 0.0

    def test_orientation_faces_direction_of_travel(self):
        samples = generate_gt(TrajectoryConfig(n_frames=50, seed=5))
        forward = Vec3(1.0, 0.0, 0.0)
        for prev, cur in zip(samples, samples[1:]):
            step = cur.gt.position - prev.gt.position
            if step.norm() < 1e-9:
                continue
            heading = rotate(cur.gt.orientation, forward)
            dot = (
                heading.x * step.x + heading.y * step.y + heading.z * step.z
            ) / step.norm()
            assert dot == pytest.approx(1.0, abs=1e-9)


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
            assert translation_distance(v.position, g.position) < 1e-9
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
            terminal = translation_distance(vio[-1].position, gt[-1].position)
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
            err = translation_distance(a.position, g.position)
            assert 0.0 < err <= 1e-3 + 1e-12

    def test_outlier_fraction_concentrates(self):
        # The 1.75 m cut balances the two ways a frame can land on the
        # wrong side (a small outlier draw vs a large inlier draw), so
        # the flagged fraction estimates the branch probability.
        cfg = TrajectoryConfig(n_frames=10_000, seed=123)
        gt = gt_poses(cfg)
        apr = simulate_apr(gt, AprNoiseModel(), 123 + APR_SEED_OFFSET)
        errs = [translation_distance(a.position, g.position) for a, g in zip(apr, gt)]
        fraction = sum(1 for e in errs if e > 1.75) / len(errs)
        assert 0.14 <= fraction <= 0.16


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
                [translation_distance(v.position, g.position) for v, g in zip(vio, gt)]
            )
            apr_curves.append(
                [translation_distance(a.position, g.position) for a, g in zip(apr, gt)]
            )
        x = np.arange(n)
        vio_slope = float(np.polyfit(x, np.mean(vio_curves, axis=0), 1)[0])
        apr_slope = float(np.polyfit(x, np.mean(apr_curves, axis=0), 1)[0])
        assert vio_slope > 5e-3
        assert abs(apr_slope) < 1e-3
