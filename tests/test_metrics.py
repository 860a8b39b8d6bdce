import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from posefuse.geometry import (
    Pose,
    RigidTransform,
    UnitQuaternion,
    Vec3,
    axis_angle_quaternion,
    compose,
    odometry,
    rotation_angle_deg,
    translation_distance,
)
from posefuse.metrics import (
    CDF_ORI_THRESHOLDS,
    CDF_POS_THRESHOLDS,
    PrecisionBuckets,
    _matrix_quaternion,
    absolute_pose_error,
    align_and_evaluate,
    apply_alignment,
    empirical_cdf,
    kabsch_align,
    precision_buckets,
    relative_errors,
    summarize_errors,
    track_array,
)
from helpers import random_pose, random_quaternion, random_vec3
from oracles import sort_median

X = Vec3(1.0, 0.0, 0.0)
Z = Vec3(0.0, 0.0, 1.0)


def one(pose):
    return track_array([pose])


def points(vecs):
    return np.array([v.as_array() for v in vecs])


def errors(n, rng, pos_hi, ori_hi):
    return rng.uniform(0, pos_hi, size=n), rng.uniform(0, ori_hi, size=n)


def curved_track(n, ori_step=3.0):
    """Non-collinear positions with slowly turning orientations."""
    poses = []
    for i in range(n):
        pos = Vec3(float(i), math.sin(0.3 * i), 0.2 * math.cos(0.5 * i))
        ori = axis_angle_quaternion(Z, ori_step * i)
        poses.append(Pose(pos, ori))
    return poses


class TestAbsolutePoseError:
    def test_exact_match(self, rng):
        p = one(random_pose(rng))
        pos, ori = absolute_pose_error(p, p)
        assert pos[0] == 0.0
        assert ori[0] == pytest.approx(0.0, abs=1e-5)

    def test_constructed_offsets(self, rng):
        gt = random_pose(rng)
        est = Pose(
            gt.position + Vec3(0.0, 0.0, 0.25),
            compose(axis_angle_quaternion(X, 2.0), gt.orientation),
        )
        pos, ori = absolute_pose_error(one(est), one(gt))
        assert pos[0] == pytest.approx(0.25, abs=1e-12)
        assert ori[0] == pytest.approx(2.0, abs=1e-9)

    def test_negated_orientation_is_zero_error(self, rng):
        gt = random_pose(rng)
        q = gt.orientation
        est = Pose(gt.position, UnitQuaternion(-q.w, -q.x, -q.y, -q.z))
        assert absolute_pose_error(one(est), one(gt))[1][0] == pytest.approx(0.0, abs=1e-5)

    def test_shape_mismatch_rejected(self):
        track = track_array(curved_track(4))
        with pytest.raises(ValueError, match="differ in shape"):
            absolute_pose_error(track, track[:3])


class TestMatchesScalarPrimitives:
    """Row by row, the track functions give exactly (==) what the
    per-pose primitives give for the same poses."""

    def test_absolute_errors(self, rng):
        est = [random_pose(rng) for _ in range(300)]
        gt = [random_pose(rng) for _ in range(300)]
        # Near-identical orientations probe acos close to 1.
        est[:100] = [Pose(e.position, compose(axis_angle_quaternion(X, float(a)), g.orientation))
                     for e, g, a in zip(est, gt, rng.uniform(0.0, 1e-3, 100))]
        pos, ori = absolute_pose_error(track_array(est), track_array(gt))
        assert pos.tolist() == [translation_distance(g.position, e.position) for e, g in zip(est, gt)]
        assert ori.tolist() == [rotation_angle_deg(g.orientation, e.orientation) for e, g in zip(est, gt)]

    def test_relative_errors(self, rng):
        a = [random_pose(rng) for _ in range(300)]
        b = [random_pose(rng) for _ in range(300)]
        got = relative_errors(track_array(a), track_array(b))
        expect = []
        for i in range(len(a) - 1):
            ua, ub = odometry(a[i], a[i + 1]), odometry(b[i], b[i + 1])
            expect.append([abs(ua.dist - ub.dist), abs(ua.angle - ub.angle)])
        assert got.tolist() == expect

    def test_apply_alignment(self, rng):
        t = RigidTransform(random_quaternion(rng), random_vec3(rng))
        poses = [random_pose(rng) for _ in range(300)]
        expect = track_array([t.apply_pose(p) for p in poses])
        assert apply_alignment(track_array(poses), t).tolist() == expect.tolist()


class TestRelativeErrors:
    def test_identical_tracks(self):
        track = track_array(curved_track(10))
        rel = relative_errors(track, track)
        assert rel.shape == (9, 2)
        assert (rel == 0.0).all()

    def test_rigid_transform_invariance(self, rng):
        track = curved_track(10)
        t = RigidTransform(random_quaternion(rng), random_vec3(rng))
        moved = [t.apply_pose(p) for p in track]
        for rpe, roe in relative_errors(track_array(moved), track_array(track)):
            assert rpe == pytest.approx(0.0, abs=1e-9)
            assert roe == pytest.approx(0.0, abs=1e-5)

    def test_step_length_difference(self):
        a = [Pose(Vec3(i * 1.0, 0, 0), UnitQuaternion.identity()) for i in range(5)]
        b = [Pose(Vec3(i * 1.1, 0, 0), UnitQuaternion.identity()) for i in range(5)]
        for rpe, roe in relative_errors(track_array(a), track_array(b)):
            assert rpe == pytest.approx(0.1, abs=1e-12)
            assert roe == 0.0

    def test_validation(self):
        track = track_array(curved_track(4))
        with pytest.raises(ValueError, match="differ in length"):
            relative_errors(track, track[:3])
        with pytest.raises(ValueError, match="two poses"):
            relative_errors(track[:1], track[:1])


class TestEmpiricalCdf:
    def test_inclusive_boundary(self):
        assert empirical_cdf([0.05, 0.2, 0.5], 0.2) == pytest.approx(2 / 3)

    def test_infinity_covers_all(self):
        assert empirical_cdf([0.1, 5.0, 99.0], math.inf) == 1.0

    def test_below_minimum(self):
        assert empirical_cdf([0.1, 5.0], 0.05) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            empirical_cdf([], 1.0)

    def test_monotone_and_reaches_one(self, rng):
        errors = list(rng.uniform(0.0, 4.0, size=50))
        prev = 0.0
        for d in np.linspace(0.0, 4.0, 40):
            frac = empirical_cdf(errors, float(d))
            assert frac >= prev
            prev = frac
        assert empirical_cdf(errors, max(errors)) == 1.0


class TestPrecisionBuckets:
    def test_within_all_levels(self):
        b = precision_buckets(np.array([0.2]), np.array([1.5]))
        assert (b.high, b.medium, b.low) == (1.0, 1.0, 1.0)

    def test_medium_only(self):
        b = precision_buckets(np.array([0.3]), np.array([3.0]))
        assert (b.high, b.medium, b.low) == (0.0, 1.0, 1.0)

    def test_position_violates_low(self):
        b = precision_buckets(np.array([6.0]), np.array([1.0]))
        assert (b.high, b.medium, b.low) == (0.0, 0.0, 0.0)

    def test_boundaries_inclusive(self):
        b = precision_buckets(np.array([0.25]), np.array([2.0]))
        assert b.high == 1.0

    def test_nesting_property(self, rng):
        b = precision_buckets(*errors(200, rng, 8, 15))
        assert b.high <= b.medium <= b.low

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            precision_buckets(np.array([]), np.array([]))
        with pytest.raises(ValueError, match="nest"):
            PrecisionBuckets(high=0.9, medium=0.5, low=0.7)
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            PrecisionBuckets(high=-0.1, medium=0.5, low=0.7)


class TestKabschAlign:
    def test_identity(self, rng):
        pts = points(random_vec3(rng) for _ in range(6))
        t = kabsch_align(pts, pts)
        # 1e-5 deg is the resolution of rotation_angle_deg near zero.
        assert rotation_angle_deg(t.rotation, UnitQuaternion.identity()) < 1e-5
        assert t.translation.norm() < 1e-9

    def test_pure_translation(self, rng):
        src = points(random_vec3(rng) for _ in range(6))
        dst = src + np.array([1.0, 2.0, 3.0])
        t = kabsch_align(src, dst)
        assert rotation_angle_deg(t.rotation, UnitQuaternion.identity()) < 1e-5
        np.testing.assert_allclose(t.translation.as_array(), [1, 2, 3], atol=1e-9)

    def test_recovers_rotation_and_translation(self, rng):
        rot = axis_angle_quaternion(Z, 30.0)
        true = RigidTransform(rot, Vec3(0.5, -1.0, 2.0))
        src = [random_vec3(rng, scale=5.0) for _ in range(10)]
        dst = [true.apply_point(p) for p in src]
        fit = kabsch_align(points(src), points(dst))
        assert rotation_angle_deg(fit.rotation, true.rotation) < 1e-5
        for s, d in zip(src, dst):
            assert translation_distance(fit.apply_point(s), d) < 1e-6

    def test_mirror_target_gets_best_proper_rotation(self, rng):
        # The unconstrained fit of a mirror image is a reflection; the
        # determinant flip must turn it into the best proper rotation,
        # whose residual scipy's fit gives independently.
        for _ in range(20):
            src = rng.normal(size=(8, 3)) * [3.0, 2.0, 1.0]
            dst = src * [1.0, 1.0, -1.0] + rng.normal(size=3)
            fit = kabsch_align(src, dst)
            moved = np.array([fit.apply_point(Vec3.from_array(p)).as_array() for p in src])
            residual = math.sqrt(((moved - dst) ** 2).sum())
            _, rssd = Rotation.align_vectors(dst - dst.mean(axis=0), src - src.mean(axis=0))
            assert residual == pytest.approx(rssd, abs=1e-9)

    def test_collinear_rejected(self):
        src = points(Vec3(float(i), 0.0, 0.0) for i in range(5))
        dst = points(Vec3(0.0, float(i), 0.0) for i in range(5))
        with pytest.raises(ValueError, match="rank deficient"):
            kabsch_align(src, dst)

    def test_too_few_points_rejected(self, rng):
        pts = points(random_vec3(rng) for _ in range(2))
        with pytest.raises(ValueError, match="at least 3"):
            kabsch_align(pts, pts)

    def test_never_worse_than_identity(self, rng):
        for _ in range(20):
            src = [random_vec3(rng) for _ in range(8)]
            dst = [random_vec3(rng) for _ in range(8)]
            fit = kabsch_align(points(src), points(dst))
            fit_res = sum(
                translation_distance(fit.apply_point(s), d) ** 2 for s, d in zip(src, dst)
            )
            id_res = sum(translation_distance(s, d) ** 2 for s, d in zip(src, dst))
            assert fit_res <= id_res + 1e-9


class TestMatrixQuaternion:
    """The Shepperd extraction kabsch_align turns its matrix into a
    quaternion with, against scipy's as_quat."""

    @staticmethod
    def expect(r):
        x, y, z, w = r.as_quat()
        return UnitQuaternion(w, x, y, z).as_array()

    def test_each_branch(self):
        # The identity takes the trace branch; a half turn about x, y or
        # z makes that axis's diagonal term the largest.  Turns of 60
        # and 160 deg about axes tilted off x, y and z take the same
        # branches with nonzero off-diagonal terms.
        tilt = np.array([0.3, -0.2, 0.25])
        for k, axis in enumerate(np.eye(3)):
            tilted = (axis + tilt) / np.linalg.norm(axis + tilt)
            trace_branch = (Rotation.identity(), Rotation.from_rotvec(math.radians(60.0) * tilted))
            axis_branch = (Rotation.from_rotvec(math.pi * axis),
                           Rotation.from_rotvec(math.radians(160.0) * tilted))
            for r in trace_branch:
                assert np.trace(r.as_matrix()) > 0.0
            for r in axis_branch:
                assert np.trace(r.as_matrix()) <= 0.0 and np.argmax(np.diag(r.as_matrix())) == k
            for r in trace_branch + axis_branch:
                got = _matrix_quaternion(r.as_matrix()).as_array()
                np.testing.assert_allclose(got, self.expect(r), atol=1e-12)

    def test_quaternion_round_trip(self, rng):
        for _ in range(200):
            q = random_quaternion(rng)
            r = Rotation.from_quat([q.x, q.y, q.z, q.w])
            got = _matrix_quaternion(r.as_matrix()).as_array()
            np.testing.assert_allclose(got, self.expect(r), atol=1e-12)
            np.testing.assert_allclose(got, q.as_array(), atol=1e-12)


class TestApplyAlignment:
    def test_orientations_pick_up_rotation_on_the_left(self, rng):
        q = random_quaternion(rng)
        t = RigidTransform(q, random_vec3(rng))
        poses = curved_track(5)
        aligned = apply_alignment(track_array(poses), t)
        assert aligned.shape == (5, 7)
        for orig, row in zip(poses, aligned):
            out = Pose(Vec3(*row[:3]), UnitQuaternion(*row[3:]))
            expect = compose(q, orig.orientation)
            assert rotation_angle_deg(out.orientation, expect) < 1e-6
            assert translation_distance(out.position, t.apply_point(orig.position)) < 1e-12


class TestSummarizeErrors:
    def test_median_matches_sort_oracle(self, rng):
        for n in (1, 2, 5, 8, 51):
            pos, ori = errors(n, rng, 3, 20)
            rep = summarize_errors(pos, ori)
            assert rep.median_pos == pytest.approx(sort_median(pos))
            assert rep.median_ori == pytest.approx(sort_median(ori))

    def test_cdf_ladders_cover_fixed_thresholds(self, rng):
        rep = summarize_errors(*errors(30, rng, 3, 20))
        assert tuple(d for d, _ in rep.cdf_pos) == CDF_POS_THRESHOLDS
        assert tuple(d for d, _ in rep.cdf_ori) == CDF_ORI_THRESHOLDS

    def test_to_dict_shape(self):
        rep = summarize_errors(np.array([0.1]), np.array([0.5]))
        d = rep.to_dict()
        assert d["count"] == 1
        assert set(d["precision"]) == {"high", "medium", "low"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            summarize_errors(np.array([]), np.array([]))

    def test_validation(self):
        ok = np.array([0.1, 0.2])
        with pytest.raises(ValueError, match="pos_err"):
            summarize_errors(np.array([0.1, -0.1]), ok)
        with pytest.raises(ValueError, match="pos_err"):
            summarize_errors(np.array([0.1, math.nan]), ok)
        with pytest.raises(ValueError, match="ori_err"):
            summarize_errors(ok, np.array([0.0, 200.0]))
        with pytest.raises(ValueError, match="ori_err"):
            summarize_errors(ok, np.array([-1.0, 0.0]))
        with pytest.raises(ValueError, match="index-aligned"):
            summarize_errors(ok, np.array([0.5]))

    def test_bad_value_printed_as_a_float(self):
        ok = np.array([0.1, 0.2])
        with pytest.raises(ValueError, match=r"pos_err must be finite and >= 0, got inf$"):
            summarize_errors(np.array([0.1, math.inf]), ok)
        with pytest.raises(ValueError, match=r"ori_err must be in \[0, 180\], got 200\.0$"):
            summarize_errors(ok, np.array([0.0, 200.0]))


class TestAlignAndEvaluate:
    def test_exact_track_scores_zero(self):
        track = track_array(curved_track(40))
        ts = [float(i) for i in range(40)]
        rep = align_and_evaluate(track, track, 30.0, ts)
        assert rep.median_pos == pytest.approx(0.0, abs=1e-9)
        assert rep.buckets.high == 1.0

    def test_rigidly_moved_track_recovered(self, rng):
        gt = curved_track(40)
        ts = [float(i) for i in range(40)]
        t = RigidTransform(random_quaternion(rng), random_vec3(rng))
        est = [t.apply_pose(p) for p in gt]
        rep = align_and_evaluate(track_array(est), track_array(gt), 30.0, ts)
        assert rep.median_pos == pytest.approx(0.0, abs=1e-8)
        assert rep.median_ori == pytest.approx(0.0, abs=1e-5)

    def test_linear_drift_after_clean_window(self):
        # Clean opening window, then 0.01 m per frame of drift: the fit is
        # exact on the window and the error profile is the drift ramp.
        n, window = 100, 30
        gt = curved_track(n, ori_step=0.0)
        ts = [float(i) for i in range(n)]
        est = []
        for i, p in enumerate(gt):
            drift = 0.01 * max(0, i - (window - 1))
            est.append(Pose(p.position + Vec3(0.0, drift, 0.0), p.orientation))
        rep = align_and_evaluate(track_array(est), track_array(gt), float(window), ts)
        expected = [0.01 * max(0, i - (window - 1)) for i in range(n)]
        assert rep.median_pos == pytest.approx(sort_median(expected), abs=1e-6)
        assert rep.mean_pos == pytest.approx(sum(expected) / n, abs=1e-6)

    def test_window_too_small_rejected(self):
        track = track_array(curved_track(10))
        ts = [float(i) * 20.0 for i in range(10)]
        with pytest.raises(ValueError, match="at least 3"):
            align_and_evaluate(track, track, 30.0, ts)

    def test_length_mismatch_rejected(self):
        track = track_array(curved_track(10))
        with pytest.raises(ValueError, match="aligned"):
            align_and_evaluate(track, track[:9], 30.0, [float(i) for i in range(10)])
