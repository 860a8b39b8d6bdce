import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import posefuse.metrics
from posefuse.fusion import ReferencePair, optimize_pose
from posefuse.geometry import (
    Pose,
    _normalize,
    apply_rigid,
    odometry,
    track_array,
)
from posefuse.metrics import (
    CDF_ORI_THRESHOLDS,
    CDF_POS_THRESHOLDS,
    PrecisionBuckets,
    _sorted_summary,
    absolute_pose_error,
    align_and_evaluate,
    kabsch_align,
    precision_buckets,
    relative_errors,
    summarize_errors,
)
from helpers import (
    quat_product, random_pose, random_quaternion, random_vec3, rotation_about, rotation_angle_deg, unit_quaternion,
)
from oracles import chordal_distance, rigid_map_pose, rotation_matrix, sort_median

X = (1.0, 0.0, 0.0)
Z = (0.0, 0.0, 1.0)
IDENTITY = (1.0, 0.0, 0.0, 0.0)


def one(pose):
    return track_array([pose])


def points(vecs):
    return np.array(list(vecs))


def moved_points(fit, pts):
    """(N, 3) points under a fitted (q, t) map, through the rotation
    matrix written out in tests/oracles.py."""
    q, t = fit
    return pts @ rotation_matrix(q).T + t


def rigid(q, t, poses) -> np.ndarray:
    """The track of poses under the rigid map (q, t), by apply_rigid."""
    return apply_rigid(np.array(q), np.array(t), track_array(poses))


def errors(n, rng, pos_hi, ori_hi):
    return rng.uniform(0, pos_hi, size=n), rng.uniform(0, ori_hi, size=n)


def curved_track(n, ori_step=3.0):
    """Non-collinear positions with slowly turning orientations."""
    poses = []
    for i in range(n):
        pos = (float(i), math.sin(0.3 * i), 0.2 * math.cos(0.5 * i))
        ori = rotation_about(Z, ori_step * i)
        poses.append(Pose(*pos, *ori))
    return poses


class TestAbsolutePoseError:
    def test_exact_match(self, rng):
        p = one(random_pose(rng))
        pos, ori = absolute_pose_error(p, p)
        assert pos[0] == 0.0
        assert ori[0] == pytest.approx(0.0, abs=1e-5)

    def test_constructed_offsets(self, rng):
        gt = random_pose(rng)
        p = gt.position
        est = Pose(p.x, p.y, p.z + 0.25, *quat_product(rotation_about(X, 2.0), gt.orientation))
        pos, ori = absolute_pose_error(one(est), one(gt))
        assert pos[0] == pytest.approx(0.25, abs=1e-12)
        assert ori[0] == pytest.approx(2.0, abs=1e-9)

    def test_negated_orientation_is_zero_error(self, rng):
        gt = random_pose(rng)
        q = gt.orientation
        est = Pose(*gt.position, -q.w, -q.x, -q.y, -q.z)
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
        est[:100] = [Pose(*e.position, *quat_product(rotation_about(X, float(a)), g.orientation))
                     for e, g, a in zip(est, gt, rng.uniform(0.0, 1e-3, 100))]
        pos, ori = absolute_pose_error(track_array(est), track_array(gt))
        expect = [odometry(g, e) for e, g in zip(est, gt)]
        assert pos.tolist() == [dist for dist, _ in expect]
        assert ori.tolist() == [angle for _, angle in expect]

    def test_relative_errors(self, rng):
        a = [random_pose(rng) for _ in range(300)]
        b = [random_pose(rng) for _ in range(300)]
        got = relative_errors(track_array(a), track_array(b))
        expect = []
        for i in range(len(a) - 1):
            (dist_a, angle_a), (dist_b, angle_b) = odometry(a[i], a[i + 1]), odometry(b[i], b[i + 1])
            expect.append([abs(dist_a - dist_b), abs(angle_a - angle_b)])
        assert got.tolist() == expect

    def test_apply_alignment(self, rng):
        # apply_rigid maps each row as optimize_pose, its float form,
        # maps the pose.
        ref = ReferencePair(random_pose(rng), random_pose(rng))
        t, q = ref._map
        poses = [random_pose(rng) for _ in range(300)]
        expect = track_array([optimize_pose(p, ref) for p in poses])
        assert apply_rigid(np.array(q), np.array(t), track_array(poses)).tolist() == expect.tolist()


class TestRelativeErrors:
    def test_identical_tracks(self):
        track = track_array(curved_track(10))
        rel = relative_errors(track, track)
        assert rel.shape == (9, 2)
        assert (rel == 0.0).all()

    def test_rigid_transform_invariance(self, rng):
        track = curved_track(10)
        moved = rigid(random_quaternion(rng), random_vec3(rng), track)
        for rpe, roe in relative_errors(moved, track_array(track)):
            assert rpe == pytest.approx(0.0, abs=1e-9)
            assert roe == pytest.approx(0.0, abs=1e-5)

    def test_step_length_difference(self):
        a = [Pose(i * 1.0, 0, 0, *IDENTITY) for i in range(5)]
        b = [Pose(i * 1.1, 0, 0, *IDENTITY) for i in range(5)]
        for rpe, roe in relative_errors(track_array(a), track_array(b)):
            assert rpe == pytest.approx(0.1, abs=1e-12)
            assert roe == 0.0

    def test_validation(self):
        track = track_array(curved_track(4))
        with pytest.raises(ValueError, match="differ in length"):
            relative_errors(track, track[:3])
        with pytest.raises(ValueError, match="two poses"):
            relative_errors(track[:1], track[:1])


def cdf_at(errors, d):
    """The fraction of errors at or under d, as _sorted_summary samples
    it for summarize_errors."""
    return _sorted_summary(np.asarray(errors, dtype=float), (d,))[1][0][1]


class TestEmpiricalCdf:
    def test_inclusive_boundary(self):
        assert cdf_at([0.05, 0.2, 0.5], 0.2) == pytest.approx(2 / 3)

    def test_infinity_covers_all(self):
        assert cdf_at([0.1, 5.0, 99.0], math.inf) == 1.0

    def test_below_minimum(self):
        assert cdf_at([0.1, 5.0], 0.05) == 0.0

    def test_monotone_and_reaches_one(self, rng):
        errors = list(rng.uniform(0.0, 4.0, size=50))
        prev = 0.0
        for d in np.linspace(0.0, 4.0, 40):
            frac = cdf_at(errors, float(d))
            assert frac >= prev
            prev = frac
        assert cdf_at(errors, max(errors)) == 1.0


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
        q, t = kabsch_align(pts, pts)
        # 1e-5 deg is the resolution of rotation_angle_deg near zero.
        assert rotation_angle_deg(unit_quaternion(*q), IDENTITY) < 1e-5
        assert np.linalg.norm(t) < 1e-9

    def test_pure_translation(self, rng):
        src = points(random_vec3(rng) for _ in range(6))
        dst = src + np.array([1.0, 2.0, 3.0])
        q, t = kabsch_align(src, dst)
        assert rotation_angle_deg(unit_quaternion(*q), IDENTITY) < 1e-5
        np.testing.assert_allclose(t, [1, 2, 3], atol=1e-9)

    def test_recovers_rotation_and_translation(self, rng):
        true = rotation_about(Z, 30.0)
        src = points(random_vec3(rng, scale=5.0) for _ in range(10))
        dst = moved_points((true, (0.5, -1.0, 2.0)), src)
        fit = kabsch_align(src, dst)
        assert rotation_angle_deg(unit_quaternion(*fit[0]), true) < 1e-5
        assert np.linalg.norm(moved_points(fit, src) - dst, axis=1).max() < 1e-6

    def test_mirror_target_gets_best_proper_rotation(self, rng):
        # The unconstrained fit of a mirror image is a reflection; the
        # determinant flip must turn it into the best proper rotation,
        # whose residual scipy's fit gives independently.
        for _ in range(20):
            src = rng.normal(size=(8, 3)) * [3.0, 2.0, 1.0]
            dst = src * [1.0, 1.0, -1.0] + rng.normal(size=3)
            fit = kabsch_align(src, dst)
            moved = moved_points(fit, src)
            residual = math.sqrt(((moved - dst) ** 2).sum())
            _, rssd = Rotation.align_vectors(dst - dst.mean(axis=0), src - src.mean(axis=0))
            assert residual == pytest.approx(rssd, abs=1e-9)

    def test_collinear_rejected(self):
        src = points((float(i), 0.0, 0.0) for i in range(5))
        dst = points((0.0, float(i), 0.0) for i in range(5))
        with pytest.raises(ValueError, match="rank deficient"):
            kabsch_align(src, dst)

    def test_too_few_points_rejected(self, rng):
        pts = points(random_vec3(rng) for _ in range(2))
        with pytest.raises(ValueError, match="at least 3"):
            kabsch_align(pts, pts)

    def test_never_worse_than_identity(self, rng):
        for _ in range(20):
            src = points(random_vec3(rng) for _ in range(8))
            dst = points(random_vec3(rng) for _ in range(8))
            fit = kabsch_align(src, dst)
            fit_res = ((moved_points(fit, src) - dst) ** 2).sum()
            id_res = ((src - dst) ** 2).sum()
            assert fit_res <= id_res + 1e-9

    @staticmethod
    def assert_matches_scipy_fit(src, dst):
        """The fitted rotation is scipy's align_vectors fit of the
        centered points, up to the double cover, and keeps the sign rule."""
        got, t = kabsch_align(src, dst)
        best, _ = Rotation.align_vectors(dst - dst.mean(axis=0), src - src.mean(axis=0))
        x, y, z, w = best.as_quat()
        want = np.array([w, x, y, z])
        assert got[0] >= 0.0
        np.testing.assert_allclose(got, want * np.sign(got @ want), atol=1e-12)
        np.testing.assert_allclose(t, dst.mean(axis=0) - best.apply(src.mean(axis=0)), atol=1e-12)
        return got

    def test_matches_scipy_on_identity_half_turns_and_tilted_turns(self, rng):
        # A half turn about x, y or z has w = 0, where the sign rule
        # falls to the vector part; turns of 60 and 160 deg about axes
        # tilted off x, y and z mix every component.
        tilt = np.array([0.3, -0.2, 0.25])
        rotations = [Rotation.identity()]
        for axis in np.eye(3):
            tilted = (axis + tilt) / np.linalg.norm(axis + tilt)
            rotations += [
                Rotation.from_rotvec(math.pi * axis),
                Rotation.from_rotvec(math.radians(60.0) * tilted),
                Rotation.from_rotvec(math.radians(160.0) * tilted),
            ]
        for r in rotations:
            src = rng.normal(size=(8, 3)) * [3.0, 2.0, 1.0]
            got = self.assert_matches_scipy_fit(src, r.apply(src) + rng.normal(size=3))
            x, y, z, w = r.as_quat()
            assert abs(got @ [w, x, y, z]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy_on_noisy_random_rotations(self, rng):
        for _ in range(100):
            q = random_quaternion(rng)
            r = Rotation.from_quat([q.x, q.y, q.z, q.w])
            src = rng.normal(size=(8, 3)) * [3.0, 2.0, 1.0]
            dst = r.apply(src) + rng.normal(size=3) + rng.normal(scale=0.3, size=(8, 3))
            self.assert_matches_scipy_fit(src, dst)

    def test_rotation_is_the_eigenvector_normalized_again(self, rng, monkeypatch):
        # q is _normalize of Horn's top eigenvector, bit for bit: the
        # second normalization moves the last bit of some rows, and the
        # pinned reports hold it.  (q, t) under apply_rigid carries each
        # source point onto its target.
        tops = []
        real = posefuse.metrics._top_quaternions
        monkeypatch.setattr(posefuse.metrics, "_top_quaternions", lambda m: tops.append(real(m)) or tops[-1])
        renormalized = 0
        for _ in range(100):
            q_true = random_quaternion(rng)
            src = rng.normal(size=(8, 3)) * [3.0, 2.0, 1.0]
            dst = Rotation.from_quat([q_true.x, q_true.y, q_true.z, q_true.w]).apply(src) + rng.normal(size=3)
            q, t = kabsch_align(src, dst)
            top = tops[-1][0].tolist()
            assert [x.hex() for x in q.tolist()] == [x.hex() for x in _normalize(top)]
            renormalized += q.tolist() != top
            track = np.column_stack((src, np.tile([1.0, 0.0, 0.0, 0.0], (len(src), 1))))
            aligned = apply_rigid(q, t, track)
            assert np.abs(aligned[:, :3] - dst).max() < 1e-9
            assert chordal_distance(aligned[0, 3:], q_true) < 1e-9
        assert len(tops) == 100 and renormalized > 0


class TestApplyAlignment:
    """An alignment (q, t) applied to a track by apply_rigid, as
    align_and_evaluate applies kabsch_align's fit."""

    def test_orientations_pick_up_rotation_on_the_left(self, rng):
        q, t = random_quaternion(rng), random_vec3(rng)
        poses = curved_track(5)
        aligned = rigid(q, t, poses)
        assert aligned.shape == (5, 7)
        for orig, row in zip(poses, aligned):
            pos, quat = rigid_map_pose(q, t, orig.position, orig.orientation)
            assert rotation_angle_deg(unit_quaternion(*row[3:]), unit_quaternion(*quat)) < 1e-6
            assert math.dist(row[:3], pos) < 1e-12


class TestSummarizeErrors:
    def test_median_matches_sort_oracle(self, rng):
        for n in (1, 2, 5, 8, 51):
            pos, ori = errors(n, rng, 3, 20)
            rep = summarize_errors(pos, ori)
            assert rep.median_pos == pytest.approx(sort_median(pos))
            assert rep.median_ori == pytest.approx(sort_median(ori))

    def test_medians_equal_np_median_bit_for_bit(self, rng):
        for n in (1, 2, 3, 4, 51, 52):
            pos, ori = errors(n, rng, 3, 20)
            rep = summarize_errors(pos, ori)
            assert float.hex(rep.median_pos) == float.hex(float(np.median(pos)))
            assert float.hex(rep.median_ori) == float.hex(float(np.median(ori)))

    def test_cdf_samples_equal_empirical_cdf(self, rng):
        # Some values sit exactly on a threshold, one or two of them each;
        # the inclusive count must take them all.
        pos = np.concatenate([rng.uniform(0, 12, 60), CDF_POS_THRESHOLDS, CDF_POS_THRESHOLDS[::2]])
        ori = np.concatenate([rng.uniform(0, 180, 60), CDF_ORI_THRESHOLDS, CDF_ORI_THRESHOLDS[::2]])
        rng.shuffle(pos)
        rng.shuffle(ori)
        rep = summarize_errors(pos, ori)
        assert rep.cdf_pos == tuple((d, np.count_nonzero(pos <= d) / len(pos)) for d in CDF_POS_THRESHOLDS)
        assert rep.cdf_ori == tuple((d, np.count_nonzero(ori <= d) / len(ori)) for d in CDF_ORI_THRESHOLDS)

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
        est = rigid(random_quaternion(rng), random_vec3(rng), gt)
        rep = align_and_evaluate(est, track_array(gt), 30.0, ts)
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
            pos = p.position
            est.append(Pose(pos.x, pos.y + drift, pos.z, *p.orientation))
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
